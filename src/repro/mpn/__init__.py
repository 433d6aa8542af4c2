"""The naturals kernel (GMP MPN equivalent) — public, profiled API.

Applications and the mpz/mpf layers call the wrappers defined here; each
wrapper marks itself as a kernel operator for :mod:`repro.profiling`
(nested invocations inside an outer kernel are attributed to that outer
kernel, like a flat ``sprof`` profile).  Algorithm implementations live
in the sibling modules and are deliberately unprofiled so their internal
recursion costs nothing extra.

Every value is a little-endian list of base ``2**32`` limbs (see
:mod:`repro.mpn.nat`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.mpn import div as _div
from repro.mpn import gcd as _gcd
from repro.mpn import montgomery as _montgomery
from repro.mpn import mul as _mul
from repro.mpn import nat as _nat
from repro.mpn import packed as _packed
from repro.mpn import sqrt as _sqrt
from repro.mpn.montgomery import MontgomeryContext
from repro.mpn.mul import (GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY,
                           MulPolicy)
from repro.mpn.nat import (LIMB_BASE, LIMB_BITS, LIMB_MASK, MpnError, Nat,
                           bit_length, cmp, get_bit, is_zero, nat_from_int,
                           nat_to_int, normalize)
from repro.profiling import kernel

#: Policy used by the profiled wrappers; mutable so the runtime layer can
#: swap GMP-style thresholds for MPApca-style ones (Section VII-B).
_ACTIVE_POLICY: MulPolicy = PYTHON_POLICY


def set_policy(policy: MulPolicy) -> MulPolicy:
    """Set the dispatcher policy for the profiled API; returns the old one."""
    global _ACTIVE_POLICY
    previous = _ACTIVE_POLICY
    _ACTIVE_POLICY = policy
    return previous


def get_policy() -> MulPolicy:
    """The dispatcher policy currently used by the profiled API."""
    return _ACTIVE_POLICY


def use_tuned_policy() -> MulPolicy:
    """Activate the host-tuned thresholds (``repro tune`` output, or the
    checked-in defaults when nothing was tuned); returns the old policy."""
    from repro.mpn.tune import tuned_policy
    return set_policy(tuned_policy())


def _use_packed_linear(a: Nat, b: Nat = ()) -> bool:
    """Route O(n) kernels through the block-packed path when it wins.

    Sub stays on the limb path (measured at parity): the packed borrow
    chain buys nothing once the pack round trip is paid.
    """
    from repro.plan import select as _select
    return (max(len(a), len(b)) >= _packed.LINEAR_PACK_MIN_LIMBS
            and _select.mul_backend(_packed.LINEAR_PACK_MIN_LIMBS)
            == "packed")


def add(a: Nat, b: Nat) -> Nat:
    """Profiled addition of naturals."""
    with kernel("add", bit_length(a), bit_length(b)):
        if _use_packed_linear(a, b):
            return _packed.add_packed(a, b)
        return _nat.add(a, b)


def sub(a: Nat, b: Nat) -> Nat:
    """Profiled subtraction (requires a >= b)."""
    with kernel("sub", bit_length(a), bit_length(b)):
        return _nat.sub(a, b)


def shl(a: Nat, count: int) -> Nat:
    """Profiled left shift."""
    with kernel("shift", bit_length(a), count):
        if _use_packed_linear(a):
            return _packed.shl_packed(a, count)
        return _nat.shl(a, count)


def shr(a: Nat, count: int) -> Nat:
    """Profiled right shift."""
    with kernel("shift", bit_length(a), count):
        if _use_packed_linear(a):
            return _packed.shr_packed(a, count)
        return _nat.shr(a, count)


def compare(a: Nat, b: Nat) -> int:
    """Profiled three-way comparison."""
    with kernel("cmp", bit_length(a), bit_length(b)):
        return _nat.cmp(a, b)


def mul(a: Nat, b: Nat, policy: Optional[MulPolicy] = None,
        backend: str = "auto") -> Nat:
    """Profiled multiplication under the active (or given) policy."""
    with kernel("mul", bit_length(a), bit_length(b)):
        return _mul.mul(a, b, policy or _ACTIVE_POLICY, backend)


def sqr(a: Nat, policy: Optional[MulPolicy] = None,
        backend: str = "auto") -> Nat:
    """Profiled squaring."""
    with kernel("mul", bit_length(a), bit_length(a)):
        return _mul.sqr(a, policy or _ACTIVE_POLICY, backend)


def divmod_nat(a: Nat, b: Nat, backend: str = "auto") -> Tuple[Nat, Nat]:
    """Profiled (quotient, remainder)."""
    with kernel("div", bit_length(a), bit_length(b)):
        return _div.divmod_nat(a, b, _unprofiled_mul, backend)


def mod(a: Nat, b: Nat, backend: str = "auto") -> Nat:
    """Profiled remainder."""
    with kernel("mod", bit_length(a), bit_length(b)):
        return _div.divmod_nat(a, b, _unprofiled_mul, backend)[1]


def divexact(a: Nat, b: Nat) -> Nat:
    """Profiled exact division."""
    with kernel("div", bit_length(a), bit_length(b)):
        return _div.divexact(a, b, _unprofiled_mul)


def isqrt(a: Nat) -> Nat:
    """Profiled floor square root."""
    with kernel("sqrt", bit_length(a)):
        return _sqrt.isqrt(a, _unprofiled_mul)


def sqrtrem(a: Nat) -> Tuple[Nat, Nat]:
    """Profiled floor square root with remainder."""
    with kernel("sqrt", bit_length(a)):
        return _sqrt.sqrtrem(a, _unprofiled_mul)


def iroot(a: Nat, k: int) -> Nat:
    """Profiled floor k-th root."""
    with kernel("sqrt", bit_length(a), k):
        return _sqrt.iroot(a, k, _unprofiled_mul)


def powmod(base: Nat, exponent: Nat, modulus: Nat,
           backend: str = "auto") -> Nat:
    """Profiled modular exponentiation.

    ``backend="auto"`` asks :func:`repro.plan.select.powmod_backend`:
    the packed kernel (CPython ``pow``) at every modulus width, or the
    limb CIOS kernel under ``REPRO_PACKED=0``.  ``"packed"``/``"limb"``
    pin the choice explicitly.  Both kernels produce the unique
    canonical residue, bit-identically.
    """
    with kernel("powmod", bit_length(modulus), bit_length(exponent)):
        if backend == "auto":
            from repro.plan import select as _select
            backend = _select.powmod_backend()
        if backend == "packed":
            return _packed.powmod_packed(base, exponent, modulus)
        if backend != "limb":
            raise MpnError("unknown powmod backend %r (expected auto, "
                           "limb, or packed)" % (backend,))
        return _montgomery.powmod(base, exponent, modulus, _unprofiled_mul,
                                  "limb")


def gcd(a: Nat, b: Nat) -> Nat:
    """Profiled greatest common divisor."""
    with kernel("div", bit_length(a), bit_length(b)):
        return _gcd.gcd(a, b)


def invmod(a: Nat, modulus: Nat) -> Nat:
    """Profiled modular inverse."""
    with kernel("div", bit_length(a), bit_length(modulus)):
        return _gcd.invmod(a, modulus, _unprofiled_mul)


def _unprofiled_mul(a: Nat, b: Nat) -> Nat:
    """Internal multiplier for composite kernels (div, sqrt, powmod)."""
    return _mul.mul(a, b, _ACTIVE_POLICY)


__all__ = [
    "GMP_POLICY", "LIMB_BASE", "LIMB_BITS", "LIMB_MASK", "MPAPCA_POLICY",
    "MontgomeryContext", "MpnError", "MulPolicy", "Nat", "PYTHON_POLICY",
    "add", "bit_length", "cmp", "compare", "divexact", "divmod_nat", "gcd",
    "get_bit", "get_policy", "invmod", "iroot", "is_zero", "isqrt", "mod", "mul",
    "nat_from_int", "nat_to_int", "normalize", "powmod", "set_policy",
    "shl", "shr", "sqr", "sqrtrem", "sub", "use_tuned_policy",
]
