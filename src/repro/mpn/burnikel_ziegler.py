"""Burnikel-Ziegler recursive division (the D&C division of Table I).

GMP's subquadratic division is the Burnikel-Ziegler scheme: a 2n-by-n
division splits into two (3/2)n-by-n steps, each of which splits the
dividend's top three half-blocks against the divisor's two halves and
patches the estimate with one multiply — giving the O(M(n) log n)
class of Table I's "Karatsuba division" row by a different route than
the Newton reciprocal in :mod:`repro.mpn.div`.  Having both lets the
test suite cross-check three independent division algorithms.

Reference: Burnikel & Ziegler, *Fast Recursive Division*, MPI-I-98-1-022.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.mpn import nat
from repro.mpn.div import basecase_divmod, divmod_digits
from repro.mpn.nat import LIMB_BITS, MpnError, Nat
from repro.plan import select as _select

MulFn = Callable[[Nat, Nat], Nat]

#: Below this many divisor limbs, fall back to Algorithm D.  Read at
#: call time and passed to :func:`repro.plan.select.bz_algorithm` as an
#: explicit override (monkeypatch-friendly, planner-visible).
BZ_THRESHOLD_LIMBS = 24


def _div_2n1n(high: Nat, low: Nat, divisor: Nat, half_limbs: int,
              mul_fn: MulFn) -> Tuple[Nat, Nat]:
    """Divide (high*B^n + low) by an n-limb divisor, n = 2*half.

    Requires the quotient to fit n limbs (high < divisor) and the
    divisor normalized (top bit set).
    """
    n = 2 * half_limbs
    if n <= BZ_THRESHOLD_LIMBS:
        dividend = nat.add(nat.shl(high, n * LIMB_BITS), low)
        # Route through the dispatcher-level basecase so the packed
        # kernels are picked up whenever ``auto`` selects them.
        return basecase_divmod(dividend, divisor)
    low_padded = _pad(list(low), n)
    low_lo = nat.normalize(low_padded[:half_limbs])
    low_hi = nat.normalize(low_padded[half_limbs:])
    # First 3n/2-by-n step: (high, top half of low).
    q_high, remainder = _div_3n2n(high, low_hi, divisor, half_limbs,
                                  mul_fn)
    # Second step: (remainder, bottom half of low).
    q_low, remainder = _div_3n2n(remainder, low_lo, divisor, half_limbs,
                                 mul_fn)
    quotient = nat.add(nat.shl(q_high, half_limbs * LIMB_BITS), q_low)
    return nat.normalize(quotient), remainder


def _div_3n2n(a12: Nat, a3: Nat, divisor: Nat, half_limbs: int,
              mul_fn: MulFn) -> Tuple[Nat, Nat]:
    """Divide (a12*B^half + a3) by the 2*half-limb normalized divisor.

    Preconditions (Burnikel-Ziegler D3n/2n): a12 < divisor, a3 has at
    most half limbs.  The quotient fits half limbs; the remainder is
    below the divisor.
    """
    shift_bits = half_limbs * LIMB_BITS
    divisor_hi = nat.normalize(list(divisor[half_limbs:]))
    divisor_lo = nat.normalize(list(divisor[:half_limbs]))
    a12_padded = _pad(list(a12), 2 * half_limbs)
    a_top = nat.normalize(list(a12_padded[half_limbs:]))

    if nat.cmp(a_top, divisor_hi) < 0:
        # Estimate against the divisor's top half (recursive D2n/1n).
        a_low = nat.normalize(list(a12_padded[:half_limbs]))
        quotient, rem_top = _div_2n1n(a_top, a_low, divisor_hi,
                                      half_limbs // 2, mul_fn)
    else:
        # Quotient saturates at B^half - 1 (a12 < divisor guarantees
        # this bound); c = a12 - (B^half - 1)*b_hi = a12 - b_hi<<half
        # + b_hi.
        quotient = [nat.LIMB_MASK] * half_limbs
        rem_top = nat.sub(nat.add(nat.normalize(list(a12)), divisor_hi),
                          nat.shl(divisor_hi, shift_bits))

    candidate = nat.add(nat.shl(rem_top, shift_bits), a3)
    correction = mul_fn(nat.normalize(list(quotient)), divisor_lo)
    # The estimate overshoots by at most 2.
    while nat.cmp(candidate, correction) < 0:
        quotient = nat.sub(nat.normalize(list(quotient)), [1])
        candidate = nat.add(candidate, divisor)
    return nat.normalize(list(quotient)), nat.sub(candidate, correction)


def _pad(limbs: Nat, count: int) -> List[int]:
    """Raw limb buffer padded with zeros to exactly ``count`` entries.

    The result is a positional buffer for slicing, *not* a Nat: it may
    carry trailing zeros and must not escape into the nat kernels.
    """
    return list(limbs) + [0] * (count - len(limbs))


def divmod_bz(a: Nat, b: Nat, mul_fn: MulFn) -> Tuple[Nat, Nat]:
    """Exact (quotient, remainder) by Burnikel-Ziegler recursion."""
    if nat.is_zero(b):
        raise MpnError("division by zero")
    if nat.cmp(a, b) < 0:
        return [], list(a)
    # select's threshold is the smallest *winning* size, so the legacy
    # "at or below stays schoolbook" constant maps to threshold + 1.
    if _select.bz_algorithm(len(b), BZ_THRESHOLD_LIMBS + 1) \
            == "schoolbook":
        return basecase_divmod(a, b)

    # Normalize: divisor length a power-of-two multiple of limbs with
    # the top bit set; scale the dividend identically.
    target = 1 << max(1, (len(b) - 1)).bit_length()
    shift = target * LIMB_BITS - nat.bit_length(b)
    a_norm = nat.shl(a, shift)
    b_norm = nat.shl(b, shift)
    b_norm = _pad(b_norm, target)

    # Divide a_norm digit by digit, each digit one _div_2n1n over
    # ``target`` limbs.  (The digits arrive normalized; _div_2n1n pads
    # internally -- padding here leaked a trailing-zero buffer into
    # nat.add / divmod_schoolbook in the basecase branch.)
    quotient, remainder = divmod_digits(
        a_norm, target, lambda high, low: _div_2n1n(
            high, low, b_norm, target // 2, mul_fn))
    return quotient, nat.shr(remainder, shift)
