"""Algorithm selection: every threshold-crossover lookup, in one place.

Before this module, three mpn files each re-derived "which algorithm
runs at this size" from their own constants: the mul dispatcher walked
its :class:`~repro.mpn.mul.MulPolicy` ladder, ``div`` compared divisor
bits against ``NEWTON_DIV_THRESHOLD_BITS``, and Burnikel-Ziegler kept a
private limb threshold.  The planner needs the *same* answers to cost
and cache a request, so the lookups live here and the kernels call in.

Per-kernel overrides stay explicit parameters: callers that carry a
module-level threshold (``repro.mpn.div`` does, and tests monkeypatch
it) pass the value they see at call time; when a parameter is omitted
the default is read from the owning kernel module at call time, so a
monkeypatched kernel and a freshly lowered plan can never disagree.

Backend selection is size-free: :func:`auto_backend` answers
``packed`` at every width (``limb`` under ``REPRO_PACKED=0``).  The
limb ladder runs on a :class:`~repro.mpn.mul.MulPolicy`, the checked-in
``PYTHON_POLICY`` (:func:`active`) unless a caller pins another, and
:func:`fingerprint` condenses that policy into the tuple that salts
plan memo keys.  Like MPApca's, the thresholds are fixed in the source
(Section VII-B), not measured per host.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

from repro.analysis import env as _env

#: Kill switch: ``REPRO_PACKED=0`` forces the limb backend everywhere
#: (differential triage aid; normal selection ignores it).
PACKED_ENV = _env.PACKED.name

#: Fast-multiplication regimes, fastest-threshold last.  Selection walks
#: from the top: the highest regime whose threshold the smaller operand
#: reaches wins ("basecase" when none do).
MUL_LADDER = ("karatsuba", "toom3", "toom4", "toom6", "ssa")

#: How many pieces each regime splits an operand into (for descent
#: display; SSA's split varies with size and is reported as 0).
MUL_SPLIT = {"karatsuba": 2, "toom3": 3, "toom4": 4, "toom6": 6, "ssa": 0}

#: The one algorithm of a packed mul at every width: one CPython int
#: product (:func:`repro.mpn.packed.mul_packed_int`), which runs its
#: own Karatsuba in C, so the packed backend has no descent to select.
PACKED_MUL_ALGORITHM = "packed-product"


def mul_algorithm(min_limbs: int, policy) -> str:
    """The multiplication regime for operands of ``min_limbs`` limbs.

    ``policy`` is a :class:`~repro.mpn.mul.MulPolicy` (anything with
    the five ``*_limbs`` thresholds).
    """
    for name in reversed(MUL_LADDER):
        if min_limbs >= getattr(policy, name + "_limbs"):
            return name
    return "basecase"


def mul_chain(min_limbs: int, policy) -> List[Tuple[str, int]]:
    """The recursion descent ``[(algorithm, limbs), ...]`` down to base.

    Each fast regime recurses on pieces of roughly ``limbs/split``
    limbs (plus carry slack); the chain records which regimes a product
    of this size passes through before reaching the basecase.  SSA's
    piece size depends on the transform length, so the chain
    conservatively steps it down to the next regime boundary.
    """
    chain: List[Tuple[str, int]] = []
    limbs = max(1, min_limbs)
    while True:
        algorithm = mul_algorithm(limbs, policy)
        chain.append((algorithm, limbs))
        if algorithm == "basecase":
            return chain
        split = MUL_SPLIT[algorithm]
        if split:
            # Strict descent: the +1 carry slack can stall at tiny
            # sizes under degenerate policies (karatsuba floor <= 3),
            # where ceil(n/2)+1 == n would recurse forever.
            limbs = min(limbs - 1, -(-limbs // split) + 1)
        else:
            limbs = min(limbs - 1, max(1, policy.ssa_limbs - 1))


@functools.lru_cache(maxsize=None)
def _packed_enabled() -> bool:
    """The ``REPRO_PACKED`` kill switch, read once per process."""
    return _env.enabled(_env.PACKED)


def auto_backend() -> str:
    """``"packed"`` or ``"limb"``: what ``auto`` mul, sqr, div, mod and
    powmod resolve to, at every operand width.

    The packed kernels (:mod:`repro.mpn.packed`) are CPython int
    arithmetic on the request's ints and undercut the limb ladder from
    one limb up on the served path, so there is no crossover to look
    up: ``packed`` everywhere, ``limb`` only under the
    ``REPRO_PACKED=0`` kill switch.
    """
    return "packed" if _packed_enabled() else "limb"


def powmod_is_pow(backend: str) -> bool:
    """True when a powmod requested on ``backend`` runs as CPython
    ``pow``: the one packed step, the same for either modulus parity."""
    return backend == "packed" or (backend == "auto"
                                   and auto_backend() == "packed")


def div_algorithm(divisor_bits: int,
                  newton_threshold_bits: Optional[int] = None,
                  has_mul_fn: bool = True) -> str:
    """``"schoolbook"`` or ``"newton"`` for a divisor of this width.

    Newton division reduces to multiplications, so without a multiply
    callback (``has_mul_fn=False``) schoolbook is the only choice.  The
    default threshold is read from :mod:`repro.mpn.div` at call time,
    matching what the kernel itself would do.
    """
    if newton_threshold_bits is None:
        from repro.mpn import div as _div
        newton_threshold_bits = _div.NEWTON_DIV_THRESHOLD_BITS
    if not has_mul_fn or divisor_bits <= newton_threshold_bits:
        return "schoolbook"
    return "newton"


def bz_algorithm(divisor_limbs: int,
                 bz_threshold_limbs: Optional[int] = None) -> str:
    """``"schoolbook"`` or ``"burnikel-ziegler"`` for this divisor."""
    if bz_threshold_limbs is None:
        from repro.mpn import burnikel_ziegler as _bz
        bz_threshold_limbs = _bz.BZ_THRESHOLD_LIMBS
    if divisor_limbs < bz_threshold_limbs:
        return "schoolbook"
    return "burnikel-ziegler"


def active():
    """The :class:`~repro.mpn.mul.MulPolicy` the limb ladder runs on
    when no policy is given: the checked-in ``PYTHON_POLICY``."""
    from repro.mpn.mul import PYTHON_POLICY
    return PYTHON_POLICY


def fingerprint(policy=None) -> Tuple[int, ...]:
    """The ladder thresholds of ``policy`` (``PYTHON_POLICY`` when
    ``None``), the tuple that salts plan memo keys.

    Nothing is tuned per host, so for the default policy this is a
    constant; a plan lowered under another policy (e.g. MPApca's)
    carries that policy's ladder and therefore a different memo key.
    """
    if policy is None:
        policy = active()
    return (policy.karatsuba_limbs, policy.toom3_limbs,
            policy.toom4_limbs, policy.toom6_limbs, policy.ssa_limbs)
