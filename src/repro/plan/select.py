"""Algorithm selection: every threshold-crossover lookup, in one place.

Before this module, three mpn files each re-derived "which algorithm
runs at this size" from their own constants: the mul dispatcher walked
its :class:`~repro.mpn.mul.MulPolicy` ladder, ``div`` compared divisor
bits against ``NEWTON_DIV_THRESHOLD_BITS``, and Burnikel-Ziegler and
Barrett kept private limb thresholds.  The planner needs the *same*
answers to cost and cache a request, so the lookups live here and the
kernels call in.

Per-kernel overrides stay explicit parameters: callers that carry a
module-level threshold (``repro.mpn.div`` does, and tests monkeypatch
it) pass the value they see at call time; when a parameter is omitted
the default is read from the owning kernel module at call time, so a
monkeypatched kernel and a freshly lowered plan can never disagree.

The tuned :class:`~repro.mpn.tune.Thresholds` record is the single
source of truth for policy-level selection; :func:`active` loads it
(persisted file first, checked-in defaults otherwise) once per process,
:func:`reload` re-reads it, and :func:`fingerprint` condenses it into
the tuple that salts plan memo keys.
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

    ``policy`` is anything with the five ``*_limbs`` thresholds — a
    :class:`~repro.mpn.mul.MulPolicy` or a
    :class:`~repro.mpn.tune.Thresholds` record.
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
            # sizes under degenerate tunings (karatsuba floor <= 3),
            # where ceil(n/2)+1 == n would recurse forever.
            limbs = min(limbs - 1, -(-limbs // split) + 1)
        else:
            limbs = min(limbs - 1, max(1, policy.ssa_limbs - 1))


@functools.lru_cache(maxsize=None)
def _packed_enabled() -> bool:
    """The ``REPRO_PACKED`` kill switch, read once per process."""
    return _env.enabled(_env.PACKED)


def mul_backend(min_limbs: int, thresholds=None) -> str:
    """``"packed"`` or ``"limb"`` for a product of this size.

    The packed backend (:mod:`repro.mpn.packed`) wins once the pack/
    unpack round trip amortizes; the crossover is the tuned
    ``packed_mul_limbs`` threshold (0 disables the backend, as does the
    ``REPRO_PACKED=0`` kill switch).
    """
    if not _packed_enabled():
        return "limb"
    if thresholds is None:
        thresholds = active()
    crossover = getattr(thresholds, "packed_mul_limbs", 0)
    if crossover and min_limbs >= crossover:
        return "packed"
    return "limb"


def div_backend(divisor_limbs: int, thresholds=None) -> str:
    """``"packed"`` or ``"limb"`` for a division by this divisor."""
    if not _packed_enabled():
        return "limb"
    if thresholds is None:
        thresholds = active()
    crossover = getattr(thresholds, "packed_div_limbs", 0)
    if crossover and divisor_limbs >= crossover:
        return "packed"
    return "limb"


def powmod_backend() -> str:
    """``"packed"`` or ``"limb"`` for every modular exponentiation.

    The packed kernel, CPython's ``pow`` (:func:`repro.mpn.packed.
    powmod_packed_int`), beats the limb CIOS kernel from 8-bit moduli
    up, so there is no crossover: ``packed`` at every modulus width,
    ``limb`` only under the ``REPRO_PACKED=0`` kill switch.
    """
    return "packed" if _packed_enabled() else "limb"


def powmod_is_pow(backend: str) -> bool:
    """True when a powmod requested on ``backend`` runs as CPython
    ``pow``: the one packed step, the same for either modulus parity."""
    return backend == "packed" or (backend == "auto"
                                   and powmod_backend() == "packed")


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


def barrett_profitable(modulus_limbs: int,
                       barrett_limbs: Optional[int] = None) -> bool:
    """Whether a precomputed Barrett reducer beats repeated division."""
    if barrett_limbs is None:
        barrett_limbs = active().barrett_limbs
    return modulus_limbs >= barrett_limbs


def active():
    """The tuned :class:`~repro.mpn.tune.Thresholds` for this host."""
    from repro.mpn.tune import active_thresholds
    return active_thresholds()


def reload() -> None:
    """Re-read the thresholds file and the ``REPRO_PACKED`` switch.

    Both are read once per process, so that no ``auto`` dispatch and
    no :func:`~repro.plan.lowering.lower` touches the disk or the
    environment; ``repro tune`` calls this after persisting, and tests
    call it after retargeting either.  A running server keeps the
    tuning it booted with until it restarts.
    """
    from repro.mpn.tune import active_thresholds
    active_thresholds.cache_clear()
    _packed_enabled.cache_clear()


def fingerprint(thresholds=None) -> Tuple[int, ...]:
    """The tuple that identifies one tuning state (salts memo keys).

    Covers the thresholds schema version plus every crossover that can
    change an algorithm choice — including the packed-backend
    crossovers, so moving them can never serve a result cached under
    the other backend's plan; retuning with ``repro tune`` changes the
    fingerprint and therefore every plan memo key derived from it.
    """
    if thresholds is None:
        thresholds = active()
    return (
        getattr(thresholds, "version", 0),
        thresholds.karatsuba_limbs,
        thresholds.toom3_limbs,
        thresholds.toom4_limbs,
        thresholds.toom6_limbs,
        thresholds.ssa_limbs,
        getattr(thresholds, "bz_limbs", 0),
        getattr(thresholds, "barrett_limbs", 0),
        getattr(thresholds, "packed_mul_limbs", 0),
        getattr(thresholds, "packed_div_limbs", 0),
    )
