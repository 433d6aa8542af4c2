"""Multiplication dispatcher with tunable algorithm-selection policies.

GMP selects among schoolbook / Karatsuba / Toom-k / SSA by comparing the
operand size to compile-time tuned thresholds (Section II-A); MPApca does
the same but — because Cambricon-P executes monolithic multiplications of
up to 35,904 bits directly in hardware — no longer needs the schoolbook
basecase, and the fast-algorithm ranges are "delayed accordingly"
(Section VII-B).  Both behaviours are expressed here as
:class:`MulPolicy` instances consumed by :func:`mul`.

Thresholds are in limbs (32-bit words).  The GMP-style defaults follow
the shape of GMP 6.2's x86-64 tuning; the exact values matter only in
that they produce the same regime ordering the paper's Figure 11 relies
on (schoolbook < Karatsuba < Toom-3 < Toom-4 < Toom-6 < SSA).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.mpn import nat
from repro.plan import select as _select
from repro.mpn.karatsuba import mul_karatsuba, sqr_karatsuba
from repro.mpn.packed import mul_packed, sqr_packed
from repro.mpn.schoolbook import mul_schoolbook, sqr_schoolbook
from repro.mpn.ssa import mul_ssa
from repro.mpn.toom import mul_toom
from repro.mpn.nat import MpnError, Nat

#: Backends the dispatcher understands.  ``auto`` resolves through
#: :func:`repro.plan.select.mul_backend` against the tuned packed
#: crossover; ``limb`` forces the per-limb algorithm ladder (what
#: explicit-policy callers and differential tests exercise); ``packed``
#: forces the block-packed kernels of :mod:`repro.mpn.packed`.
MUL_BACKENDS = ("auto", "limb", "packed")


@dataclass(frozen=True)
class MulPolicy:
    """Algorithm-selection thresholds (limbs) for the mul dispatcher.

    An operand pair is dispatched to the highest algorithm whose
    threshold does not exceed the smaller operand's limb count.  A
    ``basecase_limbs`` of 0 would mean no schoolbook at all; MPApca's
    policy instead sets it to the hardware's monolithic capability,
    because a "basecase" multiply on Cambricon-P *is* a single hardware
    operation.
    """

    name: str
    karatsuba_limbs: int
    toom3_limbs: int
    toom4_limbs: int
    toom6_limbs: int
    ssa_limbs: int

    def algorithm_for(self, min_limbs: int) -> str:
        """Name of the algorithm used for operands of this many limbs.

        Delegates to :func:`repro.plan.select.mul_algorithm` — the one
        crossover lookup the planner also prices and caches against —
        so dispatch and planning cannot drift.
        """
        return _select.mul_algorithm(min_limbs, self)


#: GMP-6.2-shaped thresholds (x86-64 tuning ballpark).
GMP_POLICY = MulPolicy(
    name="gmp",
    karatsuba_limbs=30,
    toom3_limbs=100,
    toom4_limbs=300,
    toom6_limbs=700,
    ssa_limbs=3000,
)

#: MPApca thresholds: the hardware multiplies up to 35,904 bits (= 1122
#: limbs) monolithically, so every fast-algorithm range is delayed until
#: splitting actually pays (Section VII-B).
MPAPCA_POLICY = MulPolicy(
    name="mpapca",
    karatsuba_limbs=1122,
    toom3_limbs=3366,
    toom4_limbs=8976,
    toom6_limbs=20000,
    ssa_limbs=90000,
)

#: Pure-software thresholds tuned for this Python implementation's own
#: constant factors (used when we want wall-clock speed, e.g. in apps).
PYTHON_POLICY = MulPolicy(
    name="python",
    karatsuba_limbs=24,
    toom3_limbs=96,
    toom4_limbs=384,
    toom6_limbs=1536,
    ssa_limbs=6144,
)


def _resolve_backend(backend: str, min_limbs: int) -> str:
    if backend == "auto":
        return _select.mul_backend(min_limbs)
    if backend not in MUL_BACKENDS:
        raise MpnError("unknown mul backend %r (expected one of %s)"
                       % (backend, ", ".join(MUL_BACKENDS)))
    return backend


# -- committed schedules ------------------------------------------------------
#
# The recursion structure is decided ONCE per (op, nominal size,
# policy) — a Schedule tree from repro.plan.schedule — and the
# dispatcher below *walks* it instead of re-querying thresholds at
# every level of every call.  Each node carries the floor its algorithm
# was selected at, so undersized operands (Karatsuba/Toom cross terms
# shrink unpredictably) descend to deeper levels exactly as per-call
# dispatch would have sent them.

@lru_cache(maxsize=512)
def _limb_schedule(op: str, min_limbs: int, policy: MulPolicy):
    """The committed pure-limb recursion schedule for one request."""
    from repro.plan.schedule import derive_schedule
    return derive_schedule(op, min_limbs, policy, backend="limb")


def _walk_mul(node, a: Nat, b: Nat) -> Nat:
    """Run one mul schedule level (descending past undersized floors)."""
    if not a or not b:
        return []
    min_limbs = min(len(a), len(b))
    while node.child is not None and min_limbs < node.floor:
        node = node.child
    algorithm = node.algorithm
    if algorithm == "basecase":
        return mul_schoolbook(a, b)
    child = node.child

    def recurse(x: Nat, y: Nat) -> Nat:
        return _walk_mul(child, x, y)

    if algorithm == "karatsuba":
        return mul_karatsuba(a, b, recurse)
    if algorithm == "toom3":
        return mul_toom(a, b, 3, recurse)
    if algorithm == "toom4":
        return mul_toom(a, b, 4, recurse)
    if algorithm == "toom6":
        return mul_toom(a, b, 6, recurse)
    return mul_ssa(a, b, recurse)


def _walk_sqr(node, a: Nat) -> Nat:
    """Run one sqr schedule level; Toom/SSA levels square via the
    general product of equal operands (same asymptotic class — GMP's
    dedicated Toom squaring saves only a constant factor)."""
    if not a:
        return []
    while node.child is not None and len(a) < node.floor:
        node = node.child
    if node.algorithm == "basecase":
        return sqr_schoolbook(a)
    if node.algorithm == "karatsuba":
        child = node.child
        return sqr_karatsuba(a, lambda x: _walk_sqr(child, x))
    return _walk_mul(node, a, a)


def mul(a: Nat, b: Nat, policy: MulPolicy = GMP_POLICY,
        backend: str = "auto") -> Nat:
    """Product of two naturals under the given selection policy.

    ``backend="auto"`` consults the tuned packed-vs-limb crossover and
    routes whole operands to :func:`repro.mpn.packed.mul_packed` when
    the packed backend wins; that is one CPython int product, which
    carries its own Karatsuba in C, so the limb ladder below only runs
    for the limb backend.  The limb ladder is a
    *committed schedule*: the full recursion structure is derived once
    per (size, policy) and walked without further threshold lookups.
    """
    if not a or not b:
        return []
    min_limbs = min(len(a), len(b))
    resolved = _resolve_backend(backend, min_limbs)
    if resolved == "packed":
        return mul_packed(a, b)
    return _walk_mul(_limb_schedule("mul", min_limbs, policy), a, b)


def sqr(a: Nat, policy: MulPolicy = GMP_POLICY,
        backend: str = "auto") -> Nat:
    """Square of a natural; uses dedicated squaring paths where they exist."""
    if not a:
        return []
    resolved = _resolve_backend(backend, len(a))
    if resolved == "packed":
        return sqr_packed(a)
    return _walk_sqr(_limb_schedule("sqr", len(a), policy), a)


def mul_int(a: Nat, b: Nat, policy: MulPolicy = GMP_POLICY,
            backend: str = "auto") -> Nat:
    """Alias retained for API symmetry with GMP's mpn_mul."""
    return mul(a, b, policy, backend)
