"""Schedules: the recursion structure of a kernel, reified.

The recursive mpn kernels used to re-decide their algorithm at every
level of every call: ``mul`` asked ``policy.algorithm_for`` on the way
down, division asked :func:`repro.plan.select.div_algorithm` per
call.  Those decisions are pure functions of the operand width and the
:class:`~repro.mpn.mul.MulPolicy`, so they can be made *once* — which
is exactly how Cambricon-P itself wins: commit to a fixed bitflow
schedule per operand width instead of re-deciding at every step.

A :class:`Schedule` is a small immutable tree describing that
commitment: one node per recursion level with the algorithm, the split
arity, the nominal operand size, and the threshold *floor* the
algorithm was selected at.  Leaves are basecases (schoolbook) or a
backend commitment (the block-packed kernels).  Division nodes carry
the multiplication sub-schedule their Newton reciprocal runs on.

The generic mpn dispatchers derive a schedule per (op, limbs, policy)
— memoized — and *walk* it instead of re-querying thresholds at every
recursion level (:mod:`repro.mpn.mul`); ``repro plan`` prints the same
tree.

Derivation reads only :mod:`repro.plan.select`, so a schedule, the
plan that prices it, and the kernels that execute it can never
disagree about what runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.plan import select

#: Multiplication regimes a schedule node may carry, beyond the
#: ``select.MUL_LADDER`` names: ``basecase`` (schoolbook leaf) and
#: ``packed`` (whole-operand block-backend commitment).
MUL_LEAVES = ("basecase", "packed")

#: Division regimes: ``newton`` carries a mul sub-schedule, the others
#: are leaves.
DIV_ALGORITHMS = ("newton", "schoolbook", "packed")


class ScheduleError(ValueError):
    """A malformed or internally inconsistent schedule."""


@dataclass(frozen=True)
class Schedule:
    """One recursion level of a committed kernel execution.

    ``floor`` is the smallest operand (limbs) this level's algorithm
    was selected for: executors descend to ``child`` while an actual
    operand is below it, which reproduces per-call threshold dispatch
    without any threshold lookup.  ``limbs`` is the *nominal* size the
    schedule was derived for (children shrink by ``ceil(limbs/split)+1``
    per level, the conservative carry-slack model of
    :func:`repro.plan.select.mul_chain`).
    """

    op: str                           # "mul" | "sqr" | "div"
    limbs: int                        # nominal operand limbs
    algorithm: str                    # regime name at this level
    floor: int = 0                    # threshold the regime starts at
    split: int = 0                    # pieces per level (0 for leaves)
    child: Optional["Schedule"] = None
    sub: Optional["Schedule"] = None  # div-newton's reciprocal muls

    # -- shape ---------------------------------------------------------------

    def levels(self) -> List["Schedule"]:
        """Root-to-leaf chain of this schedule's own recursion."""
        chain: List[Schedule] = []
        node: Optional[Schedule] = self
        while node is not None:
            chain.append(node)
            node = node.child
        return chain

    def leaf(self) -> "Schedule":
        return self.levels()[-1]

    def depth(self) -> int:
        return len(self.levels())

    def key(self) -> Tuple:
        """Structural identity (what a compiled kernel is keyed on)."""
        return (self.op, self.limbs, self.algorithm, self.floor,
                self.split,
                self.child.key() if self.child is not None else None,
                self.sub.key() if self.sub is not None else None)

    # -- display -------------------------------------------------------------

    def describe(self) -> str:
        """One line per level, e.g. ``toom4@1025 -> ... -> basecase@13``."""
        parts = ["%s@%d" % (node.algorithm, node.limbs)
                 for node in self.levels()]
        text = " -> ".join(parts)
        if self.sub is not None:
            text += " [mul: %s]" % self.sub.describe()
        return text

    def render(self, indent: str = "") -> str:
        """Multi-line tree for ``repro plan`` output."""
        lines = []
        for depth, node in enumerate(self.levels()):
            detail = "split %d" % node.split if node.split else "leaf"
            lines.append("%s%s%s@%d limbs (%s, floor %d)"
                         % (indent, "  " * depth, node.algorithm,
                            node.limbs, detail, node.floor))
            if node.sub is not None:
                lines.append("%s%sreciprocal muls:"
                             % (indent, "  " * (depth + 1)))
                lines.append(node.sub.render(indent + "  " * (depth + 2)))
        return "\n".join(lines)


def _mul_floor(algorithm: str, policy) -> int:
    """The limb threshold ``algorithm`` switches on under ``policy``."""
    if algorithm == "basecase":
        return 0
    return getattr(policy, algorithm + "_limbs")


def _mul_ladder_schedule(op: str, limbs: int, policy) -> Schedule:
    """The pure-limb recursion chain (no backend commitment)."""
    chain = select.mul_chain(limbs, policy)
    node: Optional[Schedule] = None
    for algorithm, level_limbs in reversed(chain):
        split = select.MUL_SPLIT.get(algorithm, 0)
        node = Schedule(op=op, limbs=level_limbs, algorithm=algorithm,
                        floor=_mul_floor(algorithm, policy),
                        split=split, child=node)
    if node is None:  # defensive: select.mul_chain never returns empty
        raise ScheduleError("empty mul chain for %d limbs" % limbs)
    return node


def derive_schedule(op: str, limbs: int, policy=None,
                    backend: str = "auto") -> Schedule:
    """Commit the full recursion plan for one (op, limbs) request.

    ``backend="auto"`` commits the backend decision too (a ``packed``
    leaf at every width, as auto dispatch would; the limb ladder under
    ``REPRO_PACKED=0``); ``backend="limb"`` derives the pure limb
    ladder (what the generic dispatchers walk).  ``policy`` is the
    :class:`~repro.mpn.mul.MulPolicy` the ladder runs on, or ``None``
    for the checked-in ``PYTHON_POLICY``.
    """
    if policy is None:
        policy = select.active()
    limbs = max(1, limbs)
    if backend not in ("auto", "limb"):
        raise ScheduleError("derive_schedule: backend must be auto or "
                            "limb, got %r" % (backend,))
    if op not in ("mul", "sqr", "div"):
        raise ScheduleError("no schedule derivation for op %r" % (op,))
    if backend == "auto" and select.auto_backend() == "packed":
        return Schedule(op=op, limbs=limbs, algorithm="packed")
    if op in ("mul", "sqr"):
        return _mul_ladder_schedule(op, limbs, policy)
    from repro.mpn.nat import LIMB_BITS
    algorithm = select.div_algorithm(limbs * LIMB_BITS)
    if algorithm == "newton":
        from repro.mpn.div import NEWTON_DIV_THRESHOLD_BITS
        floor = -(-NEWTON_DIV_THRESHOLD_BITS // LIMB_BITS)
        return Schedule(op="div", limbs=limbs, algorithm="newton",
                        floor=floor,
                        sub=derive_schedule("mul", limbs, policy,
                                            backend="limb"))
    return Schedule(op="div", limbs=limbs, algorithm="schoolbook")


def validate_schedule(schedule: Schedule, policy=None) -> List[str]:
    """Structural checks; returns human-readable problems (empty = ok).

    The contract the dispatchers' descent relies on:

    * every split level covers its operand — ``split`` children of
      ``child.limbs`` limbs must sum to at least the level's own
      width (``split * child.limbs >= limbs``);
    * the recursion terminates in a leaf (basecase/packed/schoolbook/
      newton), and a basecase leaf sits *below* the first fast-regime
      threshold — a basecase at or above the Karatsuba floor means the
      schedule was derived under a different policy than claimed;
    * floors never increase on the way down (descent guards rely on
      it).
    """
    problems: List[str] = []
    if policy is None:
        policy = select.active()
    levels = schedule.levels()
    for node in levels:
        if node.split:
            if node.child is None:
                problems.append("%s@%d declares split %d but has no "
                                "child level"
                                % (node.algorithm, node.limbs,
                                   node.split))
            elif node.split * node.child.limbs < node.limbs:
                problems.append(
                    "%s@%d: %d pieces of %d limbs cover only %d of %d "
                    "operand limbs"
                    % (node.algorithm, node.limbs, node.split,
                       node.child.limbs,
                       node.split * node.child.limbs, node.limbs))
    leaf = levels[-1]
    if leaf.split:
        problems.append("leaf %s@%d still splits (the recursion never "
                        "terminates)" % (leaf.algorithm, leaf.limbs))
    if leaf.algorithm == "basecase" \
            and leaf.limbs >= policy.karatsuba_limbs:
        problems.append(
            "basecase leaf at %d limbs is at or above the %d-limb "
            "karatsuba floor; the schedule was derived under "
            "a different policy" % (leaf.limbs,
                                      policy.karatsuba_limbs))
    floors = [node.floor for node in levels]
    if any(late > early for early, late in zip(floors, floors[1:])):
        problems.append("floors increase along the descent %s; the "
                        "small-operand guard would loop" % (floors,))
    if schedule.sub is not None:
        problems.extend(validate_schedule(schedule.sub, policy))
    return problems
