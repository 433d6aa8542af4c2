"""OpSpec: the canonical description of one operation request.

Every consumer of the dispatch spine — the mpn dispatchers, the MPApca
runtime, admission control in :mod:`repro.serve`, the cost model, the
verifier — starts from the same immutable record of *what* is being
asked: an operator name, the operand bitwidths that determine its cost
and algorithm, and the backend it should run on.  The spec is
deliberately free of operand *values*: two requests with the same spec
lower to the same :class:`~repro.plan.lowering.Plan` and may share a
cache slot, a batch, and a cost estimate.

This module is stdlib-only so that ``repro.plan`` can be imported from
anywhere in the package (including the mpn kernels' own selection
helpers) without circular imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Operators the planner understands.  The first block is the serve
#: job vocabulary; the second block is the runtime's primitive set.
PLAN_OPS = (
    "mul", "div", "mod", "powmod", "sqrt", "pi_digits", "model_cycles",
    "add", "sub", "shift", "cmp",
)

#: Requested execution backends.  ``auto`` resolves during lowering
#: among host kernels only: packed (the block-packed kernels of
#: :mod:`repro.mpn.packed`) or library by the tuned packed crossover
#: for mul/div/mod, and packed at every modulus width for powmod.
#: ``packed`` may be requested explicitly for mul/div/mod/powmod.
#: ``device`` (the PE simulator, for validation and the paper figures)
#: is reached only by explicit request, for muls within the monolithic
#: hardware multiplier.
BACKENDS = ("auto", "library", "device", "packed")


class PlanError(ValueError):
    """A malformed OpSpec or an impossible lowering request."""


@dataclass(frozen=True)
class OpSpec:
    """What is being computed, stripped of operand values.

    ``bits_a``/``bits_b`` carry the operator's size parameters:

    =============  ==========================================
    op             meaning of (bits_a, bits_b)
    =============  ==========================================
    mul/add/sub    operand bitwidths
    div/mod        (dividend bits, divisor bits)
    powmod         (modulus bits, exponent bits)
    sqrt/shift     (operand bits, 0)
    cmp            operand bitwidths
    pi_digits      (0, 0); ``detail`` holds ("digits", n)
    model_cycles   the *queried* widths; ``detail`` holds
                   ("model_op", op)
    =============  ==========================================
    """

    op: str
    bits_a: int = 0
    bits_b: int = 0
    backend: str = "auto"
    detail: Tuple[Tuple[str, int | str], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.op not in PLAN_OPS:
            raise PlanError("OpSpec: unknown operator %r (expected one "
                            "of %s)" % (self.op, ", ".join(PLAN_OPS)))
        if self.backend not in BACKENDS:
            raise PlanError("OpSpec: unknown backend %r" % (self.backend,))
        for name, value in (("bits_a", self.bits_a),
                            ("bits_b", self.bits_b)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise PlanError("OpSpec: %s must be an int, got %r"
                                % (name, value))
            if value < 0:
                raise PlanError("OpSpec: %s must be >= 0, got %d"
                                % (name, value))

    # -- canonical constructors ----------------------------------------------

    @classmethod
    def for_mul(cls, bits_a: int, bits_b: int,
                backend: str = "auto") -> "OpSpec":
        return cls("mul", bits_a, bits_b, backend)

    @classmethod
    def for_job(cls, op: str, params: Dict) -> "OpSpec":
        """The spec of a validated serve job (``op``, ``params``)."""
        if op == "mul":
            return cls("mul", params["a"].bit_length(),
                       params["b"].bit_length())
        if op in ("div", "mod"):
            return cls(op, params["a"].bit_length(),
                       params["b"].bit_length())
        if op == "powmod":
            return cls("powmod", params["mod"].bit_length(),
                       params["exp"].bit_length())
        if op == "pi_digits":
            return cls("pi_digits",
                       detail=(("digits", int(params["digits"])),))
        if op == "model_cycles":
            return cls("model_cycles",
                       int(params.get("bits_a", 0)),
                       int(params.get("bits_b", 0)),
                       detail=(("model_op", str(params["op"])),))
        raise PlanError("OpSpec.for_job: no spec for operator %r" % (op,))

    # -- identity ------------------------------------------------------------

    def key(self) -> Tuple:
        """Hashable identity used for plan caching and memo keys."""
        return (self.op, self.bits_a, self.bits_b, self.backend,
                self.detail)

    def detail_value(self, name: str, default=None):
        for key, value in self.detail:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        extra = "".join(", %s=%s" % pair for pair in self.detail)
        return "%s(bits_a=%d, bits_b=%d, backend=%s%s)" % (
            self.op, self.bits_a, self.bits_b, self.backend, extra)
