"""Lowering: OpSpec → select(Thresholds) → Plan.

A :class:`Plan` is the one execution IR every layer consumes:

* the kernel chain (library backend) or ISA stream shape (device
  backend) the request will run as, chosen by :mod:`repro.plan.select`
  against the tuned thresholds;
* the cycle estimate, priced by the one
  :class:`~repro.core.model.CambriconPModel` through the MPApca
  composition rules (:mod:`repro.runtime.mpapca`);
* the compatibility key the serve batcher coalesces on;
* the memo key — schema version + thresholds fingerprint + algorithm —
  that salts every result cache downstream, so retuning can never
  serve a stale cached result.

Lowered plans themselves memoize in a version-salted
:func:`repro.parallel.cache.named_cache` ("plans"), so the admission
path prices a repeated (op, width) without re-walking selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.plan import select
from repro.plan.spec import OpSpec, PlanError

#: Bump when lowering output changes shape or meaning; salts both the
#: plan cache file and every Plan memo key.
#: v2: packed backend (block-packed mpn kernels) joins resolution; the
#: thresholds fingerprint grew the packed crossovers.
#: v3: rns backend (residue-number-system mpn kernels) joins
#: resolution for mul/powmod; the fingerprint grew the rns crossovers.
#: v4: specialized backend (compiled straight-line kernels of
#: :mod:`repro.plan.codegen`) joins resolution for mul/div/mod; the
#: fingerprint grew the specialize crossover.
#: v5: ``auto`` mul resolves among host kernels only; ``device`` is
#: reached by explicit request alone.
PLAN_SCHEMA_VERSION = 5

#: Host-side cost of answering a pure model query (cycles at device
#: frequency); the query itself never touches the accelerator.
MODEL_QUERY_CYCLES = 100.0

#: Machin-like series sizing for pi_digits (moved verbatim from the
#: serve layer's former private estimate): bits of working precision
#: per decimal digit, and one long division per ~4 series terms.
PI_BITS_PER_DIGIT = 3.33
PI_GUARD_BITS = 64
PI_BITS_PER_TERM = 4


@dataclass(frozen=True)
class PlanStep:
    """One stage of a lowered execution: a kernel, stream, or host op."""

    kind: str        # "kernel" | "stream" | "host"
    algorithm: str
    note: str = ""

    def describe(self) -> str:
        suffix = " (%s)" % self.note if self.note else ""
        return "%s:%s%s" % (self.kind, self.algorithm, suffix)


@dataclass(frozen=True)
class Plan:
    """The lowered form of one operation request."""

    spec: OpSpec
    backend: str    # resolved: library | device | packed | rns | specialized
    algorithm: str
    steps: Tuple[PlanStep, ...]
    cost_cycles: float
    #: :func:`repro.plan.select.fingerprint` of the thresholds the plan
    #: was selected under (all-zero past index 0 for ad-hoc policies).
    tuning: Tuple[int, ...]
    policy_name: str = "tuned"

    # -- keys ----------------------------------------------------------------

    @property
    def compat_key(self) -> Tuple[str, str]:
        """Jobs with equal compat keys may share a service batch."""
        return (self.spec.op, self.backend)

    @property
    def memo_key(self) -> Tuple:
        """Salt for downstream result caches.

        Covers the lowering schema version, the thresholds fingerprint,
        and the algorithm choice: any retune or selection change yields
        a different memo key, invalidating cached results derived from
        the old plan.
        """
        return (PLAN_SCHEMA_VERSION,) + tuple(self.tuning) \
            + (self.algorithm, self.backend)

    # -- cost ----------------------------------------------------------------

    def cost(self) -> float:
        """Estimated accelerator cycles (the one CambriconPModel)."""
        return self.cost_cycles

    def seconds(self) -> float:
        from repro.core.model import DEFAULT_CONFIG
        return self.cost_cycles / DEFAULT_CONFIG.frequency_hz

    # -- execution-side helpers ----------------------------------------------

    def policy(self):
        """The :class:`~repro.mpn.mul.MulPolicy` this plan selected under."""
        from repro.mpn.mul import MulPolicy
        return MulPolicy(name=self.policy_name,
                         karatsuba_limbs=self.tuning[1],
                         toom3_limbs=self.tuning[2],
                         toom4_limbs=self.tuning[3],
                         toom6_limbs=self.tuning[4],
                         ssa_limbs=self.tuning[5])

    # -- serialization (plan-cache JSON round-trip) --------------------------

    def to_payload(self) -> dict:
        return {
            "spec": {"op": self.spec.op, "bits_a": self.spec.bits_a,
                     "bits_b": self.spec.bits_b,
                     "backend": self.spec.backend,
                     "detail": [list(pair) for pair in self.spec.detail]},
            "backend": self.backend,
            "algorithm": self.algorithm,
            "steps": [[step.kind, step.algorithm, step.note]
                      for step in self.steps],
            "cost_cycles": self.cost_cycles,
            "tuning": list(self.tuning),
            "policy_name": self.policy_name,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Plan":
        raw_spec = payload["spec"]
        spec = OpSpec(raw_spec["op"], raw_spec["bits_a"],
                      raw_spec["bits_b"], raw_spec["backend"],
                      tuple((str(k), v) for k, v in raw_spec["detail"]))
        return cls(spec=spec, backend=payload["backend"],
                   algorithm=payload["algorithm"],
                   steps=tuple(PlanStep(*step)
                               for step in payload["steps"]),
                   cost_cycles=payload["cost_cycles"],
                   tuning=tuple(payload["tuning"]),
                   policy_name=payload["policy_name"])

    # -- display -------------------------------------------------------------

    def describe(self) -> str:
        lines = [
            "plan %s" % self.spec.describe(),
            "  backend:    %s" % self.backend,
            "  algorithm:  %s" % self.algorithm,
            "  policy:     %s %s" % (self.policy_name,
                                     tuple(self.tuning[1:6])),
            "  cost:       %.0f cycles (%.3g s modeled)"
            % (self.cost_cycles, self.seconds()),
            "  compat key: %s" % (self.compat_key,),
            "  memo key:   %s" % (self.memo_key,),
            "  steps:",
        ]
        lines.extend("    %d. %s" % (index + 1, step.describe())
                     for index, step in enumerate(self.steps))
        return "\n".join(lines)


def plan_cache():
    """The process-wide lowered-plan memo cache."""
    from repro.parallel.cache import named_cache
    return named_cache("plans", maxsize=4096,
                       version=PLAN_SCHEMA_VERSION)


def _tuning_for(thresholds) -> Tuple[Tuple[int, ...], str]:
    """(fingerprint, policy name) for a Thresholds or MulPolicy."""
    if hasattr(thresholds, "barrett_limbs"):       # Thresholds record
        return select.fingerprint(thresholds), "tuned"
    # A bare MulPolicy (e.g. the MPApca hardware policy): no division,
    # Barrett, packed, rns, or specialize crossovers; version slot 0
    # marks it as ad hoc.
    return ((0, thresholds.karatsuba_limbs, thresholds.toom3_limbs,
             thresholds.toom4_limbs, thresholds.toom6_limbs,
             thresholds.ssa_limbs, 0, 0, 0, 0, 0, 0, 0), thresholds.name)


def lower(spec: OpSpec, thresholds=None, use_cache: bool = True) -> Plan:
    """Lower one OpSpec to its Plan under the given (or active) tuning.

    ``thresholds`` accepts a :class:`~repro.mpn.tune.Thresholds`
    record, a bare :class:`~repro.mpn.mul.MulPolicy`, or ``None`` for
    the host's active tuning (persisted ``repro tune`` output, else the
    checked-in defaults).
    """
    if thresholds is None:
        thresholds = select.active()
    tuning, policy_name = _tuning_for(thresholds)
    if not use_cache:
        return _lower_uncached(spec, thresholds, tuning, policy_name)
    from repro import cost as _cost
    cache = plan_cache()
    # selection_salt() is () without a live cost model, keeping the key
    # byte-identical to the analytic build; with one, the model digest
    # keys the cache so refits/retunes can never serve a plan chosen
    # under another model's predictions.
    key = cache.key(spec.key(), tuning, policy_name,
                    *_cost.selection_salt())
    payload = cache.lookup(
        key,
        lambda: _lower_uncached(spec, thresholds, tuning,
                                policy_name).to_payload())
    return Plan.from_payload(payload)


#: Ops the block-packed backend can execute.
_PACKED_OPS = ("mul", "div", "mod")

#: Ops the residue-number-system backend can execute.
_RNS_OPS = ("mul", "powmod")

#: Ops the compiled-specialization backend can execute.
_SPECIALIZED_OPS = ("mul", "div", "mod")


def _resolve_backend(spec: OpSpec, thresholds) -> str:
    from repro.mpn.nat import LIMB_BITS
    from repro.plan import select as _select
    from repro.runtime import mpapca
    if spec.backend == "packed" and spec.op not in _PACKED_OPS:
        raise PlanError("backend=packed supports only %s; %r lowers to "
                        "the library" % ("/".join(_PACKED_OPS), spec.op))
    if spec.backend == "rns" and spec.op not in _RNS_OPS:
        raise PlanError("backend=rns supports only %s; %r lowers to "
                        "the library" % ("/".join(_RNS_OPS), spec.op))
    if spec.backend == "specialized" \
            and spec.op not in _SPECIALIZED_OPS:
        raise PlanError("backend=specialized supports only %s; %r "
                        "lowers to the library"
                        % ("/".join(_SPECIALIZED_OPS), spec.op))
    if spec.op == "mul":
        fits = max(spec.bits_a, spec.bits_b) <= mpapca.MONOLITHIC_MAX_BITS
        if spec.backend == "device" and not fits:
            raise PlanError(
                "mul at %d bits exceeds the %d-bit monolithic device "
                "multiplier; request backend=library or auto"
                % (max(spec.bits_a, spec.bits_b),
                   mpapca.MONOLITHIC_MAX_BITS))
        if spec.backend == "auto":
            min_limbs = -(-min(max(spec.bits_a, 1),
                               max(spec.bits_b, 1)) // LIMB_BITS)
            if _select.specialize("mul", min_limbs, thresholds):
                analytic = "specialized"
            elif _select.mul_backend(min_limbs, thresholds) == "packed":
                analytic = "packed"
            else:
                analytic = "library"
            return _select.cost_refined("mul", min_limbs, analytic,
                                        thresholds)
        return spec.backend
    if spec.backend == "device":
        raise PlanError("backend=device supports only mul streams; "
                        "%r lowers to the library" % (spec.op,))
    if spec.op in ("div", "mod"):
        if spec.backend == "auto":
            divisor_limbs = -(-max(spec.bits_b, 1) // LIMB_BITS)
            if _select.specialize("div", divisor_limbs, thresholds):
                analytic = "specialized"
            elif _select.div_backend(divisor_limbs,
                                     thresholds) == "packed":
                analytic = "packed"
            else:
                analytic = "library"
            return _select.cost_refined(spec.op, divisor_limbs,
                                        analytic, thresholds)
        return spec.backend
    if spec.op == "powmod":
        if spec.backend == "auto":
            mod_limbs = -(-max(spec.bits_a, 1) // LIMB_BITS)
            analytic = "rns" if _select.powmod_backend(
                mod_limbs, thresholds) == "rns" else "library"
            return _select.cost_refined("powmod", mod_limbs, analytic,
                                        thresholds)
        return spec.backend
    return "library"


def _mul_kernel_steps(min_limbs: int, policy) -> List[PlanStep]:
    return [PlanStep("kernel", algorithm, "%d limbs" % limbs)
            for algorithm, limbs in select.mul_chain(min_limbs, policy)]


def _lower_uncached(spec: OpSpec, thresholds, tuning: Tuple[int, ...],
                    policy_name: str) -> Plan:
    from repro.mpn.nat import LIMB_BITS
    from repro.runtime import mpapca

    backend = _resolve_backend(spec, thresholds)
    policy = thresholds.policy() if hasattr(thresholds, "policy") \
        else thresholds
    op = spec.op
    steps: List[PlanStep]

    if op == "mul":
        if backend == "device":
            algorithm = "monolithic"
            steps = [PlanStep("stream", "monolithic",
                              "one MUL instruction, %dx%d bits"
                              % (spec.bits_a, spec.bits_b))]
        elif backend == "packed":
            min_limbs = -(-min(max(spec.bits_a, 1),
                               max(spec.bits_b, 1)) // LIMB_BITS)
            steps = [PlanStep("kernel", name, "%d blocks" % blocks)
                     for name, blocks in select.packed_chain(min_limbs)]
            algorithm = steps[0].algorithm
        elif backend == "rns":
            from repro.mpn.rns import MODULUS_BITS
            product_bits = max(spec.bits_a, 1) + max(spec.bits_b, 1)
            channels = max(2, -(-product_bits // MODULUS_BITS) + 1)
            algorithm = "rns-crt"
            steps = [PlanStep("kernel", "rns-crt",
                              "%d carry-free %d-bit channels + CRT "
                              "gather" % (channels, MODULUS_BITS))]
        elif backend == "specialized":
            from repro.plan.schedule import derive_schedule
            min_limbs = -(-min(max(spec.bits_a, 1),
                               max(spec.bits_b, 1)) // LIMB_BITS)
            schedule = derive_schedule("mul", min_limbs, thresholds)
            algorithm = "specialized-" + schedule.algorithm
            steps = [PlanStep("kernel",
                              "specialized-" + node.algorithm,
                              "%d limbs, compiled straight-line"
                              % node.limbs)
                     for node in schedule.levels()]
        else:
            min_limbs = -(-min(max(spec.bits_a, 1),
                               max(spec.bits_b, 1)) // LIMB_BITS)
            steps = _mul_kernel_steps(min_limbs, policy)
            algorithm = steps[0].algorithm
        cost = mpapca.mul_cycles(spec.bits_a, spec.bits_b)
    elif op in ("div", "mod"):
        if backend == "packed":
            algorithm = "packed-schoolbook"
            steps = [PlanStep("kernel", "packed-schoolbook",
                              "block Knuth Algorithm D")]
        elif backend == "specialized":
            from repro.plan.schedule import derive_schedule
            divisor_limbs = -(-max(spec.bits_b, 1) // LIMB_BITS)
            schedule = derive_schedule("div", divisor_limbs, thresholds)
            algorithm = "specialized-" + schedule.algorithm
            steps = [PlanStep("kernel", algorithm,
                              "%d divisor limbs, compiled "
                              "straight-line" % divisor_limbs)]
            if schedule.sub is not None:
                steps.extend(
                    PlanStep("kernel",
                             "specialized-" + node.algorithm,
                             "%d limbs, reciprocal muls" % node.limbs)
                    for node in schedule.sub.levels())
        else:
            algorithm = select.div_algorithm(spec.bits_b)
            if algorithm == "newton":
                reciprocal_limbs = -(-max(spec.bits_b, 1) // LIMB_BITS)
                steps = [PlanStep("kernel", "newton-reciprocal",
                                  "precision-doubling iteration")]
                steps.extend(_mul_kernel_steps(reciprocal_limbs, policy))
            else:
                steps = [PlanStep("kernel", "schoolbook",
                                  "Knuth Algorithm D")]
        cost = mpapca.div_cycles(spec.bits_a, max(spec.bits_b, 1))
    elif op == "sqrt":
        algorithm = "newton-sqrt"
        steps = [PlanStep("kernel", "newton-sqrt",
                          "precision-doubling Newton")]
        cost = mpapca.sqrt_cycles(spec.bits_a)
    elif op == "powmod":
        if backend == "rns":
            from repro.mpn.rns import MODULUS_BITS
            channels = max(2, -(-(max(spec.bits_a, 1) + 2)
                                // MODULUS_BITS) + 1)
            algorithm = "rns-montgomery"
            steps = [PlanStep("kernel", "rns-montgomery",
                              "dual-base residue Montgomery (2x%d "
                              "channels), exact CRT base extension"
                              % channels)]
        else:
            odd = bool(spec.detail_value("mod_odd", 1))
            algorithm = "montgomery" if odd else "binary-division"
            note = "odd modulus: Montgomery domain" if odd \
                else "even modulus: square-and-multiply over division"
            mod_limbs = -(-max(spec.bits_a, 1) // LIMB_BITS)
            steps = [PlanStep("kernel", algorithm, note)]
            steps.extend(_mul_kernel_steps(mod_limbs, policy))
        cost = mpapca.powmod_cycles(spec.bits_a, max(spec.bits_b, 1))
    elif op in ("add", "sub"):
        algorithm = "carry-parallel"
        steps = [PlanStep("kernel", "carry-parallel",
                          "bit-serial PE add, GU carry chain")]
        cost = mpapca.add_cycles(spec.bits_a, spec.bits_b)
    elif op == "shift":
        algorithm = "timing-delay"
        steps = [PlanStep("kernel", "timing-delay",
                          "dispatch-only bit retiming")]
        cost = mpapca.shift_cycles()
    elif op == "cmp":
        algorithm = "host-compare"
        steps = [PlanStep("host", "host-compare")]
        cost = float(mpapca.DISPATCH_CYCLES)
    elif op == "pi_digits":
        digits = int(spec.detail_value("digits", 0))
        bits = int(digits * PI_BITS_PER_DIGIT) + PI_GUARD_BITS
        terms = max(1, bits // PI_BITS_PER_TERM)
        algorithm = "machin-like"
        steps = [
            PlanStep("host", "machin-like",
                     "%d series terms at %d bits" % (terms, bits)),
            PlanStep("kernel",
                     select.div_algorithm(bits),
                     "one long division per term"),
        ]
        cost = terms * mpapca.div_cycles(bits, bits)
    elif op == "model_cycles":
        algorithm = "model-lookup"
        steps = [PlanStep("host", "model-lookup",
                          "prices %r on the cycle model"
                          % (spec.detail_value("model_op", "?"),))]
        cost = MODEL_QUERY_CYCLES
    else:  # pragma: no cover - OpSpec already validates op
        raise PlanError("no lowering for operator %r" % (op,))

    return Plan(spec=spec, backend=backend, algorithm=algorithm,
                steps=tuple(steps), cost_cycles=float(cost),
                tuning=tuning, policy_name=policy_name)
