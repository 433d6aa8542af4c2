"""Lowering: OpSpec → select(MulPolicy) → Plan.

A :class:`Plan` is the one execution IR every layer consumes:

* the kernel chain (library backend) or ISA stream shape (device
  backend) the request will run as, chosen by :mod:`repro.plan.select`
  (``auto`` mul/div/powmod: packed at every width; the limb ladder
  under the given or checked-in :class:`~repro.mpn.mul.MulPolicy`);
* the cycle estimate, priced by the one
  :class:`~repro.core.model.CambriconPModel` through the MPApca
  composition rules (:mod:`repro.runtime.mpapca`);
* the memo key — schema version + policy fingerprint + algorithm +
  backend — that salts every result cache downstream, so a plan under
  another policy or backend can never serve a stale cached result.

Lowered plans themselves memoize in a version-salted
:func:`repro.parallel.cache.named_cache` ("plans"), so the admission
path prices a repeated (op, width) without re-walking selection.  The
cache holds the frozen :class:`Plan` itself and lives in memory only:
a hit returns the very object the miss lowered.
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
#: v4: a compiled straight-line kernel backend joins resolution for
#: mul/div/mod; the fingerprint grew its crossover.
#: v5: ``auto`` mul resolves among host kernels only; ``device`` is
#: reached by explicit request alone.
#: v6: the v4 compiled-kernel backend is gone; ``auto`` mul/div resolve
#: to packed or library, and the fingerprint dropped its crossover.
#: v7: ``auto`` powmod resolves to packed (block Montgomery / block
#: division ladders) at every width; the fingerprint dropped the rns
#: powmod crossover.
#: v8: the rns backend and its ``rns-crt``/``rns-montgomery`` lowerings
#: are gone; the fingerprint dropped the rns batch-mul crossover.
#: v9: the learned cost model no longer refines ``auto`` backends, and
#: its digest left the plan-cache key.
#: v10: the plan cache holds frozen Plan objects, not JSON payloads; a
#: persisted v9 ``plans.json`` of payloads must never load into it.
#: v11: the packed multiplier's block is 1024 bits (powmod's stays
#: 256) and Karatsuba starts at 6 blocks: ``packed_chain`` block counts
#: changed, packed muls whose smaller operand has 3841-5120 bits now
#: lower to ``packed-basecase``, and the powmod note counts blocks at
#: powmod's own width.
#: v12: the packed multiplier's block is Cambricon-P's 35904-bit
#: monolithic width and Karatsuba starts at 2 blocks: ``packed_chain``
#: block counts and step notes ("1 block") changed, and every packed
#: mul whose smaller operand has at most 35904 bits lowers to a
#: one-block ``packed-basecase``.
#: v13: the batch-compatibility key left ``Plan`` (the serve batcher
#: runs one job per dequeue and the router no longer places by it), and
#: ``describe()`` lost its line.
#: v14: packed div/mod lower to ``packed-recursive`` (Burnikel–Ziegler
#: over int products on the request's ints), not ``packed-schoolbook``.
#: v15: packed mul lowers to one ``packed-product`` step (one CPython
#: int product on the request's ints), not the ``packed-karatsuba`` /
#: ``packed-basecase`` block chain; packed powmod lowers to one
#: ``packed-pow`` step (CPython ``pow``) for either modulus parity, not
#: ``packed-montgomery``/``packed-division``.
#: v16: ``auto`` mul/div/mod lower to packed at every width (the tuned
#: 4-limb packed crossovers are gone), and the fingerprint is the
#: policy's five ladder thresholds, not the 10-int thresholds record.
PLAN_SCHEMA_VERSION = 16

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
    backend: str    # resolved: library | device | packed
    algorithm: str
    steps: Tuple[PlanStep, ...]
    cost_cycles: float
    #: :func:`repro.plan.select.fingerprint` of the policy the plan was
    #: selected under (its five ladder thresholds).
    tuning: Tuple[int, ...]
    policy_name: str = "python"

    # -- keys ----------------------------------------------------------------

    @property
    def memo_key(self) -> Tuple:
        """Salt for downstream result caches.

        Covers the lowering schema version, the policy fingerprint, and
        the algorithm and backend choice: any selection change yields a
        different memo key, invalidating cached results derived from
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
                         karatsuba_limbs=self.tuning[0],
                         toom3_limbs=self.tuning[1],
                         toom4_limbs=self.tuning[2],
                         toom6_limbs=self.tuning[3],
                         ssa_limbs=self.tuning[4])

    # -- display -------------------------------------------------------------

    def describe(self) -> str:
        lines = [
            "plan %s" % self.spec.describe(),
            "  backend:    %s" % self.backend,
            "  algorithm:  %s" % self.algorithm,
            "  policy:     %s %s" % (self.policy_name,
                                     tuple(self.tuning)),
            "  cost:       %.0f cycles (%.3g s modeled)"
            % (self.cost_cycles, self.seconds()),
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


def lower(spec: OpSpec, policy=None, use_cache: bool = True) -> Plan:
    """Lower one OpSpec to its Plan under the given (or default) policy.

    ``policy`` is the :class:`~repro.mpn.mul.MulPolicy` the limb ladder
    runs on, or ``None`` for the checked-in ``PYTHON_POLICY``.
    """
    if policy is None:
        policy = select.active()
    tuning = select.fingerprint(policy)
    if not use_cache:
        return _lower_uncached(spec, policy, tuning)
    cache = plan_cache()
    key = cache.key(spec.key(), tuning, policy.name)
    return cache.lookup(
        key, lambda: _lower_uncached(spec, policy, tuning))


#: Ops the packed backend can execute.
_PACKED_OPS = ("mul", "div", "mod", "powmod")


def _resolve_backend(spec: OpSpec) -> str:
    from repro.runtime import mpapca
    if spec.backend == "packed" and spec.op not in _PACKED_OPS:
        raise PlanError("backend=packed supports only %s; %r lowers to "
                        "the library" % ("/".join(_PACKED_OPS), spec.op))
    if spec.backend == "device":
        if spec.op != "mul":
            raise PlanError("backend=device supports only mul streams; "
                            "%r lowers to the library" % (spec.op,))
        if max(spec.bits_a, spec.bits_b) > mpapca.MONOLITHIC_MAX_BITS:
            raise PlanError(
                "mul at %d bits exceeds the %d-bit monolithic device "
                "multiplier; request backend=library or auto"
                % (max(spec.bits_a, spec.bits_b),
                   mpapca.MONOLITHIC_MAX_BITS))
        return "device"
    if spec.op not in _PACKED_OPS:
        return "library"
    if spec.backend == "auto":
        return "packed" if select.auto_backend() == "packed" \
            else "library"
    return spec.backend


def _mul_kernel_steps(min_limbs: int, policy) -> List[PlanStep]:
    return [PlanStep("kernel", algorithm, "%d limbs" % limbs)
            for algorithm, limbs in select.mul_chain(min_limbs, policy)]


def _lower_uncached(spec: OpSpec, policy, tuning: Tuple[int, ...]
                    ) -> Plan:
    from repro.mpn.nat import LIMB_BITS
    from repro.runtime import mpapca

    backend = _resolve_backend(spec)
    op = spec.op
    steps: List[PlanStep]

    if op == "mul":
        if backend == "device":
            algorithm = "monolithic"
            steps = [PlanStep("stream", "monolithic",
                              "one MUL instruction, %dx%d bits"
                              % (spec.bits_a, spec.bits_b))]
        elif backend == "packed":
            algorithm = select.PACKED_MUL_ALGORITHM
            steps = [PlanStep("kernel", algorithm,
                              "one CPython int product")]
        else:
            min_limbs = -(-min(max(spec.bits_a, 1),
                               max(spec.bits_b, 1)) // LIMB_BITS)
            steps = _mul_kernel_steps(min_limbs, policy)
            algorithm = steps[0].algorithm
        cost = mpapca.mul_cycles(spec.bits_a, spec.bits_b)
    elif op in ("div", "mod"):
        if backend == "packed":
            from repro.mpn.packed import DIV_RECURSION_BITS
            algorithm = "packed-recursive"
            steps = [PlanStep("kernel", algorithm,
                              "Burnikel-Ziegler over int products, "
                              "divmod below %d bits"
                              % DIV_RECURSION_BITS)]
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
        if backend == "packed":
            algorithm = "packed-pow"
            steps = [PlanStep("kernel", algorithm, "CPython pow")]
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
                tuning=tuning, policy_name=policy.name)
