"""Static verifier for BIPS/ISA instruction streams (``repro verify-stream``).

A :class:`~repro.core.isa.Driver` program is a list of instructions
whose operand descriptors point into the shared LLC.  A malformed
stream does not crash the simulator — it produces *wrong limbs* (a
truncating descriptor silently drops significant bits; an in-place
destination clobbers an operand the memory agents are still streaming).
This module diagnoses those hazards statically, with op-index
provenance, before anything is simulated.

Checks (IDs are stable; each has a seeded-violation fixture in
``tests/analysis/``):

========== ===========================================================
SV-ARITY   opcode arity: MUL/ADD/SUB/IP take 2 sources, SHL/SHR take 1
SV-UNDEF   every source address is written (host-resident or produced
           by an earlier instruction)
SV-BITS    declared descriptor bits match the stored value (resident
           operands) or the statically-derivable upper bound (computed
           operands)
SV-OVERLAP the destination does not alias a source of the same
           instruction (in-place streaming hazard)
SV-IMM     immediates: shifts need a non-negative amount; other
           opcodes must not carry one
SV-IPSHAPE IP vector shapes: equal limb counts, at least one element
SV-PLAN    MUL operands fit the monolithic chunk/window plan (the
           LLC-streaming limit) and the plan covers every output point
========== ===========================================================

:func:`verify_plan` applies the same treatment one layer up, to the
lowered :class:`~repro.plan.lowering.Plan` IR (checks ``PV-*``): the
cost estimate is sane, the backend resolution is legal, the recorded
algorithm matches what re-running selection under the plan's own
thresholds fingerprint produces, and — for device plans given
operands — the materialized instruction stream passes every ``SV-*``
check above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.controller import CoreController
from repro.core.isa import Instruction, Opcode, SharedLLC
from repro.core.model import CambriconPConfig, DEFAULT_CONFIG
from repro.mpn import nat
from repro.mpn.nat import MpnError

#: Sources each opcode consumes.
OPCODE_ARITY = {
    Opcode.MUL: 2, Opcode.ADD: 2, Opcode.SUB: 2,
    Opcode.SHL: 1, Opcode.SHR: 1, Opcode.IP: 2,
}

_SHIFTS = (Opcode.SHL, Opcode.SHR)


@dataclass(frozen=True)
class StreamViolation:
    """One hazard, with op-index provenance into the program."""

    op_index: int
    check: str
    message: str
    instruction: str

    def render(self) -> str:
        return "op#%d: %s %s  (%s)" % (self.op_index, self.check,
                                       self.message, self.instruction)


class StreamError(MpnError):
    """Raised when a verified stream contains hazards."""

    def __init__(self, violations: Sequence[StreamViolation]) -> None:
        self.violations = list(violations)
        lines = "\n  ".join(v.render() for v in self.violations)
        super().__init__("instruction stream failed verification "
                         "(%d hazard(s)):\n  %s"
                         % (len(self.violations), lines))


@dataclass
class _AddressState:
    """What the verifier knows about one LLC address at a program point."""

    bits_exact: Optional[int] = None   # exact bit length (host-resident)
    bits_upper: Optional[int] = None   # static upper bound (computed)

    @classmethod
    def resident(cls, bits: int) -> "_AddressState":
        return cls(bits_exact=bits, bits_upper=bits)

    @classmethod
    def computed(cls, upper: Optional[int]) -> "_AddressState":
        return cls(bits_exact=None, bits_upper=upper)


def verify_stream(program: Sequence[Instruction],
                  llc: Optional[SharedLLC] = None,
                  config: CambriconPConfig = DEFAULT_CONFIG
                  ) -> List[StreamViolation]:
    """Statically check a Driver program; returns all hazards found.

    ``llc`` supplies the host-resident operands (addresses written via
    :meth:`Driver.alloc` before execution); pass ``None`` to verify a
    program that defines every operand itself.
    """
    controller = CoreController(config.num_pes, config.num_ipus, config.q)
    known: Dict[int, _AddressState] = {}
    if llc is not None:
        for address, value in llc.snapshot().items():
            known[address] = _AddressState.resident(nat.bit_length(value))

    violations: List[StreamViolation] = []

    def report(index: int, instruction: Instruction, check: str,
               message: str) -> None:
        violations.append(StreamViolation(index, check, message,
                                          str(instruction)))

    for index, instruction in enumerate(program):
        arity_ok = _check_arity(index, instruction, report)
        _check_immediate(index, instruction, report)
        source_bits: List[Optional[int]] = []
        for ref in instruction.sources:
            state = known.get(ref.address)
            if state is None:
                report(index, instruction, "SV-UNDEF",
                       "source @%d is never written before this op"
                       % ref.address)
                source_bits.append(None)
                continue
            _check_bits(index, instruction, ref.address, ref.bits, state,
                        report)
            source_bits.append(state.bits_exact
                               if state.bits_exact is not None
                               else ref.bits)
        for ref in instruction.sources:
            if ref.address == instruction.destination:
                report(index, instruction, "SV-OVERLAP",
                       "destination @%d aliases a source operand "
                       "(result flow would clobber limbs still being "
                       "streamed)" % instruction.destination)
                break
        if arity_ok:
            if instruction.opcode is Opcode.IP:
                _check_ip_shape(index, instruction, source_bits, config,
                                report)
            elif instruction.opcode is Opcode.MUL:
                _check_plan(index, instruction, source_bits, config,
                            controller, report)
        known[instruction.destination] = _AddressState.computed(
            _result_upper_bound(instruction, source_bits))
    return violations


def _check_arity(index: int, instruction: Instruction, report) -> bool:
    expected = OPCODE_ARITY[instruction.opcode]
    if len(instruction.sources) != expected:
        report(index, instruction, "SV-ARITY",
               "%s takes %d source(s), got %d"
               % (instruction.opcode.name, expected,
                  len(instruction.sources)))
        return False
    return True


def _check_immediate(index: int, instruction: Instruction, report) -> None:
    if instruction.opcode in _SHIFTS:
        if instruction.immediate < 0:
            report(index, instruction, "SV-IMM",
                   "shift amount must be non-negative, got %d"
                   % instruction.immediate)
    elif instruction.immediate:
        report(index, instruction, "SV-IMM",
               "%s does not take an immediate (got %d)"
               % (instruction.opcode.name, instruction.immediate))


def _check_bits(index: int, instruction: Instruction, address: int,
                declared: int, state: _AddressState, report) -> None:
    if state.bits_exact is not None and declared != state.bits_exact:
        report(index, instruction, "SV-BITS",
               "descriptor @%d declares %d bits but the resident value "
               "has %d (a short descriptor truncates silently)"
               % (address, declared, state.bits_exact))
    elif state.bits_exact is None and state.bits_upper is not None \
            and declared > state.bits_upper:
        report(index, instruction, "SV-BITS",
               "descriptor @%d declares %d bits but the producing op "
               "can yield at most %d" % (address, declared,
                                         state.bits_upper))


def _limb_count(bits: Optional[int], config: CambriconPConfig
                ) -> Optional[int]:
    if bits is None:
        return None
    return max(1, -(-bits // config.limb_bits))


def _check_ip_shape(index: int, instruction: Instruction,
                    source_bits: List[Optional[int]],
                    config: CambriconPConfig, report) -> None:
    lengths = [_limb_count(bits, config) for bits in source_bits]
    if None in lengths:
        return
    if lengths[0] != lengths[1]:
        report(index, instruction, "SV-IPSHAPE",
               "IP vectors decompose to %d vs %d limbs; the driver "
               "would silently truncate to the shorter vector"
               % (lengths[0], lengths[1]))
    if min(lengths) < 1 or min(source_bits) == 0:
        report(index, instruction, "SV-IPSHAPE",
               "IP needs at least one limb element per vector")


def _check_plan(index: int, instruction: Instruction,
                source_bits: List[Optional[int]],
                config: CambriconPConfig, controller: CoreController,
                report) -> None:
    for ref, bits in zip(instruction.sources, source_bits):
        if bits is not None and bits > config.monolithic_max_bits:
            report(index, instruction, "SV-PLAN",
                   "MUL operand @%d is %d bits; the monolithic "
                   "chunk/window plan streams at most %d (split with "
                   "MPApca's delayed fast algorithms first)"
                   % (ref.address, bits, config.monolithic_max_bits))
    limbs = [_limb_count(bits, config) for bits in source_bits]
    if None not in limbs and not controller.covers(limbs[0], limbs[1]):
        report(index, instruction, "SV-PLAN",  # pragma: no cover - guard
               "chunk/window plan does not cover the %dx%d-limb product"
               % (limbs[0], limbs[1]))


def verify_plan(plan, operands: Optional[Sequence] = None,
                config: CambriconPConfig = DEFAULT_CONFIG
                ) -> List[StreamViolation]:
    """Statically check one lowered Plan; returns all hazards found.

    Plan-level checks (op_index -1 marks the plan itself):

    * **PV-COST** — the cycle estimate is finite and non-negative;
    * **PV-BACKEND** — the resolved backend is legal for the op
      (``device`` only for muls within the monolithic limit,
      ``packed`` only for mul/div/mod/powmod);
    * **PV-ALGO** — for muls, re-deriving selection from the plan's
      recorded thresholds fingerprint reproduces the recorded
      algorithm (a mismatch means the plan was built under different
      tuning than it claims, so its memo key is a lie);
    * **PV-STEPS** — the step chain is non-empty and device plans
      carry a stream step.

    For device plans, passing ``operands`` additionally materializes
    the instruction stream (:func:`repro.plan.streams.
    instructions_for`) against a real LLC and runs every ``SV-*``
    check on it; those violations are appended with their op-index
    provenance.
    """
    import math

    from repro.plan import select
    from repro.plan.spec import PlanError

    violations: List[StreamViolation] = []
    provenance = "plan %s" % plan.spec.describe()

    def report(check: str, message: str) -> None:
        violations.append(StreamViolation(-1, check, message, provenance))

    cost = plan.cost_cycles
    if not (isinstance(cost, (int, float)) and math.isfinite(cost)
            and cost >= 0.0):
        report("PV-COST", "cost estimate %r is not a finite "
               "non-negative cycle count" % (cost,))

    if plan.backend not in ("library", "device", "packed"):
        report("PV-BACKEND", "unresolved backend %r" % (plan.backend,))
    elif plan.backend == "packed":
        if plan.spec.op not in ("mul", "div", "mod", "powmod"):
            report("PV-BACKEND", "the packed backend executes only "
                   "mul/div/mod/powmod; %r cannot run packed"
                   % (plan.spec.op,))
    elif plan.backend == "device":
        if plan.spec.op != "mul":
            report("PV-BACKEND", "only mul lowers to a device stream; "
                   "%r cannot run on the device" % (plan.spec.op,))
        elif max(plan.spec.bits_a, plan.spec.bits_b) \
                > config.monolithic_max_bits:
            report("PV-BACKEND",
                   "device mul at %d bits exceeds the %d-bit "
                   "monolithic limit"
                   % (max(plan.spec.bits_a, plan.spec.bits_b),
                      config.monolithic_max_bits))

    if plan.spec.op == "mul" \
            and plan.backend in ("library", "device", "packed"):
        if plan.backend == "device":
            expected = "monolithic"
        elif plan.backend == "packed":
            expected = select.PACKED_MUL_ALGORITHM
        else:
            from repro.mpn.nat import LIMB_BITS
            min_limbs = -(-min(max(plan.spec.bits_a, 1),
                               max(plan.spec.bits_b, 1)) // LIMB_BITS)
            expected = select.mul_algorithm(min_limbs, plan.policy())
        if plan.algorithm != expected:
            report("PV-ALGO",
                   "plan records algorithm %r but selection under its "
                   "own thresholds fingerprint yields %r"
                   % (plan.algorithm, expected))

    if not plan.steps:
        report("PV-STEPS", "plan has no execution steps")
    elif plan.backend == "device" \
            and not any(step.kind == "stream" for step in plan.steps):
        report("PV-STEPS", "device plan carries no stream step")

    if operands is not None and plan.backend == "device" \
            and not violations:
        from repro.core.isa import Driver
        from repro.plan.streams import instructions_for
        driver = Driver()
        refs = [driver.alloc(value) for value in operands]
        try:
            program = instructions_for(plan, refs, destination=1 << 20)
        except PlanError as error:
            report("PV-STREAM", str(error))
        else:
            violations.extend(verify_stream(program, driver.llc, config))
    return violations


def _result_upper_bound(instruction: Instruction,
                        source_bits: List[Optional[int]]
                        ) -> Optional[int]:
    """Static upper bound on the destination's bit length, if derivable."""
    if None in source_bits or len(source_bits) != \
            OPCODE_ARITY[instruction.opcode]:
        return None
    opcode = instruction.opcode
    if opcode is Opcode.MUL:
        return source_bits[0] + source_bits[1]
    if opcode is Opcode.ADD:
        return max(source_bits) + 1
    if opcode is Opcode.SUB:
        return max(source_bits)
    if opcode is Opcode.SHL:
        return source_bits[0] + max(0, instruction.immediate)
    if opcode is Opcode.SHR:
        return max(0, source_bits[0] - max(0, instruction.immediate))
    # IP: sum of element products; bounded by the schoolbook product of
    # the two vectors plus the accumulation log factor.
    return source_bits[0] + source_bits[1]
