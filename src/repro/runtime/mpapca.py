"""MPApca: the Cambricon-P runtime library (Section V-C).

MPApca realizes the essential operators — addition, subtraction,
multiplication, bit-shifts — plus high-level operators (division,
square root, Montgomery reduction, inner products) on the accelerator,
while the host CPU handles signs, exponents and control.  Like GMP it
selects fast multiply algorithms at runtime by comparing operand
bitwidths to tuned thresholds; because the hardware multiplies up to
35,904 bits monolithically, the fast-algorithm ranges are delayed and
the schoolbook basecase disappears entirely (Section VII-B).

Two services are provided:

* :class:`MPApca` — a functional runtime: operators execute on the
  :class:`~repro.core.accelerator.CambriconP` simulator (or the
  equivalent mpn kernels under the MPApca policy) while modeled time
  and energy accumulate on the instance.
* :func:`price_trace` — prices a recorded operation trace, so an
  application run once on the software stack can be costed on
  Cambricon-P exactly as the paper overrides GMP operators with MPApca
  and collects simulator time/energy.

The multiply timing model mirrors MPApca's own algorithm selection:
monolithic below 35,904 bits, then Karatsuba / Toom-3/4/6 recursions
whose leaves are monolithic hardware multiplies, then SSA *with
power-of-two padding* — MPApca "always pads the bitwidth of inputs to
the next 2^k", producing the zigzag of Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.accelerator import CambriconP
from repro.core.energy import LLC_ENERGY_PJ_PER_BIT, power_w
from repro.core.model import (DEFAULT_CONFIG, CambriconPConfig,
                              CambriconPModel, DISPATCH_CYCLES)
from repro.mpn import MPAPCA_POLICY, MpnError
from repro.mpn import nat as _nat
from repro.mpn.mul import mul as _raw_mul
from repro.mpn.nat import Nat
from repro.profiling import OperationTrace

_MODEL = CambriconPModel(DEFAULT_CONFIG)

#: MPApca fast-algorithm thresholds in bits (delayed relative to GMP
#: because the basecase is the 35,904-bit monolithic hardware multiply).
MONOLITHIC_MAX_BITS = DEFAULT_CONFIG.monolithic_max_bits
TOOM3_BITS = 3 * MONOLITHIC_MAX_BITS
TOOM4_BITS = 8 * MONOLITHIC_MAX_BITS
TOOM6_BITS = 18 * MONOLITHIC_MAX_BITS
SSA_BITS = 80 * MONOLITHIC_MAX_BITS

#: Sanity ceiling for cycle queries (bits).  The model extrapolates
#: far beyond the hardware, but a width this absurd is always a bug in
#: the caller (overflowed arithmetic, a byte/bit mix-up), so the
#: pricing functions reject it rather than spin in the recursion.
MODEL_MAX_QUERY_BITS = 1 << 40


def _check_bits(name: str, bits: int, minimum: int = 0) -> None:
    """Reject malformed operand widths before they enter the model."""
    if not isinstance(bits, int) or isinstance(bits, bool):
        raise MpnError("%s must be an int, got %r" % (name, bits))
    if bits < minimum:
        raise MpnError("%s must be >= %d, got %d"
                       % (name, minimum, bits))
    if bits > MODEL_MAX_QUERY_BITS:
        raise MpnError("%s=%d exceeds the %d-bit model ceiling"
                       % (name, bits, MODEL_MAX_QUERY_BITS))


@lru_cache(maxsize=None)
def mul_cycles(bits_a: int, bits_b: int = 0) -> float:
    """Accelerator cycles for an (a x b)-bit MPApca multiplication."""
    _check_bits("bits_a", bits_a)
    _check_bits("bits_b", bits_b)
    if bits_b == 0:
        bits_b = bits_a
    small, large = sorted((max(1, bits_a), max(1, bits_b)))
    if large <= MONOLITHIC_MAX_BITS:
        return _MODEL.multiply_cycles(small, large)
    if large > 2 * small:
        pieces = -(-large // small)
        return pieces * mul_cycles(small, small) \
            + pieces * _MODEL.add_cycles(2 * small)
    n = large
    if n <= TOOM3_BITS:
        sub_mults, split, linear = 3, 2, 4.0       # Karatsuba
    elif n <= TOOM4_BITS:
        sub_mults, split, linear = 5, 3, 8.0       # Toom-3
    elif n <= TOOM6_BITS:
        sub_mults, split, linear = 7, 4, 14.0      # Toom-4
    elif n <= SSA_BITS:
        sub_mults, split, linear = 11, 6, 26.0     # Toom-6
    else:
        return _ssa_cycles(n)
    piece = -(-n // split) + 32
    return (sub_mults * mul_cycles(piece, piece)
            + linear * _MODEL.add_cycles(n)
            + 2 * DISPATCH_CYCLES)


def _ssa_cycles(bits: int) -> float:
    """MPApca SSA: inputs padded to the next power of two (zigzag)."""
    padded = 1 << (bits - 1).bit_length()
    total_bits = 2 * padded
    # MPApca mirrors GMP's sqrt-balanced split but without the
    # fine-grained per-size policy (the padding above is the zigzag).
    k = max(4, total_bits.bit_length() // 2)
    pieces = 1 << k
    piece_bits = -(-total_bits // pieces)
    w = 2 * piece_bits + k + 2
    transform = 2 * pieces
    # Butterflies are fused shift+add streams on the accelerator.
    butterflies = 3 * (transform // 2) * (transform.bit_length() - 1)
    butterfly_cost = _MODEL.add_cycles(w, include_dispatch=False)
    pointwise = transform * mul_cycles(w, w)
    assembly = 4 * _MODEL.add_cycles(total_bits)
    return butterflies * butterfly_cost + pointwise + assembly


def add_cycles(bits_a: int, bits_b: int = 0) -> float:
    """Accelerator cycles for addition/subtraction."""
    _check_bits("bits_a", bits_a)
    _check_bits("bits_b", bits_b)
    return _MODEL.add_cycles(max(bits_a, bits_b))


def shift_cycles() -> float:
    """Shifts are timing delays: dispatch cost only."""
    return _MODEL.shift_cycles()


def div_cycles(bits_a: int, bits_b: int) -> float:
    """Division by Newton reciprocal: a few multiplies at operand size."""
    _check_bits("bits_a", bits_a)
    _check_bits("bits_b", bits_b)
    return 3.5 * mul_cycles(bits_a, max(bits_b, 1)) + DISPATCH_CYCLES


def sqrt_cycles(bits: int) -> float:
    """Square root: ~2x a multiply (precision-doubling Newton)."""
    _check_bits("bits", bits)
    return 2.0 * mul_cycles(bits, bits) + DISPATCH_CYCLES


def powmod_cycles(mod_bits: int, exp_bits: int) -> float:
    """Montgomery exponentiation: ~2.5 hardware products per exp bit.

    Each step is a multiply plus a Montgomery reduction, both composed
    of inner productions on the PE array (Section V-C).
    """
    _check_bits("mod_bits", mod_bits)
    _check_bits("exp_bits", exp_bits)
    per_product = 2.2 * mul_cycles(mod_bits, mod_bits)
    return 1.25 * exp_bits * per_product + DISPATCH_CYCLES


_CMP_CYCLES = float(DISPATCH_CYCLES)

_PRICERS = {
    "mul": lambda op: mul_cycles(op.bits_a, op.bits_b),
    "add": lambda op: add_cycles(op.bits_a, op.bits_b),
    "sub": lambda op: add_cycles(op.bits_a, op.bits_b),
    "shift": lambda op: shift_cycles(),
    "cmp": lambda op: _CMP_CYCLES,
    "logic": lambda op: add_cycles(op.bits_a, op.bits_b),
    "div": lambda op: div_cycles(op.bits_a, max(op.bits_b, 1)),
    "mod": lambda op: div_cycles(op.bits_a, max(op.bits_b, 1)),
    "sqrt": lambda op: sqrt_cycles(op.bits_a),
    "powmod": lambda op: powmod_cycles(op.bits_a, max(op.bits_b, 1)),
    # Sign/exponent handling stays on the host CPU (Section V-C): it is
    # negligible but non-zero, priced at host speed scaled to cycles.
    "highlevel": lambda op: 20.0,
    "aux": lambda op: 20.0,
}


@dataclass
class AcceleratorCost:
    """Modeled cost of a workload on Cambricon-P."""

    seconds: float
    joules: float
    cycles_by_class: dict

    def breakdown(self) -> dict:
        total = sum(self.cycles_by_class.values()) or 1.0
        return {name: cycles / total
                for name, cycles in self.cycles_by_class.items()}


def _traffic_bits(op) -> float:
    """Approximate LLC bits moved by one operator (for LLC energy)."""
    return 3.0 * max(op.bits_a, op.bits_b)


def price_trace(trace: OperationTrace,
                config: CambriconPConfig = DEFAULT_CONFIG
                ) -> AcceleratorCost:
    """Price a recorded trace on the Cambricon-P + MPApca model."""
    cycles_by_class: dict = {}
    llc_bits = 0.0
    for op in trace.ops:
        pricer = _PRICERS.get(op.name, _PRICERS["highlevel"])
        cycles_by_class[op.name] = cycles_by_class.get(op.name, 0.0) \
            + pricer(op)
        llc_bits += _traffic_bits(op)
    total_cycles = sum(cycles_by_class.values())
    seconds = total_cycles / config.frequency_hz
    joules = (power_w(config) * seconds
              + llc_bits * LLC_ENERGY_PJ_PER_BIT * 1e-12)
    return AcceleratorCost(seconds, joules, cycles_by_class)


def multiply_seconds(bits: int) -> float:
    """Wall time of one balanced N-bit multiply (Figure 11 curve)."""
    return mul_cycles(bits, bits) / DEFAULT_CONFIG.frequency_hz


@lru_cache(maxsize=4096)
def _mul_plan(bits_a: int, bits_b: int, use_device: bool):
    """The lowered multiply Plan for one width pair (cached: the
    runtime calls this on every ``mul``).

    A device runtime asks for ``device`` explicitly while the product
    fits the monolithic multiplier: ``auto`` picks among host kernels
    only, and the paper figures need the simulator.
    """
    from repro.plan import OpSpec
    from repro.plan.lowering import lower
    fits = max(bits_a, bits_b) <= MONOLITHIC_MAX_BITS
    backend = "device" if use_device and fits else "library"
    return lower(OpSpec("mul", bits_a, bits_b, backend), MPAPCA_POLICY)


class MPApca:
    """Functional runtime: execute operators, accumulate modeled cost.

    Operators compute exact results (through the accelerator's
    functional simulator for multiplies when ``use_device`` is set, or
    the mpn kernels under the MPApca policy otherwise) and accumulate
    modeled accelerator time and energy on the instance.
    """

    def __init__(self, config: CambriconPConfig = DEFAULT_CONFIG,
                 use_device: bool = False) -> None:
        self.config = config
        self.device = CambriconP(config) if use_device else None
        self.cycles = 0.0
        self.llc_bits = 0.0
        self.operations = 0

    # -- operators -----------------------------------------------------------

    def mul(self, a: Nat, b: Nat) -> Nat:
        """Multiplication (monolithic in hardware when it fits).

        The request lowers to a :class:`~repro.plan.lowering.Plan`
        (under the MPApca hardware policy) and executes through
        :meth:`execute_plan`, so what runs, what is accounted, and what
        the planner would price are one and the same.
        """
        bits_a, bits_b = _nat.bit_length(a), _nat.bit_length(b)
        plan = _mul_plan(bits_a, bits_b, self.device is not None)
        self._account(plan.cost(), 3 * max(bits_a, bits_b))
        return self.execute_plan(plan, a, b)

    def execute_plan(self, plan, *operands: Nat) -> Nat:
        """Execute a lowered Plan's kernel chain or device stream.

        Accounting is the caller's job (:meth:`mul` charges
        ``plan.cost()``); execution is exact on either backend.
        """
        if plan.spec.op != "mul":
            raise MpnError("MPApca executes mul plans; %r lowers "
                           "through the high-level operators"
                           % (plan.spec.op,))
        a, b = operands
        if plan.backend == "device":
            if self.device is None:
                raise MpnError("device-backed plan on a library-only "
                               "runtime")
            product, _ = self.device.multiply(a, b)
            return product
        if plan.backend in ("packed", "specialized"):
            # Pin the plan's resolved backend so what runs is exactly
            # what the plan priced (specialized falls back to the
            # generic auto path under REPRO_CODEGEN=0).
            return _raw_mul(a, b, plan.policy(), backend=plan.backend)
        return _raw_mul(a, b, plan.policy())

    def add(self, a: Nat, b: Nat) -> Nat:
        """Parallel addition across PEs with chained GU carries."""
        bits = max(_nat.bit_length(a), _nat.bit_length(b))
        self._account(add_cycles(bits), 3 * bits)
        return _nat.add(a, b)

    def sub(self, a: Nat, b: Nat) -> Nat:
        """Subtraction: inverted subtrahend bitflow + initial carry."""
        bits = max(_nat.bit_length(a), _nat.bit_length(b))
        self._account(add_cycles(bits), 3 * bits)
        return _nat.sub(a, b)

    def shift(self, a: Nat, count: int, left: bool = True) -> Nat:
        """Bit shifts as timing delays."""
        self._account(shift_cycles(), 0)
        return _nat.shl(a, count) if left else _nat.shr(a, count)

    # -- accounting -----------------------------------------------------------

    def _account(self, cycles: float, llc_bits: float) -> None:
        self.cycles += cycles
        self.llc_bits += llc_bits
        self.operations += 1

    @property
    def seconds(self) -> float:
        """Accumulated modeled wall time."""
        return self.cycles / self.config.frequency_hz

    @property
    def joules(self) -> float:
        """Accumulated modeled energy (core + LLC)."""
        return (power_w(self.config) * self.seconds
                + self.llc_bits * LLC_ENERGY_PJ_PER_BIT * 1e-12)
