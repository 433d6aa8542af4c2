"""The top-level Cambricon-P accelerator: functional + cycle simulator.

Ties the CC schedule, the PE array, the memory agents and the Adder
Tree into an executable device.  ``multiply`` runs the real dataflow —
every pass evaluates its 32 aligned partial-sums and carry-parallel
gather exactly as the hardware would — and returns both the exact
product (validated against the mpn library in tests) and an execution
report with cycles, traffic, and utilization from the calibrated model.

Two fidelity levels are offered per pass: the word-level fast path and
the cycle-stepped bit-serial path (Converter/IPU/GU stepping bit by
bit).  They are bit-identical; the bit-serial path exists to validate
the microarchitecture and is used for smaller operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adder_tree import AdderTree
from repro.core.controller import CoreController
from repro.core.memory import MemoryAgent, TrafficReport
from repro.core.model import CambriconPConfig, CambriconPModel, DEFAULT_CONFIG
from repro.core.pe import ProcessingElement, slab_significance_limbs
from repro.core.transform import from_limbs, to_limbs
from repro.mpn import nat
from repro.mpn.nat import MpnError, Nat


@dataclass
class ExecutionReport:
    """What one accelerator operation cost."""

    operation: str
    cycles: float
    seconds: float
    num_passes: int
    num_waves: int
    traffic: TrafficReport
    max_gather_carry: int

    @property
    def utilization(self) -> float:
        """Fraction of pass slots doing useful work in the final wave."""
        if self.num_waves == 0:
            return 0.0
        slots = self.num_waves * 256
        return min(1.0, self.num_passes / slots)


class CambriconP:
    """A Cambricon-P device instance."""

    def __init__(self, config: CambriconPConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.controller = CoreController(config.num_pes, config.num_ipus,
                                         config.q)
        self.memory = MemoryAgent(config.num_ipus, config.q,
                                  config.limb_bits)
        self.model = CambriconPModel(config)
        # PEs are stateless between passes; one template instance is
        # stepped for every scheduled pass (the simulator's time-share).
        self._pe = ProcessingElement(config.num_ipus, config.q,
                                     config.limb_bits)

    # -- primary operator -----------------------------------------------------

    def multiply(self, a: Nat, b: Nat,
                 bit_serial: bool = False) -> tuple[Nat, ExecutionReport]:
        """Exact product of two naturals through the PE array."""
        if nat.is_zero(a) or nat.is_zero(b):
            return [], self._empty_report("multiply")
        x_limbs = to_limbs(a, self.config.limb_bits)
        y_limbs = to_limbs(b, self.config.limb_bits)
        schedule = self.controller.plan_multiply(len(x_limbs), len(y_limbs))

        tree = AdderTree(self.config.limb_bits)
        slabs = []
        max_carry = 0
        window_limbs = self._pe.window_limbs
        for pass_ in schedule.passes:
            chunk = _slice_limbs(x_limbs, pass_.chunk_offset_limbs,
                                 self.config.q)
            window = _slice_limbs(y_limbs, pass_.window_base_limbs,
                                  window_limbs)
            if bit_serial:
                result = self._pe.compute_pass_bit_serial(chunk, window)
            else:
                result = self._pe.compute_pass(chunk, window)
            max_carry = max(max_carry, result.gather.max_carry)
            if result.slab:
                significance = slab_significance_limbs(
                    pass_.chunk_offset_limbs, pass_.window_base_limbs,
                    self.config.q)
                slabs.append((result.slab, significance))
        product = tree.integrate(slabs)

        traffic = self.memory.multiply_traffic(schedule)
        cycles = self.model.multiply_cycles(nat.bit_length(a),
                                            nat.bit_length(b))
        report = ExecutionReport(
            operation="multiply",
            cycles=cycles,
            seconds=self.model.seconds(cycles),
            num_passes=schedule.num_passes,
            num_waves=schedule.num_waves,
            traffic=traffic,
            max_gather_carry=max_carry,
        )
        return product, report

    def multiply_batch(self, pairs: list[tuple[Nat, Nat]],
                       executor=None) -> tuple[list[Nat], ExecutionReport]:
        """Batch-processing multiplications (the CGBN comparison mode).

        Independent multiplications share the PE array back to back:
        their pass schedules concatenate into one pipeline, the fill
        and dispatch costs are paid once, and the report's seconds are
        the batch total (divide by len(pairs) for the amortized per-op
        figure of Table III).

        ``executor`` (a :class:`repro.parallel.ParallelExecutor`) fans
        the independent pass simulations out across worker processes;
        products and the combined report are identical to the serial
        path because each per-pair simulation is deterministic and the
        gather preserves submission order.
        """
        if executor is not None and executor.workers > 1 and len(pairs) > 1:
            outcomes = executor.map(
                _simulate_multiply,
                [(self.config, list(a), list(b)) for a, b in pairs])
        else:
            outcomes = [self.multiply(a, b) for a, b in pairs]
        reports = [report for _, report in outcomes]
        return [product for product, _ in outcomes], self._batch_report(
            sum(r.num_passes for r in reports),
            [r.traffic for r in reports],
            max((r.max_gather_carry for r in reports), default=0))

    def _batch_report(self, total_passes: int,
                      traffics: list[TrafficReport],
                      max_carry: int) -> ExecutionReport:
        """Price back-to-back schedules as one pipeline: waves pack
        densely, fill and dispatch are paid once."""
        if not total_passes:
            return self._empty_report("multiply_batch")
        total_traffic = TrafficReport(
            sum(t.pattern_read_bits for t in traffics),
            sum(t.index_read_bits for t in traffics),
            sum(t.output_write_bits for t in traffics))
        waves = -(-total_passes // self.config.num_pes)
        compute = waves * self.model.pass_occupancy_cycles \
            + self.model.pass_latency_cycles
        streaming = self.memory.streaming_cycles(
            total_traffic, self.config.frequency_hz)
        cycles = max(compute, streaming)
        return ExecutionReport(
            operation="multiply_batch",
            cycles=cycles,
            seconds=self.model.seconds(cycles),
            num_passes=total_passes,
            num_waves=waves,
            traffic=total_traffic,
            max_gather_carry=max_carry,
        )

    # -- secondary operators ---------------------------------------------------

    def add(self, a: Nat, b: Nat) -> tuple[Nat, ExecutionReport]:
        """Parallel addition via scattered PEs + chained GU carries."""
        total = nat.add(a, b)
        bits = max(nat.bit_length(a), nat.bit_length(b))
        cycles = self.model.add_cycles(bits)
        return total, self._streaming_report("add", bits, cycles)

    def subtract(self, a: Nat, b: Nat) -> tuple[Nat, ExecutionReport]:
        """Subtraction: inverted subtrahend bitflow + initial carry."""
        if nat.cmp(a, b) < 0:
            raise MpnError("accelerator subtract requires a >= b")
        total = nat.sub(a, b)
        bits = max(nat.bit_length(a), nat.bit_length(b))
        cycles = self.model.add_cycles(bits)
        return total, self._streaming_report("sub", bits, cycles)

    def shift(self, a: Nat, count: int,
              left: bool = True) -> tuple[Nat, ExecutionReport]:
        """Bit shifts: pure timing delay/advance of the bitflows."""
        result = nat.shl(a, count) if left else nat.shr(a, count)
        cycles = self.model.shift_cycles()
        return result, self._streaming_report("shift", nat.bit_length(a),
                                              cycles)

    def inner_product(self, x_vec: list[int],
                      y_vec: list[int]) -> tuple[int, ExecutionReport]:
        """Explicit inner product of two equal-length limb vectors."""
        if len(x_vec) != len(y_vec):
            raise MpnError("inner product needs equal-length vectors")
        if not x_vec:
            return 0, self._empty_report("inner_product")
        total = 0
        q = self.config.q
        for start in range(0, len(x_vec), q):
            chunk_x = x_vec[start:start + q]
            chunk_y = y_vec[start:start + q]
            from repro.core.bips import bips_inner_product
            total += bips_inner_product(
                list(chunk_x) + [0] * (q - len(chunk_x)),
                list(chunk_y) + [0] * (q - len(chunk_y)))
        cycles = self.model.inner_product_cycles(
            len(x_vec), self.config.limb_bits)
        return total, self._streaming_report("inner_product",
                                             len(x_vec)
                                             * self.config.limb_bits,
                                             cycles)

    def selftest(self, seed: int = 2022, verbose: bool = False) -> bool:
        """Built-in validation sweep (like a device power-on self-test).

        Random multiplies across operand sizes — including one true
        bit-serial cross-check — are compared against the mpn library.
        Returns True on success; raises on the first mismatch.
        """
        import random as _random
        from repro.mpn.mul import mul as _reference_mul
        rng = _random.Random(seed)
        sizes = [17, 64, 100, 1000, 4096]
        for bits in sizes:
            a = nat.nat_from_int(rng.getrandbits(bits) | (1 << (bits - 1)))
            b = nat.nat_from_int(rng.getrandbits(bits) | (1 << (bits - 1)))
            product, _ = self.multiply(a, b)
            if product != _reference_mul(a, b):
                raise MpnError("selftest mismatch at %d bits" % bits)
            if verbose:
                print("selftest %5d bits: ok" % bits)  # repro: noqa=print-in-kernel -- opt-in verbose selftest
        a = nat.nat_from_int(rng.getrandbits(200))
        b = nat.nat_from_int(rng.getrandbits(150))
        bit_serial, _ = self.multiply(a, b, bit_serial=True)
        if bit_serial != _reference_mul(a, b):
            raise MpnError("selftest bit-serial mismatch")
        if verbose:
            print("selftest bit-serial path: ok")  # repro: noqa=print-in-kernel -- opt-in verbose selftest
        return True

    # -- helpers ---------------------------------------------------------------

    def _empty_report(self, operation: str) -> ExecutionReport:
        return ExecutionReport(operation, 0.0, 0.0, 0, 0,
                               TrafficReport(0, 0, 0), 0)

    def _streaming_report(self, operation: str, bits: int,
                          cycles: float) -> ExecutionReport:
        traffic = TrafficReport(bits, bits, bits)
        return ExecutionReport(operation, cycles,
                               self.model.seconds(cycles), 0, 0, traffic, 0)


def _slice_limbs(limbs: list[int], start: int, count: int) -> list[int]:
    """Limb window with zero padding outside the operand bounds."""
    return [limbs[i] if 0 <= i < len(limbs) else 0
            for i in range(start, start + count)]


#: Per-worker-process device instances for parallel batch simulation,
#: keyed by (frozen, hashable) configuration.
_WORKER_DEVICES: dict = {}


def _simulate_multiply(task: tuple) -> tuple[Nat, ExecutionReport]:
    """Worker-side pass simulation of one (config, a, b) multiply.

    Top-level (hence picklable) and cached per configuration, so a
    worker builds its device once and then streams pairs through it.
    """
    config, a, b = task
    device = _WORKER_DEVICES.get(config)
    if device is None:
        device = CambriconP(config)
        _WORKER_DEVICES[config] = device
    return device.multiply(a, b)
