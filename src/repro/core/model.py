"""Analytic cycle model of Cambricon-P (Methodology, Section VI-A).

The paper evaluates performance with a cycle-accurate simulator
calibrated against the RTL layout.  Our substitute derives cycle counts
from the same structural terms the hardware exhibits:

* a pass (one pattern chunk x one index window on one PE) occupies its
  PE for L cycles in steady state — the index bitflows are L bits long
  and everything downstream is pipelined;
* a monolithic multiply needs ``chunks x windows`` passes executed in
  waves of N_PE — counted in closed form from the operand widths
  (:meth:`~repro.core.controller.CoreController.multiply_shape`), never
  by enumerating the passes;
* the pipeline fill/drain is one pass latency (Converter + IPU + GU);
* the memory agents stream traffic at the duty-limited LLC bandwidth,
  and the operation time is the max of compute and streaming;
* a host dispatch overhead is paid once per offloaded operator.

Constants are fitted so the 256 PE x 32 IPU configuration reproduces
the paper's published design points (e.g. a 4096x4096-bit multiply in
~1.6e-8 s of pipelined throughput, Table III); everything else scales
structurally.  The functional simulator in
:mod:`repro.core.accelerator` uses the same model so measured and
analytic cycles always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import CoreController, MultiplyShape
from repro.core.memory import MemoryAgent

#: Fixed host-dispatch cost per offloaded operator (CPU/accelerator
#: interaction through the shared LLC), in accelerator cycles.
DISPATCH_CYCLES = 40


@dataclass(frozen=True)
class CambriconPConfig:
    """Structural configuration of the accelerator (Section VII-A)."""

    num_pes: int = 256
    num_ipus: int = 32
    q: int = 4
    limb_bits: int = 32
    frequency_hz: float = 2.0e9

    def __post_init__(self) -> None:
        if self.num_pes < 1 or self.num_ipus < 1:
            raise ValueError("the array needs at least one PE and IPU")
        if self.num_ipus & (self.num_ipus - 1):
            raise ValueError("IPU count must be a power of two "
                             "(Figure 10's FA-disable combining)")
        if not 1 <= self.q <= 8:
            raise ValueError("q must be in [1, 8] (2^q patterns)")
        if self.limb_bits < 4:
            raise ValueError("limb width below 4 bits is meaningless")
        if self.frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")

    @property
    def total_ipus(self) -> int:
        return self.num_pes * self.num_ipus

    @property
    def monolithic_max_bits(self) -> int:
        """Largest efficiently-monolithic multiply (Section VII-B): 35904.

        1122 limbs: beyond this the working set exceeds what the LLC
        integration streams efficiently and MPApca switches to fast
        algorithms (the delayed Karatsuba threshold).
        """
        return 35904


DEFAULT_CONFIG = CambriconPConfig()


class CambriconPModel:
    """Cycle/throughput model for accelerator operations."""

    def __init__(self, config: CambriconPConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.controller = CoreController(config.num_pes, config.num_ipus,
                                         config.q)
        self.memory = MemoryAgent(config.num_ipus, config.q,
                                  config.limb_bits)

    # -- structural helpers ------------------------------------------------

    @property
    def pass_occupancy_cycles(self) -> int:
        """Steady-state cycles a pass holds a PE: the L index bits."""
        return self.config.limb_bits

    @property
    def pass_latency_cycles(self) -> int:
        """Fill/drain latency of one pass through Converter+IPU+GU."""
        pattern_bits = self.config.limb_bits + max(
            1, (self.config.q - 1).bit_length())
        return pattern_bits + self.config.limb_bits + self.config.q

    def _limbs(self, bits: int) -> int:
        return max(1, -(-bits // self.config.limb_bits))

    def multiply_shape(self, bits_a: int, bits_b: int) -> MultiplyShape:
        """Closed-form pass/wave counts of an (a x b)-bit multiply."""
        return self.controller.multiply_shape(self._limbs(bits_a),
                                              self._limbs(bits_b))

    def _streaming_cycles(self, shape: MultiplyShape) -> float:
        return self.memory.streaming_cycles(
            self.memory.multiply_traffic(shape), self.config.frequency_hz)

    # -- multiplication ------------------------------------------------------

    def multiply_cycles(self, bits_a: int, bits_b: int,
                        include_dispatch: bool = True) -> float:
        """Latency (cycles) of one monolithic multiplication."""
        shape = self.multiply_shape(bits_a, bits_b)
        compute = (shape.num_waves * self.pass_occupancy_cycles
                   + self.pass_latency_cycles)
        cycles = max(compute, self._streaming_cycles(shape))
        if include_dispatch:
            cycles += DISPATCH_CYCLES
        return cycles

    def multiply_throughput_cycles(self, bits_a: int, bits_b: int) -> float:
        """Per-op cycles when batch-pipelined (fill/dispatch amortized)."""
        shape = self.multiply_shape(bits_a, bits_b)
        compute = shape.num_waves * self.pass_occupancy_cycles
        return max(compute, self._streaming_cycles(shape))

    def multiply_seconds(self, bits_a: int, bits_b: int) -> float:
        """Monolithic multiply latency in seconds."""
        return (self.multiply_cycles(bits_a, bits_b)
                / self.config.frequency_hz)

    def multiply_throughput_seconds(self, bits_a: int, bits_b: int) -> float:
        """Batch-amortized per-multiply seconds (Table III reporting)."""
        return (self.multiply_throughput_cycles(bits_a, bits_b)
                / self.config.frequency_hz)

    # -- streaming operators ---------------------------------------------------

    def streaming_bits_per_cycle(self) -> float:
        """Input bits the duty-limited memory agents sustain per cycle."""
        from repro.core.memory import (LLC_BANDWIDTH_BYTES_PER_SEC,
                                       MEMORY_AGENT_DUTY)
        return (LLC_BANDWIDTH_BYTES_PER_SEC * 8 * MEMORY_AGENT_DUTY
                / self.config.frequency_hz)

    def add_cycles(self, bits: int, include_dispatch: bool = True) -> float:
        """Cycles for an addition/subtraction of two n-bit naturals.

        Addends are scattered over PEs, added bit-serially in parallel
        and carry-resolved by the chained GUs (Section V-C); the work is
        stream-bandwidth limited plus a gather latency.
        """
        streamed_bits = 3 * bits  # two operands in, one result out
        cycles = (streamed_bits / self.streaming_bits_per_cycle()
                  + self.config.limb_bits + self.config.num_pes / 8)
        if include_dispatch:
            cycles += DISPATCH_CYCLES
        return cycles

    def shift_cycles(self, include_dispatch: bool = True) -> float:
        """Bit-shifts are timing delays/advancements: dispatch only."""
        return DISPATCH_CYCLES if include_dispatch else 0.0

    # -- derived operators -------------------------------------------------------

    def inner_product_cycles(self, num_elements: int,
                             element_bits: int) -> float:
        """Cycles for an explicit inner product of two limb vectors."""
        tiles = -(-num_elements // self.config.q)
        waves = -(-tiles // self.config.total_ipus)
        compute = (waves * self.pass_occupancy_cycles
                   + self.pass_latency_cycles)
        streamed = 2 * num_elements * element_bits
        streaming = streamed / self.streaming_bits_per_cycle()
        return max(compute, streaming) + DISPATCH_CYCLES

    def seconds(self, cycles: float) -> float:
        """Convert cycles to seconds at the configured frequency."""
        return cycles / self.config.frequency_hz

