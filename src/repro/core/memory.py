"""Memory agents and bitflow traffic accounting (Section V-B3).

The Core Memory Agent (CMA) reads cache lines from the shared LLC and
dispatches them in blocks of "4 flows, each of 32-bit length" onto the
core data bus; PE Memory Agents (PEMAs) buffer a block until the next
arrives.  Patterns are multicast along array rows and indexes along
columns, so a wave of passes fetches each distinct chunk and window
once — the data reuse that makes the convolution traffic so much lower
than the naive per-term fetch (Figure 7a).

This module accounts traffic (LLC reads/writes in bits) for a multiply
shape, and models the available streaming bandwidth, including the
paper's 50% memory-agent duty cycle reserved for CPU memory ordering
and coherence (Section VII-B, roofline discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import MultiplyShape

#: LLC bandwidth seen by Cambricon-P (Table III): 512 GB/s.
LLC_BANDWIDTH_BYTES_PER_SEC = 512 * 10 ** 9

#: Fraction of cycles the memory agent may issue (coherence reservation).
MEMORY_AGENT_DUTY = 0.5

#: Block dispatched on the internal bus per transfer: 4 flows x 32 bits.
BLOCK_BITS = 4 * 32


@dataclass
class TrafficReport:
    """LLC traffic of one accelerator operation, in bits."""

    pattern_read_bits: int
    index_read_bits: int
    output_write_bits: int

    @property
    def total_bits(self) -> int:
        return (self.pattern_read_bits + self.index_read_bits
                + self.output_write_bits)

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0


class MemoryAgent:
    """CMA-level traffic model for multiply schedules."""

    def __init__(self, num_ipus: int = 32, q: int = 4,
                 limb_bits: int = 32) -> None:
        self.num_ipus = num_ipus
        self.q = q
        self.limb_bits = limb_bits

    def multiply_traffic(self, shape: MultiplyShape) -> TrafficReport:
        """Traffic for a monolithic multiplication with multicast reuse.

        Each distinct pattern chunk and index window crosses the LLC
        interface once (rows/columns multicast them to PEs); the product
        is streamed out once.
        """
        return self._traffic(shape, shape.chunks, shape.windows)

    def naive_multiply_traffic(self, shape: MultiplyShape) -> TrafficReport:
        """Traffic without multicast reuse (every pass fetches its own)."""
        return self._traffic(shape, shape.num_passes, shape.num_passes)

    def _traffic(self, shape: MultiplyShape, chunk_fetches: int,
                 window_fetches: int) -> TrafficReport:
        pattern_bits = chunk_fetches * self.q * self.limb_bits
        window_limbs = self.num_ipus + self.q - 1
        index_bits = window_fetches * window_limbs * self.limb_bits
        output_bits = (shape.num_x_limbs + shape.num_y_limbs) \
            * self.limb_bits
        return TrafficReport(pattern_bits, index_bits, output_bits)

    def streaming_cycles(self, traffic: TrafficReport,
                         frequency_hz: float = 2.0e9) -> float:
        """Cycles needed to move the traffic at the duty-limited bandwidth."""
        bytes_per_cycle = (LLC_BANDWIDTH_BYTES_PER_SEC / frequency_hz
                           * MEMORY_AGENT_DUTY)
        return traffic.total_bytes / bytes_per_cycle
