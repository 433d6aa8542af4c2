"""Fractal control: workload decomposition and PE scheduling (Section V-B3).

Cambricon-P "adopts recursive decomposition for control": the Core
Controller (CC) splits an arbitrary-precision operation into inner-
product pieces and maps them onto PEs; each PE Controller (PEC) splits
its piece across IPUs — the same form at every level (the fractal
scheme of Cambricon-F).  For a monolithic multiplication the CC
enumerates (pattern-chunk, index-window) passes, tiles them onto the
PE array in waves, and arranges the window bases so consecutive slabs
cover consecutive 32-point spans of the output convolution.

Patterns are shared along array rows and indexes along columns
(multicast), which the traffic model in :mod:`repro.core.memory`
accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.mpn.nat import MpnError


@dataclass(frozen=True)
class Pass:
    """One PE pass of a monolithic multiplication."""

    pe_index: int           # which PE executes the pass
    wave: int               # schedule step (all passes in a wave overlap)
    chunk_index: int        # x pattern chunk number (c0 = 4*chunk_index)
    window_index: int       # y window number (j0 = 32*window_index - 3)
    chunk_offset_limbs: int
    window_base_limbs: int  # j0 (may be negative: zero-padded edge)


@dataclass(frozen=True)
class MultiplyShape:
    """Closed-form size of a monolithic multiplication's schedule.

    Everything the cycle and traffic models need — chunk, window, pass
    and wave counts — without materializing a single :class:`Pass`.
    """

    num_x_limbs: int
    num_y_limbs: int
    chunks: int
    windows: int
    num_pes: int

    @property
    def num_passes(self) -> int:
        return self.chunks * self.windows

    @property
    def num_waves(self) -> int:
        return -(-self.num_passes // self.num_pes)


@dataclass(frozen=True)
class MultiplySchedule(MultiplyShape):
    """Full pass schedule for one monolithic multiplication."""

    passes: List[Pass]

    def waves(self) -> Iterator[List[Pass]]:
        """Iterate passes grouped by wave.

        Passes are in serial order with ``wave = serial // num_pes``,
        so every wave is one contiguous slice.
        """
        for start in range(0, len(self.passes), self.num_pes):
            yield self.passes[start:start + self.num_pes]


class CoreController:
    """The CC: decomposes multiplications into PE pass schedules."""

    def __init__(self, num_pes: int = 256, num_ipus: int = 32,
                 q: int = 4) -> None:
        self.num_pes = num_pes
        self.num_ipus = num_ipus
        self.q = q

    def chunk_count(self, num_x_limbs: int) -> int:
        """Pattern chunks needed to cover the x operand."""
        return -(-num_x_limbs // self.q)

    def window_count(self, num_y_limbs: int) -> int:
        """Index windows needed to cover every convolution point.

        Chunk c0 contributes to t in [c0, c0 + q - 1 + ny - 1]; window w
        covers t in [c0 + 32w, c0 + 32w + 31], so windows run until
        32w > ny + q - 2.
        """
        return -(-(num_y_limbs + self.q - 1) // self.num_ipus)

    def covers(self, num_x_limbs: int, num_y_limbs: int) -> bool:
        """True when the chunk/window plan reaches every output point.

        Chunk c0's passes cover t in [c0 + 32w - (q-1) + q - 1, ...]
        for each window w; the last window must reach the top
        convolution point t = nx + ny - 2, i.e. the windows must span
        ny + q - 1 limbs (the sliding window's look-back).  Used by the
        stream verifier to diagnose plan-incompatible IP vector shapes
        before simulation.
        """
        if num_x_limbs < 1 or num_y_limbs < 1:
            return False
        return (self.window_count(num_y_limbs) * self.num_ipus
                >= num_y_limbs + self.q - 1)

    def multiply_shape(self, num_x_limbs: int,
                       num_y_limbs: int) -> MultiplyShape:
        """Pass/wave counts of an (nx x ny)-limb multiply, in O(1)."""
        if num_x_limbs < 1 or num_y_limbs < 1:
            raise MpnError("multiplication needs non-empty operands")
        return MultiplyShape(num_x_limbs, num_y_limbs,
                             self.chunk_count(num_x_limbs),
                             self.window_count(num_y_limbs),
                             self.num_pes)

    def plan_multiply(self, num_x_limbs: int,
                      num_y_limbs: int) -> MultiplySchedule:
        """Schedule a monolithic (nx x ny)-limb multiplication."""
        shape = self.multiply_shape(num_x_limbs, num_y_limbs)
        windows = shape.windows
        passes: List[Pass] = []
        for serial in range(shape.num_passes):
            chunk_index, window_index = divmod(serial, windows)
            passes.append(Pass(
                pe_index=serial % self.num_pes,
                wave=serial // self.num_pes,
                chunk_index=chunk_index,
                window_index=window_index,
                chunk_offset_limbs=chunk_index * self.q,
                window_base_limbs=window_index * self.num_ipus
                - (self.q - 1),
            ))
        return MultiplySchedule(num_x_limbs, num_y_limbs, shape.chunks,
                                windows, self.num_pes, passes)


class PEController:
    """The PEC: splits a PE's piece across its IPUs.

    In the monolithic-multiply mapping the decomposition is implicit in
    the sliding index window (IPU i reads limbs [i, i+q-1]); for
    standalone inner products the PEC tiles the vector into q-element
    sub-products, one per IPU, combined by the GU (Figure 10 modes).
    """

    def __init__(self, num_ipus: int = 32, q: int = 4) -> None:
        self.num_ipus = num_ipus
        self.q = q

    def tile_inner_product(self, length: int) -> List[range]:
        """q-element tiles covering a length-n inner product."""
        if length < 1:
            raise MpnError("inner product needs at least one element")
        return [range(start, min(start + self.q, length))
                for start in range(0, length, self.q)]

    def tiles_per_pass(self) -> int:
        """Tiles evaluated concurrently (one per IPU)."""
        return self.num_ipus
