"""ASCII figure rendering for the reproduced evaluation plots.

The benchmark harness writes tables; this module turns the headline
curves — Figure 11's time-vs-bitwidth lines and Figure 13's
speedup-vs-precision series — into log-scale ASCII charts, so the
repository produces actual *figures* without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

Series = Dict[str, List[Tuple[float, float]]]

#: Glyphs assigned to series in order.
GLYPHS = "ox+*#@"


def _log_positions(values: Sequence[float], size: int) -> List[int]:
    low = math.log10(min(values))
    high = math.log10(max(values))
    span = (high - low) or 1.0
    return [round((math.log10(v) - low) / span * (size - 1))
            for v in values]


def render_loglog(series: Series, width: int = 72, height: int = 24,
                  title: str = "", x_label: str = "",
                  y_label: str = "") -> str:
    """Render named (x, y) series on a log-log ASCII grid."""
    all_x = [x for points in series.values() for x, _ in points]
    all_y = [y for points in series.values() for _, y in points]
    if not all_x:
        return "(no data)"
    x_low, x_high = math.log10(min(all_x)), math.log10(max(all_x))
    y_low, y_high = math.log10(min(all_y)), math.log10(max(all_y))
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        glyph = GLYPHS[index % len(GLYPHS)]
        for x, y in points:
            col = round((math.log10(x) - x_low) / x_span * (width - 1))
            row = round((math.log10(y) - y_low) / y_span * (height - 1))
            grid[height - 1 - row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    top_label = "%.0e" % (10 ** y_high)
    bottom_label = "%.0e" % (10 ** y_low)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(8)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(8)
        elif row_index == height // 2 and y_label:
            prefix = y_label[:8].rjust(8)
        else:
            prefix = " " * 8
        lines.append(prefix + " |" + "".join(row))
    lines.append(" " * 8 + " +" + "-" * width)
    lines.append(" " * 10 + ("%.0e" % (10 ** x_low)).ljust(width - 8)
                 + "%.0e" % (10 ** x_high))
    if x_label:
        lines.append(" " * 10 + x_label)
    legend = "   ".join("%s %s" % (GLYPHS[i % len(GLYPHS)], name)
                        for i, name in enumerate(series))
    lines.append("legend: " + legend)
    return "\n".join(lines)


def _figure11_point(bits: int) -> Dict[str, float]:
    """One Figure-11 column: per-platform seconds at ``bits``.

    Top-level (picklable) so a :class:`~repro.parallel.ParallelExecutor`
    can fan the sweep out across worker processes.
    """
    from repro.platforms import avx512, cpu, gpu
    from repro.runtime import mpapca
    point: Dict[str, float] = {
        "bits": float(bits),
        "CPU+GMP": cpu.multiply_seconds(bits),
        "Cambricon-P": mpapca.multiply_seconds(bits),
    }
    if gpu.applicable(bits):
        point["V100+CGBN"] = gpu.multiply_seconds(bits, batch=10000)
    if avx512.applicable(bits):
        point["AVX512IFMA"] = avx512.multiply_seconds(bits)
    return point


def figure11_data(max_bits: int = 1 << 26, executor=None) -> Series:
    """Figure 11's series data: platform -> [(bits, seconds), ...].

    The per-bitwidth points are independent model evaluations, so an
    executor parallelizes them; ordered gathering keeps the series
    identical to a serial sweep (golden-file tested).
    """
    sizes = []
    bits = 64
    while bits <= max_bits:
        sizes.append(bits)
        bits *= 2
    if executor is None:
        from repro.parallel import ParallelExecutor
        executor = ParallelExecutor()
    points = executor.map(_figure11_point, sizes)
    series: Series = {"CPU+GMP": [], "Cambricon-P": [], "V100+CGBN": [],
                      "AVX512IFMA": []}
    for x, point in zip(sizes, points):
        for name in series:
            if name in point:
                series[name].append((x, point[name]))
    return series


def figure_11(max_bits: int = 1 << 26, executor=None) -> str:
    """Figure 11 as ASCII: multiply time vs bitwidth per platform."""
    return render_loglog(figure11_data(max_bits, executor),
                         title="Figure 11: N-bit multiply time (s)",
                         x_label="operand bits (log)",
                         y_label="sec")


#: (series name, x value, synthetic-trace builder, builder args) for
#: every Figure-13 point; module-level so the points can be computed in
#: worker processes by name.
FIGURE13_POINTS: List[Tuple[str, int, str, tuple]] = (
    [("Pi", d, "pi_trace", (d,)) for d in (10 ** 4, 10 ** 5, 10 ** 6)]
    + [("Frac", p, "frac_trace", (p // 4, p))
       for p in (4096, 16384, 65536)]
    + [("zkcm", p, "zkcm_trace", (6, p)) for p in (2048, 3072, 4096)]
    + [("RSA", b, "rsa_trace", (b,)) for b in (4096, 16384, 65536)]
)


def _figure13_point(spec: Tuple[str, int, str, tuple]
                    ) -> Tuple[str, int, float]:
    """(series, x, speedup) for one synthetic application point."""
    from repro.apps import synthetic
    from repro.platforms import cpu
    from repro.runtime import mpapca
    name, x, builder, args = spec
    trace = getattr(synthetic, builder)(*args)
    speedup = (cpu.price_trace(trace).seconds
               / mpapca.price_trace(trace).seconds)
    return name, x, speedup


def figure13_data(executor=None) -> Series:
    """Figure 13's series data: app -> [(size, speedup), ...]."""
    if executor is None:
        from repro.parallel import ParallelExecutor
        executor = ParallelExecutor()
    results = executor.map(_figure13_point, FIGURE13_POINTS)
    series: Series = {}
    for name, x, speedup in results:
        series.setdefault(name, []).append((x, speedup))
    return series


def figure_13(executor=None) -> str:
    """Figure 13 as ASCII: app speedups vs problem size (synthetic)."""
    return render_loglog(figure13_data(executor),
                         title="Figure 13: app speedup vs size "
                               "(Cambricon-P over CPU)",
                         x_label="problem size (digits/bits, log)",
                         y_label="speedup")
