"""Batch-processing throughput (the CGBN comparison context).

Table III amortizes the V100's time over a 100,000-multiply batch;
Cambricon-P's batch mode concatenates independent multiplications into
one pipeline, paying fill and dispatch once.  This bench measures the
amortization curve and checks the batched device against the analytic
throughput model.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit, fmt_row
from repro.core.accelerator import CambriconP
from repro.mpn import nat


def test_batch_amortization_curve(results_dir, benchmark):
    rng = random.Random(41)
    device = CambriconP()
    bits = 2048
    single_seconds = None
    lines = ["Batch-processing amortization (2048-bit multiplies)",
             fmt_row("batch", "total (s)", "per-op (s)", "vs single",
                     widths=[6, 11, 11, 10])]
    for batch_size in (1, 4, 16, 64):
        pairs = [(nat.nat_from_int(rng.getrandbits(bits) | 1),
                  nat.nat_from_int(rng.getrandbits(bits) | 1))
                 for _ in range(batch_size)]
        products, report = device.multiply_batch(pairs)
        for (a, b), product in zip(pairs, products):
            assert nat.nat_to_int(product) \
                == nat.nat_to_int(a) * nat.nat_to_int(b)
        per_op = report.seconds / batch_size
        if batch_size == 1:
            single_seconds = per_op
        lines.append(fmt_row(batch_size, "%.3e" % report.seconds,
                             "%.3e" % per_op,
                             "%.2fx" % (single_seconds / per_op),
                             widths=[6, 11, 11, 10]))
    lines += ["",
              "fill/dispatch amortize away; per-op time approaches the",
              "pipelined wave cost (the Table III reporting mode)"]
    emit(results_dir, "batch_throughput", lines)
    assert single_seconds is not None

    pairs = [(nat.nat_from_int(rng.getrandbits(512)),
              nat.nat_from_int(rng.getrandbits(512)))
             for _ in range(4)]
    benchmark(device.multiply_batch, pairs)


def test_batch_converges_to_throughput_model(results_dir):
    rng = random.Random(42)
    device = CambriconP()
    bits = 4096
    batch_size = 64
    pairs = [(nat.nat_from_int(rng.getrandbits(bits) | (1 << (bits - 1))),
              nat.nat_from_int(rng.getrandbits(bits) | (1 << (bits - 1))))
             for _ in range(batch_size)]
    _, report = device.multiply_batch(pairs)
    per_op = report.seconds / batch_size
    # A single op leaves the final wave partially idle (160 passes on
    # 256 PEs); batching packs waves densely, so the right yardstick is
    # the unrounded ideal: passes * occupancy / array size.
    shape = device.controller.multiply_shape(bits // 32, bits // 32)
    ideal_cycles = (shape.num_passes
                    * device.model.pass_occupancy_cycles
                    / device.config.num_pes)
    ideal = device.model.seconds(ideal_cycles)
    rounded = device.model.multiply_throughput_seconds(bits, bits)
    lines = ["Batched per-op vs the analytic models (4096b)",
             "batched/64: %.3e s   ideal (packed): %.3e s   "
             "single-op throughput: %.3e s" % (per_op, ideal, rounded),
             "batch packing recovers the idle slots of the single-op "
             "final wave",
             "ratio to ideal: %.3f" % (per_op / ideal)]
    emit(results_dir, "batch_vs_model", lines)
    assert 0.9 < per_op / ideal < 1.3
    assert per_op <= rounded  # packing can only help
