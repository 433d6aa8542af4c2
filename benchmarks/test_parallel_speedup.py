"""Parallel batch speedup: REPRO_WORKERS=4 vs serial.

One experiment, recorded in ``results/BENCH_parallel.json``:
``simulate_batch`` — functional-simulator multiplies, serial vs a
4-worker :class:`ParallelExecutor` (the exact path
``runtime.scheduler.BatchingDriver`` uses).

The experiment asserts the parallel result is byte-identical to the
serial one.  The >=1.5x speedup acceptance bar only applies where it
is physically possible — on hosts exposing >=2 CPUs.  A 1-CPU
container still runs the benchmark (honest numbers recorded, parity
still asserted) but skips the speedup assertion rather than faking it.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import emit, fmt_row
from repro.core.accelerator import CambriconP
from repro.bench.kernels import _random_operand
from repro.parallel import ParallelExecutor, available_cpus

OPERAND_LIMBS = 320     # ~10k bits: one simulated multiply ~0.3 s
BATCH_PAIRS = 8
WORKERS = 4
REPEATS = 2


def _batch():
    return [(_random_operand(OPERAND_LIMBS, seed),
             _random_operand(OPERAND_LIMBS, seed + 1000))
            for seed in range(BATCH_PAIRS)]


def _best_seconds(thunk) -> tuple:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - start)
    return best, result


def _update_bench(results_dir, experiment, record):
    """Merge one experiment record into results/BENCH_parallel.json."""
    target = results_dir / "BENCH_parallel.json"
    try:
        combined = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        combined = {}
    if "experiments" not in combined:
        combined = {"experiments": {}}
    combined["cpus_available"] = available_cpus()
    combined["workers"] = WORKERS
    combined["experiments"][experiment] = record
    target.write_text(json.dumps(combined, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


def _speedup_gate(speedup, cpus, label):
    if cpus < 2:
        pytest.skip("single-CPU host: %.2fx recorded for %s, >=1.5x "
                    "speedup bar needs >=2 CPUs" % (speedup, label))
    assert speedup >= 1.5, \
        "expected >=1.5x for %s with %d workers on %d CPUs, got %.2fx" \
        % (label, WORKERS, cpus, speedup)


def test_parallel_batch_speedup(results_dir):
    device = CambriconP()
    pairs = _batch()

    serial_seconds, serial_result = _best_seconds(
        lambda: device.multiply_batch(pairs, executor=None))
    with ParallelExecutor(WORKERS) as executor:
        parallel_seconds, parallel_result = _best_seconds(
            lambda: device.multiply_batch(pairs, executor=executor))
        mode = executor.last_mode

    products, report = serial_result
    parallel_products, parallel_report = parallel_result
    assert parallel_products == products, \
        "parallel batch must be byte-identical to serial"
    assert parallel_report == report

    speedup = serial_seconds / parallel_seconds
    cpus = available_cpus()
    _update_bench(results_dir, "simulate_batch", {
        "experiment": "CambriconP.multiply_batch, serial vs "
                      "REPRO_WORKERS=%d" % WORKERS,
        "operand_limbs": OPERAND_LIMBS,
        "batch_pairs": BATCH_PAIRS,
        "repeats_best_of": REPEATS,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "parallel_mode": mode,
        "deterministic": True,
    })

    emit(results_dir, "BENCH_parallel", [
        "Parallel batch: %d simulated multiplies of %d limbs, "
        "best of %d" % (BATCH_PAIRS, OPERAND_LIMBS, REPEATS),
        "",
        fmt_row("configuration", "seconds", widths=[24, 12]),
        fmt_row("serial (workers=0)", "%.3f" % serial_seconds,
                widths=[24, 12]),
        fmt_row("workers=%d" % WORKERS, "%.3f" % parallel_seconds,
                widths=[24, 12]),
        "",
        "speedup: %.2fx on %d available CPU(s)" % (speedup, cpus),
    ])

    _speedup_gate(speedup, cpus, "simulate batch")
