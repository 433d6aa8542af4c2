"""Determinism + fallback guarantees of the parallel layer.

The ISSUE-2 contract: same seed + same task list => identical results
in identical order at any worker count, and a worker crash degrades to
the serial path without losing results.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.accelerator import CambriconP
from repro.core.isa import Driver, Instruction, Opcode
from repro.mpn import nat_from_int, nat_to_int
from repro.mpn.mul import GMP_POLICY, mul
from repro.bench.kernels import _random_operand
from repro.parallel import ParallelExecutor
from repro.report import figure11_data, figure13_data
from repro.runtime.scheduler import BatchingDriver


def seeded_product(seed: int) -> int:
    """A deterministic mpn multiply digest (top-level, picklable)."""
    a = _random_operand(40, seed)
    b = _random_operand(40, seed + 13)
    return nat_to_int(mul(a, b, GMP_POLICY))


def crash_in_worker(task: tuple) -> int:
    """Dies hard in a worker process; computes fine in the parent."""
    parent_pid, value = task
    if os.getpid() != parent_pid:
        os._exit(13)
    return value * value


class TestSameResultsAtEveryWorkerCount:
    def test_identical_results_and_order(self):
        seeds = list(range(12))
        serial = [seeded_product(seed) for seed in seeds]
        for workers in (1, 2, 8):
            with ParallelExecutor(workers) as executor:
                assert executor.map(seeded_product, seeds) == serial, \
                    "results diverged at %d workers" % workers

    def test_zero_workers_is_a_strict_noop(self):
        seeds = list(range(6))
        executor = ParallelExecutor(0)
        assert executor.map(seeded_product, seeds) \
            == [seeded_product(seed) for seed in seeds]
        assert executor._pool is None


class TestWorkerCrashFallback:
    def test_crash_degrades_to_serial_with_full_results(self):
        tasks = [(os.getpid(), value) for value in range(8)]
        with ParallelExecutor(2) as executor:
            results = executor.map(crash_in_worker, tasks)
            assert results == [value * value for value in range(8)]
            assert executor.last_mode == "fallback"
            assert executor.stats["fallback"] >= 1

    def test_executor_recovers_after_a_crash(self):
        tasks = [(os.getpid(), value) for value in range(4)]
        with ParallelExecutor(2) as executor:
            executor.map(crash_in_worker, tasks)
            # The broken pool was discarded; a fresh one spins up.
            assert executor.map(seeded_product, [1, 2, 3, 4]) \
                == [seeded_product(seed) for seed in (1, 2, 3, 4)]
            assert executor.last_mode == "parallel"


def _mul_program(driver: Driver, pairs: int) -> list:
    rng = random.Random(0xD15EA5E)
    program = []
    for index in range(pairs):
        a = driver.alloc(nat_from_int(rng.getrandbits(700) | 1))
        b = driver.alloc(nat_from_int(rng.getrandbits(600) | 1))
        program.append(Instruction(Opcode.MUL, (a, b),
                                   destination=1000 + index))
    return program


class TestSchedulerParity:
    def test_batching_driver_parallel_equals_serial(self):
        serial_driver = BatchingDriver()
        serial_log, serial_stats = serial_driver.execute_scheduled(
            _mul_program(serial_driver, 5))
        with ParallelExecutor(2) as executor:
            parallel_driver = BatchingDriver(executor=executor)
            parallel_log, parallel_stats = \
                parallel_driver.execute_scheduled(
                    _mul_program(parallel_driver, 5))
        assert serial_stats == parallel_stats
        assert len(serial_log) == len(parallel_log)
        for mine, theirs in zip(serial_log, parallel_log):
            assert mine.instruction == theirs.instruction
            assert mine.report == theirs.report

    def test_multiply_batch_parity(self):
        device = CambriconP()
        pairs = [(_random_operand(30, seed), _random_operand(25, seed + 5))
                 for seed in range(4)]
        serial_products, serial_report = device.multiply_batch(pairs)
        with ParallelExecutor(2) as executor:
            parallel_products, parallel_report = device.multiply_batch(
                pairs, executor=executor)
        assert serial_products == parallel_products
        assert serial_report == parallel_report


class TestFigureDataParity:
    def test_figure11_data_parallel_equals_serial(self):
        serial = figure11_data(max_bits=1 << 12,
                               executor=ParallelExecutor(0))
        with ParallelExecutor(2) as executor:
            parallel = figure11_data(max_bits=1 << 12, executor=executor)
        assert serial == parallel

    @pytest.mark.slow
    def test_figure13_data_parallel_equals_serial(self):
        serial = figure13_data(executor=ParallelExecutor(0))
        with ParallelExecutor(2) as executor:
            parallel = figure13_data(executor=executor)
        assert serial == parallel
