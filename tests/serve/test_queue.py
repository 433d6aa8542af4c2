"""Admission control: depth bound, wait bound, priority ordering."""

import asyncio

import pytest

from repro.serve.jobs import make_job
from repro.serve.queue import (SHED_QUEUE_FULL, SHED_SHUTTING_DOWN,
                               SHED_WAIT_EXCEEDED, AdmissionQueue)


def _job(priority=0, cost=None, a=123456789):
    job = make_job({"op": "mul", "params": {"a": a, "b": 3},
                    "priority": priority})
    if cost is not None:
        job.cost_cycles = cost
    return job


def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_depth_bound_is_hard(self):
        queue = AdmissionQueue(capacity=3)
        for _ in range(3):
            assert queue.try_submit(_job()) is None
        assert queue.try_submit(_job()) == SHED_QUEUE_FULL
        assert queue.depth == 3
        assert queue.max_depth == 3
        assert queue.shed == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)

    def test_closed_queue_sheds_shutting_down(self):
        queue = AdmissionQueue(capacity=4)
        queue.close()
        assert queue.try_submit(_job()) == SHED_SHUTTING_DOWN

    def test_wait_bound_uses_observed_rate(self):
        queue = AdmissionQueue(capacity=100, max_wait_ms=10.0)
        #

        # Before any observation there is no rate: depth rules alone.
        assert queue.estimated_wait_ms() is None
        assert queue.try_submit(_job(cost=1000.0)) is None
        # 1 cycle per ms observed -> 1000 pending cycles = 1000 ms
        # estimated wait, far over the 10 ms bound.
        queue.observe_service(cycles=100.0, wall_ms=100.0)
        assert queue.try_submit(_job(cost=1000.0)) == SHED_WAIT_EXCEEDED
        assert queue.depth == 1

    def test_wait_estimate_tracks_backlog(self):
        queue = AdmissionQueue(capacity=100)
        queue.observe_service(cycles=1000.0, wall_ms=10.0)  # 100 c/ms
        for _ in range(4):
            queue.try_submit(_job(cost=200.0))
        assert queue.estimated_wait_ms() == pytest.approx(8.0)

    def test_ewma_smooths_rate(self):
        queue = AdmissionQueue(capacity=10)
        queue.observe_service(1000.0, 10.0)
        first = queue.estimated_wait_ms(extra_cycles=100.0)
        queue.observe_service(10.0, 10.0)   # much slower batch
        second = queue.estimated_wait_ms(extra_cycles=100.0)
        assert second > first


class TestOrdering:
    def test_priority_first_fifo_within(self):
        async def scenario():
            queue = AdmissionQueue(capacity=10)
            low1, low2 = _job(priority=1), _job(priority=1)
            high = _job(priority=8)
            for job in (low1, low2, high):
                queue.try_submit(job)
            assert await queue.get(0.01) is high
            assert await queue.get(0.01) is low1
            assert await queue.get(0.01) is low2
        run(scenario())

    def test_get_times_out_empty(self):
        async def scenario():
            queue = AdmissionQueue(capacity=2)
            assert await queue.get(timeout=0.01) is None
        run(scenario())

    def test_get_wakes_on_submit(self):
        async def scenario():
            queue = AdmissionQueue(capacity=2)

            async def feed():
                await asyncio.sleep(0.02)
                queue.try_submit(_job())

            feeder = asyncio.ensure_future(feed())
            job = await queue.get(timeout=1.0)
            await feeder
            return job

        assert run(scenario()) is not None

    def test_pending_cycles_balance(self):
        async def scenario():
            queue = AdmissionQueue(capacity=10)
            jobs = [_job(cost=cost) for cost in (100.0, 200.0, 300.0)]
            for job in jobs:
                queue.try_submit(job)
            assert queue.pending_cycles == pytest.approx(600.0)
            for _ in jobs:
                await queue.get(0.01)
            assert queue.pending_cycles == pytest.approx(0.0)
        run(scenario())

    def test_close_wakes_waiting_consumer(self):
        async def scenario():
            queue = AdmissionQueue(capacity=2)

            async def closer():
                await asyncio.sleep(0.02)
                queue.close()

            task = asyncio.ensure_future(closer())
            job = await queue.get(timeout=5.0)
            await task
            return job

        assert run(scenario()) is None


class TestSeededRate:
    def test_seed_only_while_cold(self):
        queue = AdmissionQueue(capacity=10)
        assert not queue.service_rate_seeded
        queue.seed_service_rate(50.0)
        assert queue.service_rate_seeded
        assert queue.service_rate_cycles_per_ms == pytest.approx(50.0)
        queue.seed_service_rate(999.0)  # second seed is a no-op
        assert queue.service_rate_cycles_per_ms == pytest.approx(50.0)

    def test_invalid_seed_ignored(self):
        queue = AdmissionQueue(capacity=10)
        queue.seed_service_rate(0.0)
        queue.seed_service_rate(-5.0)
        assert queue.service_rate_cycles_per_ms is None
        assert not queue.service_rate_seeded

    def test_first_observation_replaces_seed_outright(self):
        queue = AdmissionQueue(capacity=10)
        queue.seed_service_rate(50.0)
        queue.observe_service(cycles=1000.0, wall_ms=10.0)  # 100 c/ms
        # No EWMA blend with the seed: the rate is exactly 100.
        assert queue.service_rate_cycles_per_ms == pytest.approx(100.0)
        assert not queue.service_rate_seeded

    def test_seed_makes_wait_gate_live_before_first_batch(self):
        queue = AdmissionQueue(capacity=100, max_wait_ms=10.0)
        queue.seed_service_rate(100.0)  # 100 cycles per ms
        assert queue.try_submit(_job(cost=500.0)) is None  # 5 ms
        assert queue.try_submit(_job(cost=900.0)) == SHED_WAIT_EXCEEDED


class TestNsPricing:
    def _priced(self, cost_ns, priority=0):
        job = _job(priority=priority)
        job.cost_ns = cost_ns
        return job

    def test_ns_backlog_prices_the_wait(self):
        queue = AdmissionQueue(capacity=10)
        queue.try_submit(self._priced(2e6))  # 2 ms of predicted work
        queue.try_submit(self._priced(3e6))
        assert queue.pending_ns == pytest.approx(5e6)
        # Fully priced backlog + a priced arrival: no rate needed.
        assert queue.estimated_wait_ms(extra_ns=1e6) \
            == pytest.approx(6.0)

    def test_one_unpriced_job_falls_back_to_cycles(self):
        queue = AdmissionQueue(capacity=10)
        queue.try_submit(self._priced(2e6))
        queue.try_submit(_job(cost=500.0))  # no ns price
        assert queue.estimated_wait_ms(extra_ns=1e6) is None
        queue.observe_service(cycles=100.0, wall_ms=100.0)  # 1 c/ms
        estimate = queue.estimated_wait_ms(extra_cycles=0.0,
                                           extra_ns=1e6)
        assert estimate == pytest.approx(queue.pending_cycles)

    def test_calibration_scales_the_estimate(self):
        queue = AdmissionQueue(capacity=10)
        # Model says 1 ms, the wall said 2 ms: calibration drifts up.
        queue.observe_service(cycles=10.0, wall_ms=2.0,
                              predicted_ns=1e6)
        queue.try_submit(self._priced(1e6))
        estimate = queue.estimated_wait_ms(extra_ns=1e6)
        assert estimate > 2.0  # 2 ms raw, scaled by calibration > 1

    def test_consumption_forgets_ns_backlog(self):
        async def scenario():
            queue = AdmissionQueue(capacity=10)
            jobs = [self._priced(1e6), self._priced(2e6)]
            for job in jobs:
                queue.try_submit(job)
            for _ in jobs:
                await queue.get(0.01)
            assert queue.pending_ns == pytest.approx(0.0)
        run(scenario())

    def test_drain_resets_ns_accounting(self):
        queue = AdmissionQueue(capacity=10)
        queue.try_submit(self._priced(1e6))
        queue.try_submit(_job())
        queue.close()
        drained = queue.drain()
        assert len(drained) == 2
        assert queue.pending_ns == pytest.approx(0.0)
        assert queue.estimated_wait_ms(extra_ns=1e6) \
            == pytest.approx(1.0)
