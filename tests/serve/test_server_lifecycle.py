"""Lifecycle regressions the flow analyzer forced into the open: the
batcher and shutdown tasks are spawned fire-and-forget, so a crash in
either used to vanish — queued clients hung and ``wait_terminated()``
never returned.  These tests pin the observed behaviour."""

import asyncio

from repro.serve.batcher import DynamicBatcher
from repro.serve.jobs import make_job
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import AdmissionQueue
from repro.serve.server import ReproServer, ServeConfig


def run(coro):
    return asyncio.run(coro)


def _config():
    return ServeConfig(port=0, queue_capacity=8)


def _queued_job(loop, queue, job_id="j1"):
    job = make_job({"op": "mul", "params": {"a": 3, "b": 7},
                    "id": job_id})
    job.future = loop.create_future()
    assert queue.try_submit(job) is None
    return job


class TestBatcherCrash:
    def test_queued_futures_fail_fast_instead_of_hanging(self):
        async def scenario():
            server = ReproServer(_config())
            loop = asyncio.get_running_loop()
            job = _queued_job(loop, server.queue)

            async def crashing_run():
                raise RuntimeError("boom")

            server.batcher.run = crashing_run
            await server.start()
            body = await asyncio.wait_for(job.future, 5.0)
            return server, body

        server, body = run(scenario())
        assert body["ok"] is False
        assert body["error"] == "error:internal"
        assert "boom" in body["message"]
        assert server.registry.counter_value("batcher_crash_total") == 1
        assert server.queue.closed  # no admissions after the crash

    def test_shutdown_still_drains_after_the_crash(self):
        async def scenario():
            server = ReproServer(_config())

            async def crashing_run():
                raise RuntimeError("boom")

            server.batcher.run = crashing_run
            await server.start()
            await asyncio.wait_for(server.shutdown(), 5.0)
            return server

        server = run(scenario())
        assert server.registry.counter_value("batcher_crash_total") == 1


class TestShutdownCrash:
    def test_wait_terminated_returns_even_if_the_drain_raises(self):
        async def scenario():
            server = ReproServer(_config())
            await server.start()

            async def crashing_shutdown():
                raise RuntimeError("drain exploded")

            server.shutdown = crashing_shutdown
            server.trigger_shutdown()
            await asyncio.wait_for(server.wait_terminated(), 5.0)
            return server

        server = run(scenario())
        assert server.registry.counter_value("shutdown_error_total") == 1


class TestDeadlineAccounting:
    def test_cancelled_future_counts_as_dropped_not_expired(self):
        # The server's wait_for timeout counts deadline_expired_total
        # and cancels the future; when the batcher later meets the
        # cancelled job it must use its own counter, or every timed-out
        # job is double-counted as two expiries.
        async def scenario():
            queue = AdmissionQueue(capacity=8)
            registry = MetricsRegistry()
            batcher = DynamicBatcher(queue, registry)
            loop = asyncio.get_running_loop()
            job = _queued_job(loop, queue)
            job.future.cancel()
            queue.close()
            await asyncio.wait_for(batcher.run(), 5.0)
            return registry, batcher

        registry, batcher = run(scenario())
        assert registry.counter_total("deadline_dropped_total") == 1
        assert registry.counter_total("deadline_expired_total") == 0
        assert batcher.jobs_completed == 0
