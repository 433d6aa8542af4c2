"""Dynamic batching: coalescing, ordering, caching, deadlines."""

import asyncio

from repro.serve.batcher import DynamicBatcher
from repro.serve.jobs import evaluate, make_job
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import AdmissionQueue


def _submit(queue, loop, op, params, **extra):
    payload = {"op": op, "params": params}
    payload.update(extra)
    job = make_job(payload)
    job.future = loop.create_future()
    reason = queue.try_submit(job)
    assert reason is None, reason
    return job


async def _drain(queue, batcher_task):
    queue.close()
    await batcher_task


def run(coro):
    return asyncio.run(coro)


class TestBatching:
    def test_mul_batch_is_bit_identical_and_batched(self):
        async def scenario():
            queue = AdmissionQueue(capacity=32)
            registry = MetricsRegistry()
            batcher = DynamicBatcher(queue, registry, max_batch=8,
                                     batch_ms=20.0)
            loop = asyncio.get_running_loop()
            jobs = [_submit(queue, loop, "mul",
                            {"a": 3 ** (40 + i), "b": 7 ** (30 + i)},
                            id="m%d" % i)
                    for i in range(6)]
            task = asyncio.ensure_future(batcher.run())
            bodies = await asyncio.gather(*(job.future for job in jobs))
            await _drain(queue, task)
            return jobs, bodies, registry, batcher

        jobs, bodies, registry, batcher = run(scenario())
        for index, (job, body) in enumerate(zip(jobs, bodies)):
            assert body["ok"], body
            assert body["id"] == "m%d" % index
            expected = evaluate(("mul", job.params))
            assert body["result"] == expected
        # All six lowered to one host compat key and coalesced into few
        # batches.
        assert batcher.batches_dispatched < 6
        assert registry.counter_total("batches_total") == \
            batcher.batches_dispatched
        assert registry.histogram("batch_size").count > 0

    def test_mixed_ops_batch_separately_but_all_answer(self):
        async def scenario():
            queue = AdmissionQueue(capacity=32)
            batcher = DynamicBatcher(queue, max_batch=4, batch_ms=5.0)
            loop = asyncio.get_running_loop()
            jobs = [
                _submit(queue, loop, "mul", {"a": 11, "b": 13}),
                _submit(queue, loop, "div", {"a": 1000, "b": 7}),
                _submit(queue, loop, "powmod",
                        {"base": 5, "exp": 117, "mod": 1009}),
                _submit(queue, loop, "model_cycles",
                        {"op": "div", "bits_a": 2048, "bits_b": 1024}),
            ]
            task = asyncio.ensure_future(batcher.run())
            bodies = await asyncio.gather(*(job.future for job in jobs))
            await _drain(queue, task)
            return jobs, bodies

        jobs, bodies = run(scenario())
        for job, body in zip(jobs, bodies):
            assert body["ok"], body
            assert body["result"] == evaluate((job.op, job.params))

    def test_oversized_mul_takes_library_path(self):
        async def scenario():
            queue = AdmissionQueue(capacity=4)
            batcher = DynamicBatcher(queue, max_batch=2, batch_ms=1.0)
            loop = asyncio.get_running_loop()
            # Far above MONOLITHIC_MAX_BITS (35904): library path.
            big = (1 << 40000) | 0x1234567
            job = _submit(queue, loop, "mul", {"a": big, "b": big + 2})
            task = asyncio.ensure_future(batcher.run())
            body = await job.future
            await _drain(queue, task)
            return job, body

        job, body = run(scenario())
        assert body["ok"]
        assert body["result"] == evaluate(("mul", job.params))

    def test_cache_hits_for_pure_queries(self):
        async def scenario():
            queue = AdmissionQueue(capacity=8)
            registry = MetricsRegistry()
            batcher = DynamicBatcher(queue, registry, max_batch=1,
                                     batch_ms=0.0)
            loop = asyncio.get_running_loop()
            task = asyncio.ensure_future(batcher.run())
            params = {"op": "mul", "bits_a": 8192, "bits_b": 0}
            first = _submit(queue, loop, "model_cycles", dict(params))
            body_first = await first.future
            second = _submit(queue, loop, "model_cycles", dict(params))
            body_second = await second.future
            await _drain(queue, task)
            return body_first, body_second, registry

        first, second, registry = run(scenario())
        assert first["result"] == second["result"]
        assert first["cached"] is False
        assert second["cached"] is True
        assert registry.counter_value("cache_hits_total") == 1
        assert registry.counter_value("cache_misses_total") == 1

    def test_expired_job_is_rejected_not_executed(self):
        async def scenario():
            queue = AdmissionQueue(capacity=4)
            registry = MetricsRegistry()
            batcher = DynamicBatcher(queue, registry, max_batch=2,
                                     batch_ms=0.0)
            loop = asyncio.get_running_loop()
            job = _submit(queue, loop, "mul", {"a": 3, "b": 4},
                          deadline_ms=0.001)
            await asyncio.sleep(0.01)     # let the deadline lapse
            task = asyncio.ensure_future(batcher.run())
            body = await job.future
            await _drain(queue, task)
            return body, registry

        body, registry = run(scenario())
        assert body == {"ok": False, "id": body["id"], "op": "mul",
                        "error": "rejected:deadline"}
        assert registry.counter_value("deadline_expired_total") == 1

    def test_drain_answers_everything_queued(self):
        async def scenario():
            queue = AdmissionQueue(capacity=64)
            batcher = DynamicBatcher(queue, max_batch=4, batch_ms=1.0)
            loop = asyncio.get_running_loop()
            jobs = [_submit(queue, loop, "mul", {"a": i + 2, "b": 9})
                    for i in range(10)]
            task = asyncio.ensure_future(batcher.run())
            queue.close()                  # close with work queued
            await task                     # run() must drain first
            return jobs

        jobs = run(scenario())
        for job in jobs:
            assert job.future.done()
            assert job.future.result()["ok"]

    def test_service_rate_feeds_queue_estimator(self):
        async def scenario():
            queue = AdmissionQueue(capacity=8)
            batcher = DynamicBatcher(queue, max_batch=2, batch_ms=0.0)
            loop = asyncio.get_running_loop()
            job = _submit(queue, loop, "mul",
                          {"a": 3 ** 500, "b": 7 ** 400})
            task = asyncio.ensure_future(batcher.run())
            await job.future
            await _drain(queue, task)
            return queue

        queue = run(scenario())
        assert queue.estimated_wait_ms(extra_cycles=1000.0) is not None
