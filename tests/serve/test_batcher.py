"""The batcher: one job per dequeue, ordering, caching, deadlines."""

import asyncio
import json
import socket
import threading
import time

from repro.plan.execute import run as run_plan
from repro.runtime.mpapca import MONOLITHIC_MAX_BITS
from repro.serve import batcher as batcher_module
from repro.serve.batcher import DynamicBatcher
from repro.serve.client import expected_result
from repro.serve.jobs import make_job
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import AdmissionQueue
from repro.serve.server import ReproServer, ServeConfig


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


def _expected(job):
    return expected_result({"op": job.op, "params": job.params})


def _batch(specs):
    """Queue ``(op, params[, extra])`` jobs, then run one batcher until
    all are answered; returns ``(jobs, bodies, batcher)``."""
    async def scenario():
        queue = AdmissionQueue(capacity=32)
        batcher = DynamicBatcher(queue)
        loop = asyncio.get_running_loop()
        jobs = [_submit(queue, loop, op, params, **dict(*extra))
                for op, params, *extra in specs]
        task = asyncio.ensure_future(batcher.run())
        bodies = await asyncio.gather(*(job.future for job in jobs))
        await _drain(queue, task)
        return jobs, bodies, batcher

    return run(scenario())


class TestBatching:
    def test_mul_batch_is_bit_identical_and_batched(self):
        jobs, bodies, batcher = _batch(
            [("mul", {"a": 3 ** (40 + i), "b": 7 ** (30 + i)},
              {"id": "m%d" % i}) for i in range(6)])
        for index, (job, body) in enumerate(zip(jobs, bodies)):
            assert body["ok"], body
            assert body["id"] == "m%d" % index
            assert body["result"] == _expected(job)
        # Every queued job ran on its own and was answered once.
        assert batcher.jobs_completed == 6
        assert batcher.registry.counter_value("cache_misses_total") == 6

    def test_jobs_run_in_queue_order(self, monkeypatch):
        """At one priority jobs run first in, first out: a later mul
        never jumps ahead of an earlier job of another op."""
        ran = []
        monkeypatch.setattr(batcher_module, "run_plan", lambda *task: (
            ran.append(task[0].spec.op), run_plan(*task))[1])
        jobs, bodies, _ = _batch([
            ("mul", {"a": 3 ** 90, "b": 7}),
            ("pi_digits", {"digits": 30}),
            ("mul", {"a": 5 ** 90, "b": 7})])
        assert ran == ["mul", "pi_digits", "mul"]
        for job, body in zip(jobs, bodies):
            assert body["ok"], body
            assert body["result"] == _expected(job)

    def test_mixed_ops_batch_separately_but_all_answer(self):
        jobs, bodies, _ = _batch([
            ("mul", {"a": 11, "b": 13}),
            ("div", {"a": 1000, "b": 7}),
            ("powmod", {"base": 5, "exp": 117, "mod": 1009}),
            ("model_cycles", {"op": "div", "bits_a": 2048,
                              "bits_b": 1024})])
        for job, body in zip(jobs, bodies):
            assert body["ok"], body
            assert body["result"] == _expected(job)

    def test_oversized_mul_takes_library_path(self):
        # Far above MONOLITHIC_MAX_BITS (35904): library path.
        big = (1 << 40000) | 0x1234567
        (job,), (body,), _ = _batch([("mul", {"a": big, "b": big + 2})])
        assert body["ok"]
        assert body["result"] == _expected(job)

    def test_every_op_runs_on_the_event_loop(self, monkeypatch):
        """No job leaves the loop's thread: a model query, pi, powmod
        and a mul too wide for the monolithic multiplier all run
        inline."""
        threads = []
        monkeypatch.setattr(batcher_module, "run_plan", lambda *task: (
            threads.append(threading.get_ident()), run_plan(*task))[1])
        _, bodies, _ = _batch([
            ("model_cycles", {"op": "mul", "bits_a": 1 << 20,
                              "bits_b": 64}),
            ("pi_digits", {"digits": 50}),
            ("powmod", {"base": 5, "exp": 117, "mod": 1009}),
            ("mul", {"a": 1 << (2 * MONOLITHIC_MAX_BITS),
                     "b": 3 ** 30000})])
        assert all(body["ok"] for body in bodies)
        assert threads == [threading.get_ident()] * 4

    def test_member_deadline_lapsing_mid_batch_is_rejected(
            self, monkeypatch):
        """A job whose deadline passes while the job ahead of it runs
        is answered ``rejected:deadline``, not run."""
        ran = []
        monkeypatch.setattr(batcher_module, "run_plan", lambda *task: (
            ran.append(task), time.sleep(0.5), run_plan(*task))[2])
        _, (first, second), batcher = _batch([
            ("mul", {"a": 3 ** 90, "b": 7}),
            ("mul", {"a": 5 ** 90, "b": 7}, {"deadline_ms": 250})])
        assert first["ok"]
        assert second == {"ok": False, "id": second["id"], "op": "mul",
                          "error": "rejected:deadline"}
        assert len(ran) == 1
        assert batcher.registry.counter_value(
            "deadline_expired_total") == 1

    def test_request_arriving_mid_batch_is_admitted_between_members(
            self, monkeypatch):
        """A request that connects and sends while one job's kernel
        holds the loop is admitted before the next queued job runs:
        the batcher hands the loop back between jobs."""
        body = json.dumps({"op": "pi_digits", "params": {"digits": 40}})
        request = ("POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                   % (len(body), body)).encode()
        clients, depths = [], []

        async def scenario():
            server = ReproServer(ServeConfig(port=0))

            def run_holding_the_loop(plan, params):
                if not clients:       # the loop is held: both wait in
                    clients.append(   # the listen backlog
                        socket.create_connection((server.host, server.port)))
                    clients[0].sendall(request)
                depths.append((plan.spec.op, server.queue.depth))
                return run_plan(plan, params)

            monkeypatch.setattr(batcher_module, "run_plan",
                                run_holding_the_loop)
            loop = asyncio.get_running_loop()
            jobs = [_submit(server.queue, loop, "mul", {"a": a, "b": 7})
                    for a in (3 ** 90, 5 ** 90)]
            await server.start()
            bodies = await asyncio.gather(*(job.future for job in jobs))
            clients[0].setblocking(False)
            response = await loop.sock_recv(clients[0], 1 << 16)
            clients[0].close()
            await server.shutdown()
            return bodies, response

        bodies, response = run(scenario())
        assert all(body["ok"] for body in bodies)
        # pi was queued before the second mul ran.
        assert depths == [("mul", 1), ("mul", 1), ("pi_digits", 0)]
        assert response.startswith(b"HTTP/1.1 200")

    def test_cache_hits_for_pure_queries(self):
        async def scenario():
            queue = AdmissionQueue(capacity=8)
            registry = MetricsRegistry()
            batcher = DynamicBatcher(queue, registry)
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
            batcher = DynamicBatcher(queue, registry)
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
            batcher = DynamicBatcher(queue)
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
        _, _, batcher = _batch([("mul", {"a": 3 ** 500, "b": 7 ** 400})])
        queue = batcher.queue
        assert queue.estimated_wait_ms(extra_cycles=1000.0) is not None
