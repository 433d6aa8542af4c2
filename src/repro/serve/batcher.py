"""Dynamic batcher: run queued jobs one at a time, respond.

The consumer half of the serve pipeline.  A single asyncio task pulls
the highest-priority job off the :class:`~repro.serve.queue.
AdmissionQueue` and runs it on the event loop itself, one job per
dequeue, as Cambricon-P's MPApca runs one monolithic operation at a
time.  Each job runs the plan admission lowered for it
(:func:`repro.plan.execute.run` on ``job.plan``), so the backend its
trace and the census report is the backend that ran; the integer
results of mul, div and powmod are then hex-encoded for the wire.

* a job's deadline is checked once, just before it runs, so a job
  whose deadline lapsed while an earlier job ran is answered
  ``rejected:deadline`` rather than computed;
* after each job, while work is queued, the loop is handed back
  (``ADMIT_YIELDS``), so its response is written and waiting requests
  are admitted or shed before the next job runs; with nothing queued
  the batcher suspends in ``queue.get()`` instead, which hands the
  loop back by itself;
* ``model_cycles`` and ``pi_digits`` results memoize in a small LRU —
  identical queries are answered from cache without running a kernel.

A running kernel therefore blocks the loop: no new request is read
and no deadline is answered until it ends.  The longest stall is one
job's kernel, which the admission ceilings bound
(``docs/SERVING.md``).  Scale-out comes from shards, not from threads
inside one server.

Jobs run in queue order (priority first, FIFO within a priority), and
every answer equals Python ``int`` arithmetic
(:func:`repro.serve.client.expected_result`).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.plan.execute import run as run_plan
from repro.serve import trace as tracing
from repro.serve.jobs import Job
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import AdmissionQueue

#: Loop iterations handed back after each job.  A request waiting
#: in the listen backlog reaches admission on the fifth iteration after
#: the loop is free (accept, transport setup, handler start, read,
#: parse and admit); the sixth lets that step run before the batcher
#: resumes, so a burst is admitted or shed between kernels instead of
#: waiting behind the next one.  ``tests/serve/test_batcher.py`` pins
#: it with a real listener.
ADMIT_YIELDS = 6

#: Ops whose integer results travel as hex strings; pi's ``terms`` and
#: ``precision_bits`` and the cycle model's figures stay JSON numbers.
HEX_OPS = ("mul", "div", "powmod")


class DynamicBatcher:
    """Dequeue → run → respond, one job at a time."""

    def __init__(self, queue: AdmissionQueue,
                 registry: Optional[MetricsRegistry] = None,
                 cache_size: int = 512) -> None:
        self.queue = queue
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._cache: "OrderedDict[Tuple, Dict[str, Any]]" = OrderedDict()
        self._cache_size = cache_size
        self.jobs_completed = 0

    # -- main loop ------------------------------------------------------------

    async def run(self) -> None:
        """Consume the queue until it is closed *and* drained.

        ``queue.get()`` waits on the queue's event with no timer and
        returns ``None`` only once the queue is closed and empty
        (``AdmissionQueue.close`` sets the event to wake it).
        """
        while True:
            job = await self.queue.get()
            if job is None:
                break
            self.registry.gauge("queue_depth").set(self.queue.depth)
            tracing.mark(job.trace, "batched")
            if self._settled(job):
                continue
            self._run_job(job)
            if self.queue.depth:
                # Hand the loop back (``queue.get`` returns without
                # yielding while work is queued): the answered handler
                # writes its response, and requests that arrived while
                # the kernel held the loop reach admission control.
                for _ in range(ADMIT_YIELDS):
                    await asyncio.sleep(0)

    # -- dispatch -------------------------------------------------------------

    def _settled(self, job: Job) -> bool:
        """Answer a job that must not run; ``True`` when it was."""
        if job.future is not None and job.future.cancelled():
            # The server already answered (its wait_for timed out,
            # cancelling the future) and counted the expiry; count
            # the drop under its own name or every timed-out job
            # shows up twice in deadline_expired_total.
            self.registry.counter("deadline_dropped_total").inc()
            return True
        if job.expired():
            self._finish(job, {"ok": False, "id": job.job_id,
                               "op": job.op, "error": "rejected:deadline"},
                         status="deadline")
            self.registry.counter("deadline_expired_total").inc()
            return True
        return False

    def _run_job(self, job: Job) -> None:
        tracing.mark(job.trace, "execute_start")
        started = time.monotonic()
        try:
            payload, cached = self._execute(job)
        except Exception as error:
            self.registry.counter("execute_error_total", op=job.op).inc()
            tracing.mark(job.trace, "execute_end")
            self._finish(job, {"ok": False, "id": job.job_id,
                               "op": job.op, "error": "error:internal",
                               "message": str(error)},
                         status="error")
            return
        self.queue.observe_service(
            job.cost_cycles, (time.monotonic() - started) * 1000.0,
            predicted_ns=job.cost_ns)
        tracing.mark(job.trace, "execute_end")
        if job.trace is not None:
            job.trace.annotate(cached=cached)
        self.registry.counter(
            "cache_hits_total" if cached else "cache_misses_total").inc()
        self._finish(job, {"ok": True, "id": job.job_id, "op": job.op,
                           "result": payload, "cached": cached,
                           "queue_ms": round(job.queue_ms(), 3)},
                     status="ok")

    def _finish(self, job: Job, body: Dict[str, Any],
                status: str) -> None:
        self.jobs_completed += 1
        self.registry.counter("responses_total", status=status).inc()
        self.registry.histogram("latency_ms").observe(job.queue_ms())
        self.registry.histogram("latency_ms", op=job.op).observe(
            job.queue_ms())
        if job.future is not None and not job.future.done():
            job.future.set_result(body)

    # -- execution --------------------------------------------------------------

    def _execute(self, job: Job) -> Tuple[Dict[str, Any], bool]:
        """One job's ``(payload, cached)``."""
        key = job.cache_key()
        if key is not None and key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key], True
        payload = run_plan(job.plan, job.params)
        if job.op in HEX_OPS:
            payload = {name: hex(value) for name, value in payload.items()}
        if key is not None:
            self._cache[key] = payload
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return payload, False
