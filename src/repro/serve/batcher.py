"""Dynamic batcher: coalesce compatible jobs, dispatch, respond.

The consumer half of the serve pipeline.  A single asyncio task pulls
the highest-priority job off the :class:`~repro.serve.queue.
AdmissionQueue`, coalesces queued jobs sharing a plan compatibility
key (``Job.compat_key()`` — op + lowered backend) into one batch until
either ``max_batch`` is reached or the ``batch_ms`` latency window
expires, then dispatches the batch on a worker thread — or, when the
batch is too small to be worth the thread hop, runs it on the event
loop itself.  The window is held open only when a worker pool runs
the batch in parallel (``REPRO_WORKERS`` > 0); a serial batch takes
the compatible jobs already queued and dispatches at once, because a
late member would only delay the members already taken:

* host-kernel plans (``mul``, ``div``, ``powmod``, ``pi_digits``)
  run the direct library call via
  :class:`~repro.parallel.ParallelExecutor`, with the executor's
  ``timeout=`` bounding a batch by the tightest member deadline;
* ``model_cycles`` and ``pi_digits`` results memoize in a small LRU —
  identical queries are answered from cache without touching the
  executor.

Results always return in request order and are bit-identical to
:func:`repro.serve.jobs.evaluate` for the same parameters — batching
is a throughput optimization, never a semantic one.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel import ExecutorTimeout, ParallelExecutor
from repro.runtime.mpapca import MONOLITHIC_MAX_BITS
from repro.serve import trace as tracing
from repro.serve.jobs import Job, evaluate
from repro.serve.metrics import (BATCH_SIZE_BOUNDS, MetricsRegistry)
from repro.serve.queue import AdmissionQueue


class DynamicBatcher:
    """Coalesce → dispatch → respond, one batch at a time."""

    def __init__(self, queue: AdmissionQueue,
                 registry: Optional[MetricsRegistry] = None,
                 max_batch: int = 16, batch_ms: float = 5.0,
                 workers: Optional[int] = None,
                 exec_timeout_s: Optional[float] = None,
                 cache_size: int = 512) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if batch_ms < 0:
            raise ValueError("batch_ms must be non-negative")
        self.queue = queue
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.max_batch = max_batch
        self.batch_ms = batch_ms
        self.exec_timeout_s = exec_timeout_s
        self.executor = ParallelExecutor(workers)
        self._cache: "OrderedDict[Tuple, Dict[str, Any]]" = OrderedDict()
        self._cache_size = cache_size
        self.batches_dispatched = 0
        self.jobs_completed = 0

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self.executor.close()

    # -- main loop ------------------------------------------------------------

    async def run(self) -> None:
        """Consume the queue until it is closed *and* drained."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get(timeout=0.1)
            if job is None:
                if self.queue.closed and self.queue.depth == 0:
                    break
                continue
            batch = [job]
            batch += self.queue.take_compatible(
                job.compat_key(), self.max_batch - len(batch))
            window_end = time.monotonic() + self.batch_ms / 1000.0
            while len(batch) < self.max_batch and not self.queue.closed \
                    and self.executor.workers > 0:
                remaining = window_end - time.monotonic()
                if remaining <= 0:
                    break
                arrived = await self.queue.wait_for_item(remaining)
                if not arrived:
                    break
                more = self.queue.take_compatible(
                    job.compat_key(), self.max_batch - len(batch))
                if more:
                    batch.extend(more)
                elif self.queue.depth > 0:
                    # Only incompatible work is queued: dispatch now,
                    # the next loop iteration will batch it.
                    break
            self.registry.gauge("queue_depth").set(self.queue.depth)
            await self._dispatch(loop, job.op, batch)
        self.close()

    def _runs_inline(self, op: str, batch: List[Job]) -> bool:
        """Whether ``batch`` costs less on the event loop than handed
        to a worker thread.

        The hop costs two thread wakeups, about 0.5 ms and more when the
        host steals CPU time.  A model query is a closed-form formula
        (under 0.2 ms at any width), and a serial mul/div batch whose
        operands together fit the monolithic multiplier takes at most a
        few ms; anything else runs on the worker so the loop keeps
        serving.
        """
        if self.executor.workers > 0:
            return False
        if op == "model_cycles":
            return True
        return op in ("mul", "div") and sum(
            max(job.params["a"].bit_length(), job.params["b"].bit_length())
            for job in batch) <= MONOLITHIC_MAX_BITS

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(self, loop: asyncio.AbstractEventLoop, op: str,
                        batch: List[Job]) -> None:
        now = time.monotonic()
        live: List[Job] = []
        for job in batch:
            tracing.mark(job.trace, "batched")
            if job.future is not None and job.future.cancelled():
                # The server already answered (its wait_for timed out,
                # cancelling the future) and counted the expiry; count
                # the drop under its own name or every timed-out job
                # shows up twice in deadline_expired_total.
                self.registry.counter("deadline_dropped_total").inc()
                continue
            if job.expired(now):
                self._finish(job, {"ok": False, "id": job.job_id,
                                   "op": job.op,
                                   "error": "rejected:deadline"},
                             status="deadline")
                self.registry.counter("deadline_expired_total").inc()
                continue
            live.append(job)
        if not live:
            return
        for job in live:
            tracing.mark(job.trace, "execute_start")
        self.batches_dispatched += 1
        self.registry.counter("batches_total", op=op).inc()
        self.registry.histogram("batch_size",
                                bounds=BATCH_SIZE_BOUNDS).observe(
            float(len(live)))
        started = time.monotonic()
        try:
            if self._runs_inline(op, live):
                outcomes = self._execute_batch(live)
            else:
                outcomes = await loop.run_in_executor(
                    None, self._execute_batch, live)
        except ExecutorTimeout:
            self.registry.counter("execute_timeout_total", op=op).inc()
            for job in live:
                tracing.mark(job.trace, "execute_end")
                self._finish(job, {"ok": False, "id": job.job_id,
                                   "op": job.op, "error": "error:timeout"},
                             status="timeout")
            return
        except Exception as error:
            self.registry.counter("execute_error_total", op=op).inc()
            for job in live:
                tracing.mark(job.trace, "execute_end")
                self._finish(job, {"ok": False, "id": job.job_id,
                                   "op": job.op,
                                   "error": "error:internal",
                                   "message": str(error)},
                             status="error")
            return
        wall_ms = (time.monotonic() - started) * 1000.0
        # The batch's predicted-ns price calibrates the ns wait path,
        # but only when every member was priced (a partial sum would
        # look like a model that underpredicts).
        predicted_ns = None
        if all(job.cost_ns is not None for job in live):
            predicted_ns = sum(job.cost_ns for job in live)
        self.queue.observe_service(
            sum(job.cost_cycles for job in live), wall_ms,
            predicted_ns=predicted_ns)
        for job, (payload, cached) in zip(live, outcomes):
            tracing.mark(job.trace, "execute_end")
            if job.trace is not None:
                job.trace.annotate(batch_size=len(live), cached=cached)
            self.registry.counter(
                "cache_hits_total" if cached
                else "cache_misses_total").inc()
            self._finish(job, {"ok": True, "id": job.job_id,
                               "op": job.op, "result": payload,
                               "batch_size": len(live),
                               "cached": cached,
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

    # -- execution (worker thread, or the loop for small batches) -------------

    def _execute_batch(self, jobs: List[Job]
                       ) -> List[Tuple[Dict[str, Any], bool]]:
        """Evaluate one batch; returns ``(payload, cached)`` per job."""
        results: List[Optional[Tuple[Dict[str, Any], bool]]] = \
            [None] * len(jobs)
        pending: List[int] = []
        for index, job in enumerate(jobs):
            key = job.cache_key()
            if key is not None and key in self._cache:
                self._cache.move_to_end(key)
                results[index] = (self._cache[key], True)
            else:
                pending.append(index)
        if pending:
            todo = [jobs[index] for index in pending]
            payloads = self.executor.map(
                evaluate, [(job.op, job.params) for job in todo],
                timeout=self._timeout_for(todo))
            for index, payload in zip(pending, payloads):
                key = jobs[index].cache_key()
                if key is not None:
                    self._cache[key] = payload
                    while len(self._cache) > self._cache_size:
                        self._cache.popitem(last=False)
                results[index] = (payload, False)
        return [entry for entry in results if entry is not None]

    def _timeout_for(self, jobs: List[Job]) -> Optional[float]:
        """Executor deadline: the tightest member deadline, bounded by
        the configured per-batch execution timeout."""
        candidates: List[float] = []
        if self.exec_timeout_s is not None:
            candidates.append(self.exec_timeout_s)
        now = time.monotonic()
        deadlines = [job.deadline_at - now for job in jobs
                     if job.deadline_at is not None]
        if deadlines:
            candidates.append(max(0.05, min(deadlines)))
        return min(candidates) if candidates else None
