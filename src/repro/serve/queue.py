"""Bounded, admission-controlled priority queue for the serve layer.

Two admission gates, checked synchronously at submit time so a client
always gets an explicit answer instead of a silent drop:

* **depth** — the queue never holds more than ``capacity`` jobs, so
  server memory is K-bounded no matter how many clients arrive at
  once (``rejected:overloaded`` / ``queue-full``);
* **estimated wait** — every job is priced in modeled accelerator
  cycles (its lowered plan's ``Plan.cost()``, attached by
  :mod:`repro.serve.jobs`), and the queue converts its backlog of
  pending cycles into an expected wait using an EWMA of the observed
  service rate (modeled cycles retired per wall millisecond).  Once
  the estimate exceeds ``max_wait_ms`` the queue sheds rather than
  building latency (``wait-exceeded``).

When the learned cost model (:mod:`repro.cost`) has priced every
pending job in predicted wall nanoseconds (``Job.cost_ns``), the wait
estimate uses that backlog directly — scaled by an EWMA calibration of
predicted-vs-observed batch time — instead of the cycles/rate detour;
one unpriced job in the queue falls the whole estimate back to cycles
so the two backlogs never mix.  The service-rate EWMA itself can be
*seeded* before the first batch completes (:meth:`seed_service_rate`,
fed by the cost model at server boot) so the wait gate is live from
the first request; the first real observation replaces the seed
outright rather than blending with it.

Ordering is priority-first (9 highest), FIFO within a priority.  The
consumer side is a single batcher task on the asyncio loop; submit is
synchronous (no awaits between check and append), so admission is
atomic with respect to the loop.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional

from repro.serve.jobs import Job

#: Public shed reasons (the ``reason`` field of an overload response).
SHED_QUEUE_FULL = "queue-full"
SHED_WAIT_EXCEEDED = "wait-exceeded"
SHED_SHUTTING_DOWN = "shutting-down"

#: EWMA smoothing for the observed service rate.
_RATE_ALPHA = 0.3


class AdmissionQueue:
    """Priority queue with depth- and wait-based load shedding."""

    def __init__(self, capacity: int = 256,
                 max_wait_ms: Optional[float] = None) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self.max_wait_ms = max_wait_ms
        self.closed = False
        self.pending_cycles = 0.0
        #: Predicted-ns backlog of the jobs the cost model priced.
        self.pending_ns = 0.0
        #: Queued jobs *without* a ns price; any > 0 disables the ns
        #: wait path (a mixed backlog would undercount the unpriced).
        self._pending_unpriced = 0
        #: High-water mark of the depth, proving K-boundedness.
        self.max_depth = 0
        self.submitted = 0
        self.shed = 0
        self._items: List[Job] = []
        self._seq = 0
        self._event = asyncio.Event()
        self._rate_cycles_per_ms: Optional[float] = None
        self._rate_seeded = False
        #: EWMA of observed wall ms per predicted ms (model
        #: calibration); 1.0 = the model's ns are trusted as-is.
        self._ns_calibration = 1.0

    # -- admission ------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._items)

    def try_submit(self, job: Job) -> Optional[str]:
        """Admit a job or return the shed reason (``None`` = admitted)."""
        if self.closed:
            self.shed += 1
            return SHED_SHUTTING_DOWN
        if len(self._items) >= self.capacity:
            self.shed += 1
            return SHED_QUEUE_FULL
        if self.max_wait_ms is not None:
            estimate = self.estimated_wait_ms(
                job.cost_cycles, extra_ns=getattr(job, "cost_ns", None))
            if estimate is not None and estimate > self.max_wait_ms:
                self.shed += 1
                return SHED_WAIT_EXCEEDED
        self._seq += 1
        job.seq = self._seq
        self._items.append(job)
        self.pending_cycles += job.cost_cycles
        cost_ns = getattr(job, "cost_ns", None)
        if cost_ns is not None and cost_ns > 0.0:
            self.pending_ns += cost_ns
        else:
            self._pending_unpriced += 1
        self.submitted += 1
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)
        self._event.set()
        return None

    def estimated_wait_ms(self, extra_cycles: float = 0.0,
                          extra_ns: Optional[float] = None
                          ) -> Optional[float]:
        """Expected queueing delay for a job arriving now.

        When the arriving job carries a predicted-ns price
        (``extra_ns``) and every queued job was priced too, the
        estimate is the calibrated ns backlog — no service rate
        needed.  Otherwise the cycles/rate path answers, and returns
        ``None`` until a rate exists (observed or seeded) — admission
        then falls back to the depth bound alone.
        """
        if extra_ns is not None and extra_ns > 0.0 \
                and self._pending_unpriced == 0:
            return (self.pending_ns + extra_ns) \
                * self._ns_calibration / 1e6
        if self._rate_cycles_per_ms is None \
                or self._rate_cycles_per_ms <= 0.0:
            return None
        return (self.pending_cycles + extra_cycles) \
            / self._rate_cycles_per_ms

    @property
    def service_rate_cycles_per_ms(self) -> Optional[float]:
        """The observed-service-rate EWMA (``None`` before the first
        completed batch) — exported at ``/statz`` so a fleet router can
        aggregate per-shard rates into one admission bound."""
        return self._rate_cycles_per_ms

    @property
    def service_rate_seeded(self) -> bool:
        """True while the rate is a boot-time seed, not an observation."""
        return self._rate_seeded

    def seed_service_rate(self, cycles_per_ms: float) -> None:
        """Pre-load the service rate before any batch has completed.

        Only takes effect while the queue is cold (no observed rate);
        the first :meth:`observe_service` replaces the seed outright,
        so a bad seed costs exactly one batch of estimation error."""
        if cycles_per_ms <= 0.0 or self._rate_cycles_per_ms is not None:
            return
        self._rate_cycles_per_ms = cycles_per_ms
        self._rate_seeded = True

    def observe_service(self, cycles: float, wall_ms: float,
                        predicted_ns: Optional[float] = None) -> None:
        """Feed one completed batch into the service-rate EWMA.

        ``predicted_ns`` — the cost model's price for the same batch,
        when every member had one — additionally calibrates the
        predicted-ns wait path against observed wall time."""
        if wall_ms <= 0.0 or cycles <= 0.0:
            return
        rate = cycles / wall_ms
        if self._rate_cycles_per_ms is None or self._rate_seeded:
            self._rate_cycles_per_ms = rate
            self._rate_seeded = False
        else:
            self._rate_cycles_per_ms = (
                _RATE_ALPHA * rate
                + (1.0 - _RATE_ALPHA) * self._rate_cycles_per_ms)
        if predicted_ns is not None and predicted_ns > 0.0:
            ratio = wall_ms / (predicted_ns / 1e6)
            self._ns_calibration = (
                _RATE_ALPHA * ratio
                + (1.0 - _RATE_ALPHA) * self._ns_calibration)

    # -- consumption ----------------------------------------------------------

    def _best_index(self) -> int:
        best = 0
        for index in range(1, len(self._items)):
            job, incumbent = self._items[index], self._items[best]
            if (job.priority, -job.seq) > (incumbent.priority,
                                           -incumbent.seq):
                best = index
        return best

    def _forget_pending(self, job: Job) -> None:
        self.pending_cycles = max(0.0,
                                  self.pending_cycles - job.cost_cycles)
        cost_ns = getattr(job, "cost_ns", None)
        if cost_ns is not None and cost_ns > 0.0:
            self.pending_ns = max(0.0, self.pending_ns - cost_ns)
        else:
            self._pending_unpriced = max(0, self._pending_unpriced - 1)

    def _pop_index(self, index: int) -> Job:
        job = self._items.pop(index)
        self._forget_pending(job)
        return job

    async def get(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Highest-priority job; ``None`` on timeout or closed-empty."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            if self._items:
                return self._pop_index(self._best_index())
            if self.closed:
                return None
            self._event.clear()
            if deadline is None:
                await self._event.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                await asyncio.wait_for(self._event.wait(), remaining)
            except asyncio.TimeoutError:
                return None

    def take_compatible(self, key, limit: int) -> List[Job]:
        """Pop up to ``limit`` queued jobs with the same batch
        compatibility key (``Job.compat_key()`` — op + plan backend),
        in priority order — the batcher's coalescing primitive.

        Keying on the plan rather than the op name keeps jobs on
        different backends in separate batches, so a batch bound for
        the rns fan-out route never carries a packed or library
        job."""
        if limit <= 0:
            return []
        matching = sorted(
            (index for index, job in enumerate(self._items)
             if job.compat_key() == key),
            key=lambda index: (-self._items[index].priority,
                               self._items[index].seq))
        chosen = set(matching[:limit])
        taken = [job for index, job in enumerate(self._items)
                 if index in chosen]
        self._items = [job for index, job in enumerate(self._items)
                       if index not in chosen]
        for job in taken:
            self._forget_pending(job)
        taken.sort(key=lambda job: (-job.priority, job.seq))
        return taken

    async def wait_for_item(self, timeout: float) -> bool:
        """Block until something is queued (or ``timeout`` seconds)."""
        if self._items:
            return True
        if self.closed:
            return False
        self._event.clear()
        try:
            await asyncio.wait_for(self._event.wait(), max(0.0, timeout))
        except asyncio.TimeoutError:
            return False
        return bool(self._items)

    def drain(self) -> List[Job]:
        """Pop every queued job at once (the crash path).

        The caller owns answering the drained futures — the batcher is
        gone, so nobody else ever will.
        """
        taken, self._items = self._items, []
        self.pending_cycles = 0.0
        self.pending_ns = 0.0
        self._pending_unpriced = 0
        return taken

    def close(self) -> None:
        """Stop admissions; wake the consumer so it can drain."""
        self.closed = True
        self._event.set()
