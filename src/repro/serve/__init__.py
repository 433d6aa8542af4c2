"""repro.serve — asyncio service layer for arbitrary-precision jobs.

The serving pipeline, front to back:

* :mod:`repro.serve.server` — stdlib HTTP/1.1 front-end
  (``repro serve``) with per-request deadlines and priorities;
* :mod:`repro.serve.queue` — bounded, admission-controlled priority
  queue that sheds load explicitly (``rejected:overloaded``);
* :mod:`repro.serve.batcher` — the consumer that runs one queued job
  per dequeue on the event loop, through the plan admission lowered
  for it (:func:`repro.plan.execute.run`);
* :mod:`repro.serve.jobs` — validation and pricing (the lowered plan);
* :mod:`repro.serve.metrics` / :mod:`repro.serve.trace` — lock-free
  counters and histograms at ``/metrics``, span traces under
  ``REPRO_TRACE=1``;
* :mod:`repro.serve.client` — load-generating client (``repro
  bench-serve``) that verifies every answer against Python ``int``.

:mod:`repro.shard` scales this pipeline across OS processes: a
fleet router in front of N supervised shard workers, each one a
:class:`~repro.serve.server.ReproServer` (``repro serve --shards N``).

See ``docs/SERVING.md`` for the protocol and capacity knobs.
"""

from repro.serve.batcher import DynamicBatcher
from repro.serve.jobs import JOB_OPS, Job, JobError, make_job
from repro.serve.metrics import (Counter, Gauge, Histogram,
                                 MetricsRegistry, merge_snapshots,
                                 parse_exposition, render_snapshot)
from repro.serve.queue import (SHED_QUEUE_FULL, SHED_SHUTTING_DOWN,
                               SHED_WAIT_EXCEEDED, AdmissionQueue)
from repro.serve.server import ReproServer, ServeConfig, run_server
from repro.serve.trace import RequestTrace, Tracer, trace_enabled

__all__ = [
    "AdmissionQueue",
    "Counter",
    "DynamicBatcher",
    "Gauge",
    "Histogram",
    "JOB_OPS",
    "Job",
    "JobError",
    "MetricsRegistry",
    "ReproServer",
    "RequestTrace",
    "SHED_QUEUE_FULL",
    "SHED_SHUTTING_DOWN",
    "SHED_WAIT_EXCEEDED",
    "ServeConfig",
    "Tracer",
    "make_job",
    "merge_snapshots",
    "parse_exposition",
    "render_snapshot",
    "run_server",
    "trace_enabled",
]
