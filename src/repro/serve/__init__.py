"""repro.serve — asyncio service layer for arbitrary-precision jobs.

The serving pipeline, front to back:

* :mod:`repro.serve.server` — stdlib HTTP/1.1 front-end
  (``repro serve``) with per-request deadlines and priorities;
* :mod:`repro.serve.queue` — bounded, admission-controlled priority
  queue that sheds load explicitly (``rejected:overloaded``);
* :mod:`repro.serve.batcher` — dynamic batcher coalescing compatible
  jobs into host-kernel executor batches;
* :mod:`repro.serve.jobs` — validation, pricing, and the correctness
  oracle (:func:`~repro.serve.jobs.evaluate`);
* :mod:`repro.serve.metrics` / :mod:`repro.serve.trace` — lock-free
  counters and histograms at ``/metrics``, span traces under
  ``REPRO_TRACE=1``;
* :mod:`repro.serve.client` — load-generating, verifying client
  (``repro bench-serve``).

:mod:`repro.shard` scales this pipeline across OS processes: a
plan-aware router in front of N supervised shard workers, each one a
:class:`~repro.serve.server.ReproServer` (``repro serve --shards N``).

See ``docs/SERVING.md`` for the protocol and capacity knobs.
"""

from repro.serve.batcher import DynamicBatcher
from repro.serve.jobs import JOB_OPS, Job, JobError, evaluate, make_job
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
    "evaluate",
    "make_job",
    "merge_snapshots",
    "parse_exposition",
    "render_snapshot",
    "run_server",
    "trace_enabled",
]
