"""Per-request span traces, enabled with ``REPRO_TRACE=1``.

Each request carries a :class:`RequestTrace` through its lifecycle;
the server and batcher mark the canonical span boundaries —
``received`` → ``admitted`` → ``batched`` → ``execute_start`` →
``execute_end`` → ``responded`` — so a dumped trace decomposes a
request's latency into queueing, batching delay, execution, and
response time.  Completed traces collect in a bounded ring buffer and
are written as JSON lines to ``REPRO_TRACE_FILE`` (default
``repro-serve-trace.jsonl``) when the server drains, or on demand via
:meth:`Tracer.dump`.

Tracing off (the default) means no trace objects are ever allocated:
``Tracer.begin`` returns ``None`` and every mark is a no-op.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis import env as _env

TRACE_ENV = _env.TRACE.name
TRACE_FILE_ENV = _env.TRACE_FILE.name
DEFAULT_TRACE_FILE = "repro-serve-trace.jsonl"

#: Span boundaries in lifecycle order.
SPAN_MARKS = ("received", "admitted", "batched", "execute_start",
              "execute_end", "responded")


def trace_enabled() -> bool:
    """Is tracing requested via the environment?"""
    return _env.flag(_env.TRACE)


class RequestTrace:
    """Timestamped marks plus free-form annotations for one request."""

    __slots__ = ("job_id", "op", "marks", "meta")

    def __init__(self, job_id: str, op: str) -> None:
        self.job_id = job_id
        self.op = op
        self.marks: List[Tuple[str, float]] = []
        self.meta: Dict[str, object] = {}

    def mark(self, name: str) -> None:
        self.marks.append((name, time.monotonic() * 1000.0))

    def annotate(self, **meta: object) -> None:
        self.meta.update(meta)

    def span_ms(self, start: str, end: str) -> Optional[float]:
        """Elapsed milliseconds between two named marks."""
        times = dict(self.marks)
        if start in times and end in times:
            return times[end] - times[start]
        return None

    def to_dict(self) -> Dict[str, object]:
        times = dict(self.marks)
        origin = self.marks[0][1] if self.marks else 0.0
        spans = {}
        previous = None
        for name in SPAN_MARKS:
            if name not in times:
                continue
            if previous is not None:
                spans["%s->%s" % (previous, name)] = round(
                    times[name] - times[previous], 3)
            previous = name
        return {
            "id": self.job_id,
            "op": self.op,
            "marks": {name: round(at - origin, 3)
                      for name, at in self.marks},
            "spans_ms": spans,
            "meta": self.meta,
        }


def mark(trace: Optional[RequestTrace], name: str) -> None:
    """No-op-friendly marking helper (``trace`` may be ``None``)."""
    if trace is not None:
        trace.mark(name)


def annotate_plan(trace: Optional[RequestTrace], plan,
                  cost_ns: Optional[float] = None) -> None:
    """Stamp a trace with its lowered plan's identity.

    Records the resolved backend (the one the batcher runs the plan
    on), the ``memo_key`` fingerprint, the canonical limb-count
    feature, and the analytic/predicted prices — everything
    :func:`repro.cost.dataset.harvest_trace` needs to join a span dump
    into the training dataset without re-lowering the request (which,
    under another ``REPRO_PACKED`` setting or lowering schema, would
    not even reproduce the plan the span actually measured).
    """
    if trace is None:
        return
    from repro.cost.features import plan_features
    features = plan_features(plan)
    trace.annotate(
        backend=plan.backend,
        memo_key=list(plan.memo_key),
        limbs=features[2] if features is not None else None,
        cost_cycles=plan.cost(),
    )
    if cost_ns is not None:
        trace.annotate(cost_ns=cost_ns)


class Tracer:
    """Bounded collector of completed request traces."""

    def __init__(self, enabled: Optional[bool] = None,
                 capacity: int = 1024) -> None:
        self.enabled = trace_enabled() if enabled is None else enabled
        self._completed: Deque[RequestTrace] = deque(maxlen=capacity)
        self.recorded = 0

    def begin(self, job_id: str, op: str) -> Optional[RequestTrace]:
        """A fresh trace, or ``None`` when tracing is disabled."""
        if not self.enabled:
            return None
        trace = RequestTrace(job_id, op)
        trace.mark("received")
        return trace

    def record(self, trace: Optional[RequestTrace]) -> None:
        if trace is None or not self.enabled:
            return
        self._completed.append(trace)
        self.recorded += 1

    def completed(self) -> List[RequestTrace]:
        return list(self._completed)

    def to_json(self) -> List[Dict[str, object]]:
        return [trace.to_dict() for trace in self._completed]

    def dump(self, path: Optional[Path] = None) -> Optional[Path]:
        """Append collected traces as JSON lines; returns the path.

        ``None`` when tracing is disabled or nothing was collected.
        """
        if not self.enabled or not self._completed:
            return None
        target = Path(path) if path is not None else Path(
            _env.string(_env.TRACE_FILE, DEFAULT_TRACE_FILE))
        with open(target, "a", encoding="utf-8") as handle:
            for trace in self._completed:
                handle.write(json.dumps(trace.to_dict(),
                                        sort_keys=True) + "\n")
        self._completed.clear()
        return target
