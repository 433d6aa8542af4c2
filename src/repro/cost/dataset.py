"""The measurement dataset: ``results/COST_dataset.jsonl``.

One JSON object per line, schema-versioned, append-only.  Rows come
from three producers the stack already runs for free:

* ``repro tune`` — every bisection probe is a clean best-of-N kernel
  timing at a known (op, backend, limbs) point; the recorder context
  below collects them instead of discarding everything but the chosen
  crossover;
* ``repro cost harvest`` — folds the checked-in benchmark JSONs
  (``BENCH_kernels.json`` per-backend points, ``BENCH_serve.json``
  per-(op, backend) latency aggregates) and ``REPRO_TRACE`` span dumps
  into rows;
* tests and ad-hoc scripts via :func:`append_rows`.

Row schema (``schema`` = :data:`DATASET_SCHEMA_VERSION`)::

    {"schema": 1, "op": "mul", "backend": "packed", "limbs": 128,
     "ns": 215007.0, "source": "bench-kernels", "end_to_end": false}

``end_to_end`` marks rows whose nanoseconds include queueing/transport
(serve latency aggregates); :func:`load_rows` excludes them from
kernel fitting by default.  Unknown or mismatched-schema lines are
skipped on load — the dataset must never be able to break a fit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.analysis import env as _env
from repro.cost.features import (MODELED_BACKENDS, MODELED_OPS,
                                 canonical_backend, canonical_op)

#: Bump when a row's meaning changes; loaders skip other versions.
DATASET_SCHEMA_VERSION = 1

#: Environment override for the dataset path.
DATASET_ENV = _env.COST_DATASET.name

DEFAULT_DATASET = "results/COST_dataset.jsonl"


def dataset_path(path=None) -> Path:
    """Where rows accumulate: explicit arg, ``$REPRO_COST_DATASET``, or
    the checked-in default."""
    if path is not None:
        return Path(path)
    return Path(_env.string(_env.COST_DATASET, DEFAULT_DATASET))


def make_row(op: str, backend: str, limbs: int, ns: float,
             source: str, end_to_end: bool = False) -> Optional[Dict]:
    """One validated dataset row, or ``None`` when out of domain."""
    kind = canonical_op(op)
    resolved = canonical_backend(backend)
    if kind is None or resolved is None:
        return None
    if not isinstance(limbs, int) or limbs < 1:
        return None
    try:
        ns = float(ns)
    except (TypeError, ValueError):
        return None
    if not ns > 0.0 or ns != ns or ns == float("inf"):
        return None
    return {"schema": DATASET_SCHEMA_VERSION, "op": kind,
            "backend": resolved, "limbs": limbs, "ns": ns,
            "source": source, "end_to_end": bool(end_to_end)}


def _valid_row(payload) -> Optional[Dict]:
    if not isinstance(payload, dict) \
            or payload.get("schema") != DATASET_SCHEMA_VERSION:
        return None
    return make_row(payload.get("op", ""), payload.get("backend", ""),
                    payload.get("limbs", 0), payload.get("ns", 0.0),
                    str(payload.get("source", "unknown")),
                    bool(payload.get("end_to_end", False)))


def append_rows(rows: Iterable[Dict], path=None) -> int:
    """Append rows as JSON lines; returns how many were written."""
    target = dataset_path(path)
    valid = [row for row in (_valid_row(raw) for raw in rows)
             if row is not None]
    if not valid:
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as handle:
        for row in valid:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return len(valid)


def load_rows(path=None, kernel_only: bool = True) -> List[Dict]:
    """Every valid row in the dataset (malformed lines are skipped).

    ``kernel_only`` (the default) drops ``end_to_end`` rows — serve
    latencies include queueing and must not train the kernel model.
    """
    target = dataset_path(path)
    rows: List[Dict] = []
    try:
        text = target.read_text(encoding="utf-8")
    except OSError:
        return rows
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        row = _valid_row(payload)
        if row is None:
            continue
        if kernel_only and row["end_to_end"]:
            continue
        rows.append(row)
    return rows


# -- harvesters ---------------------------------------------------------------

def harvest_bench_kernels(path) -> List[Dict]:
    """Rows from one ``repro bench-kernels`` report JSON.

    Every entry's per-backend ``ns`` map is a clean best-of-N kernel
    timing; ``bits`` converts to the canonical limbs feature exactly as
    the bench generated its operands (div entries time the 2n-by-n
    shape, so ``bits`` *is* the divisor width)."""
    from repro.mpn.nat import LIMB_BITS
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    rows: List[Dict] = []
    for entry in report.get("entries", []) \
            if isinstance(report, dict) else []:
        if not isinstance(entry, dict):
            continue
        op = entry.get("op")
        bits = entry.get("bits")
        timings = entry.get("ns")
        if op not in MODELED_OPS or not isinstance(bits, int) \
                or not isinstance(timings, dict):
            continue
        limbs = max(1, bits // LIMB_BITS)
        for backend, ns in timings.items():
            if backend not in MODELED_BACKENDS:
                continue
            row = make_row(op, backend, limbs, ns,
                           source="bench-kernels")
            if row is not None:
                rows.append(row)
    return rows


def harvest_serve(path) -> List[Dict]:
    """Rows from one ``repro bench-serve`` report JSON.

    Uses the per-(op, backend) latency aggregates the load client
    records (``op_backend_latency``); these are *end-to-end* times
    (queueing and transport included), so the rows are flagged
    ``end_to_end`` and excluded from kernel fits by default — they
    exist for calibration analysis, not regression training.  Reports
    predating the aggregate column yield nothing."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    rows: List[Dict] = []
    for entry in report.get("op_backend_latency", []) \
            if isinstance(report, dict) else []:
        if not isinstance(entry, dict) or entry.get("n", 0) < 3:
            continue
        row = make_row(str(entry.get("op", "")),
                       str(entry.get("backend", "")),
                       int(entry.get("limbs", 0) or 0),
                       float(entry.get("p50_ms", 0.0) or 0.0) * 1e6,
                       source="serve", end_to_end=True)
        if row is not None:
            rows.append(row)
    return rows


def harvest_trace(path) -> List[Dict]:
    """Rows from a ``REPRO_TRACE`` span dump (JSON lines).

    Traces stamped with the plan fingerprint (backend + limbs, see
    :func:`repro.serve.trace.annotate_plan`) and an
    ``execute_start->execute_end`` span yield one row each, priced at
    that span: the batcher runs one job per span."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    rows: List[Dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if not isinstance(payload, dict):
            continue
        meta = payload.get("meta")
        spans = payload.get("spans_ms")
        if not isinstance(meta, dict) or not isinstance(spans, dict):
            continue
        span_ms = spans.get("execute_start->execute_end")
        backend = meta.get("backend")
        limbs = meta.get("limbs")
        if span_ms is None or backend is None \
                or not isinstance(limbs, int):
            continue
        row = make_row(str(payload.get("op", "")), str(backend), limbs,
                       float(span_ms) * 1e6, source="trace")
        if row is not None:
            rows.append(row)
    return rows


# -- the tune recorder --------------------------------------------------------

#: Active collector list, or ``None`` (recording off — the default, so
#: a bare bisection in a test never grows hidden state).
_RECORDER: Optional[List[Dict]] = None


@contextmanager
def recording():
    """Collect every :func:`record_point` row inside the block.

    Yields the (live) list of rows; nested recordings stack."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = rows = []
    try:
        yield rows
    finally:
        _RECORDER = previous
        if previous is not None:
            previous.extend(rows)


def record_point(op: str, backend: Optional[str], limbs: int,
                 ns: float, source: str = "tune") -> None:
    """Record one measured point if a recorder is active (else no-op).

    ``backend=None`` means the measured side has no single backend
    (e.g. a mixed auto-dispatch arm) and is skipped."""
    if _RECORDER is None or backend is None:
        return
    row = make_row(op, backend, limbs, ns, source)
    if row is not None:
        _RECORDER.append(row)
