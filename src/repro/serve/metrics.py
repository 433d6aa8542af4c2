"""Lock-free metrics plane: counters, gauges, log-bucket histograms.

"Lock-free" is literal: every write is a single integer/float add or
list-slot increment, atomic under the GIL, and no code path here ever
takes a lock.  The one writer is the server's event loop (batcher
included); readers (the ``/metrics`` scrape) tolerate the
instant-in-time skew that lock-freedom implies — a scrape races a
concurrent increment by at most one observation, never sees torn
state, and never stalls the hot path.

Rendered exposition is Prometheus-style text: ``name{label="v"} value``
lines, histogram ``_bucket``/``_count``/``_sum`` series plus
convenience ``quantile`` summary lines (p50/p90/p99 interpolated from
the log buckets).

For the sharded topology the registry also has a *wire form*:
:meth:`MetricsRegistry.snapshot` exports every series as a JSON-able
dict (the shard ``/metrics.json`` payload), :func:`merge_snapshots`
folds any number of such snapshots into one — counters and histogram
buckets add element-wise (never by percentile), gauges add except
high-water marks (any name containing ``max``), which take the max —
and :func:`render_snapshot` turns a snapshot back into the text
exposition.  ``render()`` itself goes through the same pair, so the
single-process and merged scrapes can never drift in format.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Latency histogram boundaries (milliseconds, log-spaced).
LATENCY_BOUNDS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                     200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = ['%s="%s"' % (name, value) for name, value in key]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


class Counter:
    """A monotonically increasing count (GIL-atomic increments)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, max depth seen)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-boundary histogram with interpolated percentiles.

    ``counts[i]`` holds observations ``<= bounds[i]`` (exclusive of
    earlier buckets); the final slot is the overflow bucket.  A
    percentile interpolates linearly inside its bucket, which over
    log-spaced bounds keeps the p50/p99 report within one bucket width
    of the exact value — adequate for a service dashboard, exact
    enough for the benchmark client to cross-check against its own
    sorted-sample percentiles.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Iterable[float] = LATENCY_BOUNDS_MS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly "
                             "increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value

    def percentile(self, q: float) -> float:
        """Interpolated quantile in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) \
                    else self.bounds[-1]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, fraction)
            cumulative += bucket_count
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create registry keyed by (name, sorted labels)."""

    def __init__(self, prefix: str = "repro_serve") -> None:
        self.prefix = prefix
        self._counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}

    # -- get-or-create --------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters.setdefault(key, Counter())
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges.setdefault(key, Gauge())
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Iterable[float]] = None,
                  **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms.setdefault(
                key, Histogram(bounds if bounds is not None
                               else LATENCY_BOUNDS_MS))
        return metric

    # -- read side ------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> int:
        metric = self._counters.get((name, _label_key(labels)))
        return metric.value if metric else 0

    def counter_total(self, name: str) -> int:
        """Sum of one counter family across all label sets."""
        return sum(metric.value
                   for (metric_name, _), metric in self._counters.items()
                   if metric_name == name)

    def render(self) -> str:
        """Prometheus-style text exposition of every metric."""
        return render_snapshot(self.snapshot(), self.prefix)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able export of every series (the shard wire form).

        The inverse direction is :func:`render_snapshot`; snapshots
        from many registries fold with :func:`merge_snapshots`.
        """
        return {
            "counters": [[name, [list(pair) for pair in key],
                          metric.value]
                         for (name, key), metric
                         in sorted(self._counters.items())],
            "gauges": [[name, [list(pair) for pair in key],
                        metric.value]
                       for (name, key), metric
                       in sorted(self._gauges.items())],
            "histograms": [[name, [list(pair) for pair in key],
                            list(metric.bounds), list(metric.counts),
                            metric.count, metric.total]
                           for (name, key), metric
                           in sorted(self._histograms.items())],
        }


# -- snapshot algebra (the sharded aggregation path) --------------------------

def _snapshot_key(name: str, labels: Iterable[Iterable[str]]) -> Tuple:
    return (str(name), tuple((str(k), str(v)) for k, v in labels))


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]
                    ) -> Dict[str, Any]:
    """Fold registry snapshots into one — the *only* aggregation rule.

    Pure (inputs untouched, no registry involved) so the router's
    ``/metrics`` merge is unit-testable arithmetic:

    * counters with equal (name, labels) add;
    * gauges add, except high-water marks — any name containing
      ``max`` — which take the maximum across shards;
    * histograms merge **bucket-wise**: per-bucket counts, the total
      count, and the value sum add element-wise.  Percentiles are
      interpolated only after the merge (averaging per-shard p50s
      would be statistically meaningless); merging histograms of the
      same name with different bounds raises ``ValueError``.
    """
    counters: Dict[Tuple, int] = {}
    gauges: Dict[Tuple, float] = {}
    histograms: Dict[Tuple, List[Any]] = {}
    for snapshot in snapshots:
        for name, labels, value in snapshot.get("counters", ()):
            key = _snapshot_key(name, labels)
            counters[key] = counters.get(key, 0) + int(value)
        for name, labels, value in snapshot.get("gauges", ()):
            key = _snapshot_key(name, labels)
            if "max" in str(name):
                gauges[key] = max(gauges.get(key, float(value)),
                                  float(value))
            else:
                gauges[key] = gauges.get(key, 0.0) + float(value)
        for name, labels, bounds, counts, count, total \
                in snapshot.get("histograms", ()):
            key = _snapshot_key(name, labels)
            seen = histograms.get(key)
            if seen is None:
                histograms[key] = [list(bounds), list(counts),
                                   int(count), float(total)]
                continue
            if seen[0] != list(bounds):
                raise ValueError(
                    "histogram %r merged with mismatched bounds "
                    "(%r vs %r)" % (name, seen[0], list(bounds)))
            if len(seen[1]) != len(counts):
                raise ValueError(
                    "histogram %r merged with %d vs %d buckets"
                    % (name, len(seen[1]), len(counts)))
            seen[1] = [a + int(b) for a, b in zip(seen[1], counts)]
            seen[2] += int(count)
            seen[3] += float(total)
    return {
        "counters": [[name, [list(pair) for pair in labels], value]
                     for (name, labels), value
                     in sorted(counters.items())],
        "gauges": [[name, [list(pair) for pair in labels], value]
                   for (name, labels), value in sorted(gauges.items())],
        "histograms": [[name, [list(pair) for pair in labels],
                        parts[0], parts[1], parts[2], parts[3]]
                       for (name, labels), parts
                       in sorted(histograms.items())],
    }


def render_snapshot(snapshot: Dict[str, Any],
                    prefix: str = "repro_serve") -> str:
    """Text exposition of one snapshot (merged or single-registry).

    This is the one formatting path: :meth:`MetricsRegistry.render`
    delegates here, so shard scrapes and the router's merged scrape
    are byte-compatible in shape.
    """
    lines: List[str] = []
    full = "%s_%s" % (prefix, "%s")
    for name, labels, value in snapshot.get("counters", ()):
        key = _snapshot_key(name, labels)[1]
        lines.append("%s%s %d" % (full % name, _render_labels(key),
                                  int(value)))
    for name, labels, value in snapshot.get("gauges", ()):
        key = _snapshot_key(name, labels)[1]
        lines.append("%s%s %g" % (full % name, _render_labels(key),
                                  float(value)))
    for name, labels, bounds, counts, count, total \
            in snapshot.get("histograms", ()):
        key = _snapshot_key(name, labels)[1]
        metric = Histogram(bounds)
        metric.counts = [int(c) for c in counts]
        metric.count = int(count)
        metric.total = float(total)
        cumulative = 0
        for bound, bucket in zip(metric.bounds, metric.counts):
            cumulative += bucket
            lines.append("%s_bucket%s %d" % (
                full % name,
                _render_labels(key, 'le="%g"' % bound), cumulative))
        lines.append("%s_bucket%s %d" % (
            full % name, _render_labels(key, 'le="+Inf"'),
            metric.count))
        lines.append("%s_count%s %d" % (full % name,
                                        _render_labels(key),
                                        metric.count))
        lines.append("%s_sum%s %g" % (full % name, _render_labels(key),
                                      metric.total))
        for quantile in (0.5, 0.9, 0.99):
            lines.append("%s%s %g" % (
                full % name,
                _render_labels(key, 'quantile="%g"' % quantile),
                metric.percentile(quantile)))
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse rendered exposition back into ``{line-key: value}``.

    The inverse of :meth:`MetricsRegistry.render` for tests and the
    benchmark client's ground-truth cross-check.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        if not key:
            continue
        try:
            values[key] = float(raw)
        except ValueError:
            continue
    return values
