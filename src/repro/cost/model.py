"""The learned cost model: per-(op, backend) log-log regressions.

The analytic :meth:`Plan.cost` prices work in accelerator *cycles* and
— because the MPApca pricer sees only operand bits — charges every
backend of one shape identically, while measured nanoseconds on this
Python runtime differ by 15–90x between the limb recursion and the
packed kernels.  This module fits the obvious correction:
for every (op, backend) group with enough measurements, an ordinary
least-squares line in log-log space::

    log(ns) = a + b * log(limbs)

Pure stdlib, two coefficients per group, closed-form fit.  The slope
is clamped to be non-negative and a prediction's log is clamped to
:data:`LOG_NS_BOUNDS` before ``exp``, so predictions are finite,
positive, and monotone non-decreasing in limbs by construction, however
steep a fit is — properties the hypothesis suite asserts and the
selection/admission consumers rely on.

Fitted models persist in the version-salted disk cache under a key
that includes the tuned-thresholds fingerprint: ``repro tune`` changes
the fingerprint, which strands every stale fit exactly like it strands
stale plans.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import env as _env
from repro.cost.features import canonical_backend, canonical_op

#: Salt for the on-disk model cache; bump on payload layout changes.
COST_MODEL_VERSION = 1

#: Minimum distinct limb sizes before a group is considered fittable.
MIN_GROUP_SIZES = 3

#: Exponent-bit convention for the analytic powmod comparison (the
#: serve layer's RSA-shaped jobs use 64-bit exponents; what matters for
#: the eval gate is that model and analytic price the *same* job).
POWMOD_EXP_BITS = 64

#: ``(low, high)`` bounds on a prediction's natural log.  A steep fit
#: extrapolated far from its sizes (say slope 88 over 5210-5656 limbs,
#: asked at 1 limb) would otherwise underflow ``exp`` to 0 or overflow
#: it; ``exp`` of either bound is a finite positive float.
LOG_NS_BOUNDS = (-700.0, 700.0)


def enabled() -> bool:
    """Whether the learned model may influence anything at all."""
    return _env.enabled(_env.COST)


def _group_key(op: str, backend: str) -> str:
    return "%s|%s" % (op, backend)


def analytic_cycles(op: str, limbs: int) -> Optional[float]:
    """The analytic accelerator-cycle price of one modeled job shape.

    Mirrors how each op's bench/tune measurements were taken: mul/sqr
    are n-by-n, div is the 2n-by-n schoolbook shape, powmod uses the
    :data:`POWMOD_EXP_BITS` exponent convention."""
    from repro.mpn.nat import LIMB_BITS
    from repro.runtime import mpapca
    kind = canonical_op(op)
    if kind is None or limbs < 1:
        return None
    bits = limbs * LIMB_BITS
    if kind in ("mul", "sqr"):
        return mpapca.mul_cycles(bits, bits)
    if kind == "div":
        return mpapca.div_cycles(2 * bits, bits)
    return mpapca.powmod_cycles(bits, POWMOD_EXP_BITS)


@dataclass
class CostModel:
    """A fitted set of per-(op, backend) regressions.

    ``rate_cycles_per_ns`` is the observed conversion rate between the
    analytic cycle price and wall nanoseconds on this host (median over
    the training rows); it turns ``Plan.cost()`` into a comparable ns
    estimate for the eval gate and for seeding service rates."""

    fingerprint: Tuple[int, ...]
    rate_cycles_per_ns: float
    groups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def predict_ns(self, op: str, backend: str,
                   limbs: int) -> Optional[float]:
        """Predicted wall ns, or ``None`` outside the fitted domain."""
        kind = canonical_op(op)
        resolved = canonical_backend(backend)
        if kind is None or resolved is None or limbs < 1:
            return None
        group = self.groups.get(_group_key(kind, resolved))
        if group is None:
            return None
        low, high = LOG_NS_BOUNDS
        log_ns = group["a"] + group["b"] * math.log(limbs)
        if math.isnan(log_ns):
            return None
        return math.exp(min(max(log_ns, low), high))

    def covers(self, op: str, backend: str) -> bool:
        kind = canonical_op(op)
        resolved = canonical_backend(backend or "")
        return kind is not None and resolved is not None \
            and _group_key(kind, resolved) in self.groups

    def to_payload(self) -> Dict:
        return {"version": COST_MODEL_VERSION,
                "fingerprint": list(self.fingerprint),
                "rate_cycles_per_ns": self.rate_cycles_per_ns,
                "groups": self.groups}

    @classmethod
    def from_payload(cls, payload) -> Optional["CostModel"]:
        if not isinstance(payload, dict) \
                or payload.get("version") != COST_MODEL_VERSION:
            return None
        groups = payload.get("groups")
        fingerprint = payload.get("fingerprint")
        rate = payload.get("rate_cycles_per_ns")
        if not isinstance(groups, dict) \
                or not isinstance(fingerprint, (list, tuple)) \
                or not isinstance(rate, (int, float)) or rate <= 0:
            return None
        clean: Dict[str, Dict[str, float]] = {}
        for key, group in groups.items():
            if not isinstance(group, dict):
                return None
            try:
                clean[str(key)] = {
                    "a": float(group["a"]), "b": float(group["b"]),
                    "n": float(group.get("n", 0)),
                    "limbs_min": float(group.get("limbs_min", 1)),
                    "limbs_max": float(group.get("limbs_max", 1)),
                }
            except (KeyError, TypeError, ValueError):
                return None
        return cls(fingerprint=tuple(int(x) for x in fingerprint),
                   rate_cycles_per_ns=float(rate), groups=clean)

    def digest(self) -> str:
        """Stable identity of the fitted coefficients (cache salt)."""
        blob = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


def _fit_group(points: List[Tuple[int, float]]) -> Optional[Dict]:
    """OLS in log-log space over (limbs, ns) points; slope clamped >= 0."""
    sizes = sorted({limbs for limbs, _ in points})
    if len(sizes) < MIN_GROUP_SIZES:
        return None
    xs = [math.log(limbs) for limbs, _ in points]
    ys = [math.log(ns) for _, ns in points]
    n = float(len(xs))
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x <= 0.0:
        return None
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = max(0.0, cov / var_x)
    intercept = mean_y - slope * mean_x
    return {"a": intercept, "b": slope, "n": n,
            "limbs_min": float(sizes[0]), "limbs_max": float(sizes[-1])}


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def fit(rows: Iterable[Dict],
        fingerprint: Tuple[int, ...]) -> Optional[CostModel]:
    """Fit a model from dataset rows; ``None`` when nothing is fittable.

    Groups without :data:`MIN_GROUP_SIZES` distinct limb sizes are
    dropped (their predictions fall back to the analytic path) rather
    than fitted badly."""
    grouped: Dict[str, List[Tuple[int, float]]] = {}
    ratios: List[float] = []
    for row in rows:
        key = _group_key(row["op"], row["backend"])
        grouped.setdefault(key, []).append((row["limbs"], row["ns"]))
        cycles = analytic_cycles(row["op"], row["limbs"])
        if cycles is not None and row["ns"] > 0:
            ratios.append(cycles / row["ns"])
    groups = {}
    for key, points in grouped.items():
        fitted = _fit_group(points)
        if fitted is not None:
            groups[key] = fitted
    if not groups or not ratios:
        return None
    return CostModel(fingerprint=tuple(fingerprint),
                     rate_cycles_per_ns=_median(ratios), groups=groups)


# -- evaluation ---------------------------------------------------------------

def split_rows(rows: List[Dict]) -> Tuple[List[Dict], List[Dict]]:
    """Deterministic train/holdout split: rows are sorted by their
    canonical identity and every third row is held out, so repeated
    evals of one dataset always measure the same partition."""
    ordered = sorted(rows, key=lambda row: (row["op"], row["backend"],
                                            row["limbs"], row["ns"]))
    train = [row for i, row in enumerate(ordered) if i % 3 != 2]
    holdout = [row for i, row in enumerate(ordered) if i % 3 == 2]
    return train, holdout


def evaluate(rows: List[Dict],
             fingerprint: Tuple[int, ...]) -> Optional[Dict]:
    """Held-out comparison of the fitted model against the analytic
    cycle price (converted at the train-side observed rate).

    Returns the ``BENCH_cost.json`` payload body: per-row relative
    errors are summarized as medians, and ``gate_ok`` asserts the
    model's median is at least ``gate_ratio``x lower."""
    train, holdout = split_rows(rows)
    model = fit(train, fingerprint)
    if model is None or not holdout:
        return None
    model_errors: List[float] = []
    analytic_errors: List[float] = []
    scored = 0
    for row in holdout:
        predicted = model.predict_ns(row["op"], row["backend"],
                                     row["limbs"])
        cycles = analytic_cycles(row["op"], row["limbs"])
        if predicted is None or cycles is None:
            continue
        analytic_ns = cycles / model.rate_cycles_per_ns
        model_errors.append(abs(predicted - row["ns"]) / row["ns"])
        analytic_errors.append(abs(analytic_ns - row["ns"]) / row["ns"])
        scored += 1
    if not scored:
        return None
    model_med = _median(model_errors)
    analytic_med = _median(analytic_errors)
    ratio = analytic_med / model_med if model_med > 0 else float("inf")
    return {
        "rows_total": len(rows),
        "rows_train": len(train),
        "rows_holdout": len(holdout),
        "rows_scored": scored,
        "groups": sorted(model.groups),
        "rate_cycles_per_ns": model.rate_cycles_per_ns,
        "model_median_rel_err": model_med,
        "analytic_median_rel_err": analytic_med,
        "error_ratio": ratio,
        "gate_ratio": 2.0,
        "gate_ok": ratio >= 2.0,
        "model_digest": model.digest(),
    }


# -- persistence --------------------------------------------------------------

def _model_cache():
    from repro.parallel.cache import named_cache
    return named_cache("cost_models", maxsize=8,
                       version=COST_MODEL_VERSION)


def _cache_key(fingerprint: Tuple[int, ...]) -> str:
    cache = _model_cache()
    return cache.key("cost-model", tuple(fingerprint))


def save(model: CostModel) -> None:
    """Persist a fitted model under its thresholds fingerprint."""
    cache = _model_cache()
    cache.put(_cache_key(model.fingerprint), model.to_payload())
    cache.save_if_dirty()
    invalidate_active()


def load(fingerprint: Tuple[int, ...]) -> Optional[CostModel]:
    """The persisted model for one thresholds fingerprint, if any."""
    payload = _model_cache().get(_cache_key(fingerprint))
    if payload is None:
        return None
    return CostModel.from_payload(payload)


#: Memoized (fingerprint, model-or-None) pair; the fingerprint part
#: makes a retune (which changes the active thresholds) a cache miss.
_ACTIVE: Optional[Tuple[Tuple[int, ...], Optional[CostModel]]] = None


def active_model() -> Optional[CostModel]:
    """The persisted model matching the *active* tuned thresholds.

    Returns ``None`` when the killswitch is off, no fit was persisted,
    or the persisted fit was made under different thresholds (``repro
    tune`` strands stale fits by changing the fingerprint)."""
    global _ACTIVE
    if not enabled():
        return None
    from repro.plan import select as _select
    fingerprint = tuple(_select.fingerprint(_select.active()))
    if _ACTIVE is not None and _ACTIVE[0] == fingerprint:
        return _ACTIVE[1]
    model = load(fingerprint)
    _ACTIVE = (fingerprint, model)
    return model


def invalidate_active() -> None:
    """Drop the memoized active model (tests, post-save, retune)."""
    global _ACTIVE
    _ACTIVE = None
