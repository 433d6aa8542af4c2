"""``repro.cost`` — learned wall-clock pricing for plans and jobs.

The package maps a plan fingerprint — (op, resolved backend, limb
count) — to predicted nanoseconds, and feeds those predictions to the
consumers of the analytic :meth:`Plan.cost` (backend selection itself
never reads them):

* serve admission — ``estimated_wait`` prices pending work from
  predicted ns (:func:`predict_plan_ns`) and the queue's service rate
  is seeded before the first batch completes
  (:func:`seed_rate_cycles_per_ms`).  On a fleet each shard runs
  this gate for itself; the router prices nothing.

Everything is behind the ``REPRO_COST`` killswitch: with ``REPRO_COST=0``
— or simply no fitted model on disk — every function here returns its
"absent" value (``None``/empty/analytic input) and the stack behaves
bit-identically to the purely analytic build.

The submodules split the work: :mod:`repro.cost.features` is the
featurization contract, :mod:`repro.cost.dataset` the measurement
store and harvesters, :mod:`repro.cost.model` the regression fitter
and its fingerprint-salted persistence.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cost import model as _model
from repro.cost.features import plan_backend_name, plan_features

__all__ = [
    "enabled", "invalidate", "plan_backend_name", "plan_features",
    "predict_ns", "predict_plan_ns", "seed_rate_cycles_per_ms",
    "selection_salt",
]

enabled = _model.enabled


def invalidate() -> None:
    """Drop memoized model state (tests; after ``repro cost fit``)."""
    _model.invalidate_active()


def selection_salt() -> Tuple[str, ...]:
    """The live model's identity, for run provenance.

    Empty whenever the killswitch is off or no fitted model matches
    the policy fingerprint; otherwise ``("cost", digest)``, so two runs
    can tell whether they priced admission under the same fit."""
    model = _model.active_model()
    if model is None:
        return ()
    return ("cost", model.digest())


def predict_plan_ns(plan) -> Optional[float]:
    """Predicted wall ns for one lowered plan, or ``None``.

    ``None`` — the analytic path's signal — when the killswitch is
    off, no fitted model matches the policy fingerprint, or the plan is
    outside the fitted domain."""
    model = _model.active_model()
    if model is None:
        return None
    features = plan_features(plan)
    if features is None:
        return None
    return model.predict_ns(*features)


def predict_ns(op: str, backend: str, limbs: int) -> Optional[float]:
    """Predicted wall ns for one raw (op, backend, limbs) key."""
    model = _model.active_model()
    if model is None:
        return None
    return model.predict_ns(op, backend, limbs)


def seed_rate_cycles_per_ms() -> Optional[float]:
    """A boot-time service-rate estimate (cycles/ms) for admission.

    The fitted model's observed cycles-per-ns rate, *measured on this
    host*, when a fit matches the policy fingerprint; ``None``
    otherwise — a modelless (or killswitched) boot must stay cold and
    fall back to the depth bound exactly like the analytic build, not
    inherit a made-up rate the wait gate would shed against."""
    model = _model.active_model()
    if model is None:
        return None
    return model.rate_cycles_per_ns * 1e6
