"""repro.plan — the operation IR every layer dispatches through.

One request, one lowering, one answer::

    OpSpec -> select(MulPolicy) -> Plan{kernel chain | ISA stream,
                                        cost, memo key}

* :mod:`repro.plan.spec` — :class:`OpSpec`, the canonical request;
* :mod:`repro.plan.select` — every threshold-crossover lookup (the
  mpn kernels call in, so dispatch and planning cannot drift);
* :mod:`repro.plan.lowering` — :func:`lower` and :class:`Plan`, with a
  version-salted plan cache on the shared memo-cache machinery;
* :mod:`repro.plan.schedule` — :class:`Schedule`, the reified
  recursion structure the kernels commit to once per request shape;
* :mod:`repro.plan.streams` — device ISA-stream construction;
* :mod:`repro.plan.execute` — run a plan on concrete operands.

This ``__init__`` imports only the stdlib-light ``spec``/``select``
modules eagerly: the mpn kernels import ``repro.plan.select`` at module
scope, so anything heavier here would be a circular import.  ``Plan``,
``lower`` and friends load lazily on first attribute access.

See ``docs/PLAN.md`` for the pipeline and a worked example.
"""

from repro.plan import select
from repro.plan.spec import BACKENDS, OpSpec, PLAN_OPS, PlanError

#: Lazily-exported names -> defining submodule.
_LAZY = {
    "Plan": "repro.plan.lowering",
    "PlanStep": "repro.plan.lowering",
    "PLAN_SCHEMA_VERSION": "repro.plan.lowering",
    "lower": "repro.plan.lowering",
    "plan_cache": "repro.plan.lowering",
    "instructions_for": "repro.plan.streams",
    "run_plan": ("repro.plan.execute", "run"),
    "plan_for_job": "repro.plan.execute",
    "model_query": "repro.plan.execute",
    "Schedule": "repro.plan.schedule",
    "derive_schedule": "repro.plan.schedule",
    "validate_schedule": "repro.plan.schedule",
}

__all__ = ["BACKENDS", "OpSpec", "PLAN_OPS", "PlanError",
           "select"] + sorted(_LAZY)


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    import importlib
    module_name, attr = target if isinstance(target, tuple) \
        else (target, name)
    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
