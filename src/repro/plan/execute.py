"""Plan execution: run a lowered Plan on its operand values.

The library backend executes through the mpn kernels *under the plan's
own selection policy*, so what runs is exactly what the plan priced and
what the memo key describes.  The packed backend runs the whole-int
kernels of :mod:`repro.mpn.packed` on the request's ints, with no limb
lists and no conversions.  The device backend allocs operands into
a driver's shared LLC and retires the plan's instruction stream
(:mod:`repro.plan.streams`).

:func:`run` is the one executor: the serve batcher runs every job's
admission-lowered plan through it, so the backend a trace reports is
the backend that ran.  Results are raw Python values (ints, floats,
app result records) — transport encoding (hex strings for the serve
protocol) stays with the caller.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.plan.spec import OpSpec, PlanError


def _plan_mul_fn(plan):
    """The multiplier a ``library`` plan priced: the limb ladder under
    the plan's own policy, pinned so what runs is exactly what the
    plan's memo key describes.  (``packed`` plans run on the request's
    ints and never reach it.)"""
    from repro.mpn.mul import mul as raw_mul
    policy = plan.policy()
    return lambda x, y: raw_mul(x, y, policy, "limb")


def run(plan, params: Dict[str, Any], device=None) -> Dict[str, Any]:
    """Execute one Plan with concrete parameters.

    ``params`` uses the serve job vocabulary (``a``/``b``, ``base``/
    ``exp``/``mod``, ``digits``, model query fields).  ``device`` — a
    :class:`~repro.core.accelerator.CambriconP` — is required for
    device-backed plans and ignored otherwise.
    """
    from repro.mpn import nat_from_int, nat_to_int

    op = plan.spec.op
    if plan.backend == "device":
        if op != "mul":
            raise PlanError("device execution supports only mul")
        return {"product": _device_mul(plan, params["a"], params["b"],
                                       device)}
    if op == "mul":
        if plan.backend == "packed":
            from repro.mpn.packed import mul_packed_int
            return {"product": mul_packed_int(params["a"], params["b"])}
        product = _plan_mul_fn(plan)(nat_from_int(params["a"]),
                                     nat_from_int(params["b"]))
        return {"product": nat_to_int(product)}
    if op in ("div", "mod"):
        if plan.backend == "packed":
            from repro.mpn.packed import divmod_packed_int
            quotient, remainder = divmod_packed_int(params["a"],
                                                    params["b"])
        else:
            from repro.mpn.div import divmod_nat
            quotient, remainder = map(nat_to_int, divmod_nat(
                nat_from_int(params["a"]), nat_from_int(params["b"]),
                _plan_mul_fn(plan), backend="limb"))
        if op == "mod":
            return {"remainder": remainder}
        return {"quotient": quotient, "remainder": remainder}
    if op == "powmod":
        if plan.backend == "packed":
            from repro.mpn.packed import powmod_packed_int
            return {"value": powmod_packed_int(
                params["base"], params["exp"], params["mod"])}
        from repro.mpn.montgomery import powmod
        value = powmod(nat_from_int(params["base"]),
                       nat_from_int(params["exp"]),
                       nat_from_int(params["mod"]),
                       _plan_mul_fn(plan), "limb")
        return {"value": nat_to_int(value)}
    if op == "pi_digits":
        from repro.apps import pi
        result = pi.run(int(params["digits"]))
        return {"digits": result.digits, "terms": result.terms,
                "precision_bits": result.precision_bits}
    if op == "model_cycles":
        from repro.core.model import DEFAULT_CONFIG
        cycles = model_query(params["op"], int(params.get("bits_a", 0)),
                             int(params.get("bits_b", 0)))
        return {"cycles": cycles,
                "seconds": cycles / DEFAULT_CONFIG.frequency_hz}
    raise PlanError("no executor for operator %r" % (op,))


def _device_mul(plan, a: int, b: int, device) -> int:
    from repro.core.isa import Driver
    from repro.mpn import nat_from_int, nat_to_int
    from repro.plan import streams
    driver = Driver(device)
    destination = 1 << 20
    streams.run_on_driver(driver, plan,
                          [nat_from_int(a), nat_from_int(b)],
                          destination)
    return nat_to_int(driver.result(destination))


def model_query(model_op: str, bits_a: int, bits_b: int) -> float:
    """Price one operator on the MPApca cycle model (pure lookup)."""
    from repro.runtime import mpapca
    if model_op == "mul":
        return mpapca.mul_cycles(max(1, bits_a), max(1, bits_b))
    if model_op in ("add", "sub"):
        return mpapca.add_cycles(bits_a, bits_b)
    if model_op == "shift":
        return mpapca.shift_cycles()
    if model_op == "cmp":
        return float(mpapca.DISPATCH_CYCLES)
    if model_op in ("div", "mod"):
        return mpapca.div_cycles(max(1, bits_a), max(1, bits_b))
    if model_op == "sqrt":
        return mpapca.sqrt_cycles(max(1, bits_a))
    if model_op == "powmod":
        return mpapca.powmod_cycles(max(1, bits_a), max(1, bits_b))
    raise PlanError("unknown model op %r" % (model_op,))


def plan_for_job(op: str, params: Dict[str, Any],
                 policy=None, backend: Optional[str] = None):
    """Spec + lower in one call, honouring value-derived detail.

    The one extra over :meth:`OpSpec.for_job`: a library powmod records
    the modulus parity (it selects Montgomery vs. division-based
    exponentiation), which only the values can tell.  A packed powmod
    is ``pow`` for either parity, so its spec carries none and both
    parities share one cached plan.
    """
    from repro.plan import select
    from repro.plan.lowering import lower
    spec = OpSpec.for_job(op, params)
    if backend is not None:
        spec = OpSpec(spec.op, spec.bits_a, spec.bits_b, backend,
                      spec.detail)
    if op == "powmod" and not select.powmod_is_pow(spec.backend):
        spec = OpSpec("powmod", spec.bits_a, spec.bits_b, spec.backend,
                      (("mod_odd", int(params["mod"] & 1)),))
    return lower(spec, policy)
