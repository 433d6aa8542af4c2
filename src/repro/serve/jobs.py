"""Job model for the serve layer: parse, validate, price.

A *job* is one client-requested operation — ``mul``, ``div``,
``powmod``, ``pi_digits``, or ``model_cycles`` — with canonicalized
integer parameters, the lowered execution :class:`~repro.plan.
lowering.Plan` (admission cost = ``plan.cost()``, cache salting =
``plan.memo_key``), an optional deadline, and a priority.  Validation
happens entirely at the front door so nothing malformed, oversized, or
divide-by-zero ever reaches the batcher; the error codes here are the
service's public vocabulary (``invalid:*`` for rejected inputs).

The plan lowered here is the plan that runs: the batcher executes
``job.plan`` through :func:`repro.plan.execute.run`, so the backend
that prices a job and labels its trace is the backend that computes
its answer.  Answers are checked against Python ``int``
(:func:`repro.serve.client.expected_result`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.analysis import env as _env
from repro.plan.execute import plan_for_job

#: The service's job vocabulary.
JOB_OPS = ("mul", "div", "powmod", "pi_digits", "model_cycles")

#: Idempotent, parameter-pure ops: the ones whose answers are cached
#: (:meth:`Job.cache_key`, the fleet router's cross-shard cache).
CACHEABLE_OPS = ("pi_digits", "model_cycles")

#: Operand-size ceiling (bits) for mul/div/powmod requests.
MAX_BITS_ENV = _env.SERVE_MAX_BITS.name
DEFAULT_MAX_BITS = 1 << 20

#: Ceiling for ``pi_digits`` requests.
MAX_DIGITS_ENV = _env.SERVE_MAX_DIGITS.name
DEFAULT_MAX_DIGITS = 20_000

#: Ceiling for ``model_cycles`` bitwidth queries (the model is priced,
#: not executed, so this is far above the execution ceiling).
MODEL_MAX_BITS = 1 << 30

#: Cycle-model operators a ``model_cycles`` job may query.
MODEL_OPS = ("mul", "add", "sub", "shift", "cmp", "div", "mod", "sqrt",
             "powmod")

_job_counter = itertools.count(1)


class JobError(ValueError):
    """A request rejected at validation, carrying its public code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def max_operand_bits() -> int:
    """Execution operand ceiling (``REPRO_SERVE_MAX_BITS``)."""
    return _env.int_value(_env.SERVE_MAX_BITS, DEFAULT_MAX_BITS,
                          minimum=1)


def max_pi_digits() -> int:
    """``pi_digits`` ceiling (``REPRO_SERVE_MAX_DIGITS``)."""
    return _env.int_value(_env.SERVE_MAX_DIGITS, DEFAULT_MAX_DIGITS,
                          minimum=1)


@dataclass
class Job:
    """One validated, admission-priced request."""

    op: str
    params: Dict[str, Any]
    plan: Any                        # lowered repro.plan Plan
    priority: int = 0
    deadline_ms: Optional[float] = None
    job_id: str = ""
    cost_cycles: float = 0.0
    #: Predicted wall nanoseconds from the learned cost model; ``None``
    #: when REPRO_COST=0, no fitted model is live, or the plan is
    #: outside the fitted domain (the queue then prices by cycles).
    cost_ns: Optional[float] = None
    created_at: float = field(default_factory=time.monotonic)
    deadline_at: Optional[float] = None
    seq: int = 0                     # assigned by the admission queue
    future: Any = None               # asyncio.Future, attached by server
    trace: Any = None                # RequestTrace when tracing is on

    def expired(self, now: Optional[float] = None) -> bool:
        """Has this job's deadline passed?"""
        if self.deadline_at is None:
            return False
        return (now if now is not None else time.monotonic()) \
            > self.deadline_at

    def queue_ms(self, now: Optional[float] = None) -> float:
        """Milliseconds since the job was admitted."""
        return ((now if now is not None else time.monotonic())
                - self.created_at) * 1000.0

    def cache_key(self) -> Optional[Tuple]:
        """Memo key for idempotent, parameter-pure job types.

        Includes the plan's memo key (thresholds fingerprint +
        algorithm choice), so a result is never served under a plan
        other than the one it was computed under.
        """
        if self.op in CACHEABLE_OPS:
            return (self.op,) + tuple(sorted(self.params.items())) \
                + tuple(self.plan.memo_key)
        return None


def job_op(payload: Any) -> str:
    """The ``op`` of a decoded request body, checked against
    :data:`JOB_OPS`; raises :class:`JobError` for a non-object body or
    an unknown op."""
    if not isinstance(payload, dict):
        raise JobError("invalid:bad-json", "request body must be an object")
    op = payload.get("op")
    if op not in JOB_OPS:
        raise JobError("invalid:unknown-op",
                       "op must be one of %s, got %r"
                       % (", ".join(JOB_OPS), op))
    return op


def make_job(payload: Dict[str, Any]) -> Job:
    """Parse one request body into a validated :class:`Job`.

    Raises :class:`JobError` with a public ``invalid:*`` code on any
    malformed field; nothing about the payload is trusted.
    """
    op = job_op(payload)
    raw_params = payload.get("params", {})
    if not isinstance(raw_params, dict):
        raise JobError("invalid:bad-params", "params must be an object")
    params = validate_params(op, raw_params)
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool) \
            or not 0 <= priority <= 9:
        raise JobError("invalid:priority",
                       "priority must be an integer in [0, 9]")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) \
                or isinstance(deadline_ms, bool) or deadline_ms <= 0:
            raise JobError("invalid:deadline",
                           "deadline_ms must be a positive number")
        deadline_ms = float(deadline_ms)
    job_id = payload.get("id")
    if job_id is None:
        job_id = "job-%d" % next(_job_counter)
    elif not isinstance(job_id, str) or len(job_id) > 128:
        raise JobError("invalid:id", "id must be a short string")
    plan = plan_for_job(op, params)
    from repro import cost as _cost
    job = Job(op=op, params=params, plan=plan, priority=priority,
              deadline_ms=deadline_ms, job_id=job_id,
              cost_cycles=plan.cost(),
              cost_ns=_cost.predict_plan_ns(plan))
    if deadline_ms is not None:
        job.deadline_at = job.created_at + deadline_ms / 1000.0
    return job


# -- validation ---------------------------------------------------------------

def validate_params(op: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Canonicalize one op's parameters (ints decoded, sizes checked)."""
    if op == "mul":
        a = _parse_operand(params, "a")
        b = _parse_operand(params, "b")
        return {"a": a, "b": b}
    if op == "div":
        a = _parse_operand(params, "a")
        b = _parse_operand(params, "b")
        if b == 0:
            raise JobError("invalid:zero-divisor",
                           "div requires a non-zero divisor")
        return {"a": a, "b": b}
    if op == "powmod":
        base = _parse_operand(params, "base")
        exponent = _parse_operand(params, "exp")
        modulus = _parse_operand(params, "mod")
        if modulus == 0:
            raise JobError("invalid:zero-modulus",
                           "powmod requires a non-zero modulus")
        return {"base": base, "exp": exponent, "mod": modulus}
    if op == "pi_digits":
        digits = _parse_count(params, "digits")
        ceiling = max_pi_digits()
        if digits > ceiling:
            raise JobError("invalid:oversized",
                           "pi_digits limited to %d digits (got %d)"
                           % (ceiling, digits))
        return {"digits": digits}
    if op == "model_cycles":
        model_op = params.get("op")
        if model_op not in MODEL_OPS:
            raise JobError("invalid:unknown-model-op",
                           "model op must be one of %s, got %r"
                           % (", ".join(MODEL_OPS), model_op))
        bits_a = _parse_count(params, "bits_a")
        bits_b = _parse_count(params, "bits_b", default=0, minimum=0)
        if max(bits_a, bits_b) > MODEL_MAX_BITS:
            raise JobError("invalid:oversized",
                           "model_cycles bitwidths limited to %d"
                           % MODEL_MAX_BITS)
        return {"op": model_op, "bits_a": bits_a, "bits_b": bits_b}
    raise JobError("invalid:unknown-op", "unknown op %r" % op)


def _parse_operand(params: Dict[str, Any], name: str) -> int:
    """Decode one big-integer operand (int, or a hex/"0x" string)."""
    if name not in params:
        raise JobError("invalid:missing-param",
                       "missing required parameter %r" % name)
    value = params[name]
    if isinstance(value, bool):
        raise JobError("invalid:bad-int", "%s must be an integer" % name)
    if isinstance(value, int):
        number = value
    elif isinstance(value, str):
        try:
            number = int(value, 0) if not value.lower().startswith("0x") \
                else int(value, 16)
        except ValueError:
            raise JobError("invalid:bad-int",
                           "%s is not a parsable integer (use hex "
                           "\"0x...\" for large values)" % name) from None
    else:
        raise JobError("invalid:bad-int",
                       "%s must be an int or a string" % name)
    if number < 0:
        raise JobError("invalid:negative",
                       "%s must be non-negative" % name)
    ceiling = max_operand_bits()
    if number.bit_length() > ceiling:
        raise JobError("invalid:oversized",
                       "%s exceeds the %d-bit operand ceiling "
                       "(REPRO_SERVE_MAX_BITS)" % (name, ceiling))
    return number


def _parse_count(params: Dict[str, Any], name: str,
                 default: Optional[int] = None, minimum: int = 1) -> int:
    value = params.get(name, default)
    if value is None:
        raise JobError("invalid:missing-param",
                       "missing required parameter %r" % name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise JobError("invalid:bad-int", "%s must be an integer" % name)
    if value < minimum:
        raise JobError("invalid:bad-int",
                       "%s must be >= %d" % (name, minimum))
    return value
