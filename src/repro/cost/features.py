"""Featurization: one canonical (op, backend, limbs) key per plan.

The learned cost model (:mod:`repro.cost.model`) regresses measured
nanoseconds against operand size per (op, backend) group, so every
producer of training rows — ``repro bench-kernels`` points, serve
latency aggregates, ``REPRO_TRACE`` span dumps — and every
consumer of predictions (plan selection, admission pricing) must agree
on what "the size" of an operation is.  This module is that single
agreement:

* ``mul``/``sqr`` — the smaller operand's limb count (the quantity the
  limb ladder's thresholds compare, and the size bench generates both
  operands at);
* ``div``/``mod`` — the *divisor's* limb count (bench times the
  2n-by-n shape);
* ``powmod`` — the modulus limb count (the width every ladder step
  multiplies and reduces at; the exponent scales the loop length, not
  the per-step kernel).

Backend names are canonicalized to the bench vocabulary: the plan
layer's ``"library"`` is the bench's ``"limb"``; everything else
(``packed``/``device``) passes through; rows naming any other
backend (retired ones included) are skipped on load.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Operators the model fits; everything else is priced analytically.
MODELED_OPS = ("mul", "sqr", "div", "powmod")

#: Backend vocabulary of the dataset (the bench-kernels names).
MODELED_BACKENDS = ("limb", "packed", "device")


def canonical_op(op: str) -> Optional[str]:
    """The dataset op for a plan/job op; ``None`` when not modeled.

    ``mod`` shares division's kernels (same divisor-limbs crossovers,
    same measured shape), so its rows and predictions pool with
    ``div``.
    """
    if op == "mod":
        return "div"
    if op in MODELED_OPS:
        return op
    return None


def canonical_backend(backend: str) -> Optional[str]:
    """The dataset backend name for a resolved plan backend."""
    if backend == "library":
        return "limb"
    if backend in MODELED_BACKENDS:
        return backend
    return None


def plan_backend_name(dataset_backend: str) -> str:
    """Inverse of :func:`canonical_backend` (for selection answers)."""
    if dataset_backend == "limb":
        return "library"
    return dataset_backend


def op_limbs(op: str, bits_a: int, bits_b: int) -> Optional[int]:
    """The canonical size feature for one op, in limbs (``None`` when
    the op is not modeled)."""
    from repro.mpn.nat import LIMB_BITS
    kind = canonical_op(op)
    if kind is None:
        return None
    if kind in ("mul", "sqr"):
        smaller = min(max(bits_a, 1), max(bits_b, 1)) if op != "sqr" \
            else max(bits_a, 1)
        return -(-smaller // LIMB_BITS)
    if kind == "div":
        return -(-max(bits_b, 1) // LIMB_BITS)
    # powmod: the modulus width rides bits_a (OpSpec.for_job contract).
    return -(-max(bits_a, 1) // LIMB_BITS)


def plan_features(plan) -> Optional[Tuple[str, str, int]]:
    """``(op, backend, limbs)`` for a lowered plan, or ``None``.

    ``None`` means the plan is outside the model's domain (unmodeled
    op, unmodeled backend, or a degenerate size) and must be priced by
    the analytic path.
    """
    spec = plan.spec
    op = canonical_op(spec.op)
    backend = canonical_backend(plan.backend)
    if op is None or backend is None:
        return None
    limbs = op_limbs(spec.op, spec.bits_a, spec.bits_b)
    if limbs is None or limbs < 1:
        return None
    return (op, backend, limbs)
