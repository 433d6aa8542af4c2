"""Division of naturals: schoolbook (Knuth Algorithm D) and Newton.

Table I lists two division families: the O(n^2) schoolbook and the
O(n^m log n) Karatsuba/Newton family whose exponent m tracks the
underlying multiplication algorithm.  We implement both: Algorithm D is
the exact limb-level workhorse, and :func:`divmod_newton` reduces large
divisions to multiplications through a precision-doubling reciprocal
iteration (Newton-Raphson, the method MPFR's high-level functions
decompose to per Section II-A), with a final exact correction.

Word-sized quantities (<= 64 bits) are manipulated as Python ints: a
limb algorithm's "machine word" is exactly that abstraction.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.mpn import nat
from repro.mpn.nat import LIMB_BASE, LIMB_BITS, LIMB_MASK, MpnError, Nat
from repro.mpn.packed import divmod_packed
from repro.plan import select as _select

MulFn = Callable[[Nat, Nat], Nat]

#: Backends the division dispatcher understands (mirrors
#: :data:`repro.mpn.mul.MUL_BACKENDS`).
DIV_BACKENDS = ("auto", "limb", "packed")

#: Below this divisor size (bits) Newton division falls back to Algorithm D.
#: Read at call time and passed to :func:`repro.plan.select.div_algorithm`
#: as an explicit override, so monkeypatched values keep working and the
#: planner sees the same threshold this kernel does.
NEWTON_DIV_THRESHOLD_BITS = 2048

def divmod_schoolbook(a: Nat, b: Nat) -> Tuple[Nat, Nat]:
    """Exact (quotient, remainder) by Knuth Algorithm D."""
    if nat.is_zero(b):
        raise MpnError("division by zero")
    if nat.cmp(a, b) < 0:
        return [], list(a)
    if len(b) == 1:
        quotient, remainder = nat.div_1(a, b[0])
        return quotient, ([remainder] if remainder else [])

    # D1: normalize so the divisor's top limb has its high bit set.
    shift = LIMB_BITS - b[-1].bit_length()
    u = nat.shl(a, shift)
    v = nat.shl(b, shift)
    n = len(v)
    m = len(u) - n
    u = list(u) + [0]
    v_top = v[-1]
    v_next = v[-2]
    quotient = [0] * (m + 1)

    for j in range(m, -1, -1):
        # D3: estimate the quotient limb from the top two dividend limbs.
        numerator = (u[j + n] << LIMB_BITS) | u[j + n - 1]
        q_hat = numerator // v_top
        r_hat = numerator - q_hat * v_top
        while (q_hat >= LIMB_BASE
               or q_hat * v_next > ((r_hat << LIMB_BITS) | u[j + n - 2])):
            q_hat -= 1
            r_hat += v_top
            if r_hat >= LIMB_BASE:
                break
        # D4: multiply and subtract.
        borrow = 0
        carry = 0
        for i in range(n):
            product = q_hat * v[i] + carry
            carry = product >> LIMB_BITS
            diff = u[j + i] - (product & LIMB_MASK) - borrow
            if diff < 0:
                diff += LIMB_BASE
                borrow = 1
            else:
                borrow = 0
            u[j + i] = diff
        diff = u[j + n] - carry - borrow
        if diff < 0:
            # D6: the estimate was one too large — add the divisor back.
            q_hat -= 1
            carry = 0
            for i in range(n):
                total = u[j + i] + v[i] + carry
                u[j + i] = total & LIMB_MASK
                carry = total >> LIMB_BITS
            u[j + n] = (diff + LIMB_BASE + carry) & LIMB_MASK
        else:
            u[j + n] = diff
        quotient[j] = q_hat

    remainder = nat.shr(nat.normalize(u[:n]), shift)
    return nat.normalize(quotient), remainder


def _reciprocal(b: Nat, precision_bits: int, mul_fn: MulFn) -> Nat:
    """Approximate ``2**(bit_length(b) + precision_bits) // b`` from below.

    Precision-doubling Newton iteration; the approximation error is a few
    units, removed by the caller's correction loop.
    """
    divisor_bits = nat.bit_length(b)
    if precision_bits <= 30:
        top_shift = max(0, divisor_bits - 62)
        top_word = nat.nat_to_int(nat.shr(b, top_shift))  # repro: noqa=bigint-in-kernel -- <= 62-bit machine-word base case
        estimate = (1 << (divisor_bits - top_shift + precision_bits)) \
            // (top_word + 1)
        return nat.nat_from_int(estimate)  # repro: noqa=bigint-in-kernel -- word-sized seed back to limbs

    half = precision_bits // 2 + 4
    r_half = _reciprocal(b, half, mul_fn)
    # Newton step: r = 2*r_half*2^(p-h) - (r_half^2 * b) >> (nb + 2h - p)
    doubled = nat.shl(r_half, precision_bits - half + 1)
    square_times_b = mul_fn(mul_fn(r_half, r_half), b)
    correction = nat.shr(square_times_b,
                         divisor_bits + 2 * half - precision_bits)
    if nat.cmp(doubled, correction) < 0:  # pragma: no cover - guard
        return nat.shl(r_half, precision_bits - half)
    return nat.sub(doubled, correction)


def divmod_newton(a: Nat, b: Nat, mul_fn: MulFn) -> Tuple[Nat, Nat]:
    """Exact (quotient, remainder) via reciprocal multiplication.

    The reciprocal is taken once, at the precision of one quotient
    digit: the whole quotient when it is no wider than the divisor,
    otherwise a ``len(b)``-limb digit of a :func:`divmod_digits` walk.
    The Newton steps and products stay at divisor width however wide
    the dividend is.
    """
    if nat.is_zero(b):
        raise MpnError("division by zero")
    if nat.cmp(a, b) < 0:
        return [], list(a)
    divisor_bits = nat.bit_length(b)
    if _select.div_algorithm(
            divisor_bits, NEWTON_DIV_THRESHOLD_BITS) == "schoolbook":
        return divmod_schoolbook(a, b)

    digit_bits = LIMB_BITS * len(b)
    quotient_bits = nat.bit_length(a) - divisor_bits
    precision = min(quotient_bits, digit_bits) + 4
    reciprocal = _reciprocal(b, precision, mul_fn)
    if quotient_bits <= digit_bits:
        return _newton_digit(a, b, reciprocal, precision, mul_fn)
    return divmod_digits(a, len(b), lambda high, low: _newton_digit(
        nat.add(nat.shl(high, digit_bits), low), b, reciprocal, precision,
        mul_fn))


def _newton_digit(a: Nat, b: Nat, reciprocal: Nat, precision: int,
                  mul_fn: MulFn) -> Tuple[Nat, Nat]:
    """``divmod(a, b)`` for a quotient of at most ``precision - 4``
    bits, by ``reciprocal`` (``2**(bit_length(b) + precision) // b``
    from below).

    The estimate reads only the top of ``a``: dropping all but 32 of
    its bits under ``b``'s width lowers it by under ``2**-31`` units,
    so the product is quotient-wide on both sides.
    """
    divisor_bits = nat.bit_length(b)
    drop = max(0, divisor_bits - 32)
    # q ~= (a >> drop) * (2^(nb+p)/b) >> (nb+p-drop)
    quotient = nat.shr(mul_fn(nat.shr(a, drop), reciprocal),
                       divisor_bits + precision - drop)
    # Correction loop: the reciprocal is accurate to a few ulps, so this
    # runs O(1) times (asserted by tests over adversarial operands).
    while True:
        product = mul_fn(quotient, b)
        if nat.cmp(product, a) > 0:
            quotient = nat.sub(quotient, [1])
            continue
        remainder = nat.sub(a, product)
        if nat.cmp(remainder, b) >= 0:
            extra, fine = divmod_schoolbook(remainder, b)
            quotient = nat.add(quotient, extra)
            remainder = fine
        return quotient, remainder


def divmod_digits(a: Nat, digit_limbs: int,
                  divide_digit: Callable[[Nat, Nat], Tuple[Nat, Nat]]
                  ) -> Tuple[Nat, Nat]:
    """Schoolbook division of ``a`` over ``digit_limbs``-limb digits.

    ``a`` is cut into digits from the bottom and divided from the top
    down.  ``divide_digit(remainder, digit)`` returns the quotient and
    remainder of ``remainder * B**digit_limbs + digit`` (B the limb
    base) by the divisor; with ``remainder`` below the divisor that
    quotient is below ``B**digit_limbs``: one digit.  The recursive
    dividers (Newton, Burnikel-Ziegler) thus only ever divide at
    divisor width.
    """
    digits = []
    remainder: Nat = []
    for low in range((len(a) - 1) // digit_limbs * digit_limbs, -1,
                     -digit_limbs):
        digit, remainder = divide_digit(
            remainder, nat.normalize(a[low:low + digit_limbs]))
        digits.append(digit)
    limbs: Nat = []
    for digit in reversed(digits):
        limbs.extend(digit)
        limbs.extend([0] * (digit_limbs - len(digit)))
    return nat.normalize(limbs), remainder


def basecase_divmod(a: Nat, b: Nat) -> Tuple[Nat, Nat]:
    """The basecase division the recursive schemes should bottom out in.

    Burnikel-Ziegler (and anything else that reduces to quadratic
    division below its threshold) calls here instead of hard-coding
    Algorithm D, so its basecases run the packed kernel whenever
    ``auto`` does (Algorithm D under ``REPRO_PACKED=0``).
    """
    if _select.auto_backend() == "packed":
        return divmod_packed(a, b)
    return divmod_schoolbook(a, b)


def divmod_nat(a: Nat, b: Nat,
               mul_fn: MulFn | None = None,
               backend: str = "auto") -> Tuple[Nat, Nat]:
    """Exact (quotient, remainder); picks the algorithm *and* backend.

    ``backend="auto"`` runs the whole division as the packed recursion
    over int products (:func:`repro.mpn.packed.divmod_packed`) at every
    width (the limb selection under ``REPRO_PACKED=0``) — every step
    there is a C-level int product or ``divmod``, which beats the limb
    Newton iteration across the practical range.
    ``backend="limb"`` forces the classic schoolbook/Newton selection.
    """
    if backend == "auto":
        backend = _select.auto_backend()
    elif backend not in DIV_BACKENDS:
        raise MpnError("unknown div backend %r (expected one of %s)"
                       % (backend, ", ".join(DIV_BACKENDS)))
    if backend == "packed":
        return divmod_packed(a, b)
    algorithm = _select.div_algorithm(nat.bit_length(b),
                                      NEWTON_DIV_THRESHOLD_BITS,
                                      has_mul_fn=mul_fn is not None)
    if algorithm == "schoolbook":
        return divmod_schoolbook(a, b)
    return divmod_newton(a, b, mul_fn)


def mod(a: Nat, b: Nat, mul_fn: MulFn | None = None,
        backend: str = "auto") -> Nat:
    """Remainder of a / b."""
    return divmod_nat(a, b, mul_fn, backend)[1]


def divexact(a: Nat, b: Nat, mul_fn: MulFn | None = None,
             backend: str = "auto") -> Nat:
    """Quotient of an exact division (raises if a remainder appears)."""
    quotient, remainder = divmod_nat(a, b, mul_fn, backend)
    if not nat.is_zero(remainder):
        raise MpnError("divexact: division was not exact")
    return quotient
