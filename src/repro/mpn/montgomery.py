"""Montgomery modular arithmetic (Montgomery 1985).

MPApca provides *Montgomery reduction* as a high-level operator composed
from inner products, additions and shifts (Section V-C), and the paper's
RSA benchmark is "composed of Montgomery reductions ... and squares"
(Section VII-C).  This module implements word-level Montgomery
multiplication (the CIOS formulation) and windowed modular
exponentiation on limb lists.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mpn import nat
from repro.mpn.div import divmod_nat
from repro.mpn.nat import LIMB_BASE, LIMB_BITS, LIMB_MASK, MpnError, Nat

MulFn = Callable[[Nat, Nat], Nat]


def _inverse_limb(limb: int) -> int:
    """Inverse of an odd limb modulo 2^32 by word-level Newton lifting."""
    inverse = limb  # correct to 3 bits (odd numbers are self-inverse mod 8)
    for _ in range(4):  # 3 -> 6 -> 12 -> 24 -> 48 >= 32 bits
        inverse = (inverse * (2 - limb * inverse)) & LIMB_MASK
    return inverse


class MontgomeryContext:
    """Reusable Montgomery domain for a fixed odd modulus.

    Parameters
    ----------
    modulus:
        An odd natural (as limbs).  R is ``2**(32*len(modulus))``.
    mul_fn:
        Multiplier used for domain entry/exit reductions (the hot
        per-step work is the limb-level CIOS loop, which needs none).
    backend:
        Division backend of those reductions (see
        :func:`repro.mpn.div.divmod_nat`); a limb-pinned caller passes
        ``"limb"`` so no packed division runs.
    """

    def __init__(self, modulus: Nat, mul_fn: Optional[MulFn] = None,
                 backend: str = "auto") -> None:
        if nat.is_zero(modulus) or (modulus[0] & 1) == 0:
            raise MpnError("Montgomery requires an odd modulus")
        self.modulus = list(modulus)
        self.num_limbs = len(modulus)
        self.neg_inverse = (-_inverse_limb(modulus[0])) & LIMB_MASK
        self._mul_fn = mul_fn
        self._backend = backend
        r_squared = nat.shl([1], 2 * self.num_limbs * LIMB_BITS)
        self.r_squared = self.reduce(r_squared)
        self.one = self.reduce(nat.shl([1], self.num_limbs * LIMB_BITS))

    def mont_mul(self, a: Nat, b: Nat) -> Nat:
        """Montgomery product: a*b*R^-1 mod modulus (CIOS loop)."""
        n = self.num_limbs
        modulus = self.modulus
        neg_inverse = self.neg_inverse
        accumulator = [0] * (n + 2)
        a_padded = list(a) + [0] * (n - len(a))
        b_padded = list(b) + [0] * (n - len(b))
        for i in range(n):
            # accumulator += a[i] * b
            carry = 0
            limb_a = a_padded[i]
            for j in range(n):
                total = accumulator[j] + limb_a * b_padded[j] + carry
                accumulator[j] = total & LIMB_MASK
                carry = total >> LIMB_BITS
            total = accumulator[n] + carry
            accumulator[n] = total & LIMB_MASK
            accumulator[n + 1] += total >> LIMB_BITS
            # m = accumulator[0] * (-modulus^-1) mod base
            m = (accumulator[0] * neg_inverse) & LIMB_MASK
            # accumulator += m * modulus; then shift one limb right
            carry = 0
            for j in range(n):
                total = accumulator[j] + m * modulus[j] + carry
                accumulator[j] = total & LIMB_MASK
                carry = total >> LIMB_BITS
            total = accumulator[n] + carry
            accumulator[n] = total & LIMB_MASK
            accumulator[n + 1] += total >> LIMB_BITS
            # divide by the limb base (accumulator[0] is now zero)
            accumulator = accumulator[1:] + [0]
        result = nat.normalize(accumulator[:n + 1])
        if nat.cmp(result, modulus) >= 0:
            result = nat.sub(result, modulus)
        return result

    def to_mont(self, value: Nat) -> Nat:
        """Enter the Montgomery domain (value must be < modulus)."""
        return self.mont_mul(value, self.r_squared)

    def from_mont(self, value: Nat) -> Nat:
        """Leave the Montgomery domain."""
        return self.mont_mul(value, [1])

    def reduce(self, value: Nat) -> Nat:
        """Plain modular reduction into [0, modulus)."""
        return divmod_nat(value, self.modulus, self._mul_fn,
                          self._backend)[1]

    def pow(self, base: Nat, exponent: Nat) -> Nat:
        """Modular exponentiation with a 4-bit window."""
        if nat.is_zero(exponent):
            return [1] if nat.cmp(self.modulus, [1]) != 0 else []
        base_mont = self.to_mont(self.reduce(base))
        window: list[Nat] = [self.one, base_mont]
        for _ in range(14):
            window.append(self.mont_mul(window[-1], base_mont))

        exponent_bits = nat.bit_length(exponent)
        accumulator = self.one
        index = ((exponent_bits + 3) // 4) * 4 - 4
        while index >= 0:
            for _ in range(4):
                accumulator = self.mont_mul(accumulator, accumulator)
            nibble = 0
            for offset in range(3, -1, -1):
                nibble = (nibble << 1) | nat.get_bit(exponent, index + offset)
            if nibble:
                accumulator = self.mont_mul(accumulator, window[nibble])
            index -= 4
        return self.from_mont(accumulator)


def powmod(base: Nat, exponent: Nat, modulus: Nat,
           mul_fn: Optional[MulFn] = None, backend: str = "auto") -> Nat:
    """base**exponent mod modulus for any modulus > 0.

    Odd moduli use Montgomery; even moduli fall back to square-and-multiply
    with division-based reduction (RSA and zkcm only ever need odd).
    ``backend`` is the division backend of every reduction.
    """
    if nat.is_zero(modulus):
        raise MpnError("zero modulus")
    if nat.cmp(modulus, [1]) == 0:
        return []
    if modulus[0] & 1:
        return MontgomeryContext(modulus, mul_fn, backend).pow(base,
                                                              exponent)
    result: Nat = [1]
    factor = divmod_nat(base, modulus, mul_fn, backend)[1]
    square_mul = mul_fn if mul_fn is not None else _default_mul
    for index in range(nat.bit_length(exponent)):
        if nat.get_bit(exponent, index):
            result = divmod_nat(square_mul(result, factor),
                                modulus, mul_fn, backend)[1]
        factor = divmod_nat(square_mul(factor, factor), modulus, mul_fn,
                            backend)[1]
    return result


def _default_mul(a: Nat, b: Nat) -> Nat:
    from repro.mpn.mul import mul as dispatch_mul
    return dispatch_mul(a, b)
