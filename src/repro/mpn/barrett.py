"""Barrett modular reduction (the division-free Montgomery alternative).

Montgomery reduction (Section V-C's high-level operator) needs an odd
modulus and a domain transform; Barrett reduction works for any modulus
and keeps operands in the plain domain, at the cost of one precomputed
reciprocal ``mu = floor(4^k / m)``.  Modular exponentiation stacks,
including GMP's, choose between the two; we provide both so the RSA/HE
workloads can be composed either way.

    reduce(x) for x < m^2:
        q = ((x >> (k-1)) * mu) >> (k+1)
        r = x - q*m            # off by at most 2m
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mpn import nat
from repro.mpn.div import divmod_nat
from repro.mpn.nat import MpnError, Nat

MulFn = Callable[[Nat, Nat], Nat]


class BarrettContext:
    """Reusable Barrett reducer for a fixed modulus > 1."""

    def __init__(self, modulus: Nat, mul_fn: Optional[MulFn] = None) -> None:
        if nat.bit_length(modulus) < 2:
            raise MpnError("Barrett needs a modulus greater than 1")
        self.modulus = list(modulus)
        self.k = nat.bit_length(modulus)
        self._mul = mul_fn or _default_mul
        # mu = floor(2^(2k) / m), precomputed once.
        self.mu = divmod_nat(nat.shl([1], 2 * self.k), self.modulus,
                             mul_fn)[0]

    def reduce(self, value: Nat) -> Nat:
        """value mod m, for value < m^2 (the classic Barrett window)."""
        if nat.bit_length(value) > 2 * self.k:
            raise MpnError("Barrett input must be below modulus^2")
        quotient_estimate = nat.shr(
            self._mul(nat.shr(value, self.k - 1), self.mu), self.k + 1)
        remainder = nat.sub(value,
                            self._mul(quotient_estimate, self.modulus))
        # The estimate is low by at most 2.
        while nat.cmp(remainder, self.modulus) >= 0:
            remainder = nat.sub(remainder, self.modulus)
        return remainder

    def mul_mod(self, a: Nat, b: Nat) -> Nat:
        """(a * b) mod m for a, b < m."""
        return self.reduce(self._mul(a, b))

    def pow(self, base: Nat, exponent: Nat) -> Nat:
        """base^exponent mod m by square-and-multiply over reduce."""
        result: Nat = [1]
        factor = self.reduce(base) if nat.cmp(base, self.modulus) >= 0 \
            else list(base)
        bits = nat.bit_length(exponent)
        for index in range(bits):
            if nat.get_bit(exponent, index):
                result = self.mul_mod(result, factor)
            if index + 1 < bits:
                factor = self.mul_mod(factor, factor)
        return result


def _default_mul(a: Nat, b: Nat) -> Nat:
    from repro.mpn.mul import mul as dispatch_mul
    return dispatch_mul(a, b)
