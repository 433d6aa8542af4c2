"""Tests for schoolbook (Knuth D) and Newton division."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpn.div import (NEWTON_DIV_THRESHOLD_BITS, divexact,
                           divmod_newton, divmod_nat, divmod_schoolbook)
from repro.mpn.mul import PYTHON_POLICY, mul
from repro.mpn.nat import MpnError

from tests.conftest import from_nat, naturals, positive_naturals, to_nat


def mul_fn(a, b):
    return mul(a, b, PYTHON_POLICY)


class TestSchoolbookDivision:
    @given(naturals, positive_naturals)
    def test_matches_int(self, a, b):
        quotient, remainder = divmod_schoolbook(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    def test_zero_divisor_rejected(self):
        with pytest.raises(MpnError):
            divmod_schoolbook([1], [])

    def test_dividend_smaller(self):
        quotient, remainder = divmod_schoolbook([5], [0, 1])
        assert quotient == [] and remainder == [5]

    def test_knuth_add_back_case(self):
        # Operands engineered to trigger the rare D6 add-back branch:
        # dividend just below divisor * (B^k), top limbs force an
        # overestimated q_hat.
        b = (1 << 96) - (1 << 32) - 1
        a = (b << 64) - 1
        quotient, remainder = divmod_schoolbook(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    @pytest.mark.parametrize("a,b", [
        ((1 << 4096) - 1, (1 << 2048) - 1),
        ((1 << 4096) - 1, (1 << 2048) + 1),
        (((1 << 2000) + 7) ** 2 - 1, (1 << 2000) + 7),
    ])
    def test_adversarial(self, a, b):
        quotient, remainder = divmod_schoolbook(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)


class TestNewtonDivision:
    @given(st.integers(min_value=0, max_value=(1 << 9000) - 1),
           st.integers(min_value=1 << NEWTON_DIV_THRESHOLD_BITS,
                       max_value=1 << (NEWTON_DIV_THRESHOLD_BITS + 800)))
    @settings(max_examples=15, deadline=None)
    def test_matches_int(self, a, b):
        quotient, remainder = divmod_newton(to_nat(a), to_nat(b), mul_fn)
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    @pytest.mark.parametrize("b", [
        (1 << 4096) - 1, (1 << 4096) + 1, (1 << 5000) + 12345,
        (1 << 3000) - (1 << 1500),
    ])
    def test_adversarial_divisors(self, b):
        for a in (b * b - 1, b * b, b * b + 1, b * 12345 + b - 1):
            quotient, remainder = divmod_newton(to_nat(a), to_nat(b),
                                                mul_fn)
            assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    def test_small_divisor_falls_back(self):
        a, b = (1 << 600) - 3, (1 << 100) - 1
        quotient, remainder = divmod_newton(to_nat(a), to_nat(b), mul_fn)
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    @pytest.mark.parametrize("b", [
        pytest.param((1 << 2100) - 1, id="ones-2100"),
        pytest.param(1 << 2100, id="power-2100"),
        pytest.param((1 << 2143) + 12345, id="67-limbs"),
        pytest.param((1 << 2176) - (1 << 1000) + 7, id="68-full-limbs"),
    ])
    def test_wide_dividend_walks_divisor_width_digits(self, b):
        """A dividend many divisor-widths wide: the top part (one limb
        of quotient) and every digit, with all-ones and exact-multiple
        dividends, a zero top digit and remainders of b - 1 and 0.
        Every product stays at divisor width, however wide ``a``."""
        width = len(to_nat(b))
        widest = []

        def recording(x, y):
            widest.append(max(len(x), len(y)))
            return mul_fn(x, y)

        for a in ((1 << 40000) - 1, b << 30000, (b << 30000) - 1,
                  b * ((1 << 25000) + 3) + b - 1,
                  (b * 12345 + 17) << (32 * width * 7),
                  ((1 << 20000) + 1) * b * b):
            quotient, remainder = divmod_newton(to_nat(a), to_nat(b),
                                                recording)
            assert (from_nat(quotient), from_nat(remainder)) \
                == divmod(a, b)
        assert max(widest) <= width + 2


class TestDivmodFrontend:
    @given(naturals, positive_naturals)
    def test_matches_int(self, a, b):
        quotient, remainder = divmod_nat(to_nat(a), to_nat(b), mul_fn)
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    @given(naturals, positive_naturals)
    def test_divexact(self, a, b):
        product = mul_fn(to_nat(a), to_nat(b))
        assert from_nat(divexact(product, to_nat(b), mul_fn)) == a

    def test_divexact_raises_on_inexact(self):
        with pytest.raises(MpnError):
            divexact([7], [2], mul_fn)
