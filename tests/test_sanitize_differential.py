"""Differential mpn-vs-bigint tests under the runtime sanitizer.

Every example runs with the invariant sanitizer installed, so a kernel
that produced the right value through an unnormalized or out-of-range
intermediate at the API boundary would still fail here.  Deadlines are
disabled: the sanitizer deliberately doubles the constant factor, and
the strategies include 1200-bit operands.
"""

import math

import pytest
from hypothesis import given, settings

from repro import mpn
from repro.analysis import sanitize

from tests.conftest import from_nat, naturals, positive_naturals, \
    shift_counts, to_nat


@pytest.fixture(scope="module", autouse=True)
def _sanitized():
    """Module-scoped so hypothesis examples all run under the wrappers."""
    sanitize.install()
    yield
    sanitize.uninstall()


@settings(deadline=None)
@given(naturals, naturals)
def test_add_matches_bigint(x, y):
    assert from_nat(mpn.add(to_nat(x), to_nat(y))) == x + y


@settings(deadline=None)
@given(naturals, naturals)
def test_sub_matches_bigint(x, y):
    big, small = max(x, y), min(x, y)
    assert from_nat(mpn.sub(to_nat(big), to_nat(small))) == big - small


@settings(deadline=None)
@given(naturals, naturals)
def test_mul_matches_bigint(x, y):
    # auto is packed at every width; pin limb too so the sanitizer
    # still sees the limb ladder.
    for backend in ("auto", "limb"):
        assert from_nat(mpn.mul(to_nat(x), to_nat(y),
                                backend=backend)) == x * y


@settings(deadline=None, max_examples=60)
@given(naturals, positive_naturals)
def test_divmod_matches_bigint(x, y):
    for backend in ("auto", "limb"):
        quotient, remainder = mpn.divmod_nat(to_nat(x), to_nat(y),
                                             backend=backend)
        assert (from_nat(quotient), from_nat(remainder)) \
            == divmod(x, y)


@settings(deadline=None)
@given(naturals, shift_counts)
def test_shifts_match_bigint(x, count):
    assert from_nat(mpn.shl(to_nat(x), count)) == x << count
    assert from_nat(mpn.shr(to_nat(x), count)) == x >> count


@settings(deadline=None)
@given(naturals)
def test_sqrtrem_matches_bigint(x):
    root, remainder = mpn.sqrtrem(to_nat(x))
    r = from_nat(root)
    assert r * r <= x < (r + 1) * (r + 1)
    assert from_nat(remainder) == x - r * r


@settings(deadline=None, max_examples=40)
@given(naturals, naturals, positive_naturals)
def test_powmod_matches_bigint(base, exponent, modulus):
    result = mpn.powmod(to_nat(base), to_nat(exponent), to_nat(modulus))
    assert from_nat(result) == pow(base, exponent, modulus)


@settings(deadline=None)
@given(naturals, naturals)
def test_gcd_matches_bigint(x, y):
    assert from_nat(mpn.gcd(to_nat(x), to_nat(y))) == math.gcd(x, y)
