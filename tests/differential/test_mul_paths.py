"""Differential cross-check of every multiplication path vs bigints.

Each kernel (schoolbook, Karatsuba, Toom-3/4/6, SSA) is exercised both
directly — with Python's ``*`` as the recursion oracle — and through
the ``mul`` dispatcher under the tiny :data:`FORCED_POLICY`, so every
regime of the threshold ladder runs on sizes a test can afford.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpn import nat
from repro.mpn.karatsuba import mul_karatsuba
from repro.mpn.mul import GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY, mul
from repro.mpn.schoolbook import mul_schoolbook
from repro.mpn.ssa import mul_ssa
from repro.mpn.toom import mul_toom
from repro.bench.kernels import _random_operand

from tests.conftest import from_nat, naturals, to_nat
from tests.differential.conftest import FORCED_POLICY, diff_examples

pytestmark = pytest.mark.differential


def oracle_mul(a, b):
    """Python-bigint multiply in Nat clothing — the recursion oracle."""
    return to_nat(from_nat(a) * from_nat(b))


class TestDirectKernels:
    """Each kernel against bigints, unconstrained operand sizes."""

    @given(a=naturals, b=naturals)
    @settings(max_examples=diff_examples(), deadline=None)
    def test_schoolbook(self, a, b):
        assert from_nat(mul_schoolbook(to_nat(a), to_nat(b))) == a * b

    @given(a=naturals, b=naturals)
    @settings(max_examples=diff_examples(), deadline=None)
    def test_karatsuba(self, a, b):
        assert from_nat(mul_karatsuba(to_nat(a), to_nat(b),
                                      oracle_mul)) == a * b

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_toom(self, k):
        @given(a=naturals, b=naturals)
        @settings(max_examples=diff_examples(), deadline=None)
        def check(a, b):
            assert from_nat(mul_toom(to_nat(a), to_nat(b), k,
                                     oracle_mul)) == a * b

        check()

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 5])
    def test_ssa(self, k):
        @given(a=naturals, b=naturals)
        @settings(max_examples=diff_examples(), deadline=None)
        def check(a, b):
            assert from_nat(mul_ssa(to_nat(a), to_nat(b),
                                    oracle_mul, k)) == a * b

        check()

    @given(a=naturals, b=naturals)
    @settings(max_examples=diff_examples(), deadline=None)
    def test_kernels_agree_with_each_other(self, a, b):
        """Three-way agreement, not just each-vs-oracle."""
        an, bn = to_nat(a), to_nat(b)
        school = mul_schoolbook(an, bn)
        assert mul_karatsuba(an, bn, mul_schoolbook) == school
        assert mul_toom(an, bn, 3, mul_schoolbook) == school


class TestDispatcherRegimes:
    """The policy dispatcher under forced-tiny thresholds: operands
    sized to land in each regime of the ladder."""

    #: (regime, limb count) pairs chosen so the balanced split of the
    #: forced policy selects exactly that algorithm.
    REGIMES = [
        ("schoolbook", 2),
        ("karatsuba", 5),
        ("toom3", 9),
        ("toom4", 13),
        ("toom6", 20),
        ("ssa", 30),
    ]

    @pytest.mark.parametrize("regime,limbs", REGIMES)
    def test_forced_regime_matches_bigint(self, regime, limbs):
        for seed in range(5):
            a = _random_operand(limbs, seed)
            b = _random_operand(limbs, seed + 101)
            assert from_nat(mul(a, b, FORCED_POLICY)) \
                == from_nat(a) * from_nat(b), \
                "forced %s regime diverged (seed %d)" % (regime, seed)

    @pytest.mark.parametrize("regime,limbs", REGIMES)
    def test_unbalanced_operands(self, regime, limbs):
        """One wide, one narrow operand still routes correctly."""
        a = _random_operand(limbs, 7)
        b = _random_operand(max(1, limbs // 3), 11)
        assert from_nat(mul(a, b, FORCED_POLICY)) \
            == from_nat(a) * from_nat(b)

    @given(a=naturals, b=naturals,
           policy=st.sampled_from([GMP_POLICY, MPAPCA_POLICY,
                                   PYTHON_POLICY, FORCED_POLICY]))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_all_policies_agree(self, a, b, policy):
        assert from_nat(mul(to_nat(a), to_nat(b), policy)) == a * b


class TestEdgeCases:
    @pytest.mark.parametrize("a,b", [
        (0, 0), (0, 1), (1, 0), (1, 1),
        ((1 << 32) - 1, (1 << 32) - 1),          # limb saturation
        (1 << 32, 1 << 32),                      # limb boundary
        ((1 << 2048) - 1, (1 << 2048) - 1),      # all-ones carries
        (1 << 2047, 1),                          # sparse
    ])
    def test_boundary_values_every_kernel(self, a, b):
        expected = a * b
        an, bn = to_nat(a), to_nat(b)
        assert from_nat(mul_schoolbook(an, bn)) == expected
        assert from_nat(mul_karatsuba(an, bn, oracle_mul)) == expected
        for k in (3, 4, 6):
            assert from_nat(mul_toom(an, bn, k, oracle_mul)) == expected
        assert from_nat(mul_ssa(an, bn, oracle_mul)) == expected
        assert from_nat(mul(an, bn, FORCED_POLICY)) == expected

    def test_canonical_output(self):
        """Kernels never leak high zero limbs."""
        product = mul(to_nat((1 << 64) - 1), to_nat(1), FORCED_POLICY)
        assert product == nat.normalize(product)
