"""Correctness around every live crossover of the limb ladder.

The limb ladder runs on the checked-in ``PYTHON_POLICY`` (what ``auto``
runs under ``REPRO_PACKED=0``, and what explicit limb callers get), and
Burnikel-Ziegler switches from its basecase at ``BZ_THRESHOLD_LIMBS``.
The kernels must be exact at limbs t-1, t, t+1 for each of those
constants as they stand in the source, unpatched — the sizes where an
algorithm switch actually happens.
"""

from __future__ import annotations

import pytest

from repro.bench.kernels import _random_operand
from repro.mpn.burnikel_ziegler import BZ_THRESHOLD_LIMBS, divmod_bz
from repro.mpn.div import divmod_schoolbook
from repro.mpn.mul import PYTHON_POLICY, mul
from repro.plan import select

from tests.conftest import from_nat
from tests.differential.conftest import FORCED_POLICY, diff_max_limbs

pytestmark = pytest.mark.differential


def boundary_sizes(threshold: int) -> list:
    """Limb counts straddling a crossover, capped for test runtime."""
    cap = diff_max_limbs()
    return sorted({max(1, min(cap, threshold + delta))
                   for delta in (-1, 0, 1)})


def ladder(policy) -> list:
    """(name, limbs) for every multiplication crossover, ascending."""
    return [(name, getattr(policy, name + "_limbs"))
            for name in select.MUL_LADDER]


def crossover_params():
    """(name, limbs) for every ``PYTHON_POLICY`` crossover within the
    cap."""
    params = []
    for name, threshold in ladder(PYTHON_POLICY):
        if threshold > diff_max_limbs():
            continue
        for limbs in boundary_sizes(threshold):
            params.append(pytest.param(name, limbs,
                                       id="%s-%dL" % (name, limbs)))
    return params


def limb_mul(x, y):
    return mul(x, y, PYTHON_POLICY, backend="limb")


class TestPolicyMulCrossovers:
    def test_policy_ladder_is_ordered(self):
        values = [limbs for _, limbs in ladder(PYTHON_POLICY)]
        assert values == sorted(set(values)) and values[0] >= 2

    @pytest.mark.parametrize("name,limbs", crossover_params())
    def test_exact_at_boundary(self, name, limbs):
        # The sizes straddle the switch: ``name`` runs from t up only.
        assert (select.mul_algorithm(limbs, PYTHON_POLICY) == name) \
            == (limbs >= getattr(PYTHON_POLICY, name + "_limbs"))
        for seed in range(3):
            a = _random_operand(limbs, seed)
            b = _random_operand(limbs, seed + 31)
            assert from_nat(limb_mul(a, b)) \
                == from_nat(a) * from_nat(b), \
                "%s crossover wrong at %d limbs (seed %d)" \
                % (name, limbs, seed)

    def test_forced_policy_covers_the_whole_ladder(self):
        """Even where ``PYTHON_POLICY``'s crossovers sit above the cap,
        the forced-tiny policy guarantees every regime was exercised."""
        for name, threshold in ladder(FORCED_POLICY):
            for limbs in boundary_sizes(threshold):
                a = _random_operand(limbs, limbs)
                b = _random_operand(limbs, limbs + 1)
                assert from_nat(mul(a, b, FORCED_POLICY, backend="limb")) \
                    == from_nat(a) * from_nat(b), \
                    "forced %s boundary wrong at %d limbs" % (name, limbs)


class TestDivisionCrossovers:
    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_bz_exact_at_live_boundary(self, killswitch, reselect):
        """Divisors of 23, 24 and 25 limbs: Burnikel-Ziegler divides
        at 25 and hands 24 and below to its basecase (packed, or
        Algorithm D under ``REPRO_PACKED=0``)."""
        reselect(killswitch)
        sizes = boundary_sizes(BZ_THRESHOLD_LIMBS)
        assert sizes == [BZ_THRESHOLD_LIMBS - 1, BZ_THRESHOLD_LIMBS,
                         BZ_THRESHOLD_LIMBS + 1]
        assert select.bz_algorithm(sizes[1], BZ_THRESHOLD_LIMBS + 1) \
            == "schoolbook"
        assert select.bz_algorithm(sizes[2], BZ_THRESHOLD_LIMBS + 1) \
            == "burnikel-ziegler"
        for limbs in sizes:
            a = _random_operand(2 * limbs, limbs)
            b = _random_operand(limbs, limbs + 17)
            quotient, remainder = divmod_bz(a, b, limb_mul)
            assert (from_nat(quotient), from_nat(remainder)) \
                == divmod(from_nat(a), from_nat(b)), limbs

    def test_schoolbook_agrees_at_the_same_sizes(self):
        for limbs in boundary_sizes(BZ_THRESHOLD_LIMBS):
            a = _random_operand(2 * limbs, limbs)
            b = _random_operand(limbs, limbs + 17)
            quotient, remainder = divmod_schoolbook(a, b)
            assert (from_nat(quotient), from_nat(remainder)) \
                == divmod(from_nat(a), from_nat(b))


class TestDefaultsShipWithThePackage:
    def test_default_policy_is_exact_at_small_sizes(self):
        for limbs in (1, 2, 3, 8):
            a = _random_operand(limbs, limbs)
            b = _random_operand(limbs, limbs + 3)
            assert from_nat(limb_mul(a, b)) \
                == from_nat(a) * from_nat(b)
