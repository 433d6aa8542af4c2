"""plan.select: the one crossover-lookup module, checked against the
kernel-side constants and policies it replaced."""

import os

import pytest

from repro import mpn
from repro.apps import pi
from repro.mpn import burnikel_ziegler as bz_mod
from repro.mpn import div as div_mod
from repro.mpn.mul import GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY
from repro.mpn.nat import nat_from_int
from repro.plan import OpSpec, select
from repro.plan.lowering import lower


class TestMulLadder:
    @pytest.mark.parametrize("policy",
                             [GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY])
    def test_matches_policy_dispatch(self, policy):
        for limbs in (1, 2, 7, 8, 30, 31, 32, 99, 100, 1121, 1122,
                      3000, 5000, 50000):
            assert select.mul_algorithm(limbs, policy) \
                == policy.algorithm_for(limbs)

    def test_below_every_threshold_is_basecase(self):
        assert select.mul_algorithm(1, GMP_POLICY) == "basecase"

    def test_chain_descends_to_basecase(self):
        chain = select.mul_chain(50000, GMP_POLICY)
        assert chain[-1][0] == "basecase"
        sizes = [limbs for _, limbs in chain]
        assert sizes == sorted(sizes, reverse=True)

    def test_chain_ssa_steps_to_regime_boundary(self):
        chain = select.mul_chain(10 * GMP_POLICY.ssa_limbs, GMP_POLICY)
        assert chain[0][0] == "ssa"
        assert chain[1][1] == GMP_POLICY.ssa_limbs - 1


class TestDivisionCrossovers:
    def test_div_default_reads_kernel_threshold_at_call_time(self):
        threshold = div_mod.NEWTON_DIV_THRESHOLD_BITS
        assert select.div_algorithm(threshold) == "schoolbook"
        assert select.div_algorithm(threshold + 1) == "newton"

    def test_div_override_wins(self):
        assert select.div_algorithm(100, newton_threshold_bits=64) \
            == "newton"
        assert select.div_algorithm(100, newton_threshold_bits=128) \
            == "schoolbook"

    def test_div_without_mul_fn_is_schoolbook(self):
        assert select.div_algorithm(1 << 20, has_mul_fn=False) \
            == "schoolbook"

    def test_bz_default_reads_kernel_threshold(self):
        threshold = bz_mod.BZ_THRESHOLD_LIMBS
        assert select.bz_algorithm(threshold - 1) == "schoolbook"
        assert select.bz_algorithm(threshold) == "burnikel-ziegler"

    def test_barrett_override(self):
        assert select.barrett_profitable(10, barrett_limbs=8)
        assert not select.barrett_profitable(7, barrett_limbs=8)


class TestFingerprint:
    def test_covers_every_crossover(self):
        thresholds = select.active()
        fp = select.fingerprint(thresholds)
        assert fp == (thresholds.version, thresholds.karatsuba_limbs,
                      thresholds.toom3_limbs, thresholds.toom4_limbs,
                      thresholds.toom6_limbs, thresholds.ssa_limbs,
                      thresholds.bz_limbs, thresholds.barrett_limbs,
                      thresholds.packed_mul_limbs,
                      thresholds.packed_div_limbs)
        assert len(fp) == 10

    def test_thresholds_method_delegates(self):
        thresholds = select.active()
        assert thresholds.fingerprint() == select.fingerprint(thresholds)

    def test_bare_policy_pads_with_zeroes(self):
        fp = select.fingerprint(MPAPCA_POLICY)
        assert fp[0] == 0 and fp[-2:] == (0, 0)
        assert fp[1] == MPAPCA_POLICY.karatsuba_limbs


class TestReadOncePerProcess:
    """The thresholds file and ``REPRO_PACKED`` are read once per
    process: the served path does no file or environment I/O."""

    def test_no_stat_and_no_selection_env_read_per_call(self,
                                                        monkeypatch):
        a, b = nat_from_int(3 ** 160), nat_from_int(7 ** 90)  # 8, 8 limbs

        def served_path():
            lower(OpSpec.for_mul(4096, 4096))
            lower(OpSpec.for_mul(256, 256), use_cache=False)
            mpn.mul(a, b)
            mpn.divmod_nat(a, b)
            mpn.powmod(a, b, b)
            pi.run(50)

        served_path()                       # warm-up: first reads here
        stats, reads = [], []
        real_stat, real_get = os.stat, os.environ.get
        monkeypatch.setattr(os, "stat", lambda *args, **kwargs: (
            stats.append(args), real_stat(*args, **kwargs))[1])
        monkeypatch.setattr(os.environ, "get", lambda name, *default: (
            reads.append(name), real_get(name, *default))[1])
        served_path()
        monkeypatch.undo()
        assert stats == []
        assert {"REPRO_PACKED", "REPRO_THRESHOLDS"}.isdisjoint(reads)

    def test_killswitch_applies_only_after_reload(self, monkeypatch,
                                                  reselect):
        # The thresholds-file half: test_tune's active-prefers-persisted.
        reselect(select.PACKED_ENV, "1")
        crossover = select.active().packed_mul_limbs
        assert select.mul_backend(crossover) == "packed"
        monkeypatch.setenv(select.PACKED_ENV, "0")
        assert select.mul_backend(crossover) == "packed"
        select.reload()
        assert select.mul_backend(crossover) == "limb"
