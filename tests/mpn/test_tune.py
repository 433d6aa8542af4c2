"""Tests for the threshold autotuner and its persistence layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mpn import nat
from repro.mpn import tune as tune_mod
from repro.mpn.mul import mul
from repro.mpn.schoolbook import mul_schoolbook
from repro.mpn.tune import (THRESHOLDS_VERSION, Thresholds,
                            _random_operand, _time_once,
                            active_thresholds, default_thresholds,
                            find_crossover, load_thresholds,
                            save_thresholds, thresholds_path, tune,
                            tuned_policy)
from repro.plan import select

from tests.conftest import from_nat


class TestRandomOperand:
    def test_exact_limb_count_and_determinism(self):
        operand = _random_operand(10, seed=5)
        assert len(operand) == 10
        assert operand[-1] >> 31 == 1  # top bit forced
        assert operand == _random_operand(10, seed=5)
        assert operand != _random_operand(10, seed=6)


class TestFindCrossover:
    def test_always_faster_returns_low(self):
        def slow(a, b):
            for _ in range(50):
                mul_schoolbook(a, b)
            return mul_schoolbook(a, b)
        crossover = find_crossover(slow, mul_schoolbook, 4, 32)
        assert crossover == 4

    def test_never_faster_returns_high(self):
        def never_fast(a, b):
            for _ in range(50):
                mul_schoolbook(a, b)
            return mul_schoolbook(a, b)
        crossover = find_crossover(mul_schoolbook, never_fast, 4, 32)
        assert crossover == 32


class TestTune:
    @pytest.fixture(scope="class")
    def result(self):
        return tune(max_limbs=256)

    def test_ordering(self, result):
        policy = result.policy
        assert 4 <= policy.karatsuba_limbs <= 128
        assert policy.karatsuba_limbs < policy.toom3_limbs \
            < policy.toom4_limbs < policy.toom6_limbs < policy.ssa_limbs

    def test_tuned_policy_is_exact(self, result, rng):
        x, y = rng.getrandbits(20000), rng.getrandbits(20000)
        product = mul(nat.nat_from_int(x), nat.nat_from_int(y),
                      result.policy)
        assert from_nat(product) == x * y

    def test_report_renders(self, result):
        text = result.report()
        assert "schoolbook->karatsuba" in text

    def test_division_crossovers_measured(self, result):
        names = [name for name, _ in result.measurements]
        assert "schoolbook->burnikel-ziegler" in names
        assert "division->barrett" in names

    def test_result_carries_thresholds(self, result):
        assert result.thresholds is not None
        result.thresholds.validate()
        assert result.thresholds.karatsuba_limbs \
            == result.policy.karatsuba_limbs


class TestTimer:
    def test_best_of_n_returns_int_nanoseconds(self):
        a = _random_operand(4, 1)
        b = _random_operand(4, 2)
        best = _time_once(mul_schoolbook, a, b, repeats=3)
        assert isinstance(best, int)
        assert best > 0

    def test_more_repeats_never_slower(self):
        """Best-of-N is monotone: the minimum over a superset of runs
        can only shrink (statistically; allow generous slack)."""
        a = _random_operand(16, 3)
        b = _random_operand(16, 4)
        few = min(_time_once(mul_schoolbook, a, b, repeats=1)
                  for _ in range(3))
        many = _time_once(mul_schoolbook, a, b, repeats=9)
        assert many <= few * 3  # sanity band, not a benchmark


class TestThresholdsPersistence:
    @pytest.fixture(autouse=True)
    def isolated(self, tmp_path, reselect):
        reselect(tune_mod.THRESHOLDS_ENV,
                 str(tmp_path / "thresholds.json"))
        yield tmp_path

    def test_path_env_override(self, isolated):
        assert thresholds_path() == isolated / "thresholds.json"

    def test_roundtrip(self):
        original = Thresholds(karatsuba_limbs=20, toom3_limbs=90,
                              toom4_limbs=300, toom6_limbs=1200,
                              ssa_limbs=5000, bz_limbs=48,
                              barrett_limbs=6, max_limbs=512)
        target = save_thresholds(original)
        assert target == thresholds_path()
        assert load_thresholds() == original

    def test_invalid_thresholds_refuse_to_save(self):
        broken = Thresholds(karatsuba_limbs=100, toom3_limbs=50,
                            toom4_limbs=300, toom6_limbs=1200,
                            ssa_limbs=5000)
        with pytest.raises(ValueError):
            save_thresholds(broken)

    def test_missing_file_loads_none(self):
        assert load_thresholds() is None

    def test_corrupt_file_loads_none(self, isolated):
        (isolated / "thresholds.json").write_text("nonsense",
                                                  encoding="utf-8")
        assert load_thresholds() is None

    def test_version_mismatch_loads_none(self, isolated):
        good = Thresholds(karatsuba_limbs=20, toom3_limbs=90,
                          toom4_limbs=300, toom6_limbs=1200,
                          ssa_limbs=5000)
        save_thresholds(good)
        payload = json.loads(
            (isolated / "thresholds.json").read_text(encoding="utf-8"))
        payload["version"] = THRESHOLDS_VERSION + 1
        (isolated / "thresholds.json").write_text(json.dumps(payload),
                                                  encoding="utf-8")
        assert load_thresholds() is None
        # active_thresholds falls back to the checked-in defaults.
        select.reload()
        assert active_thresholds() == default_thresholds()

    def test_v1_file_with_retired_crossover_loads_none(self, isolated):
        """A version-1 file still carries ``specialize_limbs``; it is
        rejected by its version, and the defaults take over."""
        v1 = dict(karatsuba_limbs=20, toom3_limbs=90, toom4_limbs=300,
                  toom6_limbs=1200, ssa_limbs=5000, bz_limbs=64,
                  barrett_limbs=8, packed_mul_limbs=4,
                  packed_div_limbs=4, rns_mul_limbs=4,
                  rns_powmod_limbs=5, specialize_limbs=16, repeats=3,
                  max_limbs=0, version=1)
        (isolated / "thresholds.json").write_text(json.dumps(v1),
                                                  encoding="utf-8")
        assert load_thresholds() is None
        select.reload()
        assert active_thresholds() == default_thresholds()

    def test_v2_file_with_retired_crossover_loads_none(self, isolated):
        """Version-2 and version-3 files still carry ``rns_powmod_limbs``
        and ``rns_mul_limbs``; each is rejected by its version, and the
        defaults take over."""
        v3 = dict(karatsuba_limbs=20, toom3_limbs=90, toom4_limbs=300,
                  toom6_limbs=1200, ssa_limbs=5000, bz_limbs=64,
                  barrett_limbs=8, packed_mul_limbs=4,
                  packed_div_limbs=4, rns_mul_limbs=4, repeats=3,
                  max_limbs=0, version=3)
        for retired in (dict(v3, rns_powmod_limbs=5, version=2), v3):
            (isolated / "thresholds.json").write_text(json.dumps(retired),
                                                      encoding="utf-8")
            assert load_thresholds() is None
            select.reload()
            assert active_thresholds() == default_thresholds()
        assert not hasattr(default_thresholds(), "rns_powmod_limbs")
        assert not hasattr(default_thresholds(), "rns_mul_limbs")

    def test_active_prefers_persisted(self):
        persisted = Thresholds(karatsuba_limbs=17, toom3_limbs=70,
                               toom4_limbs=280, toom6_limbs=1100,
                               ssa_limbs=4400)
        assert active_thresholds() == default_thresholds()
        save_thresholds(persisted)
        assert active_thresholds() != persisted   # until a reload
        select.reload()
        assert active_thresholds() == persisted
        assert tuned_policy().karatsuba_limbs == 17

    def test_defaults_validate(self):
        default_thresholds().validate()


class TestTuneCli:
    """``repro tune`` in a *fresh process* persists thresholds that
    another fresh process loads — the ISSUE-2 acceptance check."""

    @pytest.mark.slow
    def test_subprocess_tune_then_load(self, tmp_path):
        target = tmp_path / "host-thresholds.json"
        root = Path(__file__).parents[2]
        # The tune probes go to a temporary dataset, never the checked-in
        # results/COST_dataset.jsonl.
        env = dict(os.environ,
                   PYTHONPATH="src",
                   REPRO_THRESHOLDS=str(target),
                   REPRO_COST_DATASET=str(tmp_path / "cost.jsonl"))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "tune",
             "--max-limbs", "64", "--repeats", "1"],
            capture_output=True, text=True, env=env, cwd=root,
            timeout=600)
        assert completed.returncode == 0, completed.stderr
        assert target.exists()
        loader = subprocess.run(
            [sys.executable, "-c",
             "from repro.mpn.tune import active_thresholds;"
             "t = active_thresholds(); t.validate();"
             "print(t.karatsuba_limbs)"],
            capture_output=True, text=True, env=env, cwd=root,
            timeout=120)
        assert loader.returncode == 0, loader.stderr
        assert int(loader.stdout.strip()) >= 2

    def test_dry_run_does_not_persist(self, tmp_path, reselect, capsys):
        from repro import cli
        target = tmp_path / "thresholds.json"
        reselect(tune_mod.THRESHOLDS_ENV, str(target))
        assert cli.main(["tune", "--max-limbs", "32", "--repeats", "1",
                         "--dry-run"]) == 0
        assert not target.exists()
        out = capsys.readouterr().out
        assert "threshold tuning" in out
