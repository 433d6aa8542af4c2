"""The rns backend is bit-identical to the limb/packed backends.

The residue-number-system kernels exist for batch fan-out, so the
contract is strict: at every size — and especially straddling the
``rns_mul_limbs`` crossover where batch dispatch flips backends — the
mpn dispatchers must return the same limbs whichever backend runs, and
all of them must match Python's bigints.  rns powmod is reachable only
by an explicit ``backend="rns"`` (``auto`` runs the packed ladder at
every width), so it is checked as an identity against the packed and
limb kernels.  Lowered ``rns`` plans are checked against ``library``
plans, the batch routes against their serial oracles, and the memo-key
salting against threshold changes.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpn
from repro.core.accelerator import CambriconP
from repro.mpn.mul import GMP_POLICY, mul, sqr
from repro.plan import OpSpec, select
from repro.plan.execute import plan_for_job, run, run_rns_batch
from repro.plan.lowering import lower

from tests.conftest import from_nat, to_nat
from tests.differential.conftest import diff_examples, naturals_of_bits

pytestmark = pytest.mark.differential


def _operand(limbs: int, seed: int) -> int:
    rng = random.Random(0xB10C ^ seed)
    return rng.getrandbits(32 * limbs) | (1 << (32 * limbs - 1))


def _crossover_band(threshold: int, cap: int = 200):
    """Limb counts straddling one backend crossover, plus deep sizes."""
    band = {1, max(1, threshold - 1), threshold, threshold + 1,
            4 * threshold + 1, 64, cap}
    return sorted(band)


class TestMulCrossover:
    @pytest.mark.parametrize(
        "limbs", _crossover_band(select.active().rns_mul_limbs))
    def test_backends_agree_at_boundary(self, limbs):
        a, b = _operand(limbs, 1), _operand(limbs, 2)
        an, bn = to_nat(a), to_nat(b)
        rns = mul(an, bn, GMP_POLICY, backend="rns")
        assert rns == mul(an, bn, GMP_POLICY, backend="limb") \
            == mul(an, bn, GMP_POLICY, backend="packed") \
            == mul(an, bn, GMP_POLICY)
        assert from_nat(rns) == a * b

    @pytest.mark.parametrize(
        "limbs", _crossover_band(select.active().rns_mul_limbs))
    def test_sqr_backends_agree_at_boundary(self, limbs):
        a = _operand(limbs, 3)
        an = to_nat(a)
        assert sqr(an, GMP_POLICY, backend="rns") \
            == sqr(an, GMP_POLICY, backend="limb") \
            == sqr(an, GMP_POLICY)
        assert from_nat(sqr(an, GMP_POLICY, backend="rns")) == a * a

    def test_single_mul_auto_never_selects_rns(self):
        """Serial products stay on limb/packed: the rns mul pays a
        scatter/gather round trip that only batches amortize."""
        threshold = select.active().rns_mul_limbs
        for limbs in (1, threshold, 100 * threshold + 1):
            assert select.mul_backend(limbs) in ("limb", "packed")

    def test_batch_auto_flips_exactly_at_threshold(self, monkeypatch):
        # Pin the killswitch on: CI runs this suite under REPRO_RNS=0
        # too, where auto legitimately never resolves to rns.
        monkeypatch.setenv(select.RNS_ENV, "1")
        threshold = select.active().rns_mul_limbs
        assert threshold > 0, "container tuning should enable rns"
        assert select.batch_mul_backend(threshold - 1, 8) \
            == select.mul_backend(threshold - 1)
        assert select.batch_mul_backend(threshold, 8) == "rns"
        # A batch of one is a serial product: never rns.
        assert select.batch_mul_backend(threshold + 100, 1) \
            == select.mul_backend(threshold + 100)

    def test_kill_switch_removes_rns_from_auto(self, monkeypatch):
        monkeypatch.setenv(select.RNS_ENV, "0")
        threshold = select.active().rns_mul_limbs
        assert select.batch_mul_backend(threshold + 100, 8) != "rns"
        assert select.powmod_backend() != "rns"

    def test_kill_switch_keeps_explicit_rns_runnable(self, monkeypatch):
        monkeypatch.setenv(select.RNS_ENV, "0")
        a, b = _operand(8, 15), _operand(8, 16)
        assert from_nat(mul(to_nat(a), to_nat(b), GMP_POLICY,
                            backend="rns")) == a * b

    def test_zero_threshold_disables_backend(self):
        disabled = dataclasses.replace(select.active(), rns_mul_limbs=0)
        assert select.batch_mul_backend(10 ** 6, 8, disabled) != "rns"

    @given(a=naturals_of_bits(4096), b=naturals_of_bits(4096))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_hypothesis_mul_three_way(self, a, b):
        an, bn = to_nat(a), to_nat(b)
        rns = mul(an, bn, GMP_POLICY, backend="rns")
        assert rns == mul(an, bn, GMP_POLICY, backend="limb")
        assert from_nat(rns) == a * b


class TestPowmodCrossover:
    """Explicit rns powmod against packed, limb and bigints, at the
    widths that straddled the retired rns powmod crossover (5 limbs)."""

    # Capped below the mul band: one 200-limb limb-Montgomery ladder
    # alone would dominate the suite's runtime.
    @pytest.mark.parametrize("limbs", _crossover_band(5, cap=64))
    def test_backends_agree_at_boundary(self, limbs):
        base = _operand(limbs, 4)
        exponent = _operand(min(limbs, 2), 5)
        modulus = _operand(limbs, 6)
        bn, en, mn = to_nat(base), to_nat(exponent), to_nat(modulus)
        rns = mpn.powmod(bn, en, mn, backend="rns")
        assert rns == mpn.powmod(bn, en, mn, backend="limb") \
            == mpn.powmod(bn, en, mn, backend="packed") \
            == mpn.powmod(bn, en, mn)
        assert from_nat(rns) == pow(base, exponent, modulus)

    def test_even_modulus_agrees(self):
        base, exponent = _operand(8, 7), _operand(2, 8)
        modulus = _operand(8, 9) & ~1
        bn, en, mn = to_nat(base), to_nat(exponent), to_nat(modulus)
        assert mpn.powmod(bn, en, mn, backend="rns") \
            == mpn.powmod(bn, en, mn, backend="limb") \
            == mpn.powmod(bn, en, mn, backend="packed")
        assert from_nat(mpn.powmod(bn, en, mn, backend="rns")) \
            == pow(base, exponent, modulus)

    def test_auto_never_resolves_to_rns(self, monkeypatch):
        monkeypatch.setenv(select.RNS_ENV, "1")
        for packed, expected in (("1", "packed"), ("0", "limb")):
            monkeypatch.setenv(select.PACKED_ENV, packed)
            assert select.powmod_backend() == expected

    @given(base=naturals_of_bits(512), exponent=naturals_of_bits(64),
           modulus=naturals_of_bits(512, 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_hypothesis_powmod_three_way(self, base, exponent, modulus):
        bn, en, mn = to_nat(base), to_nat(exponent), to_nat(modulus)
        rns = mpn.powmod(bn, en, mn, backend="rns")
        assert rns == mpn.powmod(bn, en, mn, backend="packed")
        assert from_nat(rns) == pow(base, exponent, modulus)


class TestBatchPaths:
    def test_multiply_batch_rns_matches_simulate(self):
        device = CambriconP()
        pairs = [(to_nat(_operand(8, seed)),
                  to_nat(_operand(8, seed + 50)))
                 for seed in range(4)]
        simulate_products, simulate_report = device.multiply_batch(pairs)
        rns_products, rns_report = device.multiply_batch(pairs,
                                                         backend="rns")
        assert rns_products == simulate_products
        # The rns report prices the same schedules from their closed
        # form; only the gather carry goes unmaterialized.
        assert rns_report == dataclasses.replace(simulate_report,
                                                 max_gather_carry=0)

    def test_multiply_batch_auto_rides_the_crossover(self):
        device = CambriconP()
        threshold = select.active().rns_mul_limbs
        pairs = [(to_nat(_operand(threshold + 2, seed)),
                  to_nat(_operand(threshold + 2, seed + 50)))
                 for seed in range(3)]
        simulate_products, _ = device.multiply_batch(pairs)
        auto_products, _ = device.multiply_batch(pairs, backend="auto")
        assert auto_products == simulate_products

    def test_run_rns_batch_matches_per_item_plans(self):
        mul_params = [{"a": _operand(8, seed), "b": _operand(8, seed + 9)}
                      for seed in range(3)]
        batch = run_rns_batch("mul", mul_params)
        for params, payload in zip(mul_params, batch):
            plan = lower(OpSpec.for_mul(params["a"].bit_length(),
                                        params["b"].bit_length(),
                                        backend="rns"), use_cache=False)
            assert payload == run(plan, params)
            assert payload["product"] == params["a"] * params["b"]

    def test_run_rns_batch_powmod_matches_bigints(self):
        triples = [{"base": _operand(8, seed), "exp": _operand(2, seed + 3),
                    "mod": _operand(8, seed + 6)} for seed in range(3)]
        batch = run_rns_batch("powmod", triples)
        for params, payload in zip(triples, batch):
            assert payload["value"] == pow(params["base"], params["exp"],
                                           params["mod"])


class TestPlanLayer:
    def test_rns_plan_matches_library_plan(self):
        a, b = _operand(64, 11), _operand(64, 12)
        spec_args = (a.bit_length(), b.bit_length())
        rns = lower(OpSpec.for_mul(*spec_args, backend="rns"),
                    use_cache=False)
        library = lower(OpSpec.for_mul(*spec_args, backend="library"),
                        use_cache=False)
        assert rns.backend == "rns"
        payload = run(rns, {"a": a, "b": b})
        assert payload["product"] == run(library,
                                         {"a": a, "b": b})["product"]
        assert payload["product"] == a * b

    def test_rns_powmod_plan_matches_bigint(self):
        params = {"base": _operand(12, 13), "exp": _operand(2, 14),
                  "mod": _operand(12, 15)}
        plan = plan_for_job("powmod", params, backend="rns")
        assert plan.backend == "rns"
        assert run(plan, params)["value"] \
            == pow(params["base"], params["exp"], params["mod"])

    def test_powmod_auto_lowers_to_packed_not_rns(self, monkeypatch):
        monkeypatch.setenv(select.RNS_ENV, "1")
        monkeypatch.setenv(select.PACKED_ENV, "1")
        params = {"base": _operand(9, 16), "exp": _operand(2, 17),
                  "mod": _operand(9, 18)}
        plan = plan_for_job("powmod", params)
        assert plan.backend == "packed"
        assert run(plan, params)["value"] \
            == pow(params["base"], params["exp"], params["mod"])

    def test_memo_key_changes_with_rns_thresholds(self):
        """Retuning the rns crossover must invalidate cached plans:
        the fingerprint inside the memo key covers them."""
        spec = OpSpec.for_mul(64 * 32, 64 * 32)
        active = select.active()
        baseline = lower(spec, active, use_cache=False)
        moved = dataclasses.replace(active,
                                    rns_mul_limbs=active.rns_mul_limbs + 3)
        assert lower(spec, moved, use_cache=False).memo_key \
            != baseline.memo_key

    def test_memo_key_separates_backends(self):
        spec_args = (64 * 32, 64 * 32)
        rns = lower(OpSpec.for_mul(*spec_args, backend="rns"),
                    use_cache=False)
        library = lower(OpSpec.for_mul(*spec_args, backend="library"),
                        use_cache=False)
        packed = lower(OpSpec.for_mul(*spec_args, backend="packed"),
                       use_cache=False)
        assert len({rns.memo_key, library.memo_key,
                    packed.memo_key}) == 3
