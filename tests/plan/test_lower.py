"""Lowering: backend resolution, costs, keys, cache round-trips."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpn
from repro.cli import main
from repro.core.model import DEFAULT_CONFIG
from repro.plan import OpSpec, PlanError
from repro.plan.lowering import PLAN_SCHEMA_VERSION, lower, plan_cache
from repro.plan import select
from repro.plan.execute import run
from repro.runtime import mpapca
from repro.runtime.mpapca import MONOLITHIC_MAX_BITS


class TestBackendResolution:
    def test_small_mul_lowers_to_device(self):
        plan = lower(OpSpec.for_mul(4096, 4096, backend="device"))
        assert plan.backend == "device"
        assert plan.algorithm == "monolithic"

    def test_big_mul_resolves_to_packed(self):
        plan = lower(OpSpec.for_mul(MONOLITHIC_MAX_BITS + 1,
                                    MONOLITHIC_MAX_BITS + 1))
        assert plan.backend == "packed"
        assert plan.algorithm.startswith("packed-")

    def test_big_mul_falls_back_to_packed(self):
        # Too wide for the device; min_limbs = 2 sits exactly on a
        # pinned packed crossover, so auto takes the packed kernel
        # regardless of host tuning.
        thresholds = dataclasses.replace(select.active(),
                                         packed_mul_limbs=2)
        plan = lower(OpSpec.for_mul(MONOLITHIC_MAX_BITS + 1, 64),
                     thresholds, use_cache=False)
        assert plan.backend == "packed"
        assert plan.algorithm.startswith("packed-")

    def test_big_mul_small_operand_falls_back_to_library(self):
        # min_limbs = 2: pin the packed crossover above it so the
        # fallback is visible regardless of host tuning.
        thresholds = dataclasses.replace(select.active(),
                                         packed_mul_limbs=4)
        plan = lower(OpSpec.for_mul(MONOLITHIC_MAX_BITS + 1, 64),
                     thresholds, use_cache=False)
        assert plan.backend == "library"

    def test_big_mul_falls_back_to_library_when_packed_disabled(self):
        thresholds = dataclasses.replace(select.active(),
                                         packed_mul_limbs=0)
        plan = lower(OpSpec.for_mul(MONOLITHIC_MAX_BITS + 1,
                                    MONOLITHIC_MAX_BITS + 1),
                     thresholds)
        assert plan.backend == "library"

    def test_explicit_packed_respected(self):
        plan = lower(OpSpec.for_mul(4096, 4096, backend="packed"))
        assert plan.backend == "packed"
        assert plan.algorithm.startswith("packed-")

    def test_packed_rejected_for_unsupported_op(self):
        with pytest.raises(PlanError):
            lower(OpSpec("sqrt", 2048, 0, backend="packed"))

    def test_explicit_library_respected(self):
        plan = lower(OpSpec.for_mul(4096, 4096, backend="library"))
        assert plan.backend == "library"
        assert plan.algorithm != "monolithic"

    def test_oversized_device_request_rejected(self):
        with pytest.raises(PlanError):
            lower(OpSpec.for_mul(MONOLITHIC_MAX_BITS + 1, 64,
                                 backend="device"))

    def test_non_mul_device_request_rejected(self):
        with pytest.raises(PlanError):
            lower(OpSpec("div", 4096, 64, backend="device"))


#: Every entry point that once accepted the retired residue-number
#: backend, and the error it must raise for that name now.
_RETIRED_BACKEND_CALLS = {
    "mpn.mul": (lambda: mpn.mul([3], [5], backend="rns"), ValueError),
    "mpn.powmod": (lambda: mpn.powmod([3], [5], [7], backend="rns"),
                   ValueError),
    "lower": (lambda: lower(OpSpec.for_mul(64, 64, backend="rns")),
              PlanError),
    "repro plan": (lambda: main(["plan", "mul", "--backend", "rns"]),
                   SystemExit),
}


@pytest.mark.parametrize("entry", sorted(_RETIRED_BACKEND_CALLS))
def test_retired_backend_name_fails_cleanly(entry, capsys):
    call, error = _RETIRED_BACKEND_CALLS[entry]
    with pytest.raises(error) as raised:
        call()
    if error is SystemExit:                 # argparse's usage error
        assert raised.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


#: Mul widths ``auto`` must serve from host kernels: one-limb, limb
#: boundaries, anything up to the monolithic limit, and the limit ±1.
_AUTO_MUL_BITS = st.one_of(
    st.sampled_from((1, 31, 32, 33, MONOLITHIC_MAX_BITS - 1,
                     MONOLITHIC_MAX_BITS, MONOLITHIC_MAX_BITS + 1)),
    st.integers(min_value=1, max_value=MONOLITHIC_MAX_BITS))


@st.composite
def _auto_mul_operand(draw):
    bits = draw(_AUTO_MUL_BITS)
    if draw(st.booleans()):
        return (1 << bits) - 1                      # all ones
    return draw(st.integers(min_value=1 << (bits - 1),
                            max_value=(1 << bits) - 1))


class TestAutoMulIsHostOnly:
    @settings(max_examples=40, deadline=None)
    @given(a=_auto_mul_operand(), b=_auto_mul_operand())
    def test_auto_never_resolves_to_device(self, a, b):
        plan = lower(OpSpec.for_mul(a.bit_length(), b.bit_length()))
        assert plan.backend != "device"
        assert plan.cost() == mpapca.mul_cycles(a.bit_length(),
                                                b.bit_length())
        assert run(plan, {"a": a, "b": b})["product"] == a * b


class TestCost:
    def test_mul_cost_is_the_one_model(self):
        plan = lower(OpSpec.for_mul(4096, 4096))
        assert plan.cost() == mpapca.mul_cycles(4096, 4096)

    def test_div_cost_matches_composition_rule(self):
        plan = lower(OpSpec("div", 8192, 4096))
        assert plan.cost() == mpapca.div_cycles(8192, 4096)

    def test_powmod_cost_matches_composition_rule(self):
        plan = lower(OpSpec("powmod", 2048, 17,
                            detail=(("mod_odd", 1),)))
        assert plan.cost() == mpapca.powmod_cycles(2048, 17)

    def test_seconds_uses_device_frequency(self):
        plan = lower(OpSpec.for_mul(4096, 4096))
        assert plan.seconds() == pytest.approx(
            plan.cost() / DEFAULT_CONFIG.frequency_hz)


class TestKeys:
    def test_memo_key_carries_schema_and_fingerprint(self):
        plan = lower(OpSpec.for_mul(4096, 4096))
        assert plan.memo_key[0] == PLAN_SCHEMA_VERSION
        assert tuple(plan.tuning) == \
            plan.memo_key[1:1 + len(plan.tuning)]

    def test_retuning_changes_memo_key(self):
        thresholds = select.active()
        retuned = dataclasses.replace(thresholds, karatsuba_limbs=7)
        before = lower(OpSpec.for_mul(1 << 20, 1 << 20), thresholds)
        after = lower(OpSpec.for_mul(1 << 20, 1 << 20), retuned)
        assert before.memo_key != after.memo_key


class TestPolicyRoundTrip:
    def test_plan_policy_reproduces_thresholds(self):
        thresholds = select.active()
        plan = lower(OpSpec.for_mul(1 << 20, 1 << 20), thresholds)
        policy = plan.policy()
        assert policy.karatsuba_limbs == thresholds.karatsuba_limbs
        assert policy.ssa_limbs == thresholds.ssa_limbs

    def test_library_algorithm_matches_policy_dispatch(self):
        thresholds = select.active()
        for bits in (64, 4096, 1 << 17, 1 << 20):
            plan = lower(OpSpec.for_mul(bits, bits, backend="library"),
                         thresholds)
            limbs = -(-bits // 32)
            assert plan.algorithm == \
                thresholds.policy().algorithm_for(limbs)


class TestPlanCache:
    def test_cached_lowering_is_identical(self):
        spec = OpSpec.for_mul(4096, 4096)
        # A hit returns the frozen Plan the miss lowered, not a copy.
        assert lower(spec) is lower(spec)
        assert lower(spec) == lower(spec, use_cache=False)

    def test_cache_is_version_salted(self):
        assert plan_cache().version == PLAN_SCHEMA_VERSION
