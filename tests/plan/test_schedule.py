"""Schedule derivation and validation, plus verify_plan's PV-ALGO check."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpn.mul import MulPolicy
from repro.plan import select
from repro.plan.schedule import (Schedule, ScheduleError, derive_schedule,
                                 validate_schedule)

#: Hypothesis strategy over plausible (monotone) threshold ladders, so
#: derivation round-trips are checked under ladders far from the
#: checked-in one.
policies = st.builds(
    lambda k, d3, d4, d6, ds: MulPolicy(
        name="hyp", karatsuba_limbs=k, toom3_limbs=k + d3,
        toom4_limbs=k + d3 + d4, toom6_limbs=k + d3 + d4 + d6,
        ssa_limbs=k + d3 + d4 + d6 + ds),
    k=st.integers(min_value=2, max_value=64),
    d3=st.integers(min_value=1, max_value=64),
    d4=st.integers(min_value=1, max_value=64),
    d6=st.integers(min_value=1, max_value=256),
    ds=st.integers(min_value=1, max_value=2048),
)


class TestDerivation:
    def test_small_mul_is_a_basecase_leaf(self):
        schedule = derive_schedule("mul", 2, backend="limb")
        assert schedule.algorithm == "basecase"
        assert schedule.child is None
        assert schedule.leaf() is schedule

    def test_limb_ladder_matches_policy_dispatch(self):
        policy = select.active()
        for limbs in (1, 8, 64, 512, 4096):
            schedule = derive_schedule("mul", limbs, policy,
                                       backend="limb")
            assert schedule.algorithm == policy.algorithm_for(limbs)

    def test_auto_commits_the_packed_backend(self):
        assert select.auto_backend() == "packed"
        for limbs in (1, 16):
            schedule = derive_schedule("mul", limbs)
            assert schedule.algorithm == "packed"
            assert schedule.split == 0

    def test_div_newton_carries_a_mul_sub_schedule(self):
        schedule = derive_schedule("div", 2048, backend="limb")
        assert schedule.algorithm == "newton"
        assert schedule.sub is not None
        assert schedule.sub.op == "mul"

    def test_unknown_op_rejected(self):
        with pytest.raises(ScheduleError):
            derive_schedule("powmod", 64)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ScheduleError):
            derive_schedule("mul", 64, backend="abacus")

    def test_key_is_structural_identity(self):
        a = derive_schedule("mul", 512, backend="limb")
        b = derive_schedule("mul", 512, backend="limb")
        assert a.key() == b.key()
        other = dataclasses.replace(select.active(), karatsuba_limbs=7)
        c = derive_schedule("mul", 512, other, backend="limb")
        assert a.key() != c.key() or a == c

    def test_describe_and_render_cover_every_level(self):
        schedule = derive_schedule("mul", 2048, backend="limb")
        described = schedule.describe()
        rendered = schedule.render()
        for node in schedule.levels():
            assert "%s@%d" % (node.algorithm, node.limbs) in described
            assert "%s@%d limbs" % (node.algorithm, node.limbs) \
                in rendered


class TestRoundTrips:
    """Hypothesis round-trips: every derived schedule validates clean."""

    @given(limbs=st.integers(min_value=1, max_value=5000),
           policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_derived_mul_schedules_validate(self, limbs, policy):
        schedule = derive_schedule("mul", limbs, policy, backend="limb")
        assert validate_schedule(schedule, policy) == []

    @given(limbs=st.integers(min_value=1, max_value=5000),
           policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_floors_never_increase(self, limbs, policy):
        schedule = derive_schedule("mul", limbs, policy, backend="limb")
        floors = [node.floor for node in schedule.levels()]
        assert floors == sorted(floors, reverse=True)

    @given(limbs=st.integers(min_value=1, max_value=5000),
           policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_root_carries_the_request_and_leaf_terminates(self, limbs,
                                                          policy):
        schedule = derive_schedule("mul", limbs, policy, backend="limb")
        assert schedule.limbs == limbs
        assert schedule.op == "mul"
        leaf = schedule.leaf()
        assert leaf.split == 0 and leaf.child is None
        assert leaf.algorithm == "basecase"
        assert leaf.limbs < policy.karatsuba_limbs

    @given(limbs=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_div_schedules_validate_under_host_tuning(self, limbs):
        # The limb derivation: auto is one packed leaf at every width.
        schedule = derive_schedule("div", limbs, backend="limb")
        assert validate_schedule(schedule) == []


class TestValidation:
    def test_split_must_cover_the_operand(self):
        bad = Schedule(op="mul", limbs=100, algorithm="karatsuba",
                       floor=4, split=2,
                       child=Schedule(op="mul", limbs=10,
                                      algorithm="basecase"))
        problems = validate_schedule(bad)
        assert any("cover only" in p for p in problems)

    def test_splitting_leaf_rejected(self):
        bad = Schedule(op="mul", limbs=100, algorithm="karatsuba",
                       floor=4, split=2, child=None)
        problems = validate_schedule(bad)
        assert any("no child" in p for p in problems)

    def test_oversized_basecase_leaf_rejected(self):
        policy = select.active()
        bad = Schedule(op="mul", limbs=policy.karatsuba_limbs + 10,
                       algorithm="basecase")
        problems = validate_schedule(bad, policy)
        assert any("karatsuba floor" in p for p in problems)

    def test_increasing_floors_rejected(self):
        bad = Schedule(op="mul", limbs=100, algorithm="karatsuba",
                       floor=4, split=2,
                       child=Schedule(op="mul", limbs=51,
                                      algorithm="karatsuba", floor=40,
                                      split=2,
                                      child=Schedule(op="mul", limbs=26,
                                                     algorithm="basecase",
                                                     floor=0)))
        problems = validate_schedule(bad)
        assert any("floors increase" in p for p in problems)

    def test_newton_sub_schedule_is_validated_too(self):
        bad_sub = Schedule(op="mul", limbs=100, algorithm="karatsuba",
                           floor=4, split=2, child=None)
        bad = Schedule(op="div", limbs=100, algorithm="newton",
                       floor=64, sub=bad_sub)
        assert validate_schedule(bad)


class TestPvAlgo:
    """verify_plan re-derives a plan's algorithm from its fingerprint."""

    def test_tampered_algorithm_is_reported(self):
        import dataclasses as dc

        from repro.analysis.stream import verify_plan
        from repro.plan import OpSpec
        from repro.plan.lowering import lower
        from repro.runtime.mpapca import MONOLITHIC_MAX_BITS
        plan = lower(OpSpec.for_mul(MONOLITHIC_MAX_BITS + 1,
                                    MONOLITHIC_MAX_BITS + 1))
        assert plan.backend == "packed"
        assert verify_plan(plan) == []
        forged = dc.replace(plan, algorithm="packed-karatsuba")
        violations = verify_plan(forged)
        assert any(v.check == "PV-ALGO" for v in violations)
