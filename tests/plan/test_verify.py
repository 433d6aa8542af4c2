"""verify_plan: plan-level hazards (PV-*) and stream materialization."""

import dataclasses

from repro.analysis.stream import verify_plan
from repro.mpn import nat_from_int
from repro.plan import OpSpec
from repro.plan.lowering import lower
from repro.runtime.mpapca import MONOLITHIC_MAX_BITS


def checks(plan, operands=None):
    return {v.check for v in verify_plan(plan, operands)}


class TestCleanPlans:
    def test_device_mul_plan_is_clean(self):
        assert checks(lower(OpSpec.for_mul(4096, 4096,
                                           backend="device"))) == set()

    def test_library_mul_plan_is_clean(self):
        assert checks(lower(OpSpec.for_mul(1 << 20, 1 << 20))) == set()

    def test_every_op_lowers_clean(self):
        specs = [
            OpSpec("div", 8192, 100),
            OpSpec("powmod", 2048, 17, detail=(("mod_odd", 1),)),
            OpSpec("sqrt", 4096),
            OpSpec("add", 4096, 4096),
            OpSpec("shift", 4096),
            OpSpec("cmp", 4096, 4096),
            OpSpec("pi_digits", detail=(("digits", 50),)),
            OpSpec("model_cycles", 4096,
                   detail=(("model_op", "mul"),)),
        ]
        for spec in specs:
            assert checks(lower(spec)) == set(), spec

    def test_device_plan_with_operands_verifies_stream(self):
        plan = lower(OpSpec.for_mul(200, 150, backend="device"))
        operands = [nat_from_int(3 ** 120), nat_from_int(7 ** 50)]
        assert checks(plan, operands) == set()


class TestSeededHazards:
    def test_nonsense_cost_fires_pv_cost(self):
        plan = dataclasses.replace(lower(OpSpec.for_mul(64, 64)),
                                   cost_cycles=float("nan"))
        assert "PV-COST" in checks(plan)

    def test_wrong_algorithm_fires_pv_algo(self):
        plan = dataclasses.replace(
            lower(OpSpec.for_mul(4096, 4096, backend="device")),
            algorithm="karatsuba")
        assert "PV-ALGO" in checks(plan)

    def test_oversized_device_plan_fires_pv_backend(self):
        base = lower(OpSpec.for_mul(64, 64, backend="device"))
        spec = OpSpec.for_mul(MONOLITHIC_MAX_BITS + 32,
                              MONOLITHIC_MAX_BITS + 32)
        plan = dataclasses.replace(base, spec=spec)
        assert "PV-BACKEND" in checks(plan)

    def test_non_mul_device_plan_fires_pv_backend(self):
        base = lower(OpSpec("div", 4096, 100))
        plan = dataclasses.replace(base, backend="device")
        assert "PV-BACKEND" in checks(plan)

    def test_empty_steps_fire_pv_steps(self):
        plan = dataclasses.replace(lower(OpSpec.for_mul(64, 64)),
                                   steps=())
        assert "PV-STEPS" in checks(plan)

    def test_mismatched_operand_bits_surface_stream_hazards(self):
        plan = lower(OpSpec.for_mul(200, 150, backend="device"))
        # One operand only: the stream builder must refuse.
        violations = verify_plan(plan, [nat_from_int(3 ** 120)])
        assert {v.check for v in violations} == {"PV-STREAM"}
