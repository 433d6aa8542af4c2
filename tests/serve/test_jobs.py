"""Job parsing, validation vocabulary, pricing, and the plan that runs."""

import pytest

from repro.plan.execute import plan_for_job, run
from repro.serve.client import expected_result
from repro.serve.jobs import JOB_OPS, JobError, make_job, validate_params


def _job(op, params, **extra):
    payload = {"op": op, "params": params}
    payload.update(extra)
    return make_job(payload)


class TestMakeJob:
    def test_minimal_mul(self):
        job = _job("mul", {"a": 6, "b": 7})
        assert job.op == "mul"
        assert job.params == {"a": 6, "b": 7}
        assert job.priority == 0
        assert job.deadline_ms is None
        assert job.cost_cycles > 0
        assert job.job_id.startswith("job-")

    def test_hex_string_operands(self):
        job = _job("mul", {"a": "0xff", "b": "16"})
        assert job.params == {"a": 255, "b": 16}

    def test_explicit_id_priority_deadline(self):
        job = _job("mul", {"a": 1, "b": 2}, id="x", priority=9,
                   deadline_ms=50)
        assert job.job_id == "x"
        assert job.priority == 9
        assert job.deadline_at is not None
        assert not job.expired(job.created_at)
        assert job.expired(job.created_at + 1.0)

    @pytest.mark.parametrize("payload,code", [
        ({"op": "nope", "params": {}}, "invalid:unknown-op"),
        ({"op": "mul", "params": []}, "invalid:bad-params"),
        ({"op": "mul", "params": {"a": 1}}, "invalid:missing-param"),
        ({"op": "mul", "params": {"a": 1, "b": "xyz"}},
         "invalid:bad-int"),
        ({"op": "mul", "params": {"a": 1, "b": 2.5}}, "invalid:bad-int"),
        ({"op": "mul", "params": {"a": 1, "b": True}},
         "invalid:bad-int"),
        ({"op": "mul", "params": {"a": -1, "b": 2}}, "invalid:negative"),
        ({"op": "div", "params": {"a": 1, "b": 0}},
         "invalid:zero-divisor"),
        ({"op": "powmod", "params": {"base": 2, "exp": 3, "mod": 0}},
         "invalid:zero-modulus"),
        ({"op": "pi_digits", "params": {"digits": 10 ** 9}},
         "invalid:oversized"),
        ({"op": "pi_digits", "params": {"digits": 0}}, "invalid:bad-int"),
        ({"op": "model_cycles", "params": {"op": "frobnicate",
                                           "bits_a": 64}},
         "invalid:unknown-model-op"),
        ({"op": "mul", "params": {"a": 1, "b": 2}, "priority": 10},
         "invalid:priority"),
        ({"op": "mul", "params": {"a": 1, "b": 2}, "priority": "hi"},
         "invalid:priority"),
        ({"op": "mul", "params": {"a": 1, "b": 2}, "deadline_ms": -5},
         "invalid:deadline"),
        ({"op": "mul", "params": {"a": 1, "b": 2}, "id": "x" * 200},
         "invalid:id"),
    ])
    def test_rejection_vocabulary(self, payload, code):
        with pytest.raises(JobError) as excinfo:
            make_job(payload)
        assert excinfo.value.code == code

    def test_operand_ceiling_is_configurable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BITS", "16")
        with pytest.raises(JobError) as excinfo:
            _job("mul", {"a": 1 << 20, "b": 2})
        assert excinfo.value.code == "invalid:oversized"


class TestPricing:
    def test_every_op_is_priced(self):
        samples = {
            "mul": {"a": 1 << 100, "b": 1 << 90},
            "div": {"a": 1 << 100, "b": 7},
            "powmod": {"base": 3, "exp": 65537, "mod": (1 << 64) + 13},
            "pi_digits": {"digits": 50},
            "model_cycles": {"op": "mul", "bits_a": 4096, "bits_b": 0},
        }
        assert set(samples) == set(JOB_OPS)
        for op, raw in samples.items():
            cost = plan_for_job(op, validate_params(op, raw)).cost()
            assert cost > 0

    def test_admission_estimate_is_the_one_model(self):
        """Serve keeps no private cycle math: the admission estimate
        for a job equals the CambriconPModel-backed MPApca pricing of
        the same OpSpec, exactly."""
        from repro.core.model import CambriconPModel
        from repro.runtime import mpapca
        a, b = 3 ** 800, 7 ** 650
        job = make_job({"op": "mul", "params": {"a": a, "b": b}})
        bits = (a.bit_length(), b.bit_length())
        assert job.cost_cycles == mpapca.mul_cycles(*bits)
        # ...which for a monolithic-range mul is the analytic model's
        # own multiply latency (DISPATCH included), untouched.
        assert job.cost_cycles == \
            CambriconPModel().multiply_cycles(*bits)
        div = make_job({"op": "div", "params": {"a": a, "b": b}})
        assert div.cost_cycles == mpapca.div_cycles(a.bit_length(),
                                                    b.bit_length())

    def test_job_cost_equals_plan_cost(self):
        job = make_job({"op": "powmod",
                        "params": {"base": 3, "exp": 65537,
                                   "mod": (1 << 127) - 1}})
        assert job.plan is not None
        assert job.cost_cycles == job.plan.cost()

    def test_bigger_work_costs_more(self):
        # Small monolithic muls fill a single PE wave, so the modeled
        # device latency is flat there; compare across sizes where the
        # wave count (and then the library fallback) actually grows.
        small, medium, large = (
            plan_for_job("mul", {"a": 1 << bits, "b": 1 << bits}).cost()
            for bits in (64, 35900, 1 << 17))
        assert small < medium < large


def _served(op, params):
    """What the batcher computes for a job: its lowered plan, run."""
    job = _job(op, params)
    return run(job.plan, job.params)


class TestOracle:
    def test_mul_matches_python(self):
        a, b = 3 ** 120, 7 ** 95
        assert _served("mul", {"a": a, "b": b}) == {"product": a * b}

    def test_div_matches_python(self):
        a, b = 10 ** 60 + 12345, 997
        assert _served("div", {"a": a, "b": b}) \
            == {"quotient": a // b, "remainder": a % b}

    def test_powmod_matches_python(self):
        base, exp, mod = 0xABCDEF, 65537, (1 << 127) - 1
        assert _served("powmod", {"base": base, "exp": exp, "mod": mod}) \
            == {"value": pow(base, exp, mod)}

    def test_pi_digits(self):
        payload = {"op": "pi_digits", "params": {"digits": 20}}
        result = _served(**payload)
        assert result == expected_result(payload)
        assert result["digits"].startswith("3.14159265358979")

    def test_model_cycles_matches_runtime_model(self):
        from repro.runtime import mpapca
        payload = {"op": "model_cycles",
                   "params": {"op": "mul", "bits_a": 4096, "bits_b": 0}}
        result = _served(**payload)
        assert result == expected_result(payload)
        assert result["cycles"] == mpapca.mul_cycles(4096, 4096)
        assert result["seconds"] > 0


class TestPlanKeys:
    def test_cache_key_carries_plan_memo_key(self):
        job = make_job({"op": "model_cycles",
                        "params": {"op": "mul", "bits_a": 256,
                                   "bits_b": 0}})
        assert tuple(job.plan.memo_key) \
            == tuple(job.cache_key()[-len(job.plan.memo_key):])

    def test_cache_key_only_for_pure_queries(self):
        assert _job("pi_digits", {"digits": 10}).cache_key() is not None
        assert _job("model_cycles",
                    {"op": "mul", "bits_a": 64}).cache_key() is not None
        assert _job("mul", {"a": 2, "b": 3}).cache_key() is None
