"""Killswitch bit-identity, fingerprint stranding, and the consumers.

The contract under test: with ``REPRO_COST=0`` — or simply no fitted
model for the active thresholds — every cost-model entry point returns
its absent value and admission behaves exactly as the analytic build,
even when a (deliberately biased) fit sits on disk; plan selection
never consults the model at all.
"""

import dataclasses
import math
from pathlib import Path

import pytest

from repro import cost
from repro.cost import dataset
from repro.cost import model as model_mod
from repro.cost.model import CostModel
from repro.plan import OpSpec, select
from repro.plan.execute import plan_for_job
from repro.plan.lowering import lower, plan_cache
from repro.serve.client import build_jobs
from repro.serve.jobs import make_job, validate_params

COST_ENV = "REPRO_COST"


@pytest.fixture(autouse=True)
def isolated_cost(tmp_path, monkeypatch):
    """Route the model store to a temp dir; start and end modelless."""
    from repro.parallel import cache as cache_mod
    monkeypatch.setenv(cache_mod.CACHE_DIR_ENV, str(tmp_path / "cache"))
    cache_mod._REGISTRY.pop("cost_models", None)
    cost.invalidate()
    yield
    cache_mod._REGISTRY.pop("cost_models", None)
    cost.invalidate()


def flat_group(ns_value):
    """A degenerate fit predicting ``ns_value`` at every size."""
    return {"a": math.log(ns_value), "b": 0.0, "n": 9.0,
            "limbs_min": 1.0, "limbs_max": 1e9}


def save_model(groups, rate=1.0):
    """Persist a crafted model under the *active* thresholds."""
    model = CostModel(fingerprint=tuple(select.fingerprint()),
                      rate_cycles_per_ns=rate, groups=dict(groups))
    model_mod.save(model)
    return model


class TestActivationAndSalt:
    def test_no_model_means_no_salt(self):
        assert model_mod.active_model() is None
        assert cost.selection_salt() == ()
        assert cost.predict_ns("mul", "limb", 64) is None

    def test_saved_model_salts_selection(self):
        model = save_model({"mul|limb": flat_group(100.0)})
        active = model_mod.active_model()
        assert active is not None
        assert cost.selection_salt() == ("cost", model.digest())
        assert cost.predict_ns("mul", "library", 64) \
            == pytest.approx(100.0)

    def test_killswitch_blanks_everything(self, monkeypatch):
        save_model({"mul|limb": flat_group(100.0)})
        monkeypatch.setenv(COST_ENV, "0")
        cost.invalidate()
        assert not cost.enabled()
        assert model_mod.active_model() is None
        assert cost.selection_salt() == ()
        assert cost.predict_ns("mul", "limb", 64) is None
        assert cost.seed_rate_cycles_per_ms() is None

    def test_retune_strands_the_fit(self, tmp_path, reselect):
        from repro.mpn import tune as tune_mod
        save_model({"mul|limb": flat_group(100.0)})
        assert model_mod.active_model() is not None
        # A retune = different thresholds file = new fingerprint.
        reselect(tune_mod.THRESHOLDS_ENV, str(tmp_path / "thresholds.json"))
        retuned = dataclasses.replace(
            select.active(),
            karatsuba_limbs=select.active().karatsuba_limbs + 1)
        tune_mod.save_thresholds(retuned)
        select.reload()
        cost.invalidate()
        assert model_mod.active_model() is None
        assert cost.selection_salt() == ()


class TestLoweringBitIdentity:
    def test_killswitch_off_matches_modelless_baseline(self,
                                                       monkeypatch):
        """The first 2000 seed-7 serve jobs lower to the same backends
        with a model fitted from the committed dataset live and under
        ``REPRO_COST=0``: only the tuned thresholds select."""
        jobs = [(job["op"], validate_params(job["op"], job["params"]))
                for job in build_jobs(2000, seed=7)]

        def census():
            plan_cache().clear()
            return [plan_for_job(op, params).backend
                    for op, params in jobs]

        rows = dataset.load_rows(
            Path(__file__).parents[2] / "results" / "COST_dataset.jsonl")
        model_mod.save(model_mod.fit(rows, select.fingerprint()))
        assert model_mod.active_model() is not None
        live = census()
        monkeypatch.setenv(COST_ENV, "0")
        cost.invalidate()
        assert model_mod.active_model() is None
        assert census() == live


class TestAdmissionConsumers:
    def test_jobs_unpriced_without_model(self):
        job = make_job({"op": "mul",
                        "params": {"a": 12345, "b": 67890}})
        assert job.cost_ns is None

    def test_jobs_priced_with_model(self):
        save_model({"mul|device": flat_group(5000.0),
                    "mul|limb": flat_group(5000.0),
                    "mul|packed": flat_group(5000.0)})
        job = make_job({"op": "mul",
                        "params": {"a": 12345, "b": 67890}})
        assert job.cost_ns == pytest.approx(5000.0)

    def test_jobs_unpriced_when_killswitch_off(self, monkeypatch):
        save_model({"mul|device": flat_group(5000.0)})
        monkeypatch.setenv(COST_ENV, "0")
        cost.invalidate()
        job = make_job({"op": "mul",
                        "params": {"a": 12345, "b": 67890}})
        assert job.cost_ns is None

    def test_seed_rate_prefers_model(self):
        save_model({"mul|limb": flat_group(10.0)}, rate=2.0)
        assert cost.seed_rate_cycles_per_ms() \
            == pytest.approx(2.0 * 1e6)

    def test_seed_rate_none_without_model(self):
        # A modelless boot must stay cold (depth-bound admission),
        # exactly like the analytic build.
        assert cost.seed_rate_cycles_per_ms() is None


class TestTraceJoin:
    def test_annotated_trace_harvests_to_a_row(self, tmp_path):
        import json

        from repro.cost import dataset
        from repro.mpn.nat import LIMB_BITS
        from repro.serve.trace import RequestTrace, annotate_plan
        plan = lower(OpSpec.for_mul(4096, 4096), use_cache=False)
        trace = RequestTrace("job-1", "mul")
        trace.mark("received")
        trace.mark("execute_start")
        trace.mark("execute_end")
        annotate_plan(trace, plan, cost_ns=123.0)
        payload = trace.to_dict()
        assert payload["meta"]["backend"] == plan.backend
        assert payload["meta"]["cost_ns"] == 123.0
        assert payload["meta"]["limbs"] == 4096 // LIMB_BITS
        # Force a visible span so the harvest join has a duration.
        payload["spans_ms"]["execute_start->execute_end"] = 2.5
        dump = tmp_path / "trace.jsonl"
        dump.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        rows = dataset.harvest_trace(dump)
        assert len(rows) == 1
        assert rows[0]["op"] == "mul"
        assert rows[0]["limbs"] == payload["meta"]["limbs"]
        assert rows[0]["ns"] == pytest.approx(2.5e6)
