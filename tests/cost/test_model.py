"""Fitter properties: finite/positive/monotone predictions, gating."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cost import model as model_mod
from repro.cost.model import (MIN_GROUP_SIZES, CostModel,
                              analytic_cycles, evaluate, fit,
                              split_rows)

FP = (1, 2, 3)  # stand-in thresholds fingerprint for direct fits


def rows_for(op, backend, points, source="test"):
    return [{"schema": 1, "op": op, "backend": backend,
             "limbs": limbs, "ns": ns, "source": source,
             "end_to_end": False} for limbs, ns in points]


#: (limbs, ns) point sets with >= MIN_GROUP_SIZES distinct sizes and
#: strictly positive times — what a real harvest produces.
point_sets = st.lists(
    st.tuples(st.integers(min_value=1, max_value=1 << 16),
              st.floats(min_value=1e-3, max_value=1e12,
                        allow_nan=False, allow_infinity=False)),
    min_size=MIN_GROUP_SIZES, max_size=24,
).filter(lambda pts: len({limbs for limbs, _ in pts})
         >= MIN_GROUP_SIZES)


class TestFitProperties:
    @settings(max_examples=50, deadline=None)
    @given(point_sets)
    @example([(5210, 1.0), (5651, 1308.0), (5656, 1314.0)])
    def test_predictions_finite_positive_monotone(self, points):
        model = fit(rows_for("mul", "limb", points), FP)
        assert model is not None
        previous = 0.0
        for limbs in (1, 2, 5, 17, 128, 4096, 1 << 18):
            predicted = model.predict_ns("mul", "limb", limbs)
            assert predicted is not None
            assert math.isfinite(predicted) and predicted > 0.0
            assert predicted >= previous  # slope clamped >= 0
            previous = predicted

    @settings(max_examples=20, deadline=None)
    @given(point_sets)
    def test_fit_is_deterministic(self, points):
        rows = rows_for("div", "packed", points)
        first, second = fit(rows, FP), fit(rows, FP)
        assert first is not None and second is not None
        assert first.to_payload() == second.to_payload()
        assert first.digest() == second.digest()

    def test_too_few_distinct_sizes_not_fitted(self):
        rows = rows_for("mul", "limb",
                        [(8, 100.0), (8, 110.0), (16, 200.0)])
        assert fit(rows, FP) is None

    def test_recovers_a_power_law(self):
        points = [(limbs, 3.0 * limbs ** 1.5)
                  for limbs in (4, 16, 64, 256, 1024)]
        model = fit(rows_for("mul", "limb", points), FP)
        group = model.groups["mul|limb"]
        assert group["b"] == pytest.approx(1.5, rel=1e-6)
        assert math.exp(group["a"]) == pytest.approx(3.0, rel=1e-6)

    def test_unfitted_group_predicts_none(self):
        points = [(4, 10.0), (8, 20.0), (16, 40.0)]
        model = fit(rows_for("mul", "limb", points), FP)
        assert model.predict_ns("mul", "packed", 8) is None
        assert model.covers("mul", "library")
        assert not model.covers("mul", "packed")


class TestPayload:
    def _model(self):
        points = [(4, 10.0), (8, 20.0), (16, 40.0), (32, 80.0)]
        return fit(rows_for("powmod", "packed", points), FP)

    def test_round_trip(self):
        model = self._model()
        clone = CostModel.from_payload(model.to_payload())
        assert clone is not None
        assert clone.to_payload() == model.to_payload()
        assert clone.digest() == model.digest()

    def test_version_mismatch_rejected(self):
        payload = self._model().to_payload()
        payload["version"] = model_mod.COST_MODEL_VERSION + 1
        assert CostModel.from_payload(payload) is None

    def test_garbage_rejected(self):
        assert CostModel.from_payload(None) is None
        assert CostModel.from_payload({"version": 1}) is None

    def test_digest_tracks_coefficients(self):
        model = self._model()
        other = self._model()
        other.groups["powmod|packed"]["a"] += 0.5
        assert model.digest() != other.digest()


class TestSplitAndEvaluate:
    def _dataset(self):
        rows = []
        for backend, scale in (("limb", 50.0), ("packed", 5.0)):
            for limbs in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
                for jitter in (1.0, 1.02, 0.98):
                    rows.extend(rows_for(
                        "mul", backend,
                        [(limbs, scale * jitter * limbs ** 1.6)]))
        return rows

    def test_split_is_deterministic_partition(self):
        rows = self._dataset()
        train1, holdout1 = split_rows(rows)
        train2, holdout2 = split_rows(list(reversed(rows)))
        assert train1 == train2 and holdout1 == holdout2
        assert len(train1) + len(holdout1) == len(rows)
        assert holdout1  # every third row held out

    def test_evaluate_reports_and_gates(self):
        report = evaluate(self._dataset(), FP)
        assert report is not None
        assert report["rows_scored"] > 0
        assert report["model_median_rel_err"] >= 0.0
        assert report["analytic_median_rel_err"] >= 0.0
        assert report["gate_ok"] == (
            report["error_ratio"] >= report["gate_ratio"])
        # Two backends 10x apart at one shape: the single analytic
        # price cannot match both, the per-backend fits can.
        assert report["model_median_rel_err"] \
            < report["analytic_median_rel_err"]

    def test_evaluate_empty_is_none(self):
        assert evaluate([], FP) is None


class TestAnalyticCycles:
    def test_modeled_ops_priced(self):
        for op in ("mul", "sqr", "div", "mod", "powmod"):
            cycles = analytic_cycles(op, 64)
            assert cycles is not None and cycles > 0

    def test_unmodeled_is_none(self):
        assert analytic_cycles("pi_digits", 64) is None
        assert analytic_cycles("mul", 0) is None
