"""Dataset store and harvesters."""

import json

import pytest

from repro.cost import dataset


@pytest.fixture
def target(tmp_path, monkeypatch):
    path = tmp_path / "COST_dataset.jsonl"
    monkeypatch.setenv(dataset.DATASET_ENV, str(path))
    return path


def _row(**overrides):
    base = {"schema": dataset.DATASET_SCHEMA_VERSION, "op": "mul",
            "backend": "limb", "limbs": 64, "ns": 1234.5,
            "source": "test"}
    base.update(overrides)
    return base


class TestMakeRow:
    def test_valid_row_is_canonical(self):
        row = dataset.make_row("mod", "library", 8, 99.0, "test")
        assert row == {"schema": dataset.DATASET_SCHEMA_VERSION,
                       "op": "div", "backend": "limb", "limbs": 8,
                       "ns": 99.0, "source": "test",
                       "end_to_end": False}

    @pytest.mark.parametrize("bad", [
        dict(op="pi_digits"), dict(backend="-"), dict(limbs=0),
        dict(limbs=1.5), dict(ns=0.0), dict(ns=-3.0),
        dict(ns=float("inf")), dict(ns=float("nan")),
        dict(ns="fast"),
    ])
    def test_out_of_domain_is_none(self, bad):
        row = _row(**bad)
        assert dataset.make_row(row["op"], row["backend"],
                                row["limbs"], row["ns"],
                                row["source"]) is None


class TestRoundTrip:
    def test_append_then_load(self, target):
        written = dataset.append_rows(
            [_row(), _row(op="div", limbs=16, ns=8.0)])
        assert written == 2
        rows = dataset.load_rows()
        assert len(rows) == 2
        assert {row["op"] for row in rows} == {"mul", "div"}

    def test_env_override_routes_the_file(self, target):
        dataset.append_rows([_row()])
        assert target.exists()
        assert dataset.dataset_path() == target

    def test_invalid_rows_never_written(self, target):
        assert dataset.append_rows([_row(limbs=0)]) == 0
        assert not target.exists()

    def test_malformed_lines_skipped_on_load(self, target):
        dataset.append_rows([_row()])
        with open(target, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"schema": 999, "op": "mul"}) + "\n")
            handle.write(json.dumps({"schema": 1, "op": "mul",
                                     "backend": "limb", "limbs": 0,
                                     "ns": 5.0, "source": "x"}) + "\n")
        assert len(dataset.load_rows()) == 1

    def test_end_to_end_rows_excluded_by_default(self, target):
        dataset.append_rows(
            [_row(), _row(end_to_end=True, ns=9e6)])
        assert len(dataset.load_rows()) == 1
        assert len(dataset.load_rows(kernel_only=False)) == 2

    def test_missing_file_loads_empty(self, target):
        assert dataset.load_rows() == []


class TestHarvesters:
    def test_bench_kernels_entries(self, tmp_path):
        report = {"entries": [
            {"op": "mul", "bits": 4096,
             "ns": {"limb": 100.0, "packed": 40.0, "python": 900.0}},
            {"op": "pi_digits", "bits": 64, "ns": {"limb": 5.0}},
            {"op": "div", "bits": 2048, "ns": {"limb": 77.0}},
        ]}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        rows = dataset.harvest_bench_kernels(path)
        keys = sorted((row["op"], row["backend"]) for row in rows)
        # python is not a modeled backend; pi_digits not a modeled op.
        assert keys == [("div", "limb"), ("mul", "limb"),
                        ("mul", "packed")]
        assert all(row["source"] == "bench-kernels" for row in rows)

    def test_serve_latency_aggregates(self, tmp_path):
        report = {"op_backend_latency": [
            {"op": "mul", "backend": "library", "limbs": 32, "n": 10,
             "p50_ms": 2.0, "p90_ms": 3.0},
            {"op": "mul", "backend": "library", "limbs": 8, "n": 2,
             "p50_ms": 1.0, "p90_ms": 1.5},
        ]}
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        rows = dataset.harvest_serve(path)
        assert len(rows) == 1  # n < 3 aggregate dropped
        assert rows[0]["ns"] == pytest.approx(2.0e6)
        assert rows[0]["end_to_end"] is True
        assert rows[0]["backend"] == "limb"

    def test_trace_span_dump(self, tmp_path):
        lines = [
            {"op": "mul", "meta": {"backend": "packed", "limbs": 128,
                                   "batch_size": 4},
             "spans_ms": {"execute_start->execute_end": 8.0}},
            {"op": "mul", "meta": {"note": "unstamped"},
             "spans_ms": {"execute_start->execute_end": 8.0}},
            {"op": "mul", "meta": {"backend": "packed", "limbs": 16}},
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines),
                        encoding="utf-8")
        rows = dataset.harvest_trace(path)
        assert len(rows) == 1
        # The execute span times one job; an older dump's batch_size
        # is ignored: 8 ms = 8e6 ns.
        assert rows[0]["ns"] == pytest.approx(8.0e6)
        assert rows[0]["limbs"] == 128

    def test_missing_files_harvest_empty(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert dataset.harvest_bench_kernels(missing) == []
        assert dataset.harvest_serve(missing) == []
        assert dataset.harvest_trace(missing) == []
