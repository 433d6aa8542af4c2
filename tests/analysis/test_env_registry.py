"""The central REPRO_* registry: declarations, typed accessors, and
the docs/ENV.md sync contract."""

from pathlib import Path

import pytest

from repro.analysis import env

DOCS = Path(__file__).parents[2] / "docs" / "ENV.md"


class TestDeclarations:
    def test_every_variable_is_namespaced_and_documented(self):
        assert len(env.REGISTRY) >= 16
        for var in env.all_vars():
            assert var.name.startswith("REPRO_")
            assert var.doc and var.default and var.scope

    def test_known_killswitches_are_present(self):
        assert env.REGISTRY["REPRO_CACHE"].kind == "killswitch"
        assert env.REGISTRY["REPRO_PACKED"].kind == "killswitch"
        assert env.REGISTRY["REPRO_SANITIZE"].kind == "flag"

    def test_duplicate_declaration_is_an_error(self):
        with pytest.raises(ValueError, match="declared twice"):
            env.declare("REPRO_SANITIZE", "off", "flag", "dup", "test")

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown env kind"):
            env.declare("REPRO_TEST_BOGUS", "", "enum", "x", "test")
        assert "REPRO_TEST_BOGUS" not in env.REGISTRY


class TestTypedAccessors:
    def test_flag_is_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert env.flag(env.SANITIZE) is False
        for value in ("0", "false", "No", "OFF", ""):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert env.flag(env.SANITIZE) is False
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert env.flag(env.SANITIZE) is True

    def test_killswitch_is_on_unless_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert env.enabled(env.CACHE) is True
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert env.enabled(env.CACHE) is False
        monkeypatch.setenv("REPRO_CACHE", "off")  # only exact 0 kills
        assert env.enabled(env.CACHE) is True

    def test_int_value_default_floor_and_garbage(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_QUEUE", raising=False)
        assert env.int_value(env.SERVE_QUEUE, 256, minimum=1) == 256
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "4")
        assert env.int_value(env.SERVE_QUEUE, 256, minimum=1) == 4
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "0")
        with pytest.raises(ValueError, match="must be >= 1"):
            env.int_value(env.SERVE_QUEUE, 256, minimum=1)
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "many")
        with pytest.raises(ValueError, match="must be an integer"):
            env.int_value(env.SERVE_QUEUE, 256)

    def test_float_value_and_string(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_WAIT_MS", "2.5")
        assert env.float_value(env.SERVE_MAX_WAIT_MS, 5.0) == 2.5
        monkeypatch.setenv("REPRO_SERVE_MAX_WAIT_MS", "soon")
        with pytest.raises(ValueError, match="must be a number"):
            env.float_value(env.SERVE_MAX_WAIT_MS, 5.0)
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        assert env.string(env.TRACE_FILE, "fallback.jsonl") \
            == "fallback.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", "  spans.jsonl  ")
        assert env.string(env.TRACE_FILE) == "spans.jsonl"


class TestDocsSync:
    def test_env_md_contains_the_rendered_table(self):
        assert DOCS.exists(), "docs/ENV.md is generated from " \
            "env.render_table(); regenerate it"
        assert env.render_table() in DOCS.read_text(encoding="utf-8")

    def test_table_lists_every_variable(self):
        text = DOCS.read_text(encoding="utf-8")
        for name in env.REGISTRY:
            assert "`%s`" % name in text
