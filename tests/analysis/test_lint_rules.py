"""Every lint rule fires on seeded code, and noqa suppresses precisely."""

from pathlib import Path

from repro.analysis.lint import (LintReport, collect_noqa, lint_paths,
                                 lint_source)
from repro.analysis.rules import ALL_RULES, RULES_BY_NAME

FIXTURES = Path(__file__).parent / "fixtures"

#: Fake paths that place a source in each rule scope.
KERNEL = "src/repro/mpn/fake_kernel.py"
CORE = "src/repro/core/controller.py"
APP = "src/repro/apps/fake_app.py"
SERVE = "src/repro/serve/fake_server.py"


def rules_fired(source: str, path: str):
    return {v.rule for v in lint_source(source, path)}


class TestRuleCatalogue:
    def test_thirteen_rules_with_stable_codes(self):
        assert len(ALL_RULES) == 13
        codes = [rule.code for rule in ALL_RULES]
        assert codes == ["RPR%03d" % i for i in range(1, 14)]
        assert all(rule.rationale for rule in ALL_RULES)

    def test_rules_by_name_round_trips(self):
        for rule in ALL_RULES:
            assert RULES_BY_NAME[rule.name] is rule


class TestEachRuleFires:
    def test_bigint_in_kernel(self):
        src = "def f(a):\n    return nat_to_int(a)\n"
        assert "bigint-in-kernel" in rules_fired(src, KERNEL)
        # Boundary modules and non-mpn code are out of scope.
        assert "bigint-in-kernel" not in rules_fired(
            src, "src/repro/mpn/nat.py")
        assert "bigint-in-kernel" not in rules_fired(src, APP)

    def test_unnormalized_return(self):
        src = ("def f(a) -> Nat:\n"
               "    return a[1:]\n")
        assert "unnormalized-return" in rules_fired(src, KERNEL)
        ok = "def f(a) -> Nat:\n    return normalize(list(a))\n"
        assert "unnormalized-return" not in rules_fired(ok, KERNEL)

    def test_unnormalized_return_sees_through_ternary(self):
        src = ("def f(a, flag) -> Nat:\n"
               "    return a if flag else [x for x in a]\n")
        assert "unnormalized-return" in rules_fired(src, KERNEL)

    def test_caller_aliasing(self):
        assert "caller-aliasing" in rules_fired(
            "def f(a):\n    a.append(1)\n", APP)
        assert "caller-aliasing" in rules_fired(
            "def f(a):\n    a[0] = 1\n", APP)
        assert "caller-aliasing" in rules_fired(
            "def f(a):\n    del a[0]\n", APP)

    def test_caller_aliasing_spares_rebound_params(self):
        src = ("def f(a):\n"
               "    a = list(a)\n"
               "    a.append(1)\n"
               "    return a\n")
        assert "caller-aliasing" not in rules_fired(src, APP)

    def test_caller_aliasing_swap_is_one_finding(self):
        src = ("def f(a, i, j):\n"
               "    a[i], a[j] = a[j], a[i]\n")
        findings = [v for v in lint_source(src, APP)
                    if v.rule == "caller-aliasing"]
        assert len(findings) == 1

    def test_subscript_swap_does_not_count_as_rebinding(self):
        # ``a[i], a[j] = ...`` must not be mistaken for ``a = ...``.
        src = ("def f(a, i, j):\n"
               "    a[i], a[j] = a[j], a[i]\n"
               "    a.append(1)\n")
        findings = [v for v in lint_source(src, APP)
                    if v.rule == "caller-aliasing"]
        assert len(findings) == 2

    def test_bare_assert_in_library(self):
        assert "bare-assert-in-library" in rules_fired(
            "def f(a):\n    assert a\n", APP)

    def test_float_in_cycle_model(self):
        fired = rules_fired("def f(n):\n    return n / 2 + 0.5\n", CORE)
        assert "float-in-cycle-model" in fired
        # Timing models (not in the functional list) may use floats.
        assert "float-in-cycle-model" not in rules_fired(
            "def f(n):\n    return n / 2\n", "src/repro/core/model.py")

    def test_nondeterminism(self):
        assert "nondeterminism" in rules_fired(
            "import time\n", "src/repro/core/pe.py")
        assert "nondeterminism" in rules_fired(
            "import random\ndef f():\n    return random.random()\n",
            "src/repro/core/pe.py")
        assert "nondeterminism" in rules_fired(
            "import random\ndef f():\n    return random.Random()\n",
            "src/repro/core/pe.py")
        # A seeded RNG is the sanctioned pattern.
        assert "nondeterminism" not in rules_fired(
            "import random\ndef f(seed):\n"
            "    return random.Random(seed)\n",
            "src/repro/core/pe.py")

    def test_mutable_default_arg(self):
        assert "mutable-default-arg" in rules_fired(
            "def f(a, scratch=[]):\n    return scratch\n", APP)
        assert "mutable-default-arg" in rules_fired(
            "def f(a, table=dict()):\n    return table\n", APP)

    def test_magic_limb_constant(self):
        assert "magic-limb-constant" in rules_fired(
            "BASE = 1 << 32\n", APP)
        assert "magic-limb-constant" in rules_fired(
            "MASK = 4294967295\n", APP)
        # nat.py defines the limb geometry and is exempt.
        assert "magic-limb-constant" not in rules_fired(
            "BASE = 1 << 32\n", "src/repro/mpn/nat.py")

    def test_print_in_kernel(self):
        src = "def f(x):\n    print(x)\n"
        assert "print-in-kernel" in rules_fired(src, KERNEL)
        assert "print-in-kernel" in rules_fired(src, CORE)
        assert "print-in-kernel" not in rules_fired(src, APP)

    def test_broad_except(self):
        assert "broad-except" in rules_fired(
            "try:\n    f()\nexcept:\n    raise\n", APP)
        assert "broad-except" in rules_fired(
            "try:\n    f()\nexcept Exception:\n    pass\n", APP)
        # A typed, handled exception is fine.
        assert "broad-except" not in rules_fired(
            "try:\n    f()\nexcept ValueError:\n    pass\n", APP)

    def test_blocking_call_in_async(self):
        src = ("import time\n"
               "async def handler():\n"
               "    time.sleep(1)\n")
        assert "blocking-call-in-async" in rules_fired(src, SERVE)
        # Only the serve layer is in scope.
        assert "blocking-call-in-async" not in rules_fired(src, APP)

    def test_blocking_future_wait_in_async(self):
        src = ("async def handler(fut):\n"
               "    return fut.result()\n")
        assert "blocking-call-in-async" in rules_fired(src, SERVE)

    def test_blocking_socket_ops_in_async(self):
        src = ("async def handler(sock):\n"
               "    sock.connect((\"h\", 1))\n"
               "    return sock.recv(1)\n")
        findings = [v for v in lint_source(src, SERVE)
                    if v.rule == "blocking-call-in-async"]
        assert len(findings) == 2

    def test_awaited_calls_are_not_blocking(self):
        src = ("import asyncio\n"
               "async def handler():\n"
               "    await asyncio.sleep(1)\n")
        assert "blocking-call-in-async" not in rules_fired(src, SERVE)

    def test_sync_def_and_executor_thunks_are_out_of_scope(self):
        src = ("import time\n"
               "def worker():\n"
               "    time.sleep(1)\n"
               "async def handler(loop):\n"
               "    def thunk():\n"
               "        time.sleep(1)\n"
               "    await loop.run_in_executor(None, thunk)\n")
        assert "blocking-call-in-async" not in rules_fired(src, SERVE)

    def test_direct_dispatch_kernel_call(self):
        src = ("def f(a, b):\n"
               "    return mul_karatsuba(a, b, mul_schoolbook)\n")
        assert "direct-dispatch" in rules_fired(src, SERVE)
        assert "direct-dispatch" in rules_fired(src, APP)
        # The kernels' own package is the sanctioned home.
        assert "direct-dispatch" not in rules_fired(src, KERNEL)

    def test_direct_dispatch_instruction_construction(self):
        src = ("def f(ref):\n"
               "    return Instruction(Opcode.MUL, (ref, ref), 2)\n")
        assert "direct-dispatch" in rules_fired(src, SERVE)
        # plan.streams and the ISA definition itself stay exempt.
        assert "direct-dispatch" not in rules_fired(
            src, "src/repro/plan/streams.py")
        assert "direct-dispatch" not in rules_fired(
            src, "src/repro/core/isa.py")

    def test_direct_dispatch_covers_packed_entrypoints(self):
        """The block-packed kernels joined KERNEL_ENTRYPOINTS: calling
        them above mpn is the same contract breach as calling the limb
        kernels directly."""
        for name in ("mul_packed", "sqr_packed", "divmod_packed",
                     "divmod_packed_int", "add_packed", "sub_packed",
                     "shl_packed", "shr_packed"):
            src = ("def f(a, b):\n"
                   "    return %s(a, b)\n" % name)
            assert "direct-dispatch" in rules_fired(src, SERVE), name
            assert "direct-dispatch" in rules_fired(src, APP), name
            # Inside mpn (the dispatchers' home) the calls are legal.
            assert "direct-dispatch" not in rules_fired(src, KERNEL), \
                name

    def test_direct_dispatch_leaves_dispatchers_alone(self):
        src = ("def f(a, b):\n"
               "    return mul(a, b)\n"
               "def g(a, b):\n"
               "    return divmod_nat(a, b)\n")
        assert "direct-dispatch" not in rules_fired(src, SERVE)

    def test_schedule_bypass_fires_inside_mpn(self):
        src = ("def f(a, b):\n"
               "    return mul_karatsuba(a, b, mul_schoolbook)\n")
        # RPR012 is silent inside mpn; RPR013 takes over there.
        assert "schedule-bypass" in rules_fired(src, KERNEL)
        assert "schedule-bypass" in rules_fired(
            src, "src/repro/plan/execute.py")
        # ...but not in the schedule layer itself: the walking
        # dispatchers and the internals' defining modules.
        for sanctioned in ("src/repro/mpn/mul.py",
                           "src/repro/mpn/div.py",
                           "src/repro/mpn/karatsuba.py"):
            assert "schedule-bypass" not in rules_fired(src, sanctioned)
        # Outside mpn/plan it is RPR012's jurisdiction, not RPR013's.
        assert "schedule-bypass" not in rules_fired(src, SERVE)

    def test_schedule_bypass_covers_every_internal(self):
        for name in ("mul_karatsuba", "sqr_karatsuba", "mul_toom",
                     "mul_ssa", "divmod_newton", "divmod_bz"):
            src = "def f(a, b):\n    return %s(a, b)\n" % name
            assert "schedule-bypass" in rules_fired(src, KERNEL), name

    def test_schedule_bypass_leaves_dispatchers_alone(self):
        src = ("def f(a, b):\n"
               "    return mul(a, b, backend='packed')\n")
        assert "schedule-bypass" not in rules_fired(src, KERNEL)


class TestNoqa:
    def test_named_suppression(self):
        src = "def f(a):\n    return nat_to_int(a)  # repro: noqa=bigint-in-kernel\n"
        assert "bigint-in-kernel" not in rules_fired(src, KERNEL)

    def test_named_suppression_with_justification(self):
        src = ("def f(a):\n"
               "    return nat_to_int(a)"
               "  # repro: noqa=bigint-in-kernel -- word-size base case\n")
        assert rules_fired(src, KERNEL) == set()

    def test_bare_noqa_suppresses_everything(self):
        src = "def f(a):\n    a.append(nat_to_int(a))  # repro: noqa\n"
        assert rules_fired(src, KERNEL) == set()

    def test_other_rules_stay_live(self):
        src = ("def f(a):\n"
               "    a.append(nat_to_int(a))  # repro: noqa=bigint-in-kernel\n")
        assert rules_fired(src, KERNEL) == {"caller-aliasing"}

    def test_multiline_statement_covered_by_last_line(self):
        src = ("def f(a) -> Nat:\n"
               "    return (a +\n"
               "            a)  # repro: noqa=unnormalized-return\n")
        assert "unnormalized-return" not in rules_fired(src, KERNEL)

    def test_unknown_rule_name_is_reported(self):
        src = "x = 1  # repro: noqa=no-such-rule\n"
        violations = lint_source(src, APP)
        assert [v.rule for v in violations] == ["unknown-noqa"]
        assert "no-such-rule" in violations[0].message

    def test_collect_noqa_parses_lists(self):
        mapping = collect_noqa(
            "a = 1  # repro: noqa=rule-a, rule-b -- reason\n"
            "b = 2  # repro: noqa\n")
        assert mapping[1] == {"rule-a", "rule-b"}
        assert mapping[2] == {"*"}


class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        violations = lint_source("def broken(:\n", APP)
        assert [v.code for v in violations] == ["RPR000"]

    def test_report_renders_with_provenance(self):
        report = LintReport(violations=lint_source(
            "def f(a):\n    assert a\n", APP), files_checked=1)
        assert not report.ok
        rendered = report.render()
        assert APP + ":2:" in rendered
        assert "RPR004" in rendered
        assert "1 file(s) checked, 1 violation(s)" in rendered


class TestFixtureSweep:
    """The on-disk seeded fixtures exercise every rule end to end."""

    def test_every_rule_fires_on_the_fixture_tree(self):
        report = lint_paths([FIXTURES])
        codes = {v.code for v in report.violations}
        assert codes == {"RPR%03d" % i for i in range(1, 14)}

    def test_clean_fixture_is_silent(self):
        report = lint_paths([FIXTURES / "clean"])
        assert report.ok
        assert report.files_checked == 1
