"""Plan-lowered execution is bit-identical to direct dispatch.

The multi-layer refactor routes every request through ``OpSpec →
select → Plan → run``; this suite proves the detour is invisible: for
every operator, at sizes straddling every algorithm-crossover boundary,
executing the lowered plan yields exactly the bytes the pre-refactor
direct dispatch (and Python's bigints) produce — including when the
plan came out of the version-salted plan cache rather than a fresh
lowering, and when an explicit device request runs the ISA stream
rather than the library kernels.
"""

from __future__ import annotations

import random

import pytest

from repro.mpn import div as div_mod
from repro.mpn.mul import mul
from repro.plan import OpSpec
from repro.plan.execute import plan_for_job, run
from repro.plan.lowering import lower
from repro.runtime.mpapca import MONOLITHIC_MAX_BITS

from tests.conftest import from_nat, to_nat
from tests.differential.conftest import FORCED_POLICY

pytestmark = pytest.mark.differential

#: Limb sizes straddling every FORCED_POLICY crossover (k=4, t3=8,
#: t4=12, t6=18, ssa=26) plus the deep-recursion band above.
CROSSOVER_LIMBS = (1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 17, 18, 19,
                   25, 26, 27, 40, 64)


def _operand(limbs: int, seed: int) -> int:
    rng = random.Random(0xC0FFEE ^ seed)
    return rng.getrandbits(32 * limbs) | (1 << (32 * limbs - 1))


class TestMulAcrossCrossovers:
    @pytest.mark.parametrize("limbs", CROSSOVER_LIMBS)
    def test_library_plan_matches_direct_dispatch(self, limbs):
        a, b = _operand(limbs, 1), _operand(limbs, 2)
        plan = lower(OpSpec.for_mul(a.bit_length(), b.bit_length(),
                                    backend="library"), FORCED_POLICY)
        payload = run(plan, {"a": a, "b": b})
        direct = from_nat(mul(to_nat(a), to_nat(b), FORCED_POLICY))
        assert payload["product"] == direct == a * b

    def test_device_plan_matches_library(self):
        from repro.core.accelerator import CambriconP
        a, b = _operand(12, 3), _operand(9, 4)
        plan = lower(OpSpec.for_mul(a.bit_length(), b.bit_length(),
                                    backend="device"))
        assert plan.backend == "device"
        payload = run(plan, {"a": a, "b": b}, device=CambriconP())
        assert payload["product"] == a * b

    def test_auto_boundary_straddles_monolithic_limit(self):
        import dataclasses

        from repro.plan import select

        # Pin the packed crossover off so both sides resolve to the
        # library backend regardless of host tuning: the monolithic
        # limit bounds explicit device requests only, never what auto
        # picks.
        host_free = dataclasses.replace(select.active(),
                                        packed_mul_limbs=0)
        for bits in (MONOLITHIC_MAX_BITS, MONOLITHIC_MAX_BITS + 1):
            plan = lower(OpSpec.for_mul(bits, 64), host_free,
                         use_cache=False)
            assert plan.backend == "library"

    def test_auto_past_limit_prefers_packed(self, reselect):
        import dataclasses

        from repro.plan import select

        # Pinned on: CI also runs this suite under REPRO_PACKED=0.
        reselect(select.PACKED_ENV, "1")
        tuned = dataclasses.replace(select.active(), packed_mul_limbs=2)
        plan = lower(OpSpec.for_mul(MONOLITHIC_MAX_BITS + 1, 64),
                     tuned, use_cache=False)
        assert plan.backend == "packed"


class TestDivAcrossCrossovers:
    @pytest.fixture()
    def small_newton(self):
        saved = div_mod.NEWTON_DIV_THRESHOLD_BITS
        div_mod.NEWTON_DIV_THRESHOLD_BITS = 64
        yield
        div_mod.NEWTON_DIV_THRESHOLD_BITS = saved

    @pytest.mark.parametrize("divisor_limbs", (1, 2, 3, 8, 20))
    def test_both_regimes_match_bigint_divmod(self, divisor_limbs,
                                              small_newton):
        a = _operand(2 * divisor_limbs + 3, 5)
        b = _operand(divisor_limbs, 6)
        plan = lower(OpSpec("div", a.bit_length(), b.bit_length()),
                     FORCED_POLICY, use_cache=False)
        payload = run(plan, {"a": a, "b": b})
        assert (payload["quotient"], payload["remainder"]) \
            == divmod(a, b)
        # The plan's recorded regime is the one the kernel dispatch
        # takes at this size under the patched threshold.
        expected = "newton" if b.bit_length() > 64 else "schoolbook"
        assert plan.algorithm == expected

    def test_mod_plan_matches(self, small_newton):
        a, b = _operand(9, 7), _operand(3, 8)
        plan = lower(OpSpec("mod", a.bit_length(), b.bit_length()),
                     FORCED_POLICY, use_cache=False)
        assert run(plan, {"a": a, "b": b})["remainder"] == a % b


class TestPowmodAndApps:
    def test_powmod_matches_bigint_pow(self):
        base, exp, mod = _operand(4, 9), 65537, (1 << 127) - 1
        plan = plan_for_job("powmod", {"base": base, "exp": exp,
                                       "mod": mod})
        assert plan.algorithm == {"packed": "packed-pow",
                                  "library": "montgomery"}[plan.backend]
        assert run(plan, {"base": base, "exp": exp, "mod": mod})[
            "value"] == pow(base, exp, mod)

    def test_pi_digits_matches_app(self):
        from repro.apps import pi
        plan = plan_for_job("pi_digits", {"digits": 30})
        payload = run(plan, {"digits": 30})
        assert payload["digits"] == pi.run(30).digits

    def test_model_cycles_matches_runtime_model(self):
        from repro.runtime import mpapca
        plan = plan_for_job("model_cycles",
                            {"op": "mul", "bits_a": 4096, "bits_b": 0})
        payload = run(plan, {"op": "mul", "bits_a": 4096, "bits_b": 0})
        assert payload["cycles"] == mpapca.mul_cycles(4096, 4096)


class TestServeOraclesAgree:
    """The serve path (a job's lowered plan) vs the ``int`` oracle."""

    @pytest.mark.parametrize("op,params", [
        ("mul", {"a": 3 ** 300, "b": 7 ** 211}),
        ("div", {"a": 10 ** 90 + 12345, "b": 997}),
        ("powmod", {"base": 0xABCDEF, "exp": 65537,
                    "mod": (1 << 127) - 1}),
    ])
    def test_job_evaluation_is_bit_identical(self, op, params):
        from repro.serve.client import expected_result
        payload = run(plan_for_job(op, params,
                                   backend="library"), params)
        assert {field: hex(value) for field, value in payload.items()} \
            == expected_result({"op": op, "params": params})


class TestPlanCacheBitIdentity:
    def test_cached_plan_executes_identically(self):
        a, b = _operand(30, 10), _operand(30, 11)
        spec = OpSpec.for_mul(a.bit_length(), b.bit_length(),
                              backend="library")
        fresh = lower(spec, FORCED_POLICY, use_cache=False)
        cached = lower(spec, FORCED_POLICY)      # memoized round trip
        recached = lower(spec, FORCED_POLICY)    # cache hit
        assert fresh == cached == recached
        params = {"a": a, "b": b}
        assert run(fresh, params) == run(cached, params) \
            == run(recached, params) == {"product": a * b}
