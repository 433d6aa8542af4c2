"""The packed backend is bit-identical to the limb backend.

The packed kernels exist purely for speed, so the contract is strict:
at every size — from one limb up (``auto`` runs packed at every width,
limb under ``REPRO_PACKED=0``), across the figure-11 ladder, and for
unbalanced or empty operands — the mpn dispatchers must return the same
limbs whichever backend runs, and both must match Python's bigints.
Lowered ``packed`` plans are checked against ``library`` plans, and the
memo key separates the two backends.  powmod is checked through every
entry point against one oracle, ``pow``.  Packed
mul/sqr/powmod run on whole ints, so :class:`TestIntBoundary` checks
the int entries at the deleted block kernels' edges and the degenerate
operands, from the dispatcher to the HTTP front door.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpn
from repro.mpn import div as div_kernels, montgomery, packed as packed_kernels
from repro.mpn.div import divmod_nat
from repro.mpn.mul import GMP_POLICY, mul, sqr
from repro.mpn.nat import LIMB_BITS, MpnError
from repro.mpn.packed import DIV_RECURSION_BITS, LINEAR_PACK_MIN_LIMBS
from repro.plan import OpSpec, select
from repro.plan.execute import plan_for_job, run
from repro.plan.lowering import lower
from repro.serve.client import ServeClient, expected_result
from repro.serve.server import ServeConfig, ServerThread

from tests.conftest import from_nat, to_nat
from tests.differential.conftest import diff_examples, naturals_of_bits

pytestmark = pytest.mark.differential

#: The paper's figure-11 sweep (1024/4096/16384/65536 bits), in limbs.
FIG11_LIMBS = (32, 128, 512, 2048)

#: Unbalanced and empty (a limbs, b limbs) operand shapes.
UNBALANCED = [pytest.param(shape, id="%dx%d" % shape)
              for shape in ((0, 10), (10, 0), (1, 40), (40, 3), (3, 1))]

#: A divisor past ``NEWTON_DIV_THRESHOLD_BITS``: the limb backend runs
#: Newton division with its reciprocal multiplications.
NEWTON_DIVISOR_LIMBS = 80


#: Operand widths (bits) of the serve-large workload's kernels, plus
#: the widest point where the limb kernels stay cheap enough to join.
SERVE_LARGE_BITS = (16384, 35905, 65536, 98304)

#: Widest operand checked against the limb kernels as well as ints.
LIMB_ORACLE_MAX_BITS = 16384

#: powmod modulus widths (limbs): inside one 256-bit block (the block
#: the deleted packed powmod ladder ran on), exactly one and two
#: blocks, and one limb past each.
POWMOD_LIMBS = (1, 2, 8, 9, 16, 17)


def _bits_operand(bits: int, seed: int) -> int:
    rng = random.Random(0x5E7E ^ seed ^ bits)
    return rng.getrandbits(bits) | (1 << (bits - 1))


def _operand(limbs: int, seed: int) -> int:
    if not limbs:
        return 0
    rng = random.Random(0xB10C ^ seed)
    return rng.getrandbits(32 * limbs) | (1 << (32 * limbs - 1))


def _band(*extra: int):
    """One to five limbs, deeper sizes and the figure-11 ladder."""
    return sorted({1, 2, 3, 4, 5, 17, 64, 200, *FIG11_LIMBS, *extra})


class TestMulCrossover:
    @pytest.mark.parametrize(
        "limbs",
        _band() + UNBALANCED)
    def test_backends_agree_at_boundary(self, limbs):
        la, lb = limbs if isinstance(limbs, tuple) else (limbs, limbs)
        a, b = _operand(la, 1), _operand(lb, 2)
        an, bn = to_nat(a), to_nat(b)
        limb = mul(an, bn, GMP_POLICY, backend="limb")
        packed = mul(an, bn, GMP_POLICY, backend="packed")
        auto = mul(an, bn, GMP_POLICY)
        assert limb == packed == auto
        assert from_nat(limb) == a * b

    @pytest.mark.parametrize(
        "limbs", _band())
    def test_sqr_backends_agree_at_boundary(self, limbs):
        a = _operand(limbs, 3)
        an = to_nat(a)
        assert sqr(an, GMP_POLICY, backend="limb") \
            == sqr(an, GMP_POLICY, backend="packed") \
            == sqr(an, GMP_POLICY)
        assert from_nat(sqr(an, GMP_POLICY)) == a * a

    def test_kill_switch_forces_limb(self, reselect):
        reselect("0")
        assert select.auto_backend() == "limb"

    @given(a=naturals_of_bits(4096), b=naturals_of_bits(4096))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_hypothesis_mul_three_way(self, a, b):
        an, bn = to_nat(a), to_nat(b)
        packed = mul(an, bn, GMP_POLICY, backend="packed")
        assert packed == mul(an, bn, GMP_POLICY, backend="limb")
        assert from_nat(packed) == a * b


class TestDivCrossover:
    @pytest.mark.parametrize(
        "divisor_limbs", _band(NEWTON_DIVISOR_LIMBS))
    def test_backends_agree_at_boundary(self, divisor_limbs):
        a = _operand(2 * divisor_limbs + 3, 4)
        b = _operand(divisor_limbs, 5)
        an, bn = to_nat(a), to_nat(b)

        def limb_mul(x, y):
            return mul(x, y, GMP_POLICY, backend="limb")

        limb = divmod_nat(an, bn, limb_mul, backend="limb")
        packed = divmod_nat(an, bn, backend="packed")
        auto = divmod_nat(an, bn)
        assert limb == packed == auto
        quotient, remainder = packed
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    @given(a=naturals_of_bits(4096), b=naturals_of_bits(2048, 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_hypothesis_divmod_three_way(self, a, b):
        an, bn = to_nat(a), to_nat(b)
        packed = divmod_nat(an, bn, backend="packed")
        assert packed == divmod_nat(an, bn, backend="limb")
        assert (from_nat(packed[0]), from_nat(packed[1])) \
            == divmod(a, b)

    def test_mod_backends_agree(self):
        a, b = _operand(40, 6), _operand(9, 7)
        an, bn = to_nat(a), to_nat(b)
        assert mpn.mod(an, bn, backend="packed") \
            == mpn.mod(an, bn, backend="limb")
        assert from_nat(mpn.mod(an, bn)) == a % b


class TestServeLargeWidths:
    """The widths serve-large sends, where the packed kernels do all the
    work: mul at ``b = a/2`` and ``a = b``, sqr, and div 2n-by-n.

    Python ints are the oracle; the limb kernels join only up to
    ``LIMB_ORACLE_MAX_BITS`` (limb division at 96 kbit takes seconds).
    """

    @pytest.mark.parametrize("bits", SERVE_LARGE_BITS)
    def test_mul_shapes(self, bits):
        a, b, half = (_bits_operand(bits, 15), _bits_operand(bits, 16),
                      _bits_operand(bits // 2, 17))
        an = to_nat(a)
        for other in (b, half):
            packed = mul(an, to_nat(other), GMP_POLICY, backend="packed")
            assert from_nat(packed) == a * other
            if bits <= LIMB_ORACLE_MAX_BITS:
                assert packed == mul(an, to_nat(other), GMP_POLICY,
                                     backend="limb")
        squared = sqr(an, GMP_POLICY, backend="packed")
        assert from_nat(squared) == a * a
        if bits <= LIMB_ORACLE_MAX_BITS:
            assert squared == sqr(an, GMP_POLICY, backend="limb")

    @pytest.mark.parametrize("bits", SERVE_LARGE_BITS)
    def test_div_two_n_by_n(self, bits):
        a, b = _bits_operand(2 * bits, 18), _bits_operand(bits, 19)
        an, bn = to_nat(a), to_nat(b)
        packed = divmod_nat(an, bn, backend="packed")
        assert (from_nat(packed[0]), from_nat(packed[1])) == divmod(a, b)
        if bits <= LIMB_ORACLE_MAX_BITS:
            def limb_mul(x, y):
                return mul(x, y, GMP_POLICY, backend="limb")
            assert packed == divmod_nat(an, bn, limb_mul, backend="limb")


class TestServeLargeServedPath:
    """Requests shaped as serve-large sends them, an ``a`` of
    ``SERVE_LARGE_BITS`` over a ``b`` half as wide, checked against
    Python ``int`` through the executor the server runs
    (:func:`repro.plan.execute.run` on the lowered plan) and through
    the HTTP front door.  Under ``REPRO_PACKED=0`` the same requests
    run the limb kernels."""

    @staticmethod
    def _payloads():
        for bits in SERVE_LARGE_BITS:
            a = _bits_operand(bits, 21)
            b = _bits_operand(bits // 2, 22) | 1
            for op in ("mul", "div"):
                yield {"op": op, "params": {"a": hex(a), "b": hex(b)},
                       "id": "large-%s-%d" % (op, bits)}

    def test_executor_matches_int(self):
        for payload in self._payloads():
            params = {name: int(value, 16)
                      for name, value in payload["params"].items()}
            plan = plan_for_job(payload["op"], params)
            kernel = select.auto_backend()
            assert plan.backend == {"packed": "packed",
                                    "limb": "library"}[kernel]
            got = {name: hex(value)
                   for name, value in run(plan, params).items()}
            assert got == expected_result(payload), payload["id"]

    def test_front_door_matches_int(self):
        config = ServeConfig(port=0, max_wait_ms=60_000.0)
        with ServerThread(config) as server:
            client = ServeClient(server.host, server.port)
            for payload in self._payloads():
                status, body = client.request(payload)
                assert status == 200, (payload["id"], body)
                assert body["result"] == expected_result(payload), \
                    payload["id"]


#: Operand shapes around Cambricon-P's 35904-bit monolithic width
#: (1122 limbs, the block of the deleted block multiplier), as
#: ``(name, a limbs, b limbs)``: one block, a limb either side of it,
#: two blocks, the deleted block Karatsuba's threshold (two blocks) and
#: a block either side of it, and unbalanced shapes (a multi-block
#: ``a`` over a one-block and a few-limb ``b``).
_K = 1122
_MONOLITHIC_SHAPES = [
    ("1-block", _K, _K), ("1-block-1limb", _K - 1, _K - 1),
    ("1-block+1limb", _K + 1, _K + 1), ("1-block+1limb-over-1", _K + 1, 1),
    ("2-blocks", 2 * _K, 2 * _K),
    ("karatsuba-1block", _K, _K),
    ("karatsuba", 2 * _K, 2 * _K),
    ("karatsuba+1block", 3 * _K, 3 * _K),
    ("unbalanced-3x1", 3 * _K + 5, _K - 3),
    ("unbalanced-3xfew", 3 * _K + 1, 3),
]


_B = 1 << (LIMB_BITS * _K)

#: ``(name, a, b)``: the shapes as random operands, then powers of the
#: block base ``B`` (``B**2`` is three blocks, all but the top zero).
MONOLITHIC_PAIRS = [
    (name, _operand(la, 31), _operand(lb, 32))
    for name, la, lb in _MONOLITHIC_SHAPES] + [
    ("B^2-by-B^2-1", _B ** 2, _B ** 2 - 1), ("B^2-by-B", _B ** 2, _B),
    ("B-1-squared", _B - 1, _B - 1)]


class TestMonolithicWidth:
    """Products around Cambricon-P's 35904-bit monolithic width against
    Python ``int`` through the mpn dispatcher, the executor the server
    runs and the HTTP front door.  Under ``REPRO_PACKED=0`` the same
    requests run the limb kernels."""

    @pytest.mark.parametrize("name, a, b", MONOLITHIC_PAIRS,
                             ids=[pair[0] for pair in MONOLITHIC_PAIRS])
    def test_dispatcher_matches_int(self, name, a, b):
        an, bn = to_nat(a), to_nat(b)
        assert from_nat(mpn.mul(an, bn)) == a * b
        assert from_nat(mpn.mul(bn, an)) == a * b
        assert from_nat(mul(an, bn, GMP_POLICY, backend="packed")) \
            == a * b
        assert from_nat(sqr(an, GMP_POLICY, backend="packed")) == a * a

    def test_executor_matches_int(self):
        for name, a, b in MONOLITHIC_PAIRS:
            plan = plan_for_job("mul", {"a": a, "b": b})
            assert run(plan, {"a": a, "b": b}) == {"product": a * b}, name

    def test_front_door_matches_int(self):
        config = ServeConfig(port=0, max_wait_ms=60_000.0)
        with ServerThread(config) as server:
            client = ServeClient(server.host, server.port)
            for name, a, b in MONOLITHIC_PAIRS:
                payload = {"op": "mul", "id": "monolithic-" + name,
                           "params": {"a": hex(a), "b": hex(b)}}
                status, body = client.request(payload)
                assert status == 200, (name, body)
                assert body["result"] == expected_result(payload), name


_MEGABIT = 1 << 20

#: ``(name, a, b)`` at the int boundary: zero and one operands, a 1-bit
#: by 1-Mbit product both ways, a square, and the deleted block
#: multiplier's one- and two-block edges as literal widths (35904 and
#: 71808 bits, a bit either side), balanced and over a half-width ``b``.
INT_BOUNDARY_PAIRS = [
    ("zero-by-zero", 0, 0), ("zero-by-wide", 0, _bits_operand(40000, 71)),
    ("wide-by-zero", _bits_operand(40000, 71), 0), ("one-by-one", 1, 1),
    ("one-by-wide", 1, _bits_operand(40000, 72)),
    ("1bit-by-1mbit", 1, _bits_operand(_MEGABIT, 73)),
    ("1mbit-by-1bit", _bits_operand(_MEGABIT, 73), 1),
    ("square-35904", _bits_operand(35904, 74), _bits_operand(35904, 74)),
] + [
    ("%d-bits%s" % (bits, shape), _bits_operand(bits, 75),
     _bits_operand(bits // divisor, 76))
    for bits in (35903, 35904, 35905, 71807, 71808, 71809)
    for shape, divisor in (("", 1), ("-over-half", 2))]

#: ``(name, base, exp, mod)``: modulus 1, exponent 0 (with a zero base
#: too), even moduli, bases at and above the modulus, and the 256-bit
#: block edges of the deleted powmod ladder.
INT_BOUNDARY_POWMODS = [
    ("mod-1", 12345, 65537, 1), ("mod-1-exp-0", 5, 0, 1),
    ("exp-0", 12345, 0, 1000003), ("zero-to-zero", 0, 0, 7),
    ("zero-base", 0, 3, 7), ("even-mod", 3, 65537, 1 << 20),
    ("even-mod-wide", _bits_operand(600, 77), 0xABCDEF,
     _bits_operand(512, 78) & ~1),
    ("base-is-mod", 1000003, 17, 1000003),
    ("base-above-mod", 5 * 1000003 + 2, 17, 1000003),
    ("wide-base-over-even", _bits_operand(2000, 79), 65537,
     _bits_operand(256, 80) & ~1),
    ("mod-2^256-1", 3, (1 << 130) - 1, (1 << 256) - 1),
    ("mod-2^256+1", 3, (1 << 130) - 1, (1 << 256) + 1),
]


class TestIntBoundary:
    """Packed mul/sqr/powmod run on whole ints (one CPython product,
    ``pow``); limb-list callers convert once each way.  Every case is
    bit-identical to Python ``int`` through the mpn dispatchers with
    packed pinned, the executor the server runs, and the HTTP front
    door, with packed live and killswitched."""

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_dispatcher_matches_int(self, killswitch, reselect):
        reselect(killswitch)
        for name, a, b in INT_BOUNDARY_PAIRS:
            an, bn = to_nat(a), to_nat(b)
            assert from_nat(mul(an, bn, GMP_POLICY, backend="packed")) \
                == a * b, name
            assert from_nat(mul(an, an, GMP_POLICY, backend="packed")) \
                == a * a, name
            assert from_nat(sqr(an, GMP_POLICY, backend="packed")) \
                == a * a, name
        for name, base, exponent, modulus in INT_BOUNDARY_POWMODS:
            assert from_nat(mpn.powmod(
                to_nat(base), to_nat(exponent), to_nat(modulus),
                backend="packed")) == pow(base, exponent, modulus), name
        with pytest.raises(MpnError, match="zero modulus"):
            mpn.powmod(to_nat(3), to_nat(5), [], backend="packed")

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_executor_matches_int(self, killswitch, reselect,
                                  fresh_plans):
        reselect(killswitch)
        for name, a, b in INT_BOUNDARY_PAIRS:
            plan = plan_for_job("mul", {"a": a, "b": b})
            assert run(plan, {"a": a, "b": b}) == {"product": a * b}, name
            if a.bit_length() < _MEGABIT:
                # a is b: the square the server runs on one object.
                plan = plan_for_job("mul", {"a": a, "b": a})
                assert run(plan, {"a": a, "b": a}) \
                    == {"product": a * a}, name
        for name, base, exponent, modulus in INT_BOUNDARY_POWMODS:
            params = {"base": base, "exp": exponent, "mod": modulus}
            plan = plan_for_job("powmod", params)
            assert plan.backend == ("packed" if killswitch == "1"
                                    else "library"), name
            assert run(plan, params) \
                == {"value": pow(base, exponent, modulus)}, name
        plan = plan_for_job("powmod", {"base": 3, "exp": 5, "mod": 0},
                            backend="packed")
        with pytest.raises(MpnError, match="zero modulus"):
            run(plan, {"base": 3, "exp": 5, "mod": 0})

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_front_door_matches_int(self, killswitch, reselect,
                                    fresh_plans):
        reselect(killswitch)
        payloads = [{"op": "mul", "id": "int-" + name,
                     "params": {"a": hex(a), "b": hex(b)}}
                    for name, a, b in INT_BOUNDARY_PAIRS]
        payloads += [{"op": "powmod", "id": "int-" + name,
                      "params": {"base": hex(base), "exp": hex(exponent),
                                 "mod": hex(modulus)}}
                     for name, base, exponent, modulus
                     in INT_BOUNDARY_POWMODS]
        config = ServeConfig(port=0, max_wait_ms=60_000.0)
        with ServerThread(config) as server:
            client = ServeClient(server.host, server.port)
            for payload in payloads:
                status, body = client.request(payload)
                assert status == 200, (payload["id"], body)
                assert body["result"] == expected_result(payload), \
                    payload["id"]


_C = DIV_RECURSION_BITS

#: ``(name, a, b)`` around packed division's recursion: the divisor a
#: bit either side of ``DIV_RECURSION_BITS`` under a twice-wider
#: dividend, the dividend a bit either side of that many bits wider
#: than a 3-cutoff divisor, ``a < b`` (q = 0), all-ones dividends and
#: divisors, power-of-two and one-limb divisors, a 1-Mbit dividend over
#: a 5-kbit divisor, and 2n/n at 96 kbit.
RECURSION_CASES = [
    ("divisor-cutoff-1", _bits_operand(2 * _C - 2, 41),
     _bits_operand(_C - 1, 42)),
    ("divisor-cutoff+1", _bits_operand(2 * _C + 2, 41),
     _bits_operand(_C + 1, 42)),
    ("gap-cutoff-1", _bits_operand(4 * _C - 1, 43),
     _bits_operand(3 * _C, 44)),
    ("gap-cutoff+1", _bits_operand(4 * _C + 1, 43),
     _bits_operand(3 * _C, 44)),
    ("a-below-b", _bits_operand(20000, 45) - 1, _bits_operand(20000, 45)),
    ("zero-dividend", 0, _bits_operand(20000, 45)),
    ("ones-over-ones", (1 << 40000) - 1, (1 << 20000) - 1),
    ("ones-over-random", (1 << 40000) - 1, _bits_operand(20000, 46)),
    ("random-over-ones", _bits_operand(40000, 47), (1 << 20000) - 1),
    ("power-of-two-divisor", _bits_operand(40000, 48), 1 << 20000),
    ("power-of-two-divisor-cutoff", _bits_operand(3 * _C, 49), 1 << _C),
    ("one-limb-divisor", _bits_operand(40000, 50), (1 << LIMB_BITS) - 1),
    ("divisor-3", _bits_operand(40000, 51), 3),
    ("1mbit-over-5kbit", _bits_operand(1 << 20, 52),
     _bits_operand(5000, 53)),
    ("2n-over-n-96kbit", _bits_operand(96 * 1024, 54),
     _bits_operand(48 * 1024, 55)),
]

#: Rows the limb kernels take tens of seconds on (Newton division of a
#: 1-Mbit dividend), skipped where the killswitch sends them there.
_LIMB_SLOW = frozenset({"1mbit-over-5kbit"})


def _recursion_cases(killswitch: str):
    return [case for case in RECURSION_CASES
            if killswitch == "1" or case[0] not in _LIMB_SLOW]


class TestRecursiveDivisionEntryPoints:
    """:data:`RECURSION_CASES` against ``divmod`` through the mpn
    dispatcher with packed pinned, the executor the server runs, and
    the HTTP front door, with packed live and killswitched.  With
    packed killswitched the executor and the front door run the limb
    kernels, which take about 24 s on the 1-Mbit row, so that row runs
    there only with packed live.  A zero divisor raises the same
    ``MpnError`` at the dispatcher and the executor, and the front door
    answers it with the same 400."""

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_dispatcher_matches_divmod(self, killswitch, reselect):
        reselect(killswitch)
        for name, a, b in RECURSION_CASES:
            quotient, remainder = divmod_nat(to_nat(a), to_nat(b),
                                             backend="packed")
            assert (from_nat(quotient), from_nat(remainder)) \
                == divmod(a, b), name
        for backend in ("packed", "limb", "auto"):
            with pytest.raises(MpnError, match="division by zero"):
                divmod_nat(to_nat(5), [], backend=backend)

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_executor_matches_divmod(self, killswitch, reselect,
                                     fresh_plans):
        reselect(killswitch)
        for name, a, b in _recursion_cases(killswitch):
            params = {"a": a, "b": b}
            kernel = select.auto_backend()
            for op in ("div", "mod"):
                plan = plan_for_job(op, params)
                if kernel == "packed":
                    assert plan.algorithm == "packed-recursive", name
                else:
                    assert plan.backend == "library", name
                quotient, remainder = divmod(a, b)
                expected = {"remainder": remainder} if op == "mod" \
                    else {"quotient": quotient, "remainder": remainder}
                assert run(plan, params) == expected, (op, name)
        for backend in ("packed", "library"):
            plan = plan_for_job("div", {"a": 5, "b": 0}, backend=backend)
            with pytest.raises(MpnError, match="division by zero"):
                run(plan, {"a": 5, "b": 0})

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_front_door_matches_divmod(self, killswitch, reselect,
                                       fresh_plans):
        reselect(killswitch)
        config = ServeConfig(port=0, max_wait_ms=60_000.0)
        with ServerThread(config) as server:
            client = ServeClient(server.host, server.port)
            for name, a, b in _recursion_cases(killswitch):
                payload = {"op": "div", "id": "recursion-" + name,
                           "params": {"a": hex(a), "b": hex(b)}}
                status, body = client.request(payload)
                assert status == 200, (name, body)
                assert body["result"] == expected_result(payload), name
            status, body = client.request(
                {"op": "div", "id": "recursion-zero",
                 "params": {"a": "0x5", "b": "0x0"}})
        assert status == 400
        assert body["error"] == "invalid:zero-divisor"


class TestLinearKernelRouting:
    """add/shl/shr auto-route to packed above LINEAR_PACK_MIN_LIMBS;
    either way the dispatcher result must match bigints."""

    @pytest.mark.parametrize("limbs", (LINEAR_PACK_MIN_LIMBS - 1,
                                       LINEAR_PACK_MIN_LIMBS,
                                       LINEAR_PACK_MIN_LIMBS + 1))
    def test_add_straddles_the_gate(self, limbs):
        a, b = _operand(limbs, 8), _operand(limbs, 9)
        assert from_nat(mpn.add(to_nat(a), to_nat(b))) == a + b
        # All-ones: the carry ripples across every block boundary.
        ones = (1 << (32 * limbs)) - 1
        assert from_nat(mpn.add(to_nat(ones), to_nat(1))) == ones + 1

    @pytest.mark.parametrize("count", (0, 1, 31, 32, 255, 256, 257,
                                       1023, 1024, 1025, 5000))
    def test_shifts_straddle_the_gate(self, count):
        for limbs in (LINEAR_PACK_MIN_LIMBS - 1,
                      LINEAR_PACK_MIN_LIMBS + 1):
            a = _operand(limbs, 10)
            assert from_nat(mpn.shl(to_nat(a), count)) == a << count
            assert from_nat(mpn.shr(to_nat(a), count)) == a >> count


class TestPlanLayer:
    def test_packed_plan_matches_library_plan(self):
        a, b = _operand(64, 11), _operand(64, 12)
        spec_args = (a.bit_length(), b.bit_length())
        packed = lower(OpSpec.for_mul(*spec_args, backend="packed"),
                       use_cache=False)
        library = lower(OpSpec.for_mul(*spec_args, backend="library"),
                        use_cache=False)
        assert packed.backend == "packed"
        payload = run(packed, {"a": a, "b": b})
        assert payload["product"] == run(library,
                                         {"a": a, "b": b})["product"]
        assert payload["product"] == a * b

    def test_packed_div_plan_matches_bigint(self):
        a, b = _operand(96, 13), _operand(40, 14)
        plan = lower(OpSpec("div", a.bit_length(), b.bit_length(),
                            backend="packed"), use_cache=False)
        payload = run(plan, {"a": a, "b": b})
        assert (payload["quotient"], payload["remainder"]) \
            == divmod(a, b)

    def test_memo_key_separates_backends(self):
        spec_args = (64 * 32, 64 * 32)
        packed = lower(OpSpec.for_mul(*spec_args, backend="packed"),
                       use_cache=False)
        library = lower(OpSpec.for_mul(*spec_args, backend="library"),
                        use_cache=False)
        assert packed.memo_key != library.memo_key


def _powmod_params(limbs: int, parity: str, seed: int):
    modulus = _operand(limbs, seed)
    modulus = modulus | 1 if parity == "odd" else modulus & ~1
    return {"base": _operand(limbs + 1, seed + 1),
            "exp": _operand(1, seed + 2) & 0xFFFF | 1, "mod": modulus}


#: The plan algorithm of each (backend, modulus parity).
POWMOD_ALGORITHMS = {
    ("packed", "odd"): "packed-pow",
    ("packed", "even"): "packed-pow",
    ("library", "odd"): "montgomery",
    ("library", "even"): "binary-division",
}


class TestPowmodEntryPoints:
    @pytest.mark.parametrize("parity", ("odd", "even"))
    @pytest.mark.parametrize("limbs", POWMOD_LIMBS)
    def test_every_entry_point_matches_pow(self, limbs, parity):
        params = _powmod_params(limbs, parity, 30 + limbs)
        truth = pow(params["base"], params["exp"], params["mod"])
        operands = [to_nat(params[key]) for key in ("base", "exp", "mod")]
        for backend in ("auto", "packed", "limb"):
            assert from_nat(mpn.powmod(*operands, backend=backend)) \
                == truth, backend
        assert run(plan_for_job("powmod", params), params)["value"] \
            == truth

    @pytest.mark.parametrize("killswitch,expected",
                             [("1", "packed"), ("0", "library")])
    def test_plan_backend_is_what_auto_runs(self, killswitch, expected,
                                            monkeypatch, reselect,
                                            fresh_plans):
        reselect(killswitch)
        ran = []

        def recording(kernel, backend):
            def wrapper(*args, **kwargs):
                ran.append(backend)
                return kernel(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(packed_kernels, "powmod_packed",
                            recording(packed_kernels.powmod_packed,
                                      "packed"))
        monkeypatch.setattr(montgomery, "powmod",
                            recording(montgomery.powmod, "library"))
        for limbs in POWMOD_LIMBS:
            for parity in ("odd", "even"):
                params = _powmod_params(limbs, parity, 60 + limbs)
                plan = plan_for_job("powmod", params)
                ran.clear()
                mpn.powmod(*[to_nat(params[key])
                             for key in ("base", "exp", "mod")])
                assert ran == [plan.backend] == [expected], (limbs,
                                                             parity)
                assert plan.algorithm == POWMOD_ALGORITHMS[expected, parity]

    @pytest.mark.parametrize("parity", ("odd", "even"))
    def test_plan_is_one_pow_step(self, parity, reselect, fresh_plans):
        """At every modulus width, across the deleted ladder's 256-bit
        block edges, the packed plan is one ``packed-pow`` step, and
        every plan answers ``pow``."""
        reselect("1")
        for bits in (255, 256, 257, 512, 513, 4096):
            modulus = _bits_operand(bits, 23)
            modulus = modulus | 1 if parity == "odd" else modulus & ~1
            params = {"base": _bits_operand(bits + 40, 24),
                      "exp": 0x10001, "mod": modulus}
            plan = plan_for_job("powmod", params)
            assert plan.algorithm == POWMOD_ALGORITHMS["packed", parity]
            assert [step.describe() for step in plan.steps] \
                == ["kernel:packed-pow (CPython pow)"], bits
            assert run(plan, params)["value"] \
                == pow(params["base"], params["exp"], modulus)

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_parity_only_in_library_specs(self, killswitch, reselect,
                                          fresh_plans):
        """``pow`` takes either parity, so odd and even moduli share one
        packed plan; a library plan still keys on the parity it runs."""
        reselect(killswitch)
        odd = {"base": 5, "exp": 0x10001, "mod": _bits_operand(2048, 25) | 1}
        even = dict(odd, mod=odd["mod"] - 1)
        auto = [plan_for_job("powmod", params) for params in (odd, even)]
        library = [plan_for_job("powmod", params, backend="library")
                   for params in (odd, even)]
        assert [plan.spec.detail_value("mod_odd", None)
                for plan in library] == [1, 0]
        if killswitch == "1":
            assert auto[0].spec == auto[1].spec
            assert auto[0].spec.detail == ()
        else:
            assert [plan.memo_key for plan in auto] \
                == [plan.memo_key for plan in library]
        packed = [plan_for_job("powmod", params, backend="packed")
                  for params in (odd, even)]
        assert packed[0].spec == packed[1].spec

    @pytest.mark.parametrize("parity", ("odd", "even"))
    def test_library_plan_runs_no_packed_division(self, parity,
                                                  monkeypatch, reselect,
                                                  fresh_plans):
        # Packed is live, so an ``auto`` division of a 600-bit modulus
        # would run packed division; a library plan must reduce on the
        # limb kernels it priced.
        reselect("1")
        packed_divisions = []

        def recording(*args, **kwargs):
            packed_divisions.append(len(args[1]))
            return packed_kernels.divmod_packed(*args, **kwargs)

        monkeypatch.setattr(div_kernels, "divmod_packed", recording)
        modulus = _bits_operand(600, 7)
        modulus = modulus | 1 if parity == "odd" else modulus & ~1
        params = {"base": _bits_operand(700, 8), "exp": 0xABCDEF,
                  "mod": modulus}
        plan = plan_for_job("powmod", params, backend="library")
        assert plan.algorithm == POWMOD_ALGORITHMS["library", parity]
        assert run(plan, params)["value"] \
            == pow(params["base"], params["exp"], modulus)
        assert packed_divisions == []
