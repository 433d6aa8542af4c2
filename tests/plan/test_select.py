"""plan.select: the one crossover-lookup module, checked against the
kernel-side constants and policies it replaced, and the size-free
``auto`` backend choice."""

import importlib
import os

import pytest

from repro import mpn
from repro.apps import pi
from repro.mpn import burnikel_ziegler as bz_mod
from repro.mpn import div as div_mod
from repro.mpn.mul import GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY
from repro.mpn.nat import LIMB_BITS, nat_from_int, nat_to_int
from repro.plan import OpSpec, select
from repro.plan.lowering import lower
from repro.plan.schedule import derive_schedule


class TestMulLadder:
    @pytest.mark.parametrize("policy",
                             [GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY])
    def test_matches_policy_dispatch(self, policy):
        for limbs in (1, 2, 7, 8, 30, 31, 32, 99, 100, 1121, 1122,
                      3000, 5000, 50000):
            assert select.mul_algorithm(limbs, policy) \
                == policy.algorithm_for(limbs)

    def test_below_every_threshold_is_basecase(self):
        assert select.mul_algorithm(1, GMP_POLICY) == "basecase"

    def test_chain_descends_to_basecase(self):
        chain = select.mul_chain(50000, GMP_POLICY)
        assert chain[-1][0] == "basecase"
        sizes = [limbs for _, limbs in chain]
        assert sizes == sorted(sizes, reverse=True)

    def test_chain_ssa_steps_to_regime_boundary(self):
        chain = select.mul_chain(10 * GMP_POLICY.ssa_limbs, GMP_POLICY)
        assert chain[0][0] == "ssa"
        assert chain[1][1] == GMP_POLICY.ssa_limbs - 1


class TestDivisionCrossovers:
    def test_div_default_reads_kernel_threshold_at_call_time(self):
        threshold = div_mod.NEWTON_DIV_THRESHOLD_BITS
        assert select.div_algorithm(threshold) == "schoolbook"
        assert select.div_algorithm(threshold + 1) == "newton"

    def test_div_override_wins(self):
        assert select.div_algorithm(100, newton_threshold_bits=64) \
            == "newton"
        assert select.div_algorithm(100, newton_threshold_bits=128) \
            == "schoolbook"

    def test_div_without_mul_fn_is_schoolbook(self):
        assert select.div_algorithm(1 << 20, has_mul_fn=False) \
            == "schoolbook"

    def test_bz_default_reads_kernel_threshold(self):
        threshold = bz_mod.BZ_THRESHOLD_LIMBS
        assert select.bz_algorithm(threshold - 1) == "schoolbook"
        assert select.bz_algorithm(threshold) == "burnikel-ziegler"


class TestFingerprint:
    def test_covers_every_crossover(self):
        policy = select.active()
        assert policy is PYTHON_POLICY
        assert select.fingerprint(policy) == (
            policy.karatsuba_limbs, policy.toom3_limbs,
            policy.toom4_limbs, policy.toom6_limbs, policy.ssa_limbs)
        assert select.fingerprint() == select.fingerprint(policy)

    def test_other_policy_fingerprints_its_own_ladder(self):
        fp = select.fingerprint(MPAPCA_POLICY)
        assert fp[0] == MPAPCA_POLICY.karatsuba_limbs
        assert fp != select.fingerprint()


class TestReadOncePerProcess:
    """``REPRO_PACKED`` is read once per process: the served path does
    no file or environment I/O."""

    def test_no_stat_and_no_selection_env_read_per_call(self,
                                                        monkeypatch):
        a, b = nat_from_int(3 ** 160), nat_from_int(7 ** 90)  # 8, 8 limbs

        def served_path():
            lower(OpSpec.for_mul(4096, 4096))
            lower(OpSpec.for_mul(256, 256), use_cache=False)
            mpn.mul(a, b)
            mpn.divmod_nat(a, b)
            mpn.powmod(a, b, b)
            pi.run(50)

        served_path()                       # warm-up: first reads here
        stats, reads = [], []
        real_stat, real_get = os.stat, os.environ.get
        monkeypatch.setattr(os, "stat", lambda *args, **kwargs: (
            stats.append(args), real_stat(*args, **kwargs))[1])
        monkeypatch.setattr(os.environ, "get", lambda name, *default: (
            reads.append(name), real_get(name, *default))[1])
        served_path()
        monkeypatch.undo()
        assert stats == []
        assert "REPRO_PACKED" not in reads

    def test_killswitch_is_read_once_per_process(self, monkeypatch,
                                                 reselect):
        reselect("1")
        assert select.auto_backend() == "packed"
        monkeypatch.setenv(select.PACKED_ENV, "0")
        assert select.auto_backend() == "packed"
        reselect("0")
        assert select.auto_backend() == "limb"


#: Operand widths in bits: one bit, one full limb, one limb plus a
#: bit, and four limbs (the old packed crossover).
WIDTHS = (1, 32, 33, 128)


def _operand(bits):
    return nat_from_int((1 << bits) - 1)


class TestPackedAtEveryWidth:
    """``auto`` mul and div are packed from one bit up through all
    three layers that resolve a backend — :func:`lower`,
    :func:`derive_schedule` and the mpn dispatchers — and limb under
    ``REPRO_PACKED=0``."""

    @pytest.mark.parametrize("killswitch", ("1", "0"))
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_auto_backend_at_width(self, bits, killswitch, monkeypatch,
                                   reselect, fresh_plans):
        reselect(killswitch)
        packed = killswitch == "1"
        limbs = -(-bits // LIMB_BITS)
        for spec in (OpSpec.for_mul(bits, bits),
                     OpSpec("div", 2 * bits, bits, "auto")):
            assert lower(spec).backend \
                == ("packed" if packed else "library"), spec
        for op in ("mul", "div"):
            leaf = derive_schedule(op, limbs).leaf().algorithm
            assert (leaf == "packed") == packed, (op, leaf)

        ran = []
        for module, name in (("repro.mpn.mul", "mul_packed"),
                             ("repro.mpn.div", "divmod_packed")):
            module = importlib.import_module(module)
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _k=kernel,
                                _n=name: (ran.append(_n), _k(*args))[1])
        a = _operand(bits)
        b = _operand(bits)
        dividend = _operand(2 * bits)
        assert nat_to_int(mpn.mul(a, b)) == nat_to_int(a) * nat_to_int(b)
        quotient, remainder = mpn.divmod_nat(dividend, b)
        assert (nat_to_int(quotient), nat_to_int(remainder)) \
            == divmod(nat_to_int(dividend), nat_to_int(b))
        assert ran == (["mul_packed", "divmod_packed"] if packed else [])
