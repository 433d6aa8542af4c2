"""Error paths of the MPApca runtime: malformed widths, zero
divisors, oversized requests.

The serve layer leans on these pricers for admission control, so a
malformed query must raise a typed :class:`MpnError` rather than
returning a garbage estimate or spinning in the recursive cycle model.
"""

import pytest

from repro.mpn import MpnError, nat_from_int
from repro.runtime import HighLevelOps, MPApca, mpapca
from repro.runtime.mpapca import MODEL_MAX_QUERY_BITS


class TestMalformedWidths:
    @pytest.mark.parametrize("fn,args", [
        (mpapca.mul_cycles, (-1, 64)),
        (mpapca.mul_cycles, (64, -1)),
        (mpapca.add_cycles, (-5, 0)),
        (mpapca.div_cycles, (-1, 64)),
        (mpapca.div_cycles, (64, -2)),
        (mpapca.sqrt_cycles, (-64,)),
        (mpapca.powmod_cycles, (-1, 16)),
        (mpapca.powmod_cycles, (2048, -16)),
    ])
    def test_negative_widths_raise(self, fn, args):
        with pytest.raises(MpnError):
            fn(*args)

    @pytest.mark.parametrize("fn,args", [
        (mpapca.mul_cycles, (2.5, 64)),
        (mpapca.mul_cycles, (True, 64)),
        (mpapca.add_cycles, ("4096", 0)),
        (mpapca.div_cycles, (None, 64)),
    ])
    def test_non_integer_widths_raise(self, fn, args):
        with pytest.raises(MpnError):
            fn(*args)

    def test_bool_width_raises_after_its_int_twin_is_cached(self):
        # True == 1 hashes alike: the memo must not hand the 1-bit
        # price to a bool width.
        assert mpapca.mul_cycles(1, 64) > 0
        with pytest.raises(MpnError):
            mpapca.mul_cycles(True, 64)

    def test_zero_widths_stay_legal(self):
        # Traces record zero-width operands (e.g. multiplying by zero);
        # the pricers clamp rather than reject.
        assert mpapca.mul_cycles(0, 0) > 0
        assert mpapca.add_cycles(0, 0) > 0
        assert mpapca.div_cycles(0, 0) > 0


class TestOversizedRequests:
    @pytest.mark.parametrize("fn,args", [
        (mpapca.mul_cycles, (MODEL_MAX_QUERY_BITS + 1, 64)),
        (mpapca.add_cycles, (MODEL_MAX_QUERY_BITS * 2, 0)),
        (mpapca.div_cycles, (MODEL_MAX_QUERY_BITS + 1, 64)),
        (mpapca.sqrt_cycles, (MODEL_MAX_QUERY_BITS + 1,)),
        (mpapca.powmod_cycles, (64, MODEL_MAX_QUERY_BITS + 1)),
    ])
    def test_absurd_widths_raise(self, fn, args):
        with pytest.raises(MpnError):
            fn(*args)

    def test_ceiling_itself_is_still_priced(self):
        assert mpapca.add_cycles(MODEL_MAX_QUERY_BITS, 0) > 0


class TestRuntimeErrorPaths:
    def test_zero_divisor_raises(self):
        ops = HighLevelOps(MPApca())
        with pytest.raises(MpnError):
            ops.divide(nat_from_int(100), nat_from_int(0))

    def test_powmod_zero_modulus_raises(self):
        ops = HighLevelOps(MPApca())
        with pytest.raises(MpnError):
            ops.powmod(nat_from_int(2), nat_from_int(10),
                       nat_from_int(0))

    def test_powmod_even_modulus_raises(self):
        ops = HighLevelOps(MPApca())
        with pytest.raises(MpnError):
            ops.powmod(nat_from_int(2), nat_from_int(10),
                       nat_from_int(100))

    def test_redc_oversized_value_raises(self):
        ops = HighLevelOps(MPApca())
        modulus = nat_from_int((1 << 64) + 13)
        oversized = nat_from_int(1 << 300)
        with pytest.raises(MpnError):
            ops.montgomery_reduce(oversized, modulus)

    def test_redc_even_modulus_raises(self):
        ops = HighLevelOps(MPApca())
        with pytest.raises(MpnError):
            ops.montgomery_reduce(nat_from_int(5), nat_from_int(8))


class TestPricersStillWork:
    def test_well_formed_queries_are_positive_and_monotone(self):
        small = mpapca.mul_cycles(1024, 1024)
        large = mpapca.mul_cycles(1 << 20, 1 << 20)
        assert 0 < small < large
        assert mpapca.powmod_cycles(2048, 2048) > \
            mpapca.powmod_cycles(2048, 16)
