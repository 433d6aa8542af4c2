"""repro.mpn.packed: block representation and kernel unit tests.

The packed kernels are *re-representations* of the limb kernels, so the
tests here are about the representation itself: pack/unpack round
trips at awkward lengths, carry chains that cross block boundaries,
normalization, the whole-int entries and their limb-list wrappers at
the widths the deleted block kernels had edges at, and the error
vocabulary.  Cross-backend equivalence at dispatcher level lives in
``tests/differential/test_packed_paths.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpn import nat
from repro.mpn import packed as packed_kernels
from repro.mpn.nat import LIMB_BITS, MpnError
from repro.mpn.packed import (DIV_RECURSION_BITS, PACK_LIMBS,
                              add_packed, divmod_packed,
                              divmod_packed_int, mul_packed,
                              mul_packed_int, pack_blocks,
                              powmod_packed, powmod_packed_int,
                              shl_packed, shr_packed, sqr_packed,
                              sub_packed, unpack_blocks)

from tests.conftest import from_nat, to_nat
from tests.differential.conftest import diff_examples

#: Width of Cambricon-P's monolithic multiplier in limbs (35904 bits),
#: the block the deleted block multiplier packed.
_WIDE_LIMBS = 1122

#: Block widths exercised everywhere: degenerate (k=1 is the limb
#: representation itself), odd, 256 bits, odd and wider than that,
#: add/sub/shift's default, and the monolithic width.
PACK_WIDTHS = (1, 2, 3, 8, 13, PACK_LIMBS, _WIDE_LIMBS)

#: Raw limb lists with interesting shapes: empty, odd tails
#: (``len % k != 0`` for every k above), saturated limbs, zero limbs
#: in the middle.
limb_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << LIMB_BITS) - 1),
    max_size=4 * PACK_LIMBS + 3)


#: 1024-bit block base the division fix-up operands were built for.
_B = 1 << 1024

#: Width in bits and base of the 256-bit block the deleted powmod
#: ladder ran on; its block edges stay as moduli.
_W = 256
_PB = 1 << _W


#: Division operands pinned from a seeded search over 1024-bit blocks
#: (B = the block base); each drove one repair path of the signed-digit
#: block division that packed division and even-modulus powmod once
#: ran, and ``divmod_packed`` must still answer them:
#:
#: * ``add-back``: the last digit overshoots, the remainder sweeps out
#:   negative and the divisor is added back once;
#: * ``subtract``: an exact multiple whose digits undershoot (one is
#:   -2), leaving a remainder >= the divisor that is subtracted once;
#: * ``negative-digit``: a mid-division overshoot repaired by a -1
#:   digit, with no final fix-up;
#: * ``tall-quotient``: an all-ones dividend over a two-block,
#:   near-power-of-two divisor, 65 quotient blocks of folds.
DIVISION_FIXUPS = {
    "add-back": (
        (_B // 2 + (_B // 2 - 1) * _B)
        * ((_B - 2) + (_B - 1) * _B + (_B - 1) * _B ** 2)
        + (_B - 2) + (_B - 1) * _B + (_B - 1) * _B ** 2 - 1,
        (_B - 2) + (_B - 1) * _B + (_B - 1) * _B ** 2),
    "subtract": (
        ((_B - 1) + (_B - 2) * _B + (_B // 2) * _B ** 2)
        * ((_B - 2) + (_B // 2 + 1) * _B + (_B // 2) * _B ** 2),
        (_B - 2) + (_B // 2 + 1) * _B + (_B // 2) * _B ** 2),
    "negative-digit": (
        (_B - 1) * (1 + _B + (_B - 1) * _B ** 2)
        + (1 + _B + (_B - 1) * _B ** 2) - 2,
        1 + _B + (_B - 1) * _B ** 2),
    "tall-quotient": (_B ** 66 - 1, _B * _B // 2 + 1),
}



class TestPackUnpack:
    @given(limbs=limb_lists, k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_round_trip_preserves_value(self, limbs, k):
        normalized = nat.normalize(list(limbs))
        assert unpack_blocks(pack_blocks(normalized, k), k) == normalized

    @given(limbs=limb_lists, k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_blocks_are_canonical_digits(self, limbs, k):
        """No trailing zero blocks; every block below base 2^(32k)."""
        blocks = pack_blocks(nat.normalize(list(limbs)), k)
        assert not blocks or blocks[-1] != 0
        assert all(0 <= block < (1 << (LIMB_BITS * k))
                   for block in blocks)

    @given(limbs=limb_lists, k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_blocks_spell_the_same_integer(self, limbs, k):
        normalized = nat.normalize(list(limbs))
        value = sum(block << (LIMB_BITS * k * i)
                    for i, block in enumerate(pack_blocks(normalized, k)))
        assert value == from_nat(normalized)

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_odd_tail_lengths(self, k):
        """Lengths straddling every multiple-of-k boundary round trip."""
        for length in (k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1):
            if length < 1:
                continue
            limbs = [(7 * i + 1) & 0xFFFF_FFFF for i in range(length)]
            limbs[-1] |= 1  # keep it normalized
            assert unpack_blocks(pack_blocks(limbs, k), k) == limbs

    def test_unpack_trims_leading_zero_limbs(self):
        """A top block narrower than k limbs must not grow the list."""
        assert unpack_blocks([1], PACK_LIMBS) == [1]
        assert unpack_blocks([1], _WIDE_LIMBS) == [1]
        assert unpack_blocks([0, 1], 2) == [0, 0, 1]
        assert unpack_blocks([5, 0], 3) == [5]
        assert unpack_blocks([7, 1 << 40], _WIDE_LIMBS) \
            == [7] + [0] * (_WIDE_LIMBS - 1) + [0, 1 << 8]

    def test_pack_trims_trailing_zero_blocks(self):
        # Unnormalized input is a caller bug elsewhere, but zero-valued
        # *blocks* arise legitimately from all-zero tails.
        assert pack_blocks([], 4) == []
        assert pack_blocks([0, 0, 0], 2) == []

    def test_zero_is_the_empty_list_both_ways(self):
        assert pack_blocks([], PACK_LIMBS) == []
        assert unpack_blocks([], PACK_LIMBS) == []

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_all_ones_carry_chain_round_trip(self, k):
        for bits in (31, 32, 255, 256, 257, 511, 512, 513):
            value = (1 << bits) - 1
            assert from_nat(unpack_blocks(pack_blocks(to_nat(value), k),
                                          k)) == value

    def test_rejects_nonpositive_k(self):
        with pytest.raises(MpnError):
            pack_blocks([1], 0)
        with pytest.raises(MpnError):
            unpack_blocks([1], -3)

    def test_rejects_out_of_range_limbs(self):
        with pytest.raises(MpnError):
            pack_blocks([1 << LIMB_BITS], 2)
        with pytest.raises(MpnError):
            pack_blocks([-1], 2)

    def test_rejects_out_of_range_blocks(self):
        with pytest.raises(MpnError):
            unpack_blocks([1 << (LIMB_BITS * 2)], 2)
        with pytest.raises(MpnError):
            unpack_blocks([-1], 2)
        # The top block encodes at its own length; a too-wide or
        # negative one is still rejected at the wide mul width.
        wide = LIMB_BITS * _WIDE_LIMBS
        for blocks in ([1 << wide], [5, 1 << wide], [(1 << wide) + 7],
                       [3, (1 << (wide + 100)) - 1], [5, -1], [-(1 << 40)]):
            with pytest.raises(MpnError):
                unpack_blocks(blocks, _WIDE_LIMBS)
        assert unpack_blocks([(1 << wide) - 1], _WIDE_LIMBS) \
            == [(1 << LIMB_BITS) - 1] * _WIDE_LIMBS


class TestArithmeticKernels:
    """Each public kernel against bigints across block widths."""

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           b=st.integers(min_value=0, max_value=(1 << 1200) - 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_mul_matches_bigint(self, a, b):
        assert mul_packed_int(a, b) == a * b
        assert from_nat(mul_packed(to_nat(a), to_nat(b))) == a * b

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_sqr_matches_bigint(self, a):
        assert mul_packed_int(a, a) == a * a
        assert from_nat(sqr_packed(to_nat(a))) == a * a

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           b=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_add_sub_match_bigints(self, a, b, k):
        assert from_nat(add_packed(to_nat(a), to_nat(b), k)) == a + b
        low, high = sorted((a, b))
        assert from_nat(sub_packed(to_nat(high), to_nat(low), k)) \
            == high - low

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           count=st.integers(min_value=0, max_value=600),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_shifts_match_bigints(self, a, count, k):
        assert from_nat(shl_packed(to_nat(a), count, k)) == a << count
        assert from_nat(shr_packed(to_nat(a), count, k)) == a >> count

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           b=st.integers(min_value=1, max_value=(1 << 700) - 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_divmod_matches_bigint(self, a, b):
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_all_ones_carry_chains(self, k):
        """Worst-case carry propagation across every block boundary of
        the add, and all-ones products (every bit of the product set
        but its middle) at the same widths."""
        bits = LIMB_BITS * k
        for width in (bits - 1, bits, bits + 1, 2 * bits, 3 * bits - 1,
                      3 * bits, 3 * bits + 17, 5 * bits):
            a = (1 << width) - 1
            assert from_nat(add_packed(to_nat(a), to_nat(1), k)) == a + 1
            assert from_nat(mul_packed(to_nat(a), to_nat(a))) == a * a
            half = (1 << (width // 2 + 1)) - 1
            assert from_nat(mul_packed(to_nat(a), to_nat(half))) \
                == a * half

    def test_divmod_add_back_case(self):
        """The classic Knuth D6 trigger, scaled to block base B: the
        one-block estimate for ``(B//2)*B^2 + (B-2)*B`` over
        ``(B//2)*B + (B-1)`` is one too large; the quotient digit is
        the top of the range, ``B - 1``."""
        a = (_B // 2) * _B * _B + (_B - 2) * _B
        b = (_B // 2) * _B + (_B - 1)
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)
        assert divmod_packed_int(a, b) == divmod(a, b)

    @pytest.mark.parametrize("case", sorted(DIVISION_FIXUPS))
    def test_divmod_fixup_paths(self, case):
        """Operands (found by a seeded search over block-structured
        quotients, divisors and remainders) that drove each repair path
        of the deleted signed-digit division, as regression inputs."""
        a, b = DIVISION_FIXUPS[case]
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)
        if case == "tall-quotient":
            assert len(pack_blocks(quotient)) >= 64
        assert divmod_packed_int(a, b) == divmod(a, b)

    def test_single_block_divisor_path(self):
        """A divisor narrower than one 1024-bit block under a four-block
        dividend."""
        a = (1 << 4096) - 123
        b = (1 << 200) - 1
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)
        assert divmod_packed_int(a, b) == divmod(a, b)

    def test_small_dividend_short_circuit(self):
        quotient, remainder = divmod_packed(to_nat(5), to_nat(7))
        assert quotient == [] and from_nat(remainder) == 5

    def test_results_are_normalized(self):
        for result in (mul_packed(to_nat((1 << 64) - 1), to_nat(1)),
                       add_packed(to_nat(1 << 511), to_nat(1)),
                       sub_packed(to_nat(1 << 512), to_nat(1)),
                       shr_packed(to_nat(1 << 512), 500)):
            assert result == nat.normalize(list(result))

    def test_error_vocabulary(self):
        for kernel, args in ((mul_packed_int, (-1, 3)),
                             (mul_packed_int, (3, -1)),
                             (powmod_packed_int, (-1, 3, 5)),
                             (powmod_packed_int, (3, -1, 5)),
                             (powmod_packed_int, (3, 1, -5))):
            with pytest.raises(MpnError, match="negative"):
                kernel(*args)
        with pytest.raises(MpnError):
            sub_packed(to_nat(3), to_nat(5))
        with pytest.raises(MpnError):
            divmod_packed(to_nat(3), [])
        with pytest.raises(MpnError):
            shl_packed(to_nat(3), -1)
        with pytest.raises(MpnError):
            shr_packed(to_nat(3), -1)

    def test_zero_operands(self):
        assert mul_packed_int(0, 9) == mul_packed_int(9, 0) == 0
        assert mul_packed([], to_nat(9)) == []
        assert mul_packed(to_nat(9), []) == []
        assert sqr_packed([]) == []
        assert add_packed([], to_nat(9)) == to_nat(9)
        assert sub_packed(to_nat(9), []) == to_nat(9)
        assert shl_packed([], 40) == []
        assert shr_packed([], 40) == []


#: Moduli at the deleted powmod ladder's 256-bit block boundaries and
#: with all-ones blocks, both parities.  Ids spell the block base
#: ``2^W`` in bits.
POWMOD_MODULI = [
    pytest.param(value, id=name) for name, value in (
        ("1", 1), ("2", 2), ("3", 3),
        ("2^%d-1" % _W, _PB - 1), ("2^%d+1" % _W, _PB + 1),
        ("2^%d-1" % (2 * _W), _PB ** 2 - 1),
        ("2^%d" % (_W - 1), _PB // 2), ("2^%d" % _W, _PB),
        ("2^%d" % (_W + 1), 2 * _PB), ("2^%d" % (2 * _W), _PB ** 2),
        ("2^32", 1 << 32), ("3*2^%d" % _W, 3 * _PB),
        ("mixed-3-blocks", (_PB - 1) * _PB ** 2 + 5),
    )]


_C = DIV_RECURSION_BITS


def _wide(bits: int, seed: int) -> int:
    """A random natural of exactly ``bits`` bits."""
    rng = random.Random(0xD1 ^ seed ^ bits)
    return rng.getrandbits(bits) | (1 << (bits - 1))


class TestRecursiveDivision:
    """:func:`divmod_packed_int`, the Burnikel–Ziegler recursion packed
    div/mod run on whole ints, against ``divmod``."""

    @pytest.mark.parametrize("divisor_bits, gap_bits, recursed", [
        (_C - 1, _C + 64, False), (_C, _C + 64, True),
        (_C + 1, _C + 64, True), (3 * _C, _C - 1, False),
        (3 * _C, _C, True), (3 * _C, _C + 1, True)])
    def test_cutoff_edges(self, divisor_bits, gap_bits, recursed,
                          monkeypatch):
        """One ``divmod`` while the divisor is narrower than the cutoff
        or the dividend is less than the cutoff wider than it; the
        recursion from either edge up."""
        split, calls = packed_kernels._div_digits, []

        def recording(*args):
            calls.append(args[2])
            return split(*args)

        monkeypatch.setattr(packed_kernels, "_div_digits", recording)
        a = _wide(divisor_bits + gap_bits, 1)
        b = _wide(divisor_bits, 2)
        assert divmod_packed_int(a, b) == divmod(a, b)
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)
        assert bool(calls) == recursed

    def test_estimate_repairs(self, monkeypatch):
        """Operand families that drive every repair of the 3n/2n step's
        estimate: the saturated estimate ``2**half - 1`` (dividend and
        divisor tops equal) exact and one high, and the top-half
        estimate exact, one high and two high."""
        step, seen = packed_kernels._div_3n2n, set()

        def recording(a12, a3, b, b_high, b_low, half):
            saturated = a12 >> half == b_high
            estimate = (1 << half) - 1 if saturated else a12 // b_high
            quotient, remainder = step(a12, a3, b, b_high, b_low, half)
            seen.add((saturated, estimate - quotient))
            return quotient, remainder

        monkeypatch.setattr(packed_kernels, "_div_3n2n", recording)
        rng = random.Random(11)
        for _ in range(16):
            n = _C + 1 + rng.randrange(64)
            top = 1 << (n - 1)
            # A near-maximal quotient over a random divisor.
            b = top | rng.getrandbits(n - 1)
            pairs = [(b * ((1 << n) - 1 - rng.randrange(4))
                      + rng.randrange(b), b)]
            # Just under the 2**n multiple of a divisor just over a
            # power of two: the tops agree.
            b = top + rng.randrange(256)
            pairs.append(((b << n) - 1 - rng.randrange(1 << 20), b))
            # A random dividend under a random divisor.
            b = top | rng.getrandbits(n - 1)
            pairs.append((rng.getrandbits(2 * n) % (b << n), b))
            for a, b in pairs:
                assert divmod_packed_int(a, b) == divmod(a, b)
        # The smallest top half over an all-ones bottom half, under a
        # dividend whose top equals that top half: the saturated
        # estimate is one high.
        half = _C // 2 + 8
        b_high = 1 << (half - 1)
        b = (b_high << half) | ((1 << half) - 1)
        a = (b_high << (3 * half)) | rng.getrandbits(2 * half)
        assert divmod_packed_int(a, b) == divmod(a, b)
        assert seen >= {(True, 0), (True, 1), (False, 0), (False, 1),
                        (False, 2)}

    @given(a=st.integers(min_value=0, max_value=(1 << 40000) - 1),
           b=st.integers(min_value=1, max_value=(1 << 20000) - 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_matches_divmod(self, a, b):
        assert divmod_packed_int(a, b) == divmod(a, b)

    def test_error_vocabulary(self):
        for a, b in ((3, 0), (0, 0)):
            with pytest.raises(MpnError, match="division by zero"):
                divmod_packed_int(a, b)
        for a, b in ((-1, 3), (3, -1)):
            with pytest.raises(MpnError, match="negative"):
                divmod_packed_int(a, b)


class TestPowmodPacked:
    """:func:`powmod_packed_int` and its limb-list wrapper
    ``powmod_packed`` against ``pow``, both modulus parities."""

    @pytest.mark.parametrize("modulus", POWMOD_MODULI)
    def test_edge_bases_and_exponents(self, modulus):
        bases = (0, 1, 2, modulus - 1, modulus, modulus + 1,
                 3 * modulus, _PB ** 3 + 12345, _PB ** 2 - 1)
        for base in bases:
            for exponent in (0, 1, 2, 3, 65537, (1 << 130) - 1):
                truth = pow(base, exponent, modulus)
                assert powmod_packed_int(base, exponent, modulus) \
                    == truth, (base, exponent, modulus)
                got = powmod_packed(to_nat(base), to_nat(exponent),
                                    to_nat(modulus))
                assert from_nat(got) == truth, (base, exponent, modulus)
                assert got == nat.normalize(list(got))

    @pytest.mark.parametrize("exponent_bits", range(1, 131))
    def test_every_window_width(self, exponent_bits):
        """Exponents of every width up to 130 bits, the range the
        deleted ladder's window table covered."""
        rng = random.Random(exponent_bits)
        exponent = rng.getrandbits(exponent_bits) | (1 << (exponent_bits - 1))
        for modulus in (_PB - 1, _PB + 1, _PB ** 2 - 1, 6 * _PB + 2):
            base = rng.getrandbits(600)
            assert from_nat(powmod_packed(
                to_nat(base), to_nat(exponent), to_nat(modulus))) \
                == pow(base, exponent, modulus)

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_block_widths(self, k):
        """Moduli a bit either side of every ``PACK_WIDTHS`` block
        width, and random ones, both parities."""
        rng = random.Random(k)
        bits = LIMB_BITS * k
        moduli = [(1 << bits) - 1, (1 << bits) + 1, 1 << bits,
                  rng.getrandbits(bits - 1) | 1 << (bits - 2) | 1]
        for _ in range(10):
            modulus = rng.getrandbits(rng.randrange(2, 900)) | 1
            moduli.append(modulus << rng.choice((0, 0, 1, 37)))
        for modulus in moduli:
            base, exponent = rng.getrandbits(bits + 64), rng.getrandbits(70)
            assert from_nat(powmod_packed(
                to_nat(base), to_nat(exponent), to_nat(modulus))) \
                == pow(base, exponent, modulus)

    @given(base=st.integers(min_value=0, max_value=(1 << 1100) - 1),
           exponent=st.integers(min_value=0, max_value=(1 << 140) - 1),
           modulus=st.integers(min_value=1, max_value=(1 << 1030) - 1),
           even_shift=st.sampled_from((0, 0, 1, 5, 256, 300)))
    @settings(max_examples=4 * diff_examples(), deadline=None)
    def test_hypothesis_both_parities(self, base, exponent, modulus,
                                      even_shift):
        modulus <<= even_shift
        assert from_nat(powmod_packed(to_nat(base), to_nat(exponent),
                                      to_nat(modulus))) \
            == pow(base, exponent, modulus)

    def test_zero_modulus_rejected(self):
        with pytest.raises(MpnError, match="zero modulus"):
            powmod_packed(to_nat(3), to_nat(5), [])
        for base, exponent in ((3, 5), (0, 0)):
            with pytest.raises(MpnError, match="zero modulus"):
                powmod_packed_int(base, exponent, 0)
