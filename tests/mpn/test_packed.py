"""repro.mpn.packed: block representation and kernel unit tests.

The packed kernels are *re-representations* of the limb kernels, so the
tests here are about the representation itself: pack/unpack round
trips at awkward lengths, carry chains that cross block boundaries,
normalization, and the error vocabulary.  Cross-backend equivalence at
dispatcher level lives in ``tests/differential/test_packed_paths.py``.
"""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import DEFAULT_CONFIG
from repro.mpn import nat
from repro.mpn import packed as packed_kernels
from repro.mpn.mul import MPAPCA_POLICY
from repro.mpn.nat import LIMB_BITS, MpnError
from repro.mpn.packed import (DIV_RECURSION_BITS, KARATSUBA_BLOCKS,
                              MUL_PACK_LIMBS, PACK_LIMBS,
                              POWMOD_PACK_LIMBS, WINDOW_BITS_MAX,
                              WINDOW_TABLE, _bmodder, _window_bits,
                              add_packed, divmod_packed,
                              divmod_packed_int, mul_packed,
                              pack_blocks, powmod_packed, shl_packed,
                              shr_packed, sqr_packed, sub_packed,
                              unpack_blocks)

from tests.conftest import from_nat, to_nat
from tests.differential.conftest import diff_examples

#: Block widths exercised everywhere: degenerate (k=1 is the limb
#: representation itself), odd, powmod's default, odd and wider than
#: it, add/sub/shift's default, and mul's monolithic default.
PACK_WIDTHS = (1, 2, 3, POWMOD_PACK_LIMBS, 13, PACK_LIMBS,
               MUL_PACK_LIMBS)

#: Raw limb lists with interesting shapes: empty, odd tails
#: (``len % k != 0`` for every k above), saturated limbs, zero limbs
#: in the middle.
limb_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << LIMB_BITS) - 1),
    max_size=4 * PACK_LIMBS + 3)


#: Block base of the 1024-bit blocks the division fix-up operands were
#: built for (``PACK_LIMBS``).
_B = 1 << (LIMB_BITS * PACK_LIMBS)

#: Block base at the multiplier's default (monolithic) width.
_MB = 1 << (LIMB_BITS * MUL_PACK_LIMBS)

#: Width in bits and base of powmod's own default block.
_W = LIMB_BITS * POWMOD_PACK_LIMBS
_PB = 1 << _W

#: (blocks of a, blocks of b) around the convolution's regime changes.
#: ``(2K+1, K+1)`` and ``(2K, K)`` take the unbalanced branch (the
#: short operand fits in the low half of the split); ``(2K+1, K-1)``
#: meets a basecase row under a Karatsuba-sized operand.
CONVOLUTION_SHAPES = [
    (KARATSUBA_BLOCKS - 1, KARATSUBA_BLOCKS - 1),
    (KARATSUBA_BLOCKS, KARATSUBA_BLOCKS),
    (KARATSUBA_BLOCKS + 1, KARATSUBA_BLOCKS + 1),
    (KARATSUBA_BLOCKS + 1, KARATSUBA_BLOCKS),
    (2 * KARATSUBA_BLOCKS - 1, 2 * KARATSUBA_BLOCKS - 1),
    (2 * KARATSUBA_BLOCKS + 1, 2 * KARATSUBA_BLOCKS + 1),
    (2 * KARATSUBA_BLOCKS + 1, KARATSUBA_BLOCKS + 1),
    (2 * KARATSUBA_BLOCKS, KARATSUBA_BLOCKS),
    (2 * KARATSUBA_BLOCKS + 1, KARATSUBA_BLOCKS - 1),
]


def _block_operand(blocks: int, fill: str, seed: int) -> int:
    """An integer of exactly ``blocks`` of the multiplier's blocks."""
    if fill == "ones":
        return _MB ** blocks - 1
    rng = random.Random(0xC0 + 31 * blocks + seed)
    digits = [rng.randrange(_MB) for _ in range(blocks)]
    if fill == "holes":
        for i in range(1, blocks - 1, 3):
            digits[i] = 0
    digits[-1] |= 1
    return sum(digit * _MB ** i for i, digit in enumerate(digits))


#: Division operands pinned from a seeded search; each drives one
#: repair path of the signed-digit block division :func:`_bdivrem`
#: (B = the 1024-bit block base), which even-modulus powmod reduces
#: through :func:`_bmodder`; ``divmod_packed`` must still answer them:
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


def _block_remainder(a: int, b: int, monkeypatch) -> int:
    """``a % b`` through :func:`_bmodder` at the 1024-bit block the
    fix-up operands were built for, failing unless the signed-digit
    core :func:`_bdivrem` ran."""
    core, calls = packed_kernels._bdivrem, []

    def recording(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(packed_kernels, "_bdivrem", recording)
    bits = LIMB_BITS * PACK_LIMBS
    reduce = _bmodder(pack_blocks(to_nat(b)), bits, (1 << bits) - 1)
    remainder = from_nat(unpack_blocks(reduce(pack_blocks(to_nat(a)))))
    assert calls, "the reduction never reached _bdivrem"
    return remainder


class TestMulBlockWidth:
    def test_mul_block_is_the_monolithic_width(self):
        """mul/sqr pack exactly the operand width Cambricon-P multiplies
        in one pass, where MPApca's Karatsuba starts (Section VII-B)."""
        assert MUL_PACK_LIMBS == MPAPCA_POLICY.karatsuba_limbs
        assert MUL_PACK_LIMBS \
            == DEFAULT_CONFIG.monolithic_max_bits // LIMB_BITS
        assert LIMB_BITS * MUL_PACK_LIMBS \
            == DEFAULT_CONFIG.monolithic_max_bits
        for kernel in (mul_packed, sqr_packed):
            assert inspect.signature(kernel).parameters["k"].default \
                == MUL_PACK_LIMBS
        for kernel in (add_packed, sub_packed, shl_packed, shr_packed):
            assert inspect.signature(kernel).parameters["k"].default \
                == PACK_LIMBS


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
        assert unpack_blocks([1], MUL_PACK_LIMBS) == [1]
        assert unpack_blocks([0, 1], 2) == [0, 0, 1]
        assert unpack_blocks([5, 0], 3) == [5]
        assert unpack_blocks([7, 1 << 40], MUL_PACK_LIMBS) \
            == [7] + [0] * (MUL_PACK_LIMBS - 1) + [0, 1 << 8]

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
        wide = LIMB_BITS * MUL_PACK_LIMBS
        for blocks in ([1 << wide], [5, 1 << wide], [(1 << wide) + 7],
                       [3, (1 << (wide + 100)) - 1], [5, -1], [-(1 << 40)]):
            with pytest.raises(MpnError):
                unpack_blocks(blocks, MUL_PACK_LIMBS)
        assert unpack_blocks([(1 << wide) - 1], MUL_PACK_LIMBS) \
            == [(1 << LIMB_BITS) - 1] * MUL_PACK_LIMBS


class TestArithmeticKernels:
    """Each public kernel against bigints across block widths."""

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           b=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_mul_matches_bigint(self, a, b, k):
        assert from_nat(mul_packed(to_nat(a), to_nat(b), k)) == a * b

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_sqr_matches_bigint(self, a, k):
        assert from_nat(sqr_packed(to_nat(a), k)) == a * a

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

    def test_block_karatsuba_regime(self):
        """Block counts around every regime change of the convolution.

        The basecase/Karatsuba boundary (``KARATSUBA_BLOCKS`` -1/0/+1),
        a second split level (``2*KARATSUBA_BLOCKS`` +-1), and the
        unbalanced branch where the short operand fits in the low half;
        all-ones operands maximize every raw coefficient and zero
        blocks inside leave holes in the rows.
        """
        for shape in CONVOLUTION_SHAPES:
            for fill in ("random", "ones", "holes"):
                a = _block_operand(shape[0], fill, seed=1)
                b = _block_operand(shape[1], fill, seed=2)
                case = (shape, fill)
                assert from_nat(mul_packed(to_nat(a), to_nat(b))) \
                    == a * b, case
                assert from_nat(mul_packed(to_nat(b), to_nat(a))) \
                    == a * b, case
                assert from_nat(sqr_packed(to_nat(a))) == a * a, case

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_all_ones_carry_chains(self, k):
        """Worst-case carry propagation across every block boundary,
        including products wide enough for one and two Karatsuba
        levels, whose raw coefficients all resolve in one sweep."""
        bits = LIMB_BITS * k
        for width in (bits - 1, bits, bits + 1, 3 * bits, 3 * bits + 17,
                      (KARATSUBA_BLOCKS - 1) * bits,
                      KARATSUBA_BLOCKS * bits,
                      (KARATSUBA_BLOCKS + 1) * bits - 1,
                      (2 * KARATSUBA_BLOCKS + 1) * bits):
            a = (1 << width) - 1
            assert from_nat(add_packed(to_nat(a), to_nat(1), k)) == a + 1
            assert from_nat(mul_packed(to_nat(a), to_nat(a), k)) == a * a
            half = (1 << (width // 2 + 1)) - 1
            assert from_nat(mul_packed(to_nat(a), to_nat(half), k)) \
                == a * half

    def test_divmod_add_back_case(self, monkeypatch):
        """The classic Knuth D6 trigger no longer needs a fix-up.

        Scaled to block base B, the one-block estimate for
        ``(B//2)*B^2 + (B-2)*B`` over ``(B//2)*B + (B-1)`` is one too
        large.  The signed-digit estimate divides by the divisor's top
        *two* blocks, so a two-block divisor is divided exactly: this
        pins the top-of-range quotient digit ``B - 1`` with no add-back.
        """
        base = 1 << (LIMB_BITS * PACK_LIMBS)
        a = (base // 2) * base * base + (base - 2) * base
        b = (base // 2) * base + (base - 1)
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)
        assert _block_remainder(a, b, monkeypatch) == a % b

    @pytest.mark.parametrize("case", sorted(DIVISION_FIXUPS))
    def test_divmod_fixup_paths(self, case, monkeypatch):
        """Operands (found by a seeded search over block-structured
        quotients, divisors and remainders) that drive each repair path
        of the signed-digit division."""
        a, b = DIVISION_FIXUPS[case]
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)
        if case == "tall-quotient":
            assert len(pack_blocks(quotient)) >= 64
        assert _block_remainder(a, b, monkeypatch) == a % b

    def test_single_block_divisor_path(self, monkeypatch):
        """A one-block divisor: ``_bmodder`` pads both sides with a zero
        low block so ``_bdivrem`` still estimates against two."""
        a = (1 << 4096) - 123
        b = (1 << 200) - 1  # one 1024-bit block
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)
        assert _block_remainder(a, b, monkeypatch) == a % b

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
        with pytest.raises(MpnError):
            sub_packed(to_nat(3), to_nat(5))
        with pytest.raises(MpnError):
            divmod_packed(to_nat(3), [])
        with pytest.raises(MpnError):
            shl_packed(to_nat(3), -1)
        with pytest.raises(MpnError):
            shr_packed(to_nat(3), -1)

    def test_zero_operands(self):
        assert mul_packed([], to_nat(9)) == []
        assert mul_packed(to_nat(9), []) == []
        assert sqr_packed([]) == []
        assert add_packed([], to_nat(9)) == to_nat(9)
        assert sub_packed(to_nat(9), []) == to_nat(9)
        assert shl_packed([], 40) == []
        assert shr_packed([], 40) == []


#: Moduli at powmod's block boundaries and with all-ones blocks, both
#: parities.  Ids spell powmod's block base ``2^W`` in bits, so they
#: follow ``POWMOD_PACK_LIMBS``.
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
    """``powmod_packed`` against ``pow``: block Montgomery for odd
    moduli, the block-division ladder for even ones."""

    @pytest.mark.parametrize("modulus", POWMOD_MODULI)
    def test_edge_bases_and_exponents(self, modulus):
        bases = (0, 1, 2, modulus - 1, modulus, modulus + 1,
                 3 * modulus, _PB ** 3 + 12345, _PB ** 2 - 1)
        for base in bases:
            for exponent in (0, 1, 2, 3, 65537, (1 << 130) - 1):
                got = powmod_packed(to_nat(base), to_nat(exponent),
                                    to_nat(modulus))
                assert from_nat(got) == pow(base, exponent, modulus), \
                    (base, exponent, modulus)
                assert got == nat.normalize(list(got))

    @pytest.mark.parametrize("exponent_bits", range(1, 131))
    def test_every_window_width(self, exponent_bits):
        rng = random.Random(exponent_bits)
        exponent = rng.getrandbits(exponent_bits) | (1 << (exponent_bits - 1))
        for modulus in (_PB - 1, _PB + 1, _PB ** 2 - 1, 6 * _PB + 2):
            base = rng.getrandbits(600)
            assert from_nat(powmod_packed(
                to_nat(base), to_nat(exponent), to_nat(modulus))) \
                == pow(base, exponent, modulus)

    def test_window_table_rows_are_all_reached(self):
        widths = {_window_bits(bits) for bits in range(1, 131)}
        assert widths == {width for _, width in WINDOW_TABLE} \
            | {WINDOW_BITS_MAX}

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_block_widths(self, k):
        rng = random.Random(k)
        for _ in range(10):
            modulus = rng.getrandbits(rng.randrange(2, 900)) | 1
            modulus <<= rng.choice((0, 0, 1, 37))
            base, exponent = rng.getrandbits(700), rng.getrandbits(70)
            assert from_nat(powmod_packed(
                to_nat(base), to_nat(exponent), to_nat(modulus), k)) \
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
        with pytest.raises(MpnError):
            powmod_packed(to_nat(3), to_nat(5), [])
