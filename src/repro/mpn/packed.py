"""Block-packed fast kernels: base ``2**(32*k)`` basecases (k limbs/block).

Every kernel in this package spends its wall time in the Python
interpreter, one loop iteration per 32-bit limb.  This module packs
consecutive limbs into a single Python int — a *block*, the packed
backend's machine word — and runs the add/sub/mul/sqr/shift basecases
one block at a time, the wide-block digit processing that *Fast
Arbitrary Precision Floating Point on FPGA* (de Fine Licht et al.) and
ARCHITECT (Li et al.) identify as the arbitrary-precision throughput
lever.  Each kernel has its own block width:

* ``mul``/``sqr`` pack ``MUL_PACK_LIMBS`` limbs (35904 bits), the width
  Cambricon-P multiplies in one monolithic pass, so every product up
  to that width is one C-level int product;
* ``add``/``sub`` and the shifts pack ``PACK_LIMBS`` limbs (1024 bits);
* ``powmod`` packs ``POWMOD_PACK_LIMBS`` limbs (256 bits).

Division has no block at all: it takes the whole operands as Python
ints, the widest digit there is.

Carries resolve once per operation, the way Cambricon-P's IPUs compute
carry-free inner products and leave the carries to the gatherer.
``add``/``sub`` are one elementwise ``map`` and one carry sweep; the
other kernels go further:

* ``mul``/``sqr`` run a carry-free block convolution (a Karatsuba split
  over raw, unnormalized coefficients from two blocks up, the way MPApca
  decomposes operands past the monolithic width, down to a
  row-convolution basecase, one C-level ``map`` per row) and then one
  floor-carry sweep;
* ``divmod`` runs the Burnikel–Ziegler recursion (2n/1n and 3n/2n
  steps) over CPython int products, with one ``divmod`` below
  ``DIV_RECURSION_BITS``: the division MPApca prices as a few
  multiplies at operand width, not a quadratic digit loop;
* ``powmod`` runs a windowed ladder that stays on block lists from the
  first pack to the last unpack: block Montgomery REDC (one C-level
  ``map`` row per low block of the modulus) for odd moduli, block
  products reduced by a signed-digit block division for even ones.

Inside those kernels coefficients may exceed the block base or go
negative; Python ints carry both exactly.  Operands and results are
ordinary normalized limb lists (:mod:`repro.mpn.nat`), except
:func:`divmod_packed_int`, which serves a lowered plan on the request's
ints directly; every kernel is bit-identical to its limb sibling —
``tests/differential`` proves it against both the limb kernels and
Python bigints.

Reachability contract (lint rule RPR012): these kernels are selected by
``repro.plan.select`` crossovers and invoked only through the mpn
dispatchers (:func:`repro.mpn.mul.mul`, :func:`repro.mpn.div.
divmod_nat`, :func:`repro.mpn.powmod`) or a lowered ``backend="packed"``
Plan — never called directly by layers above mpn.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import Callable, Iterable, List, Tuple

from repro.mpn.nat import (LIMB_BITS, MpnError, Nat, nat_from_int,
                            nat_to_int, normalize)

#: Limbs per block for :func:`mul_packed` and :func:`sqr_packed`: the
#: width of Cambricon-P's monolithic multiplier, 35904 bits (1122
#: limbs; ``core.model.CambriconPConfig.monolithic_max_bits`` and
#: ``mpn.mul.MPAPCA_POLICY.karatsuba_limbs``, pinned equal by
#: ``tests/mpn/test_packed.py``).  Every product whose operands fit one
#: block is one C-level int product; wider operands split by block
#: Karatsuba, the way MPApca decomposes only what the hardware cannot
#: multiply in one pass (Section VII-B).  Against 1024-bit blocks (best
#: of 9, a over a half-width b): 1.23 -> 0.62 ms geometric mean over
#: 36-96 kbit, 92 -> 49 ms at 1 Mbit, 50 -> 34 us at 8 kbit.
MUL_PACK_LIMBS = 1122

#: Limbs packed per block for add/sub and shift.  k=32 -> 1024-bit
#: blocks (radix 2^1024): one interpreter iteration per 32 limbs.
PACK_LIMBS = 32

#: :func:`divmod_packed_int` runs one CPython ``divmod`` instead of
#: recursing while the divisor is narrower than this many bits, or the
#: dividend is less than this many bits wider than the divisor (the
#: quotient is that narrow).  ``divmod`` is schoolbook, O(quotient x
#: divisor); the recursion swaps it for Karatsuba products, which pay
#: once both are a few kbit wide.  Geometric mean of best-of-9 over 11
#: shapes (a 36-96 kbit over a/2): 0.529 ms at 1024, 0.507 at 2048 and
#: 3072, 0.510 at 4096, 0.537 at 6144, 0.548 at 8192, and 1.189 for
#: plain ``divmod``.  At 24 kbit over 12 kbit: 0.118 ms at 4096
#: against 0.184 for ``divmod``.
DIV_RECURSION_BITS = 4096

#: Limbs per block for :func:`powmod_packed`: 256-bit blocks.  Served
#: moduli are odd and at most 512 bits wide, and there the wider block
#: loses: over serve-mix's 628 seed-7 powmods, 1024-bit blocks took
#: 169-268 us per call against 153-249 us at 256 bits, slower in 3 of
#: 4 alternating rounds (a rerun: 261-282 against 245-255 us, 4 of 4).
#: From 1024-bit moduli up the wider block wins (2.1x at 1024 bits).
POWMOD_PACK_LIMBS = 8

#: Bytes per limb (limbs are base 2^32).
_LIMB_BYTES = LIMB_BITS // 8

#: Block count (of the shorter operand) at or above which
#: :func:`mul_packed`/:func:`sqr_packed` split by block Karatsuba;
#: below it they run the row-convolution basecase.  At 35904-bit
#: blocks a block product is a long C-level multiply, so one saved
#: product outweighs the split's bookkeeping from two blocks up.
#: Geometric mean of best-of-9 over 11 shapes (a 36-96 kbit over a/2):
#: 0.63 ms at 2 against 0.68 at 3, 0.65 at 4 and 0.68 at 6; at 1 Mbit
#: 50.9 ms against 67.1, 67.6 and 83.2.
KARATSUBA_BLOCKS = 2

#: The same threshold for powmod's 256-bit blocks
#: (:func:`_bmont_mul`, and :func:`_bmul` on even moduli): block
#: products there are short, and a split pays only from six blocks.
#: Odd moduli, 64-bit exponents, best of 30: 742 us at 2 against 489
#: at 6 for a 512-bit modulus, 18.9 against 9.9 ms at 4096 bits; 8
#: ties 6.
POWMOD_KARATSUBA_BLOCKS = 6

#: Limb count at/above which the O(n) kernels (add/shift) are worth
#: packing; below it the pack/unpack round trip eats the win (measured
#: at 1024-bit blocks: add 1.3-1.4x, shl 1.5-1.6x, shr 2.5x at 128
#: limbs; add at parity at 64 and <1x under 48).
LINEAR_PACK_MIN_LIMBS = 128

_LITTLE_ENDIAN = sys.byteorder == "little"


@lru_cache(maxsize=16)
def _mask(bits: int) -> int:
    """``2**bits - 1``, built once per block width (at 35904 bits a
    fresh mask costs about a microsecond per call)."""
    return (1 << bits) - 1


def _limb_typecode() -> str:
    """array typecode with the limb's 4-byte width ("" when none fits)."""
    for code in ("I", "L"):
        if array(code).itemsize == _LIMB_BYTES:
            return code
    return ""


_LIMB_CODE = _limb_typecode()


# -- representation ----------------------------------------------------------


def pack_blocks(limbs: Nat, k: int = PACK_LIMBS) -> List[int]:
    """Pack a normalized limb list into little-endian base-2^(32k) blocks.

    The result carries no trailing zero blocks (``[]`` is zero); the top
    block may represent an odd tail of ``len(limbs) % k`` limbs.  Bulk
    conversion goes through bytes so the per-limb work happens at C
    speed.
    """
    if k < 1:
        raise MpnError("pack_blocks: k must be >= 1, got %d" % k)
    if not limbs:
        return []
    try:
        if _LIMB_CODE and _LITTLE_ENDIAN:
            data = array(_LIMB_CODE, limbs).tobytes()
        else:  # pragma: no cover - big-endian/exotic-ABI fallback
            data = b"".join(limb.to_bytes(_LIMB_BYTES, "little")
                            for limb in limbs)
    except (OverflowError, TypeError) as error:
        raise MpnError("pack_blocks: limb out of base-2^%d range (%s)"
                       % (LIMB_BITS, error))
    width = _LIMB_BYTES * k
    blocks = [int.from_bytes(data[i:i + width], "little")
              for i in range(0, len(data), width)]
    while blocks and blocks[-1] == 0:
        blocks.pop()
    return blocks


def unpack_blocks(blocks: List[int], k: int = PACK_LIMBS) -> Nat:
    """Unpack base-2^(32k) blocks back into a normalized limb list.

    The top block encodes at its own length in whole limbs, not padded
    to ``k`` limbs, so a narrow result at a wide ``k`` carries no run of
    zero limbs into :func:`~repro.mpn.nat.normalize`; a top block wider
    than ``k`` limbs is still rejected.
    """
    if k < 1:
        raise MpnError("unpack_blocks: k must be >= 1, got %d" % k)
    if not blocks:
        return []
    width = _LIMB_BYTES * k
    top = blocks[-1]
    try:
        top_width = -(-top.bit_length() // LIMB_BITS) * _LIMB_BYTES
        if top_width > width:
            raise OverflowError("top block wider than %d bytes" % width)
        parts = [block.to_bytes(width, "little") for block in blocks[:-1]]
        parts.append(top.to_bytes(top_width, "little"))
        data = b"".join(parts)
    except (OverflowError, TypeError) as error:
        raise MpnError("unpack_blocks: block out of base-2^%d range (%s)"
                       % (LIMB_BITS * k, error))
    if _LIMB_CODE and _LITTLE_ENDIAN:
        limbs = list(array(_LIMB_CODE, data))
    else:  # pragma: no cover - big-endian/exotic-ABI fallback
        limbs = [int.from_bytes(data[i:i + _LIMB_BYTES], "little")
                 for i in range(0, len(data), _LIMB_BYTES)]
    return normalize(limbs)


# -- block-list primitives ---------------------------------------------------
#
# Private helpers over little-endian block lists, parameterized by the
# block width in bits.  The shifts mirror the limb kernels in
# repro.mpn.nat one-for-one with the block as the digit; add, sub, mul
# and divmod work on raw coefficient lists and resolve carries in one
# sweep.


def _bnormalize(blocks: List[int]) -> List[int]:
    while blocks and blocks[-1] == 0:
        blocks.pop()  # repro: noqa=caller-aliasing -- block-level normalize is the documented in-place canonicalizer (mirrors nat.normalize)
    return blocks


def _bcmp(a: List[int], b: List[int]) -> int:
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def _bshl_blocks(a: List[int], count: int) -> List[int]:
    """Shift left by whole blocks (multiply by base**count)."""
    return [0] * count + a if a else []


def _bshl_bits(a: List[int], count: int, bits: int,
               mask: int) -> List[int]:
    """Shift left by ``count`` bits, ``0 <= count < bits``."""
    if not a or count == 0:
        return list(a)
    out: List[int] = []
    carry = 0
    for block in a:
        total = (block << count) | carry
        out.append(total & mask)
        carry = total >> bits
    if carry:
        out.append(carry)
    return out


def _bshr_bits(a: List[int], count: int, bits: int,
               mask: int) -> List[int]:
    """Shift right by ``count`` bits, ``0 <= count < bits``."""
    if not a or count == 0:
        return list(a)
    out: List[int] = []
    for i, block in enumerate(a):
        high = a[i + 1] if i + 1 < len(a) else 0
        out.append(((block >> count) | (high << (bits - count))) & mask)
    return _bnormalize(out)


def _bcarry(coeffs: Iterable[int], bits: int,
            mask: int) -> Tuple[List[int], int]:
    """One floor-carry sweep over signed, unbounded block coefficients.

    Returns the blocks (each in ``[0, 2**bits)``) and the signed carry
    out of the top, so ``sum(c * B**i) == blocks + carry * B**len``.
    """
    out: List[int] = []
    carry = 0
    for coeff in coeffs:
        carry += coeff
        out.append(carry & mask)
        carry >>= bits
    return out, carry


def _vadd(x: List[int], y: List[int]) -> List[int]:
    """Elementwise ``x + y`` over coefficient lists, ``len(x) >= len(y)``."""
    out = list(x)
    out[:len(y)] = map(add, x, y)
    return out


def _bconv(a: List[int], b: List[int],
           karatsuba_blocks: int) -> List[int]:
    """Carry-free block product: the ``len(a)+len(b)-1`` coefficients.

    Coefficients are raw convolution sums that may exceed the block
    base (Python ints carry them exactly); the caller resolves every
    carry in one sweep.  The basecase is a row convolution, one C-level
    ``map`` per block of the shorter operand; from ``karatsuba_blocks``
    blocks up one block Karatsuba split, with its sums and differences
    taken elementwise (the middle term ``cross - z0 - z2`` is the mixed
    products, so it never goes negative).
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # One row.  At the monolithic width every operand up to 35904
        # bits is one block, so this is one int product per block.
        return list(map(mul, a, repeat(b[0])))
    if len(b) < karatsuba_blocks:
        width = len(a)
        out = [0] * (width + len(b) - 1)
        for i, digit in enumerate(b):
            if digit:
                out[i:i + width] = map(add, out[i:i + width],
                                       map(mul, a, repeat(digit)))
        return out
    split = (len(a) + 1) // 2
    a0, a1 = a[:split], a[split:]
    if len(b) <= split:
        # Unbalanced: the short operand fits in the low half, so the
        # product is two half-width sub-products, no cross term.
        out = _bconv(a0, b, karatsuba_blocks) + [0] * (len(a) - split)
        out[split:] = map(add, out[split:],
                          _bconv(a1, b, karatsuba_blocks))
        return out
    b0, b1 = b[:split], b[split:]
    z0 = _bconv(a0, b0, karatsuba_blocks)
    z2 = _bconv(a1, b1, karatsuba_blocks)
    z1 = _bconv(_vadd(a0, a1), _vadd(b0, b1), karatsuba_blocks)
    z1[:len(z0)] = map(sub, z1, z0)
    z1[:len(z2)] = map(sub, z1, z2)
    # len(z0) == 2*split - 1, so z2 starts right after one zero slot.
    out = z0 + [0] + z2
    end = split + len(z1)
    out[split:end] = map(add, out[split:end], z1)
    return out


def _bmul(a: List[int], b: List[int], bits: int, mask: int,
          karatsuba_blocks: int) -> List[int]:
    """Block product: carry-free convolution, then one carry sweep.

    The shape of Cambricon-P's carry-parallel gathering: the inner
    products accumulate without carries and the carries resolve once,
    at the top.  At the monolithic width one block stands for 1122
    limbs, so a block Karatsuba over C-speed block products beats every
    limb-level regime at the sizes reached in practice.
    """
    if not a or not b:
        return []
    out, carry = _bcarry(_bconv(a, b, karatsuba_blocks), bits, mask)
    if carry:
        out.append(carry)
    return _bnormalize(out)


def _bdivrem(w: List[int], v: List[int], bits: int,
             mask: int) -> Tuple[List[int], List[int]]:
    """Signed-digit block division of ``w`` by a normalized ``v``.

    ``v`` has at least two blocks and its top block has the high bit set
    (Knuth's D1, done by the caller), and ``len(w) >= len(v)``.  Each
    quotient position folds the retired top coefficient into the next
    one, estimates a *signed* digit from the top two window coefficients
    against ``v``'s top two blocks, and subtracts ``digit * v`` as one
    C-level ``map`` row.  Window coefficients stay unnormalized until
    the end, where one carry sweep over the digits and one over the
    remainder resolve them, and a fix-up adds or subtracts ``v`` while
    the remainder lies outside ``[0, v)``.  ``W == Q*V + R`` holds after
    every step, so the result is exact whatever the estimates were.
    Returns the normalized (quotient, remainder) blocks.
    """
    n = len(v)
    m = len(w) - n
    w = w + [0]
    v_top2 = (v[-1] << bits) | v[-2]
    digits = [0] * (m + 1)

    for j in range(m, -1, -1):
        top = j + n - 1
        w[top] += w[top + 1] << bits
        digit = ((w[top] << bits) + w[top - 1]) // v_top2
        if digit:
            w[j:top + 1] = map(sub, w[j:top + 1],
                               map(mul, v, repeat(digit)))
        digits[j] = digit

    remainder, high = _bcarry(w[:n], bits, mask)
    while high < 0:
        remainder, carry = _bcarry(map(add, remainder, v), bits, mask)
        high += carry
        digits[0] -= 1
    while high > 0 or _bcmp(remainder, v) >= 0:
        remainder, carry = _bcarry(map(sub, remainder, v), bits, mask)
        high += carry
        digits[0] += 1
    # The fixed-up quotient fits its m + 1 blocks: no carry out.
    quotient = _bcarry(digits, bits, mask)[0]
    return _bnormalize(quotient), _bnormalize(remainder)


# -- public kernels (Nat in, Nat out) ----------------------------------------


def mul_packed(a: Nat, b: Nat, k: int = MUL_PACK_LIMBS) -> Nat:
    """Product of two naturals through the block-packed multiplier."""
    if not a or not b:
        return []
    bits = LIMB_BITS * k
    return unpack_blocks(_bmul(pack_blocks(a, k), pack_blocks(b, k),
                               bits, _mask(bits), KARATSUBA_BLOCKS), k)


def sqr_packed(a: Nat, k: int = MUL_PACK_LIMBS) -> Nat:
    """Square of a natural through the carry-free block convolution.

    ``_bmul(a, a)`` keeps the square shape down the whole Karatsuba
    recursion (every sub-product has equal operands) and resolves the
    carries in one sweep at the top, so a dedicated symmetric basecase
    would only shave a constant factor.
    """
    if not a:
        return []
    bits = LIMB_BITS * k
    blocks = pack_blocks(a, k)
    return unpack_blocks(_bmul(blocks, blocks, bits, _mask(bits),
                               KARATSUBA_BLOCKS), k)


def add_packed(a: Nat, b: Nat, k: int = PACK_LIMBS) -> Nat:
    """Sum: one elementwise block ``map``, then one carry sweep."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    blocks_a, blocks_b = pack_blocks(a, k), pack_blocks(b, k)
    if len(blocks_a) < len(blocks_b):
        blocks_a, blocks_b = blocks_b, blocks_a
    bits = LIMB_BITS * k
    out, carry = _bcarry(_vadd(blocks_a, blocks_b), bits, _mask(bits))
    if carry:
        out.append(carry)
    return unpack_blocks(out, k)


def sub_packed(a: Nat, b: Nat, k: int = PACK_LIMBS) -> Nat:
    """Difference ``a - b`` (requires ``a >= b``) over blocks."""
    blocks_a = pack_blocks(a, k)
    blocks_b = pack_blocks(b, k)
    if _bcmp(blocks_a, blocks_b) < 0:
        raise MpnError("mpn sub requires a >= b")
    blocks_a[:len(blocks_b)] = map(sub, blocks_a, blocks_b)
    bits = LIMB_BITS * k
    # a >= b, so the sweep leaves no borrow out of the top block.
    return unpack_blocks(_bcarry(blocks_a, bits, _mask(bits))[0], k)


def shl_packed(a: Nat, count: int, k: int = PACK_LIMBS) -> Nat:
    """Left shift by ``count`` bits, stepped one block at a time."""
    if count < 0:
        raise MpnError("shift count must be non-negative")
    if not a or count == 0:
        return list(a)
    bits = LIMB_BITS * k
    mask = _mask(bits)
    block_shift, bit_shift = divmod(count, bits)
    shifted = _bshl_bits(pack_blocks(a, k), bit_shift, bits, mask)
    return unpack_blocks(_bshl_blocks(shifted, block_shift), k)


def shr_packed(a: Nat, count: int, k: int = PACK_LIMBS) -> Nat:
    """Right shift by ``count`` bits, stepped one block at a time."""
    if count < 0:
        raise MpnError("shift count must be non-negative")
    if not a or count == 0:
        return list(a)
    bits = LIMB_BITS * k
    mask = _mask(bits)
    block_shift, bit_shift = divmod(count, bits)
    blocks = pack_blocks(a, k)
    if block_shift >= len(blocks):
        return []
    return unpack_blocks(_bshr_bits(blocks[block_shift:], bit_shift,
                                    bits, mask), k)


def divmod_packed(a: Nat, b: Nat) -> Tuple[Nat, Nat]:
    """Exact (quotient, remainder) of limb lists by
    :func:`divmod_packed_int`: the operands convert once each way."""
    quotient, remainder = divmod_packed_int(nat_to_int(a), nat_to_int(b))  # repro: noqa=bigint-in-kernel -- packed division runs on whole ints
    return nat_from_int(quotient), nat_from_int(remainder)  # repro: noqa=bigint-in-kernel -- and converts back once


# -- division ----------------------------------------------------------------
#
# Burnikel & Ziegler, *Fast Recursive Division* (MPI-I-98-1-022), with
# the whole operand as the digit: the limb recursion of
# repro.mpn.burnikel_ziegler, run on CPython ints so every step is a
# C-level product or shift.


def divmod_packed_int(a: int, b: int) -> Tuple[int, int]:
    """Exact ``(a // b, a % b)`` of naturals by recursive division.

    A divisor or quotient narrower than :data:`DIV_RECURSION_BITS`
    runs one ``divmod``.  Otherwise the dividend is read as base
    ``2**n`` digits of the ``n``-bit divisor, and each digit runs one
    2n/1n step: two 3n/2n steps whose quotient estimates recurse on
    the divisor's top half and are corrected by one product with its
    bottom half.
    """
    if a < 0 or b < 0:
        raise MpnError("naturals cannot be negative")
    if not b:
        raise MpnError("division by zero")
    n = b.bit_length()
    if n < DIV_RECURSION_BITS \
            or a.bit_length() - n < DIV_RECURSION_BITS:
        return divmod(a, b)
    return _div_digits(0, a, -(-a.bit_length() // n), b, n)


def _div_digits(high: int, a: int, count: int, b: int,
                n: int) -> Tuple[int, int]:
    """Divide ``high * 2**(n*count) + a`` by the ``n``-bit ``b``.

    Requires ``high < b`` and ``a < 2**(n*count)``: schoolbook over
    ``count`` base-``2**n`` digits, split in halves so that each level
    shifts the dividend once rather than once per digit.
    """
    if count == 1:
        return _div_2n1n((high << n) | a, b, n)
    low_count = count // 2
    shift = n * low_count
    q_high, remainder = _div_digits(high, a >> shift, count - low_count,
                                    b, n)
    q_low, remainder = _div_digits(remainder, a & ((1 << shift) - 1),
                                   low_count, b, n)
    return (q_high << shift) | q_low, remainder


def _div_2n1n(a: int, b: int, n: int) -> Tuple[int, int]:
    """``divmod(a, b)`` for an ``n``-bit ``b`` and ``a < b * 2**n``.

    An odd ``n`` gains one bit on both sides (the quotient is
    unchanged, the remainder doubles) so the divisor halves evenly.
    """
    if a.bit_length() - n < DIV_RECURSION_BITS:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b_high, b_low = b >> half, b & mask
    q_high, remainder = _div_3n2n(a >> n, (a >> half) & mask, b,
                                  b_high, b_low, half)
    q_low, remainder = _div_3n2n(remainder, a & mask, b, b_high, b_low,
                                 half)
    return (q_high << half) | q_low, remainder >> pad


def _div_3n2n(a12: int, a3: int, b: int, b_high: int, b_low: int,
              half: int) -> Tuple[int, int]:
    """Divide ``a12 * 2**half + a3`` by ``b = b_high * 2**half + b_low``.

    Requires ``a12 < b``, ``a3 < 2**half`` and a ``b_high`` of exactly
    ``half`` bits.  Dividing the top by ``b_high`` alone (or saturating
    at ``2**half - 1`` when the tops are equal) never underestimates and
    overshoots by at most 2, so at most two additions of ``b`` repair
    it.
    """
    if a12 >> half == b_high:
        quotient = (1 << half) - 1
        remainder = a12 - (b_high << half) + b_high
    else:
        quotient, remainder = _div_2n1n(a12, b_high, half)
    remainder = ((remainder << half) | a3) - quotient * b_low
    while remainder < 0:
        quotient -= 1
        remainder += b
    return quotient, remainder


# -- modular exponentiation --------------------------------------------------

#: Fixed-window width by exponent length, ``(below_bits, width)`` rows
#: scanned in order; exponents past the last row use
#: :data:`WINDOW_BITS_MAX`.  A wider window trades ``2**width - 2``
#: table products for fewer ladder multiplies, which pays only on long
#: exponents.  Measured over 256-1024-bit moduli: 2-bit windows win
#: below 24 exponent bits, 3-4 bits tie from 32 to 96, 4 bits win at
#: 128 and 5 bits at 1024.
WINDOW_TABLE = ((24, 2), (48, 3), (128, 4))
WINDOW_BITS_MAX = 5


def _window_bits(exponent_bits: int) -> int:
    for below, width in WINDOW_TABLE:
        if exponent_bits < below:
            return width
    return WINDOW_BITS_MAX


def _bmodder(v: List[int], bits: int,
             mask: int) -> Callable[[List[int]], List[int]]:
    """``u -> u mod v`` over block lists, ``v`` normalized once (D1).

    A single-block divisor gains a zero low block on both sides (the
    remainder of ``B*u`` by ``B*v`` is ``B * (u mod v)``), so
    :func:`_bdivrem` always estimates against two divisor blocks.
    """
    shift = bits - v[-1].bit_length()
    pad = [0] if len(v) == 1 else []
    v_norm = pad + _bshl_bits(v, shift, bits, mask)

    def reduce(u: List[int]) -> List[int]:
        if _bcmp(u, v) < 0:
            return u
        remainder = _bdivrem(pad + _bshl_bits(u, shift, bits, mask),
                             v_norm, bits, mask)[1]
        return _bshr_bits(remainder[len(pad):], shift, bits, mask)

    return reduce


def _bmont_mul(a: List[int], b: List[int], modulus: List[int],
               n_inv: int, bits: int, mask: int) -> List[int]:
    """Block Montgomery product ``a * b / B**n mod N`` (``a, b < N``).

    The carry-free convolution, then block REDC over the raw
    coefficients: each of the ``n`` low blocks picks ``q`` so that
    adding ``q * N`` (one C-level ``map`` row) clears it, and folds its
    high part into the next block.  One carry sweep over the top ``n``
    blocks and one conditional subtract of ``N`` finish.
    """
    if not a or not b:
        return []
    n = len(modulus)
    t = _bconv(a, b, POWMOD_KARATSUBA_BLOCKS)
    t.extend(repeat(0, 2 * n + 1 - len(t)))
    for i in range(n):
        q = (t[i] * n_inv) & mask
        if q:
            t[i:i + n] = map(add, t[i:i + n], map(mul, modulus, repeat(q)))
        t[i + 1] += t[i] >> bits
    # (a*b + Q*N) / B**n < 2N, so the sweep leaves no carry out.
    out = _bnormalize(_bcarry(t[n:], bits, mask)[0])
    if _bcmp(out, modulus) >= 0:
        out[:n] = map(sub, out, modulus)
        out = _bnormalize(_bcarry(out, bits, mask)[0])
    return out


def _bpow(x: List[int], exponent: int,
          mulmod: Callable[[List[int], List[int]], List[int]]
          ) -> List[int]:
    """``x**exponent`` (``exponent >= 1``) by fixed-window left-to-right
    exponentiation under ``mulmod``."""
    width = _window_bits(exponent.bit_length())
    digit_mask = (1 << width) - 1
    table = [[], x]
    for _ in range(digit_mask - 1):
        table.append(mulmod(table[-1], x))
    shift = (exponent.bit_length() - 1) // width * width
    acc = table[exponent >> shift]
    while shift:
        shift -= width
        for _ in range(width):
            acc = mulmod(acc, acc)
        digit = (exponent >> shift) & digit_mask
        if digit:
            acc = mulmod(acc, table[digit])
    return acc


def powmod_packed(base: Nat, exponent: Nat, modulus: Nat,
                  k: int = POWMOD_PACK_LIMBS) -> Nat:
    """``base**exponent mod modulus`` as a ladder on packed blocks.

    The base and modulus pack once, every ladder step stays on block
    lists, and the result unpacks once.  An odd modulus runs block
    Montgomery (:func:`_bmont_mul`, radix ``B**n`` for an ``n``-block
    modulus): the base enters the domain by one block division of
    ``base * B**n`` and leaves by one REDC.  An even modulus runs the
    same ladder on :func:`_bmul` and a block division whose divisor is
    normalized once.  The window width comes from
    :data:`WINDOW_TABLE`.
    """
    if not modulus:
        raise MpnError("zero modulus")
    bits = LIMB_BITS * k
    mask = _mask(bits)
    n_blocks = pack_blocks(modulus, k)
    if n_blocks == [1]:
        return []
    if not exponent:
        return [1]
    # The exponent is only read, never computed on: one wide block.
    power = pack_blocks(exponent, len(exponent))[0]
    reduce = _bmodder(n_blocks, bits, mask)
    n = len(n_blocks)
    base_blocks = pack_blocks(base, k)
    if n_blocks[0] & 1:
        # -N0^-1 mod B by Newton lifting: an odd N0 is its own inverse
        # mod 8, and each step doubles the correct low bits.
        inverse, correct = n_blocks[0], 3
        while correct < bits:
            inverse = (inverse * (2 - n_blocks[0] * inverse)) & mask
            correct *= 2
        n_inv = -inverse & mask

        def mulmod(x: List[int], y: List[int]) -> List[int]:
            return _bmont_mul(x, y, n_blocks, n_inv, bits, mask)

        x = reduce(_bshl_blocks(base_blocks, n))
        if not x:
            return []
        return unpack_blocks(mulmod(_bpow(x, power, mulmod), [1]), k)

    def mulmod(x: List[int], y: List[int]) -> List[int]:
        return reduce(_bmul(x, y, bits, mask, POWMOD_KARATSUBA_BLOCKS))

    x = reduce(base_blocks)
    if not x:
        return []
    return unpack_blocks(_bpow(x, power, mulmod), k)
