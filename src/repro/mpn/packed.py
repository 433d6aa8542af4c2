"""Packed fast kernels: whole Python ints and base ``2**(32*k)`` blocks.

Every limb kernel in this package spends its wall time in the Python
interpreter, one loop iteration per 32-bit limb.  The packed backend
drops that digit: it computes on wide digits, the arbitrary-precision
throughput lever that *Fast Arbitrary Precision Floating Point on
FPGA* (de Fine Licht et al.) and ARCHITECT (Li et al.) identify, and
Cambricon-P's own case against cutting monolithic operands into 32-bit
limbs.  The widest digit is the whole operand, and CPython's ``int``
is the host's monolithic multiplier, so:

* ``mul``/``sqr`` are one CPython int product
  (:func:`mul_packed_int`);
* ``divmod`` runs the Burnikel–Ziegler recursion (2n/1n and 3n/2n
  steps) over CPython int products, with one ``divmod`` below
  ``DIV_RECURSION_BITS``: the division MPApca prices as a few
  multiplies at operand width, not a quadratic digit loop
  (:func:`divmod_packed_int`);
* ``powmod`` is CPython's ``pow`` (:func:`powmod_packed_int`).

A lowered ``backend="packed"`` plan calls these ``*_int`` entries on
the request's ints directly.  :func:`mul_packed`, :func:`sqr_packed`,
:func:`divmod_packed` and :func:`powmod_packed` are their limb-list
wrappers for the mpn dispatchers: each operand converts once each way.

``add``/``sub`` and the shifts stay on limb lists and pack
``PACK_LIMBS`` limbs (1024 bits) into a *block*: ``add``/``sub`` are
one elementwise ``map`` and one carry sweep, the way Cambricon-P's IPUs
compute carry-free and leave the carries to the gatherer; the shifts
step one block at a time.

Operands and results of the limb-list kernels are ordinary normalized
limb lists (:mod:`repro.mpn.nat`); every kernel is bit-identical to its
limb sibling — ``tests/differential`` proves it against both the limb
kernels and Python bigints.

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
from operator import add, sub
from typing import Iterable, List, Tuple

from repro.mpn.nat import (LIMB_BITS, MpnError, Nat, nat_from_int,
                            nat_to_int, normalize)

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

#: Bytes per limb (limbs are base 2^32).
_LIMB_BYTES = LIMB_BITS // 8

#: Limb count at/above which the O(n) kernels (add/shift) are worth
#: packing; below it the pack/unpack round trip eats the win (measured
#: at 1024-bit blocks: add 1.3-1.4x, shl 1.5-1.6x, shr 2.5x at 128
#: limbs; add at parity at 64 and <1x under 48).
LINEAR_PACK_MIN_LIMBS = 128

_LITTLE_ENDIAN = sys.byteorder == "little"


@lru_cache(maxsize=16)
def _mask(bits: int) -> int:
    """``2**bits - 1``, built once per block width."""
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
# repro.mpn.nat one-for-one with the block as the digit; add and sub
# work on raw coefficient lists and resolve carries in one sweep.


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


# -- public kernels (Nat in, Nat out) ----------------------------------------


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


# -- whole-int kernels (int in, int out) and their limb-list wrappers -------


def mul_packed_int(a: int, b: int) -> int:
    """Product of two naturals: one CPython int product.

    CPython multiplies by Karatsuba on 30-bit digits past about 70
    digits and squares faster when ``a is b``, so a square passes the
    same object twice.  Against the 35904-bit block Karatsuba this
    replaced (best of 5, a over a/2, the served path with its limb
    conversions): 0.297 -> 0.188 ms at 36 kbit, 1.342 -> 0.951 ms at
    96 kbit and 49.4 -> 47.3 ms at 1 Mbit.
    """
    if a < 0 or b < 0:
        raise MpnError("naturals cannot be negative")
    return a * b


def powmod_packed_int(base: int, exponent: int, modulus: int) -> int:
    """``base**exponent mod modulus`` of naturals: CPython's ``pow``.

    ``pow`` runs its whole square-and-multiply ladder in C, reducing
    each product by a C-level division, for either modulus parity.
    Against the 256-bit-block Montgomery ladder this replaced
    (64-bit exponents): 155 -> 16.7 us at a 511-bit modulus, 1.12 ->
    0.20 ms at 1024 bits.  A zero modulus raises ``MpnError`` like
    every other mpn kernel, not ``pow``'s ``ValueError``.
    """
    if base < 0 or exponent < 0 or modulus < 0:
        raise MpnError("naturals cannot be negative")
    if not modulus:
        raise MpnError("zero modulus")
    return pow(base, exponent, modulus)


def mul_packed(a: Nat, b: Nat) -> Nat:
    """Product of limb lists by :func:`mul_packed_int`."""
    product = mul_packed_int(nat_to_int(a), nat_to_int(b))  # repro: noqa=bigint-in-kernel -- packed products run on whole ints
    return nat_from_int(product)  # repro: noqa=bigint-in-kernel -- and converts back once


def sqr_packed(a: Nat) -> Nat:
    """Square of a limb list by :func:`mul_packed_int` on one int."""
    value = nat_to_int(a)  # repro: noqa=bigint-in-kernel -- packed products run on whole ints
    return nat_from_int(mul_packed_int(value, value))  # repro: noqa=bigint-in-kernel -- and converts back once


def divmod_packed(a: Nat, b: Nat) -> Tuple[Nat, Nat]:
    """Exact (quotient, remainder) of limb lists by
    :func:`divmod_packed_int`: the operands convert once each way."""
    quotient, remainder = divmod_packed_int(nat_to_int(a), nat_to_int(b))  # repro: noqa=bigint-in-kernel -- packed division runs on whole ints
    return nat_from_int(quotient), nat_from_int(remainder)  # repro: noqa=bigint-in-kernel -- and converts back once


def powmod_packed(base: Nat, exponent: Nat, modulus: Nat) -> Nat:
    """``base**exponent mod modulus`` of limb lists by
    :func:`powmod_packed_int`."""
    value = powmod_packed_int(nat_to_int(base), nat_to_int(exponent),  # repro: noqa=bigint-in-kernel -- packed powmod runs on whole ints
                              nat_to_int(modulus))  # repro: noqa=bigint-in-kernel -- the same boundary crossing
    return nat_from_int(value)  # repro: noqa=bigint-in-kernel -- and converts back once


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


