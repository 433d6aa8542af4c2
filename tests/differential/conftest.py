"""Shared machinery for the differential harness (ISSUE 2).

Every test in this package cross-checks a kernel implementation path
against Python's bigints (and against the sibling implementations of
the same operation).  Two knobs keep the suite schedulable:

* ``REPRO_DIFF_MAX_LIMBS`` caps the operand sizes generated around
  live crossovers (default 128 limbs; CI's nightly-style job may
  raise it);
* ``REPRO_DIFF_EXAMPLES`` scales the per-test hypothesis example count
  (default 25).
"""

from __future__ import annotations

import os

from hypothesis import strategies as st

from repro.mpn.mul import MulPolicy

#: Tiny thresholds so *every* dispatcher regime activates at sizes a
#: test can afford — the "forced-crossover" policy of the issue.
FORCED_POLICY = MulPolicy(
    name="forced",
    karatsuba_limbs=4,
    toom3_limbs=8,
    toom4_limbs=12,
    toom6_limbs=18,
    ssa_limbs=26,
)


def diff_max_limbs() -> int:
    """Operand-size cap (limbs) for crossover-boundary tests."""
    raw = os.environ.get("REPRO_DIFF_MAX_LIMBS", "").strip()
    return max(8, int(raw)) if raw else 128


def diff_examples() -> int:
    """Hypothesis example budget per differential test."""
    raw = os.environ.get("REPRO_DIFF_EXAMPLES", "").strip()
    return max(5, int(raw)) if raw else 25


def naturals_of_bits(max_bits: int, min_value: int = 0):
    """Naturals up to ``max_bits`` wide, biased toward the top band."""
    return st.one_of(
        st.integers(min_value=min_value, max_value=(1 << 64) - 1),
        st.integers(min_value=min_value, max_value=(1 << max_bits) - 1),
        st.integers(min_value=max(min_value, 1 << (max_bits - 8)),
                    max_value=(1 << max_bits) - 1),
    )
