"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.mpn import nat
from repro.plan import select
from repro.plan.lowering import plan_cache


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xCA_B1)


@pytest.fixture
def reselect(monkeypatch):
    """``reselect(value)`` sets ``REPRO_PACKED`` and re-reads it (the
    switch is read once per process); teardown restores and re-reads
    the process's own setting."""
    def retarget(value: str) -> None:
        monkeypatch.setenv(select.PACKED_ENV, value)
        select._packed_enabled.cache_clear()

    yield retarget
    monkeypatch.undo()
    select._packed_enabled.cache_clear()


@pytest.fixture
def fresh_plans():
    """An empty plan cache around a test that flips a kill switch (the
    cache keys on the policy, not on the environment)."""
    plan_cache().clear()
    yield
    plan_cache().clear()


# -- hypothesis strategies ----------------------------------------------------

#: Non-negative integers across interesting size bands (empty, one limb,
#: limb boundaries, multi-limb, large).
naturals = st.one_of(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=(1 << 32) + 3),
    st.integers(min_value=0, max_value=(1 << 96) - 1),
    st.integers(min_value=0, max_value=(1 << 1200) - 1),
)

#: Positive naturals (for divisors, moduli).
positive_naturals = naturals.map(lambda v: v + 1)

#: Small bit-shift distances crossing limb boundaries.
shift_counts = st.integers(min_value=0, max_value=200)


def to_nat(value: int):
    """Shorthand conversion for tests."""
    return nat.nat_from_int(value)


def from_nat(limbs) -> int:
    """Shorthand conversion for tests."""
    return nat.nat_to_int(limbs)
