"""``repro bench-kernels``: the regression gates over a report, and
the block widths it records."""

import inspect

from repro.bench.kernels import check_report, packed_block_bits
from repro.mpn import packed as packed_kernels
from repro.mpn.nat import LIMB_BITS


def _powmod(bits: int, limb: int, packed: int) -> dict:
    return {"op": "powmod", "bits": bits,
            "ns": {"limb": limb, "packed": packed},
            "speedup": {"packed": limb / packed}}


def test_packed_powmod_gate_passes_when_packed_wins_everywhere():
    report = {"entries": [_powmod(1024, 60, 3),
                          _powmod(4096, 900, 20)]}
    assert check_report(report) == []


def test_packed_powmod_gate_fails_below_its_floor_at_the_top_modulus():
    report = {"entries": [_powmod(1024, 60, 3),
                          _powmod(4096, 1100, 1000)]}
    failures = check_report(report)
    assert len(failures) == 1
    assert "powmod at 4096 bits: packed is 1.10x the limb backend" \
        in failures[0]


def test_block_bits_are_the_widths_the_timed_kernels_default_to():
    kernels = {"mul": packed_kernels.mul_packed,
               "sqr": packed_kernels.sqr_packed,
               "powmod": packed_kernels.powmod_packed}
    assert packed_block_bits() == {
        op: LIMB_BITS * inspect.signature(kernel).parameters["k"].default
        for op, kernel in kernels.items()}
    assert packed_block_bits() == {"mul": 35904, "sqr": 35904,
                                   "powmod": 256}
    # Packed division recurses on whole ints: no block to record.
    assert "k" not in inspect.signature(
        packed_kernels.divmod_packed).parameters
