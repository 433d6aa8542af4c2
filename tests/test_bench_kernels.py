"""``repro bench-kernels``: the regression gates over a report, and
the deterministic operands it measures."""

from repro.bench.kernels import _random_operand, check_report


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


class TestRandomOperand:
    def test_exact_limb_count_and_determinism(self):
        operand = _random_operand(10, seed=5)
        assert len(operand) == 10
        assert operand[-1] >> 31 == 1  # top bit forced
        assert operand == _random_operand(10, seed=5)
        assert operand != _random_operand(10, seed=6)
