"""``repro bench-kernels --check``: the regression gates over a report."""

from repro.bench.kernels import check_report


def _powmod(bits: int, limb: int, packed: int, rns: int) -> dict:
    return {"op": "powmod", "bits": bits,
            "ns": {"limb": limb, "packed": packed, "rns": rns},
            "speedup": {"packed": limb / packed, "rns": limb / rns}}


def test_packed_powmod_gate_passes_when_packed_wins_everywhere():
    report = {"entries": [_powmod(1024, 60, 3, 10),
                          _powmod(4096, 900, 20, 100)]}
    assert check_report(report) == []


def test_packed_powmod_gate_checks_every_size_not_only_the_top():
    report = {"entries": [_powmod(1024, 60, 12, 10),
                          _powmod(4096, 900, 20, 100)]}
    failures = check_report(report)
    assert len(failures) == 1
    assert "powmod at 1024 bits: packed is 1.20x slower than rns" \
        in failures[0]
