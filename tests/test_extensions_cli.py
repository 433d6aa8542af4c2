"""Tests for the FFT extension and the command-line interface."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.extensions.fft import (PIECE_BITS, fft, fft_multiply,
                                  required_precision)
from repro.mpc import MPC
from repro.mpf import MPF
from repro.mpn import nat
from repro.mpn.nat import MpnError

from tests.conftest import from_nat, to_nat


class TestFftTransform:
    def test_roundtrip(self):
        precision = 128
        rng = random.Random(6)
        values = [MPC(MPF(rng.randrange(1000), precision),
                      MPF(rng.randrange(1000), precision))
                  for _ in range(16)]
        spectrum = fft(values, precision)
        back = fft(spectrum, precision, inverse=True)
        for original, recovered in zip(values, back):
            assert abs(float(original.re - recovered.re)) < 1e-20
            assert abs(float(original.im - recovered.im)) < 1e-20

    def test_non_power_of_two_rejected(self):
        precision = 96
        values = [MPC(MPF(1, precision), MPF(0, precision))] * 3
        with pytest.raises(MpnError):
            fft(values, precision)

    def test_parseval_spot_check(self):
        precision = 160
        values = [MPC(MPF(v, precision), MPF(0, precision))
                  for v in (3, 1, 4, 1, 5, 9, 2, 6)]
        spectrum = fft(values, precision)
        time_energy = sum(float(v.abs2()) for v in values)
        freq_energy = sum(float(v.abs2()) for v in spectrum) / 8
        assert abs(time_energy - freq_energy) < 1e-9


class TestFftMultiply:
    @given(st.integers(min_value=0, max_value=(1 << 600) - 1),
           st.integers(min_value=0, max_value=(1 << 600) - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_int(self, a, b):
        product, _ = fft_multiply(to_nat(a), to_nat(b))
        assert from_nat(product) == a * b

    def test_residue_is_tiny(self):
        rng = random.Random(7)
        a, b = rng.getrandbits(2000), rng.getrandbits(2000)
        product, stats = fft_multiply(to_nat(a), to_nat(b))
        assert from_nat(product) == a * b
        assert stats["worst_residue"] < 1e-10

    def test_zero(self):
        product, stats = fft_multiply([], to_nat(5))
        assert product == [] and stats["size"] == 0

    def test_precision_budget_grows_with_size(self):
        assert required_precision(1 << 12) > required_precision(4)
        assert required_precision(4) > 2 * PIECE_BITS


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["multiply", "512"])
        assert args.bits == 512

    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "1.894" in output and "256 PEs" in output

    def test_multiply(self, capsys):
        assert main(["multiply", "512", "--seed", "3"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_multiply_bit_serial(self, capsys):
        assert main(["multiply", "96", "--bit-serial"]) == 0

    def test_pi(self, capsys):
        assert main(["pi", "30"]) == 0
        assert capsys.readouterr().out.startswith("3.14159265358979")

    def test_lambda(self, capsys):
        assert main(["lambda"]) == 0
        assert "q=4" in capsys.readouterr().out

    def test_rsa(self, capsys):
        assert main(["rsa", "128"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--max-bits", "4096"]) == 0
        assert "speedup" in capsys.readouterr().out


class TestCliExtras:
    def test_info_selftest(self, capsys):
        assert main(["info", "--selftest"]) == 0
        assert "selftest: all passed" in capsys.readouterr().out
