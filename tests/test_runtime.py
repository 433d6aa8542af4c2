"""Tests for the MPApca runtime (functional execution + cost model)."""

import pytest

from repro.core.model import DEFAULT_CONFIG
from repro.profiling import KernelOp, OperationTrace
from repro.runtime import mpapca
from repro.runtime.mpapca import (MONOLITHIC_MAX_BITS, MPApca, mul_cycles,
                                  price_trace)
from repro.platforms import cpu

from tests.conftest import from_nat, to_nat


class TestTimingModel:
    def test_monolithic_range_uses_hardware(self):
        # Below 35,904 bits one monolithic op: latency far below any
        # software recursion at the same size.
        assert mul_cycles(35904) < 2000

    def test_monotonic(self):
        previous = 0.0
        for bits in (64, 4096, 35904, 100000, 1 << 20, 1 << 23):
            cycles = mul_cycles(bits, bits)
            assert cycles >= previous
            previous = cycles

    def test_karatsuba_recursion_above_monolithic(self):
        just_below = mul_cycles(MONOLITHIC_MAX_BITS)
        just_above = mul_cycles(2 * MONOLITHIC_MAX_BITS)
        assert 2.0 < just_above / just_below < 10.0

    def test_ssa_padding_zigzag(self):
        # MPApca pads to the next power of two: crossing a 2^k boundary
        # bumps the cost visibly (Figure 11's zigzag).
        at_pow2 = mul_cycles(1 << 23)
        just_above = mul_cycles((1 << 23) + (1 << 18))
        assert just_above > at_pow2 * 1.2

    def test_speedup_bands_match_paper(self):
        # Figure 11's three regimes against the CPU model.
        def speedup(bits):
            return (cpu.multiply_seconds(bits)
                    / mpapca.multiply_seconds(bits))
        # Monolithic/fast range peaks around 100x (paper: up to 100.98).
        peak = max(speedup(b) for b in (8192, 16384, 24000, 35904))
        assert 70 < peak < 140
        # Toom range keeps tens-of-x (paper: 18.06-67.78).
        toom = [speedup(b) for b in (100000, 400000, 1600000)]
        assert all(15 < s < 90 for s in toom)
        # SSA range drops to a few-to-teens (paper: 3.87-14.89).
        ssa = [speedup(b) for b in (4 << 20, 16 << 20, 48 << 20)]
        assert all(2 < s < 20 for s in ssa)

    def test_crossover_near_1000_bits(self):
        # Below ~1 kbit the dispatch overhead lets the CPU win.
        assert cpu.multiply_seconds(64) < mpapca.multiply_seconds(64)
        assert cpu.multiply_seconds(8192) > mpapca.multiply_seconds(8192)

    def test_operator_cost_helpers(self):
        assert mpapca.add_cycles(1 << 20) > mpapca.add_cycles(1 << 10)
        assert mpapca.shift_cycles() == 40.0
        assert mpapca.div_cycles(8192, 4096) > mul_cycles(8192, 4096)
        assert mpapca.sqrt_cycles(8192) > mul_cycles(8192, 8192)
        assert mpapca.powmod_cycles(2048, 2048) \
            > 1000 * mul_cycles(2048, 2048)


class TestPriceTrace:
    def test_classes_and_totals(self):
        trace = OperationTrace()
        trace.ops.extend([KernelOp("mul", 8192, 8192),
                          KernelOp("add", 8192, 8192),
                          KernelOp("shift", 8192, 3),
                          KernelOp("highlevel", 1)])
        cost = price_trace(trace)
        assert cost.seconds > 0 and cost.joules > 0
        assert set(cost.cycles_by_class) \
            == {"mul", "add", "shift", "highlevel"}
        assert abs(sum(cost.breakdown().values()) - 1.0) < 1e-9

    def test_energy_includes_llc_traffic(self):
        light = OperationTrace()
        light.ops.append(KernelOp("shift", 1 << 24, 3))
        heavy = OperationTrace()
        heavy.ops.append(KernelOp("add", 1 << 24, 1 << 24))
        # Same ballpark seconds but the add moves far more LLC bits.
        assert price_trace(heavy).joules > price_trace(light).joules


class TestRuntimeFunctional:
    def test_operators_exact_and_accounted(self):
        runtime = MPApca()
        a, b = (1 << 5000) - 123, (1 << 4000) + 77
        assert from_nat(runtime.mul(to_nat(a), to_nat(b))) == a * b
        assert from_nat(runtime.add(to_nat(a), to_nat(b))) == a + b
        assert from_nat(runtime.sub(to_nat(a), to_nat(b))) == a - b
        assert from_nat(runtime.shift(to_nat(a), 11)) == a << 11
        assert from_nat(runtime.shift(to_nat(a), 11, left=False)) \
            == a >> 11
        assert runtime.operations == 5
        assert runtime.seconds > 0
        assert runtime.joules > 0

    def test_device_backed_multiply(self):
        runtime = MPApca(use_device=True)
        a, b = (1 << 900) - 5, (1 << 800) + 9
        assert from_nat(runtime.mul(to_nat(a), to_nat(b))) == a * b

    @pytest.mark.parametrize("bits, backend, algorithm, steps, cycles", [
        (64, "device", "monolithic",
         ("stream:monolithic (one MUL instruction, 64x64 bits)",), 142.0),
        (4096, "device", "monolithic",
         ("stream:monolithic (one MUL instruction, 4096x4096 bits)",),
         142.0),
        (MONOLITHIC_MAX_BITS, "device", "monolithic",
         ("stream:monolithic (one MUL instruction, 35904x35904 bits)",),
         1390.0),
        (MONOLITHIC_MAX_BITS + 1, "library", "karatsuba",
         ("kernel:karatsuba (1123 limbs)", "kernel:basecase (563 limbs)"),
         2206.76171875),
        (300000, "library", "toom4",
         ("kernel:toom4 (9375 limbs)", "kernel:karatsuba (2345 limbs)",
          "kernel:karatsuba (1174 limbs)", "kernel:basecase (588 limbs)"),
         72229.984375),
    ])
    def test_device_runtime_plans_stay_on_the_simulator(
            self, bits, backend, algorithm, steps, cycles):
        # The paper figures run MPApca(use_device=True): its muls keep
        # the simulator up to the monolithic limit, where ``auto``
        # would pick a host kernel.
        plan = mpapca._mul_plan(bits, bits, True)
        assert plan.backend == backend
        assert plan.algorithm == algorithm
        assert tuple(step.describe() for step in plan.steps) == steps
        assert plan.cost_cycles == cycles == mul_cycles(bits, bits)

    def test_large_multiply_falls_back_to_fast_algorithms(self):
        runtime = MPApca(use_device=True)
        a = (1 << (MONOLITHIC_MAX_BITS + 5000)) - 3
        assert from_nat(runtime.mul(to_nat(a), to_nat(a))) == a * a

    def test_cost_accumulates(self):
        runtime = MPApca()
        runtime.mul(to_nat(1 << 100), to_nat(1 << 100))
        first = runtime.cycles
        runtime.mul(to_nat(1 << 100), to_nat(1 << 100))
        assert runtime.cycles == pytest.approx(2 * first)
