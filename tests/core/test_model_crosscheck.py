"""Analytic model vs functional simulator cross-checks (ISSUE 2).

Three invariants are pinned here:

* the analytic :class:`CambriconPModel` and the functional simulator
  agree — the device's execution reports quote exactly the model's
  cycle counts, and the PE's *stepped* bit-serial pass consumes exactly
  the model's pass latency;
* the model prices in closed form — its chunk/window/wave/traffic
  counts equal what :meth:`CoreController.plan_multiply` enumerates,
  its cycles equal the pass-walk formula byte for byte, and pricing
  never materializes a schedule;
* the MPApca composition rules keep the cycle values they had when the
  model still walked every pass.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import CambriconP
from repro.core.controller import CoreController
from repro.core.memory import MemoryAgent, TrafficReport
from repro.core.model import (DISPATCH_CYCLES, CambriconPConfig,
                              CambriconPModel)
from repro.core.pe import ProcessingElement
from repro.mpn import nat_from_int

CONFIGS = [
    CambriconPConfig(),
    CambriconPConfig(num_pes=16, num_ipus=8, q=2),
    CambriconPConfig(num_pes=64, num_ipus=16, q=4, limb_bits=16),
]


def bits_id(config: CambriconPConfig) -> str:
    return "%dpe-%dipu-q%d-L%d" % (config.num_pes, config.num_ipus,
                                   config.q, config.limb_bits)


class TestModelMatchesSimulator:
    @pytest.mark.parametrize("config", CONFIGS, ids=bits_id)
    @pytest.mark.parametrize("bits", [33, 128, 1000])
    def test_report_cycles_equal_model_cycles(self, config, bits):
        device = CambriconP(config)
        model = CambriconPModel(config)
        rng = random.Random(bits)
        a = nat_from_int(rng.getrandbits(bits) | (1 << (bits - 1)))
        b = nat_from_int(rng.getrandbits(bits) | (1 << (bits - 1)))
        _, report = device.multiply(a, b)
        assert report.cycles == model.multiply_cycles(bits, bits)
        assert report.seconds == model.seconds(report.cycles)

    @pytest.mark.parametrize("config", CONFIGS, ids=bits_id)
    def test_stepped_pass_consumes_model_pass_latency(self, config):
        """The bit-serially *stepped* PE and the analytic fill latency
        must agree cycle for cycle."""
        pe = ProcessingElement(config.num_ipus, config.q,
                               config.limb_bits)
        model = CambriconPModel(config)
        rng = random.Random(7)
        limit = (1 << config.limb_bits) - 1
        chunk = [rng.randint(1, limit) for _ in range(config.q)]
        window = [rng.randint(1, limit)
                  for _ in range(pe.window_limbs)]
        stepped = pe.compute_pass_bit_serial(chunk, window)
        assert stepped.cycles == model.pass_latency_cycles

    def test_bit_serial_and_word_paths_agree(self):
        config = CONFIGS[1]
        device = CambriconP(config)
        rng = random.Random(42)
        a = nat_from_int(rng.getrandbits(300) | (1 << 299))
        b = nat_from_int(rng.getrandbits(290) | (1 << 289))
        fast, fast_report = device.multiply(a, b)
        slow, slow_report = device.multiply(a, b, bit_serial=True)
        assert fast == slow
        assert fast_report.cycles == slow_report.cycles


def walked_cycles(model: CambriconPModel, bits_a: int, bits_b: int,
                  include_dispatch: bool, throughput: bool) -> float:
    """The model's cycles, priced by walking the enumerated passes."""
    config = model.config
    limb_bits = config.limb_bits
    schedule = CoreController(config.num_pes, config.num_ipus,
                              config.q).plan_multiply(
        max(1, -(-bits_a // limb_bits)), max(1, -(-bits_b // limb_bits)))
    chunks = {p.chunk_index for p in schedule.passes}
    windows = {p.window_index for p in schedule.passes}
    traffic = TrafficReport(
        len(chunks) * config.q * limb_bits,
        len(windows) * (config.num_ipus + config.q - 1) * limb_bits,
        (schedule.num_x_limbs + schedule.num_y_limbs) * limb_bits)
    waves = max(p.wave for p in schedule.passes) + 1
    compute = waves * model.pass_occupancy_cycles
    if not throughput:
        compute += model.pass_latency_cycles
    cycles = max(compute, model.memory.streaming_cycles(
        traffic, config.frequency_hz))
    if include_dispatch and not throughput:
        cycles += DISPATCH_CYCLES
    return cycles


configs = st.builds(
    CambriconPConfig,
    num_pes=st.integers(1, 300),
    num_ipus=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    q=st.integers(1, 8),
    limb_bits=st.integers(4, 64))


class TestClosedFormShape:
    @settings(max_examples=60, deadline=None)
    @given(config=configs, limbs_x=st.integers(1, 300),
           limbs_y=st.integers(1, 300))
    def test_shape_and_traffic_equal_enumerated_schedule(
            self, config, limbs_x, limbs_y):
        controller = CoreController(config.num_pes, config.num_ipus,
                                    config.q)
        shape = controller.multiply_shape(limbs_x, limbs_y)
        schedule = controller.plan_multiply(limbs_x, limbs_y)
        chunks = {p.chunk_index for p in schedule.passes}
        windows = {p.window_index for p in schedule.passes}
        assert shape.chunks == len(chunks)
        assert shape.windows == len(windows)
        assert shape.num_passes == len(schedule.passes)
        assert shape.num_waves \
            == max(p.wave for p in schedule.passes) + 1
        assert list(schedule.waves()) \
            == [[p for p in schedule.passes if p.wave == w]
                for w in range(shape.num_waves)]
        agent = MemoryAgent(config.num_ipus, config.q, config.limb_bits)
        window_limbs = config.num_ipus + config.q - 1
        assert agent.multiply_traffic(shape) == TrafficReport(
            len(chunks) * config.q * config.limb_bits,
            len(windows) * window_limbs * config.limb_bits,
            (limbs_x + limbs_y) * config.limb_bits)

    @settings(max_examples=60, deadline=None)
    @given(config=configs, data=st.data())
    def test_cycles_equal_pass_walk_bytewise(self, config, data):
        bits = st.integers(1, 300 * config.limb_bits)
        bits_a, bits_b = data.draw(bits), data.draw(bits)
        model = CambriconPModel(config)
        for dispatch in (True, False):
            assert struct.pack("<d", model.multiply_cycles(
                bits_a, bits_b, dispatch)) == struct.pack(
                "<d", walked_cycles(model, bits_a, bits_b, dispatch,
                                    throughput=False))
        assert struct.pack("<d", model.multiply_throughput_cycles(
            bits_a, bits_b)) == struct.pack(
            "<d", walked_cycles(model, bits_a, bits_b, False,
                                throughput=True))

    def test_pricing_never_plans_a_schedule(self, monkeypatch):
        """Lowering and model queries price from the closed form: they
        complete with the pass enumerator disabled."""
        from repro.plan.execute import model_query
        from repro.plan.lowering import lower
        from repro.plan.spec import OpSpec
        from repro.runtime import mpapca
        from repro.serve.jobs import MODEL_MAX_BITS

        def refuse(*_args, **_kwargs):
            raise AssertionError("pricing walked a pass schedule")

        monkeypatch.setattr(CoreController, "plan_multiply", refuse)
        mpapca.mul_cycles.cache_clear()
        bits = 96 * 1024
        for op in ("mul", "div"):
            plan = lower(OpSpec(op, bits, bits), use_cache=False)
            assert plan.cost_cycles > 0
        assert model_query("mul", MODEL_MAX_BITS, 0) > 0


class TestPinnedMpapcaCycles:
    """Prices captured while the model still enumerated every pass:
    at the monolithic edge, the Karatsuba/Toom-3 edge and the SSA edge."""

    @pytest.mark.parametrize("bits,mul,div,powmod", [
        (35904, 1390, 4905.0, 137243080.00000003),
        (35905, 2206.76171875, 7763.666015625, 217892933.6572266),
        (107712, 12754.75, 44681.625, 3778059028.0),
        (2872321, 13409080.0, 46931820.0, 105916750705410.02),
    ])
    def test_cycles_unchanged(self, bits, mul, div, powmod):
        from repro.runtime import mpapca
        for got, want in ((mpapca.mul_cycles(bits, bits), mul),
                          (mpapca.div_cycles(bits, bits), div),
                          (mpapca.powmod_cycles(bits, bits), powmod)):
            assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_mul_cycles_memo_is_bounded(self):
        """Clients choose the widths, so a long-running server must not
        grow the pricing memo without limit."""
        from repro.runtime import mpapca
        assert mpapca.mul_cycles.cache_info().maxsize == 4096
