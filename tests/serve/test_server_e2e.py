"""End-to-end acceptance: a real server, real sockets, real load.

Covers the subsystem's contract: bit-identical answers across all five
job types under 32 in-flight concurrent clients, K-bounded memory with
explicit shed responses under a 4x-capacity burst, ``/metrics``
agreeing with the load generator's ground truth, and a graceful drain
that answers queued work before exiting.
"""

import functools
import importlib
import json
import random
import threading
import time

import pytest

from repro.serve.client import (ServeClient, build_jobs, expected_result,
                                run_load)
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.trace import Tracer


@pytest.fixture()
def server():
    config = ServeConfig(port=0, queue_capacity=64,
                         max_wait_ms=60_000.0)
    with ServerThread(config) as hosted:
        yield hosted


class TestEndToEnd:
    def test_all_five_ops_bit_identical(self, server):
        client = ServeClient(server.host, server.port)
        cases = [
            {"op": "mul", "params": {"a": hex(3 ** 300),
                                     "b": hex(7 ** 250)}},
            {"op": "div", "params": {"a": hex(10 ** 100 + 7),
                                     "b": "9973"}},
            {"op": "powmod", "params": {"base": "0xabcdef",
                                        "exp": "65537",
                                        "mod": hex((1 << 255) - 19)}},
            # An even modulus (the limb backend's division ladder).
            {"op": "powmod", "params": {"base": hex(3 ** 200),
                                        "exp": "0x1234567",
                                        "mod": hex((1 << 300) - 2)}},
            {"op": "pi_digits", "params": {"digits": 40}},
            {"op": "model_cycles", "params": {"op": "powmod",
                                              "bits_a": 2048,
                                              "bits_b": 2048}},
        ]
        for payload in cases:
            status, body = client.request(payload)
            assert status == 200, body
            assert body["ok"]
            assert body["result"] == expected_result(payload)

    def test_32_concurrent_clients_zero_wrong_answers(self, server):
        report = run_load(server.host, server.port, requests=96,
                          concurrency=32, seed=11, verify=True)
        assert report["wrong_answers"] == 0
        assert report["errors"] == 0
        assert report["ok"] + report["shed"] + report["deadline"] == 96
        assert report["ok"] > 0

    def test_invalid_requests_get_400_vocabulary(self, server):
        client = ServeClient(server.host, server.port)
        status, body = client.request({"op": "div",
                                       "params": {"a": 5, "b": 0}})
        assert status == 400
        assert body["error"] == "invalid:zero-divisor"
        status, body = client.request({"op": "nope", "params": {}})
        assert status == 400
        assert body["error"] == "invalid:unknown-op"
        status, raw = client.raw("POST", "/v1/job", b"{not json")
        assert status == 400
        assert json.loads(raw)["error"] == "invalid:bad-json"
        status, raw = client.raw("GET", "/nowhere")
        assert status == 404

    def test_metrics_match_ground_truth_within_one_percent(self, server):
        requests = 120
        report = run_load(server.host, server.port, requests=requests,
                          concurrency=8, seed=3, verify=False)
        client = ServeClient(server.host, server.port)
        values = client.metrics_values()
        served = sum(value for key, value in values.items()
                     if key.startswith("repro_serve_requests_total{"))
        shed = sum(value for key, value in values.items()
                   if key.startswith("repro_serve_shed_total"))
        answered = report["ok"] + report["shed"] + report["deadline"]
        assert answered == requests
        # The server's counters must agree with the load generator.
        assert served == pytest.approx(requests, rel=0.01)
        assert shed == pytest.approx(report["shed"], rel=0.01)
        ok_responses = values.get(
            'repro_serve_responses_total{status="ok"}', 0.0)
        assert ok_responses == pytest.approx(report["ok"], rel=0.01)
        latency_count = values.get("repro_serve_latency_ms_count", 0.0)
        assert latency_count >= report["ok"]

    def test_healthz(self, server):
        client = ServeClient(server.host, server.port)
        assert client.health() == "ok"


class TestOverload:
    def test_4x_capacity_burst_sheds_explicitly_and_stays_bounded(self):
        capacity = 8
        config = ServeConfig(port=0, queue_capacity=capacity,
                             max_wait_ms=1e9)
        with ServerThread(config) as hosted:
            client = ServeClient(hosted.host, hosted.port)
            total = 4 * capacity
            results = [None] * total
            # Distinct expensive pi queries defeat the result cache so
            # the queue genuinely backs up.
            payloads = [{"op": "pi_digits",
                         "params": {"digits": 300 + index},
                         "id": "burst-%d" % index}
                        for index in range(total)]

            def fire(index):
                results[index] = client.request(payloads[index])

            threads = [threading.Thread(target=fire, args=(index,))
                       for index in range(total)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            ok = shed = 0
            for status, body in results:
                if status == 200 and body["ok"]:
                    ok += 1
                else:
                    assert status == 503, (status, body)
                    assert body["error"] == "rejected:overloaded"
                    assert body["reason"] in ("queue-full",
                                              "wait-exceeded")
                    shed += 1
            assert ok + shed == total
            assert shed > 0                  # the burst did overload
            assert ok > 0                    # but service continued
            # K-bounded: the queue never exceeded its capacity.
            depth = hosted.server.queue.max_depth
            assert depth <= capacity
            metrics = client.metrics_values()
            shed_metric = sum(
                value for key, value in metrics.items()
                if key.startswith("repro_serve_shed_total"))
            assert shed_metric == shed


class TestDeadlinesAndPriorities:
    def test_deadline_rejected_when_impossible(self, server):
        client = ServeClient(server.host, server.port)
        status, body = client.request(
            {"op": "pi_digits", "params": {"digits": 600},
             "deadline_ms": 0.01})
        assert status in (200, 504)
        if status == 504:
            assert body["error"] == "rejected:deadline"

    def test_priorities_accepted_across_range(self, server):
        client = ServeClient(server.host, server.port)
        for priority in (0, 5, 9):
            status, body = client.request(
                {"op": "mul", "params": {"a": 3, "b": 4},
                 "priority": priority})
            assert status == 200 and body["ok"]


class TestShutdownDrain:
    def test_queued_work_is_answered_then_clean_exit(self):
        config = ServeConfig(port=0, queue_capacity=64)
        hosted = ServerThread(config)
        hosted.start()
        client = ServeClient(hosted.host, hosted.port)
        results = []
        lock = threading.Lock()

        def fire(index):
            outcome = client.request(
                {"op": "pi_digits", "params": {"digits": 150 + index}})
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=fire, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        # Wait until the server has received every request, then begin
        # the drain while they are in flight (or already queued).
        deadline = time.monotonic() + 30.0
        registry = hosted.server.registry
        while registry.counter_total("requests_total") < 6:
            assert time.monotonic() < deadline, "requests never arrived"
            time.sleep(0.001)
        hosted._loop.call_soon_threadsafe(
            hosted.server.trigger_shutdown)
        for thread in threads:
            thread.join()
        hosted.stop()
        assert len(results) == 6
        ok = 0
        for status, body in results:
            # In-flight work drains (200); a request that races the
            # drain flag is shed explicitly — never dropped.
            assert status in (200, 503), (status, body)
            if status == 503:
                assert body["reason"] == "shutting-down"
            else:
                assert body["ok"]
                ok += 1
        assert ok >= 1                       # the drain answered work


class TestHostKernelMul:
    def test_served_mul_is_exact_and_lowers_to_a_host_kernel(
            self, tmp_path, monkeypatch):
        """A served mul never touches the device simulator: the trace
        stamps the server's own lowering with a host backend."""
        from repro.runtime.mpapca import MONOLITHIC_MAX_BITS
        monkeypatch.setenv("REPRO_TRACE_FILE",
                           str(tmp_path / "drain.jsonl"))
        config = ServeConfig(port=0, queue_capacity=16,
                             max_wait_ms=60_000.0)
        hosted = ServerThread(config, tracer=Tracer(enabled=True))
        hosted.start()
        try:
            client = ServeClient(hosted.host, hosted.port)
            for bits in (1, 64, 1024, MONOLITHIC_MAX_BITS):
                a, b = (1 << bits) - 1, 3 ** (bits // 2) + 1
                status, body = client.request(
                    {"op": "mul", "id": "m%d" % bits,
                     "params": {"a": hex(a), "b": hex(b)}})
                assert status == 200 and body["ok"], body
                assert body["result"] == {"product": hex(a * b)}
            status, raw = client.raw("GET", "/traces")
            assert status == 200
            backends = {trace["id"]: trace["meta"]["backend"]
                        for trace in json.loads(raw)["traces"]}
        finally:
            hosted.stop()
        assert len(backends) == 4
        assert set(backends.values()) <= {"library", "packed"}


#: Every mpn kernel entry a served mul, div or powmod reaches, with the
#: backend it belongs to.
KERNEL_ENTRIES = (("repro.mpn.mul", "mul_packed", "packed"),
                  ("repro.mpn.packed", "mul_packed_int", "packed"),
                  ("repro.mpn.mul", "_walk_mul", "library"),
                  ("repro.mpn.div", "divmod_packed", "packed"),
                  ("repro.mpn.packed", "divmod_packed_int", "packed"),
                  ("repro.mpn.div", "divmod_schoolbook", "library"),
                  ("repro.mpn.div", "divmod_newton", "library"),
                  ("repro.mpn.packed", "powmod_packed", "packed"),
                  ("repro.mpn.packed", "powmod_packed_int", "packed"),
                  ("repro.mpn.montgomery", "powmod", "library"))


def _recording(kernel, backend, ran, *args):
    ran.add(backend)
    return kernel(*args)


def _operand(limbs, seed):
    return random.Random(seed).getrandbits(32 * limbs) \
        | 1 << (32 * limbs - 1)


class TestLabelIsTheKernelThatRan:
    @pytest.mark.parametrize("killswitch", ("1", "0"))
    def test_trace_backend_is_the_kernel_that_ran(
            self, killswitch, tmp_path, monkeypatch, reselect,
            fresh_plans):
        """Served mul and div at 1-4 limbs (packed from 1 limb up) and
        powmod at odd and even moduli: each request's trace ``backend``
        is the one kernel family that computed it."""
        reselect(killswitch)
        monkeypatch.setenv("REPRO_TRACE_FILE",
                           str(tmp_path / "drain.jsonl"))
        ran, kernels = set(), {}
        for module_name, name, backend in KERNEL_ENTRIES:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, name, functools.partial(
                _recording, getattr(module, name), backend, ran))
        payloads = [{"op": op, "params": {
            "a": hex(_operand(limbs * width, limbs)),
            "b": hex(_operand(limbs, limbs + 9))}}
            for limbs in (1, 2, 3, 4)
            for op, width in (("mul", 1), ("div", 2))]
        payloads += [{"op": "powmod", "params": {
            "base": hex(_operand(limbs + 1, limbs)), "exp": "0x10001",
            "mod": hex(_operand(limbs, limbs + 9) & ~1 | odd)}}
            for limbs in (2, 9) for odd in (0, 1)]
        hosted = ServerThread(ServeConfig(port=0),
                              tracer=Tracer(enabled=True))
        hosted.start()
        try:
            client = ServeClient(hosted.host, hosted.port)
            for index, payload in enumerate(payloads):
                payload["id"] = "k%d" % index
                ran.clear()
                status, body = client.request(payload)
                assert status == 200 and body["ok"], body
                assert body["result"] == expected_result(payload)
                kernels[payload["id"]] = set(ran)
            status, raw = client.raw("GET", "/traces")
        finally:
            hosted.stop()
        labels = {trace["id"]: trace["meta"]["backend"]
                  for trace in json.loads(raw)["traces"]}
        assert labels.keys() == kernels.keys()
        for job_id, backend in labels.items():
            assert kernels[job_id] == {backend}, job_id
        assert set(labels.values()) == (
            {"packed"} if killswitch == "1" else {"library"})


class TestTracing:
    def test_traces_collected_when_enabled(self, tmp_path, monkeypatch):
        # The server dumps buffered traces on drain; keep that file
        # inside the test sandbox.
        monkeypatch.setenv("REPRO_TRACE_FILE",
                           str(tmp_path / "drain.jsonl"))
        config = ServeConfig(port=0, queue_capacity=16)
        tracer = Tracer(enabled=True)
        hosted = ServerThread(config, tracer=tracer)
        hosted.start()
        try:
            client = ServeClient(hosted.host, hosted.port)
            status, body = client.request(
                {"op": "mul", "params": {"a": 5, "b": 6}, "id": "t1"})
            assert status == 200 and body["ok"]
            status, raw = client.raw("GET", "/traces")
            assert status == 200
            traces = json.loads(raw)["traces"]
            assert any(trace["id"] == "t1" for trace in traces)
            spans = [trace for trace in traces
                     if trace["id"] == "t1"][0]["spans_ms"]
            assert "execute_start->execute_end" in spans
        finally:
            hosted.stop()
        target = tmp_path / "spans.jsonl"
        # Anything still buffered can be dumped after the drain.
        tracer.dump(target)

    def test_traces_endpoint_404_when_disabled(self, server):
        client = ServeClient(server.host, server.port)
        status, _ = client.raw("GET", "/traces")
        assert status == 404
