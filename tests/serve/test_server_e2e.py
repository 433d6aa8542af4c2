"""End-to-end acceptance: a real server, real sockets, real load.

Covers the subsystem's contract: bit-identical answers across all five
job types under 32 in-flight concurrent clients, K-bounded memory with
explicit shed responses under a 4x-capacity burst, ``/metrics``
agreeing with the load generator's ground truth, and a graceful drain
that answers queued work before exiting.
"""

import json
import threading
import time

import pytest

from repro.serve.client import ServeClient, build_jobs, run_load
from repro.serve.jobs import evaluate, validate_params
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.trace import Tracer


@pytest.fixture()
def server():
    config = ServeConfig(port=0, queue_capacity=64, max_batch=8,
                         batch_ms=2.0, max_wait_ms=60_000.0)
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
            {"op": "pi_digits", "params": {"digits": 40}},
            {"op": "model_cycles", "params": {"op": "powmod",
                                              "bits_a": 2048,
                                              "bits_b": 2048}},
        ]
        for payload in cases:
            status, body = client.request(payload)
            assert status == 200, body
            assert body["ok"]
            expected = evaluate((payload["op"], validate_params(
                payload["op"], payload["params"])))
            assert body["result"] == expected

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
                             max_batch=4, batch_ms=1.0,
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
        config = ServeConfig(port=0, queue_capacity=64, max_batch=4,
                             batch_ms=1.0)
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
        config = ServeConfig(port=0, queue_capacity=16, max_batch=4,
                             batch_ms=1.0, max_wait_ms=60_000.0)
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
        assert set(backends.values()) <= {"library", "packed",
                                          "specialized", "rns"}


class TestTracing:
    def test_traces_collected_when_enabled(self, tmp_path, monkeypatch):
        # The server dumps buffered traces on drain; keep that file
        # inside the test sandbox.
        monkeypatch.setenv("REPRO_TRACE_FILE",
                           str(tmp_path / "drain.jsonl"))
        config = ServeConfig(port=0, queue_capacity=16, max_batch=4,
                             batch_ms=1.0)
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
