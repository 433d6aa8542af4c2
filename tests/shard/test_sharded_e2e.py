"""End-to-end acceptance for the sharded topology.

A real router in front of two real shard worker processes: responses
must be bit-identical to the oracle across every op, malformed input
must get the same 4xx through the router as from one server, the
merged ``/metrics`` scrape must carry both shard and router series,
the health aggregate must reflect fleet state, and the cross-shard
cache must answer repeats without touching a shard.

One fleet boots per module (two OS processes per fixture are too
expensive to respawn per test); tests only read or add load, never
break the fleet — crash recovery has its own module.
"""

import json

import pytest

from repro.serve.client import ServeClient, expected_result, run_load
from repro.serve.jobs import max_operand_bits, max_pi_digits
from repro.serve.server import ServeConfig, ServerThread
from repro.shard.cache import ShardResultCache
from repro.shard.router import RouterConfig, RouterThread
from repro.shard.supervisor import STATE_UP, ShardSupervisor


@pytest.fixture(scope="module")
def fleet():
    config = RouterConfig(port=0, shards=2, per_shard_depth=64,
                          drain_s=30.0)
    with RouterThread(config,
                      cache=ShardResultCache(persist=False)) as fleet:
        yield fleet


@pytest.fixture(scope="module")
def single():
    with ServerThread() as single:
        yield single


def _body(**fields):
    return json.dumps(fields).encode("utf-8")


_MUL = {"a": 3, "b": 5}

#: Malformed bodies: each must get the same status and error code
#: through the router as from one server.
MALFORMED = [
    ("bad-json", b"{not json"),
    ("non-object", b"[1, 2]"),
    ("unknown-op", _body(op="frobnicate", params=_MUL)),
    ("bad-params", _body(op="mul", params=[1, 2])),
    ("zero-divisor", _body(op="div", params={"a": 5, "b": 0})),
    ("zero-modulus", _body(op="powmod",
                           params={"base": 3, "exp": 5, "mod": 0})),
    ("negative", _body(op="mul", params={"a": -3, "b": 5})),
    ("oversized", _body(op="mul", params={
        "a": hex(1 << max_operand_bits()), "b": 3})),
    ("priority", _body(op="mul", params=_MUL, priority=12)),
    ("deadline", _body(op="mul", params=_MUL, deadline_ms=-1)),
    ("id", _body(op="mul", params=_MUL, id=17)),
    ("pi-ceiling", _body(op="pi_digits",
                         params={"digits": max_pi_digits() + 1})),
]


class TestShardedEndToEnd:
    def test_all_five_ops_bit_identical(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
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
            assert body["result"] == expected_result(payload)

    def test_mixed_load_zero_wrong_answers(self, fleet):
        report = run_load(fleet.host, fleet.port, requests=48,
                          concurrency=12, seed=13, verify=True)
        assert report["wrong_answers"] == 0
        assert report["errors"] == 0
        assert report["ok"] > 0
        assert report["ok"] + report["shed"] + \
            report["deadline"] == 48

    def test_invalid_requests_rejected_at_the_front_door(self, fleet):
        # A bad body or unknown op is answered by the router itself;
        # a shard's validation answer is relayed unchanged.
        client = ServeClient(fleet.host, fleet.port)
        status, body = client.request({"op": "div",
                                       "params": {"a": 5, "b": 0}})
        assert status == 400
        assert body["error"] == "invalid:zero-divisor"
        status, raw = client.raw("POST", "/v1/job", b"{not json")
        assert status == 400
        assert json.loads(raw)["error"] == "invalid:bad-json"
        status, _ = client.raw("GET", "/nowhere")
        assert status == 404

    def test_merged_metrics_carry_both_planes(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        # Drive one uncacheable job so at least one shard has series.
        status, body = client.request(
            {"op": "mul", "params": {"a": 7, "b": 9}})
        assert status == 200 and body["ok"]
        values = client.metrics_values()
        shard_series = [k for k in values
                        if k.startswith("repro_serve_")]
        router_series = [k for k in values
                         if k.startswith("repro_router_")]
        assert shard_series, "merged scrape lost the shard series"
        assert router_series, "merged scrape lost the router series"
        assert any(k.startswith("repro_serve_requests_total")
                   for k in values)
        assert any(k.startswith("repro_router_routed_total")
                   for k in values)

    def test_statz_reports_fleet_view(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        stats = client.statz()
        assert stats["ok"] and stats["role"] == "router"
        assert len(stats["shards"]) == 2
        assert all(shard["state"] == "up"
                   for shard in stats["shards"])
        assert all(shard["pid"] for shard in stats["shards"])
        assert stats["restarts"] == 0

    def test_healthz_aggregate_is_ok_with_per_shard_lines(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        lines = client.health().splitlines()
        assert lines[0] == "ok"
        assert lines[1:] == ["shard 0: up", "shard 1: up"]

    def test_cross_shard_cache_answers_repeats(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        payload = {"op": "pi_digits", "params": {"digits": 33}}
        status, first = client.request(payload)
        assert status == 200 and first["ok"]
        before = client.statz()["cache"]["hits"]
        status, second = client.request(payload)
        assert status == 200 and second["ok"]
        assert second["result"] == first["result"]
        assert second["cached"] is True
        assert client.statz()["cache"]["hits"] == before + 1

    def test_sequential_jobs_alternate_between_shards(self, fleet):
        # Least-loaded routing: sequential jobs find every shard idle,
        # so each goes to the shard that has served fewest, and the
        # gap in per-shard ``served`` narrows by one per job until it
        # is at most one.  Earlier tests share the fleet, so the
        # shards start out unequal.
        client = ServeClient(fleet.host, fleet.port)
        before = {shard["index"]: shard["served"]
                  for shard in client.statz()["shards"]}
        for exponent in range(40, 56):
            status, body = client.request(
                {"op": "mul", "params": {"a": hex(3 ** exponent),
                                         "b": hex(5 ** exponent)}})
            assert status == 200 and body["ok"]
        after = {shard["index"]: shard["served"]
                 for shard in client.statz()["shards"]}
        assert sum(after.values()) - sum(before.values()) == 16
        gap_before = max(before.values()) - min(before.values())
        gap_after = max(after.values()) - min(after.values())
        assert gap_after <= max(1, gap_before - 16)

    def test_router_cache_counters_agree_with_statz(self, fleet):
        # Only cacheable jobs (pi_digits, model_cycles) are counted as
        # cache hits or misses, on both planes.
        client = ServeClient(fleet.host, fleet.port)
        report = run_load(fleet.host, fleet.port, requests=40,
                          concurrency=4, seed=17, verify=True)
        assert report["wrong_answers"] == 0 and report["errors"] == 0
        cache = client.statz()["cache"]
        values = client.metrics_values()
        assert values.get("repro_router_cache_hits_total", 0.0) \
            == cache["hits"]
        assert values.get("repro_router_cache_misses_total", 0.0) \
            == cache["misses"]
        assert cache["hits"] + cache["misses"] < 40

    def test_router_reuses_shard_connections(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        report = run_load(fleet.host, fleet.port, requests=32,
                          concurrency=4, seed=19, verify=True)
        assert report["wrong_answers"] == 0 and report["errors"] == 0
        values = client.metrics_values()
        connects = sum(value for key, value in values.items()
                       if key.startswith(
                           "repro_router_shard_connect_total"))
        routed = sum(value for key, value in values.items()
                     if key.startswith("repro_router_routed_total"))
        assert routed >= 32 // 2
        assert 0 < connects < routed

    def test_front_door_keeps_the_connection_open(self, fleet):
        import http.client
        connection = http.client.HTTPConnection(fleet.host, fleet.port,
                                                timeout=60.0)
        sockets = []
        try:
            for a in (6, 7):
                connection.request(
                    "POST", "/v1/job", body=json.dumps(
                        {"op": "mul", "params": {"a": a, "b": 7}}),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                body = json.loads(response.read())
                sockets.append(connection.sock)
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
                assert body["result"]["product"] == hex(a * 7)
            # Both answers came over the one socket.
            assert sockets[0] is not None and sockets[0] is sockets[1]
        finally:
            connection.close()

    @pytest.mark.parametrize("name,body", MALFORMED,
                             ids=[name for name, _ in MALFORMED])
    def test_malformed_input_matches_one_server(self, fleet, single,
                                                name, body):
        answers = []
        for front in (fleet, single):
            client = ServeClient(front.host, front.port)
            status, raw = client.raw("POST", "/v1/job", body)
            answers.append((status, json.loads(raw)["error"]))
        assert answers[0] == answers[1]
        assert 400 <= answers[0][0] < 500
        assert answers[0][1].startswith("invalid:")


class TestShardShedRelay:
    def test_shard_503_reaches_the_client_with_its_reason(
            self, monkeypatch):
        # The shard is an in-process server whose wait gate sheds any
        # priced job: a bound far below one job's cost, and a service
        # rate seeded so the estimate exists.  The router's own depth
        # bound stays open, so only the shard can shed.
        shard = ServerThread(ServeConfig(port=0, max_wait_ms=1e-9))
        shard.start()
        shard._loop.call_soon_threadsafe(
            shard.server.queue.seed_service_rate, 1.0)

        async def pin_to_shard(supervisor):
            handle = supervisor.handles[0]
            handle.host, handle.port = shard.host, shard.port
            handle.state = STATE_UP

        monkeypatch.setattr(ShardSupervisor, "start", pin_to_shard)
        config = RouterConfig(port=0, shards=1, per_shard_depth=64)
        try:
            with RouterThread(config, cache=ShardResultCache(
                    enabled=False)) as fleet:
                client = ServeClient(fleet.host, fleet.port)
                status, body = client.request(
                    {"op": "mul", "params": {"a": hex(3 ** 200),
                                             "b": hex(7 ** 150)}})
                assert status == 503, body
                assert body["error"] == "rejected:overloaded"
                assert body["reason"] == "wait-exceeded"
                assert fleet.router.statz()["shed"] == 0
        finally:
            shard.stop()
