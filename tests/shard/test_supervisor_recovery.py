"""Crash recovery: kill a shard mid-load, the fleet survives.

The contract under test (the sharded topology's whole reason to
exist):

* in-flight jobs routed to the killed shard fail *fast* with
  ``error:internal`` — never a hang, never a wrong answer;
* the supervisor restarts the dead worker on a fresh port and the
  router routes to the new generation;
* load driven after recovery is answered bit-identically with zero
  errors, and the surviving responses from the crash window verify
  against the oracle.

This module gets its own fleet (it breaks one on purpose).
"""

import os
import signal
import threading
import time

import pytest

from repro.serve.client import ServeClient, run_load
from repro.shard.cache import ShardResultCache
from repro.shard.router import RouterConfig, RouterThread

#: How long the supervisor may take to respawn and re-announce.
_RECOVERY_DEADLINE_S = 30.0


@pytest.fixture(scope="module")
def fleet():
    config = RouterConfig(port=0, shards=2, per_shard_depth=64,
                          drain_s=30.0, max_restarts=5)
    with RouterThread(config,
                      cache=ShardResultCache(persist=False)) as fleet:
        yield fleet


def _await_recovery(client: ServeClient, min_restarts: int = 1):
    deadline = time.monotonic() + _RECOVERY_DEADLINE_S
    while time.monotonic() < deadline:
        stats = client.statz()
        if stats["restarts"] >= min_restarts and all(
                shard["state"] == "up"
                for shard in stats["shards"]):
            return stats
        time.sleep(0.25)
    raise AssertionError("fleet did not recover within %gs: %r"
                         % (_RECOVERY_DEADLINE_S, client.statz()))


class TestCrashRecovery:
    def test_kill_mid_load_fails_fast_then_recovers(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        stats = client.statz()
        assert all(s["state"] == "up" for s in stats["shards"])
        victim_pid = stats["shards"][0]["pid"]
        victim_generation = stats["shards"][0]["generation"]

        report_box = {}

        def drive():
            # timeout=30 bounds every request: a hung in-flight job
            # would surface as a slow transport error, failing the
            # wall-clock assertion below.
            report_box["report"] = run_load(
                fleet.host, fleet.port, requests=40, concurrency=8,
                seed=29, verify=True, timeout=30.0)

        loader = threading.Thread(target=drive)
        started = time.monotonic()
        loader.start()
        time.sleep(0.3)                     # let requests get in flight
        os.kill(victim_pid, signal.SIGKILL)
        loader.join(timeout=120.0)
        wall_s = time.monotonic() - started
        assert not loader.is_alive(), "load generator hung on a corpse"
        report = report_box["report"]

        # Every response accounted for; survivors bit-identical; the
        # crash window may surface 502 error:internal (counted under
        # errors) but never a wrong answer and never a hang.
        assert report["wrong_answers"] == 0
        assert report["ok"] > 0
        assert report["ok"] + report["shed"] + report["deadline"] \
            + report["errors"] == 40
        assert wall_s < 90.0, "in-flight jobs did not fail fast"
        for failure in report["failures"]:
            body = failure.get("body", {})
            if failure.get("status") == 502:
                assert body.get("error") == "error:internal"

        # The supervisor brings the shard back on a fresh generation.
        recovered = _await_recovery(client)
        revived = recovered["shards"][0]
        assert revived["restarts"] >= 1
        assert revived["generation"] > victim_generation
        assert revived["pid"] != victim_pid

    def test_load_after_recovery_is_clean(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        _await_recovery(client, min_restarts=1)
        report = run_load(fleet.host, fleet.port, requests=32,
                          concurrency=8, seed=31, verify=True,
                          timeout=60.0)
        assert report["wrong_answers"] == 0
        assert report["errors"] == 0
        assert report["ok"] > 0
        lines = client.health().splitlines()
        assert lines[0] == "ok"

    def test_crash_is_counted_in_router_metrics(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        values = client.metrics_values()
        crashes = sum(value for key, value in values.items()
                      if key.startswith("repro_router_shard_crash_total"))
        restarts = sum(value for key, value in values.items()
                       if key.startswith(
                           "repro_router_shard_restart_total"))
        assert crashes >= 1
        assert restarts >= 1
