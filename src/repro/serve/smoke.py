"""End-to-end smoke check: boot a real server, hammer it, drain it.

Run as ``PYTHONPATH=src python -m repro.serve.smoke`` (CI's serve-smoke
job) or ``... --shards 2`` (the sharded serve-smoke job).  The
sequence:

1. boot ``repro serve --port 0`` — with ``--shards N`` the plan-aware
   router plus N supervised shard workers — as a subprocess and parse
   the announced ephemeral port;
2. drive ~200 mixed requests through :func:`repro.serve.client.
   run_load` with bit-identical verification against the oracle, and
   require every mul to lower to a host kernel, never the device
   simulator;
3. scrape ``/metrics`` and require the core series to be present and
   consistent with the load generator's own counts (the sharded scrape
   must carry both the merged ``repro_serve_*`` shard series and the
   router's own ``repro_router_*`` series);
4. send SIGTERM and require a graceful drain (exit code 0) — sharded,
   that proves the router propagated the drain to every worker within
   the bounded deadline.

Exit status is non-zero on any failure; all output goes to stdout so
CI logs read as a transcript.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import time

from repro.serve.client import ServeClient, run_load

_LISTEN_RE = re.compile(
    r"repro-serve listening on (?P<host>[0-9.]+):(?P<port>\d+)")
_ROUTER_LISTEN_RE = re.compile(
    r"repro-router listening on (?P<host>[0-9.]+):(?P<port>\d+)")

#: How long to wait for the subprocess to announce its port.
_BOOT_TIMEOUT_S = 30.0
#: How long SIGTERM may take to drain (sharded: router + workers).
_DRAIN_TIMEOUT_S = 60.0


def _fail(message: str) -> int:
    print("SMOKE FAIL: %s" % message)
    return 1


def main(requests: int = 200, concurrency: int = 8,
         shards: int = 0) -> int:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("REPRO_SERVE_BATCH_MS", "2")
    if shards:
        # Keep the smoke hermetic: no disk-warmed cross-shard cache.
        env.setdefault("REPRO_SHARD_CACHE", "0")
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--shards", str(shards)]
    label = "router" if shards else "server"
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    try:
        host, port = _await_listening(
            process, _ROUTER_LISTEN_RE if shards else _LISTEN_RE,
            label=label)
        print("smoke: %s up on %s:%d (pid %d)"
              % (label, host, port, process.pid))

        client = ServeClient(host, port)
        health = client.health()
        if not health.startswith("ok"):
            return _fail("healthz did not answer ok (got %r)" % health)
        if shards and health.count("shard") != shards:
            return _fail("healthz reported %d shard lines, expected %d"
                         % (health.count("shard"), shards))

        report = run_load(host, port, requests=requests,
                          concurrency=concurrency, seed=7, verify=True)
        print("smoke: load report: ok=%d shed=%d invalid=%d "
              "deadline=%d errors=%d wrong=%d p50=%.1fms p99=%.1fms"
              % (report["ok"], report["shed"], report["invalid"],
                 report["deadline"], report["errors"],
                 report["wrong_answers"],
                 report["latency_ms"]["p50"],
                 report["latency_ms"]["p99"]))
        if report["wrong_answers"] != 0:
            return _fail("bit-identical verification failed: %r"
                         % report["failures"])
        if report["errors"] != 0:
            return _fail("transport/internal errors: %r"
                         % report["failures"])
        answered = report["ok"] + report["shed"] + report["deadline"]
        if answered != requests:
            return _fail("%d of %d requests unaccounted for"
                         % (requests - answered, requests))
        if report["ok"] == 0:
            return _fail("no request succeeded")
        mul_backends = report["plan_backends"].get("mul", {})
        if "device" in mul_backends:
            return _fail("served muls lowered to the device simulator: "
                         "%r" % mul_backends)

        text = client.metrics_text()
        if "repro_serve_requests_total" not in text:
            return _fail("/metrics missing repro_serve_requests_total")
        if "repro_serve_latency_ms" not in text:
            return _fail("/metrics missing latency histogram")
        values = client.metrics_values()
        front = "repro_router" if shards else "repro_serve"
        if shards and not any(key.startswith("repro_router_")
                              for key in values):
            return _fail("merged /metrics missing router series")
        served = sum(value for key, value in values.items()
                     if key.startswith("%s_requests_total" % front))
        if served < requests:
            return _fail("%s_requests_total=%g < %d driven"
                         % (front, served, requests))
        print("smoke: metrics ok (%d series, requests_total=%g)"
              % (len(values), served))

        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=_DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return _fail("%s did not drain within %gs after "
                         "SIGTERM" % (label, _DRAIN_TIMEOUT_S))
        if code != 0:
            return _fail("%s exited %d after SIGTERM" % (label, code))
        print("smoke: graceful drain confirmed (exit 0)")
        print("SMOKE PASS")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


def _await_listening(process: "subprocess.Popen[str]",
                     pattern: "re.Pattern[str]" = _LISTEN_RE,
                     label: str = "server"):
    deadline = time.monotonic() + _BOOT_TIMEOUT_S
    stdout = process.stdout
    if stdout is None:
        raise RuntimeError("%s stdout not captured" % label)
    while time.monotonic() < deadline:
        line = stdout.readline()
        if not line:
            raise RuntimeError("%s exited before announcing a port "
                               "(code %r)" % (label, process.poll()))
        sys.stdout.write("%s| %s" % (label, line))
        match = pattern.search(line)
        if match:
            return match.group("host"), int(match.group("port"))
    raise RuntimeError("%s did not announce a port within %gs"
                       % (label, _BOOT_TIMEOUT_S))


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="repro serve end-to-end smoke check")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--shards", type=int, default=0,
                        help="boot the plan-aware router with N shard "
                             "workers instead of one server process")
    return parser.parse_args(argv)


if __name__ == "__main__":
    _args = _parse_args()
    sys.exit(main(requests=_args.requests,
                  concurrency=_args.concurrency,
                  shards=_args.shards))
