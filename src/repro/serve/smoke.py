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
   simulator; then serve a few wide mul and div requests
   (:data:`WIDE_SHAPES`): divisions on both sides of the packed
   recursion's cutoff and at serve-large's widest shape, and products
   up to 80 kbit, and verify them against Python ``int``;
3. scrape ``/metrics`` and require the core series to be present and
   consistent with the load generator's own counts (the sharded scrape
   must carry both the merged ``repro_serve_*`` shard series and the
   router's own ``repro_router_*`` series, the router must have
   opened fewer shard connections than it proxied jobs — it keeps
   them open — and the fewest jobs routed to one shard must be at
   least :data:`MIN_ROUTED_BALANCE` of the most);
4. send SIGTERM and require a graceful drain (exit code 0) — sharded,
   that proves the router propagated the drain to every worker within
   the bounded deadline.

Exit status is non-zero on any failure; all output goes to stdout so
CI logs read as a transcript.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import signal
import subprocess
import sys
import time

from repro.mpn.packed import DIV_RECURSION_BITS
from repro.serve.client import ServeClient, expected_result, run_load

_LISTEN_RE = re.compile(
    r"repro-serve listening on (?P<host>[0-9.]+):(?P<port>\d+)")
_ROUTER_LISTEN_RE = re.compile(
    r"repro-router listening on (?P<host>[0-9.]+):(?P<port>\d+)")

#: How long to wait for the subprocess to announce its port.
_BOOT_TIMEOUT_S = 30.0
#: How long SIGTERM may take to drain (sharded: router + workers).
_DRAIN_TIMEOUT_S = 60.0

#: Width step of the first wide shapes.
_STEP_BITS = 1024

#: ``(op, a bits, b bits)`` of the wide requests.  mul and div at a
#: ``b`` of 7, 13 and 25 kbit under an ``a`` twice as wide; then mul
#: at a 40-kbit ``b`` under a 40-kbit and an 80-kbit ``a``, past
#: Cambricon-P's 35904-bit monolithic width; then div at a ``b`` one
#: bit under and one bit over ``DIV_RECURSION_BITS`` (one ``divmod``,
#: then the recursion) and at serve-large's widest shape, 96 kbit over
#: 48 kbit.  With packed
#: killswitched the limb kernels answer the widest (an 80-kbit mul, a
#: 96-kbit division) in about a second each at most.
WIDE_SHAPES = tuple(
    (op, 2 * steps * _STEP_BITS, steps * _STEP_BITS)
    for steps in (7, 13, 25) for op in ("mul", "div")) + (
    ("mul", 40000, 40000),
    ("mul", 80000, 40000),
    ("div", 2 * (DIV_RECURSION_BITS - 1), DIV_RECURSION_BITS - 1),
    ("div", 2 * (DIV_RECURSION_BITS + 1), DIV_RECURSION_BITS + 1),
    ("div", 98304, 49152))


#: Sharded: the least-routed shard's ``repro_router_routed_total`` over
#: the most-routed shard's must reach this.  The router places each job
#: on the least-loaded shard, so an unbalanced fleet means a shard the
#: router cannot reach or a placement rule that piles work on one.
MIN_ROUTED_BALANCE = 0.5


def _fail(message: str) -> int:
    print("SMOKE FAIL: %s" % message)
    return 1


def main(requests: int = 200, concurrency: int = 8,
         shards: int = 0) -> int:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
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
        wrong = _serve_wide(client)
        if wrong:
            return _fail(wrong)
        print("smoke: %d wide mul/div requests verified"
              % len(WIDE_SHAPES))

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
        served = _series_sum(values, "%s_requests_total" % front)
        if served < requests:
            return _fail("%s_requests_total=%g < %d driven"
                         % (front, served, requests))
        if shards:
            connects = _series_sum(values,
                                   "repro_router_shard_connect_total")
            routed = _series_sum(values, "repro_router_routed_total")
            if connects >= routed:
                return _fail("router opened %g shard connections for "
                             "%g proxied jobs (no reuse)"
                             % (connects, routed))
            print("smoke: shard connections reused (%g opened for %g "
                  "proxied jobs)" % (connects, routed))
            per_shard = [values.get('repro_router_routed_total'
                                    '{shard="%d"}' % index, 0.0)
                         for index in range(shards)]
            balance = min(per_shard) / max(per_shard)
            if balance < MIN_ROUTED_BALANCE:
                return _fail("routed jobs per shard %r: balance %.2f < "
                             "%g" % (per_shard, balance,
                                     MIN_ROUTED_BALANCE))
            print("smoke: routing balanced (per shard %r, balance %.2f)"
                  % (per_shard, balance))
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
            # SIGTERM first: a router forwards it to its shard workers,
            # which a SIGKILL would leave running.
            process.terminate()
            try:
                process.wait(timeout=_DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


def _serve_wide(client: ServeClient) -> str:
    """Serve every :data:`WIDE_SHAPES` request; the first mismatch
    against Python ``int``, or ``""``."""
    for op, a_bits, b_bits in WIDE_SHAPES:
        rng = random.Random(a_bits * b_bits)
        a = rng.getrandbits(a_bits) | (1 << (a_bits - 1))
        b = rng.getrandbits(b_bits) | (1 << (b_bits - 1))
        payload = {"op": op, "params": {"a": hex(a), "b": hex(b)},
                   "id": "smoke-wide-%s-%dx%d" % (op, a_bits, b_bits)}
        status, body = client.request(payload)
        if status != 200 or body.get("result") \
                != expected_result(payload):
            return ("wide %s at %d x %d bits answered %d, not the int "
                    "result" % (op, a_bits, b_bits, status))
    return ""


def _series_sum(values, name: str) -> float:
    """Sum of every labelled series of one metric."""
    return sum(value for key, value in values.items()
               if key.startswith(name))


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
                        help="boot the fleet router with N shard "
                             "workers instead of one server process")
    return parser.parse_args(argv)


if __name__ == "__main__":
    _args = _parse_args()
    sys.exit(main(requests=_args.requests,
                  concurrency=_args.concurrency,
                  shards=_args.shards))
