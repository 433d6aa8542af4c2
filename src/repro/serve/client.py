"""Load-generating client and benchmark harness for ``repro serve``.

:class:`ServeClient` is a minimal stdlib HTTP client: one
``http.client`` connection per request, sent with ``Connection:
close``.  The server would keep an HTTP/1.1 connection open (the
router's shard pool relies on that); this client closes it so each
request measures a full connect.  :func:`run_load` drives a seeded,
deterministic mix of all five job types at a configurable concurrency,
verifies every successful answer bit-for-bit against
:func:`expected_result` (Python ``int`` for mul/div/powmod), and
reports honest latency/throughput numbers — exact sorted-sample
percentiles, not the server's interpolated histogram — plus the
machine context (CPU count, worker count) the numbers were measured
under.  The report also tallies, per op, which backend (library/packed
— never device, which only an explicit request reaches) the plan
lowering resolved for each verified job — the same
:func:`~repro.plan.execute.plan_for_job` the server's admission path
runs, and so the backend the server ran — so a serve benchmark records
the packed-vs-limb split of its workload.

``repro bench-serve`` wires this to ``results/BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel import available_cpus
from repro.serve.jobs import JOB_OPS, validate_params
from repro.serve.metrics import parse_exposition

#: Weighted op mix for generated load (mul-heavy, like the paper's
#: workloads; pi_digits kept rare because each request is expensive).
_OP_WEIGHTS = (("mul", 40), ("div", 25), ("powmod", 15),
               ("model_cycles", 15), ("pi_digits", 5))


class ServeClient:
    """Blocking HTTP client for one repro-serve endpoint."""

    def __init__(self, host: str, port: int,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ------------------------------------------------------------

    def raw(self, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One request; returns ``(status, body)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def request(self, payload: Dict[str, Any]
                ) -> Tuple[int, Dict[str, Any]]:
        """Submit one job payload; returns ``(status, decoded body)``."""
        status, body = self.raw(
            "POST", "/v1/job", json.dumps(payload).encode("utf-8"))
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"ok": False, "error": "error:bad-response",
                       "raw": body.decode("latin-1", "replace")[:200]}
        return status, decoded

    def metrics_text(self) -> str:
        status, body = self.raw("GET", "/metrics")
        if status != 200:
            raise RuntimeError("GET /metrics returned %d" % status)
        return body.decode("utf-8")

    def metrics_values(self) -> Dict[str, float]:
        return parse_exposition(self.metrics_text())

    def health(self) -> str:
        status, body = self.raw("GET", "/healthz")
        if status != 200:
            raise RuntimeError("GET /healthz returned %d" % status)
        return body.decode("utf-8").strip()

    def statz(self) -> Dict[str, Any]:
        """The live service-stats endpoint (shard EWMA rate and queue
        state; routers answer their fleet view)."""
        status, body = self.raw("GET", "/statz")
        if status != 200:
            raise RuntimeError("GET /statz returned %d" % status)
        return json.loads(body.decode("utf-8"))


# -- job generation -----------------------------------------------------------

def build_jobs(count: int, seed: int = 0,
               max_bits: int = 2048) -> List[Dict[str, Any]]:
    """A deterministic mixed workload of ``count`` job payloads."""
    rng = random.Random(seed)
    ops = [op for op, weight in _OP_WEIGHTS for _ in range(weight)]
    payloads: List[Dict[str, Any]] = []
    for index in range(count):
        op = ops[rng.randrange(len(ops))]
        if op == "mul" or op == "div":
            bits = rng.randrange(8, max_bits)
            a = rng.getrandbits(bits) | (1 << (bits - 1))
            b = rng.getrandbits(max(4, bits // 2)) | 1
            params = {"a": hex(a), "b": hex(b)}
        elif op == "powmod":
            bits = rng.randrange(8, max(16, max_bits // 4))
            params = {"base": hex(rng.getrandbits(bits) | 1),
                      "exp": hex(rng.getrandbits(16) | 1),
                      "mod": hex(rng.getrandbits(bits) | 1)}
        elif op == "pi_digits":
            params = {"digits": rng.randrange(10, 120)}
        else:
            params = {"op": rng.choice(("mul", "div", "add", "powmod")),
                      "bits_a": rng.randrange(64, 1 << 16),
                      "bits_b": rng.randrange(64, 1 << 14)}
        payloads.append({"op": op, "params": params,
                         "priority": rng.randrange(0, 10),
                         "id": "bench-%d-%d" % (seed, index)})
    return payloads


def expected_result(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The exact result object a correct server returns for one job.

    mul, div and powmod are checked against Python's ``a*b``,
    ``divmod`` and ``pow``, never the ``repro.mpn`` kernels the server
    runs; pi_digits against :mod:`repro.apps.pi`, and model_cycles
    against the cycle model it prices
    (:func:`repro.plan.execute.model_query`).
    """
    op = payload["op"]
    params = validate_params(op, payload["params"])
    if op == "mul":
        return {"product": hex(params["a"] * params["b"])}
    if op == "div":
        quotient, remainder = divmod(params["a"], params["b"])
        return {"quotient": hex(quotient), "remainder": hex(remainder)}
    if op == "powmod":
        return {"value": hex(pow(params["base"], params["exp"],
                                 params["mod"]))}
    if op == "pi_digits":
        from repro.apps import pi
        result = pi.run(params["digits"])
        return {"digits": result.digits, "terms": result.terms,
                "precision_bits": result.precision_bits}
    from repro.core.model import DEFAULT_CONFIG
    from repro.plan.execute import model_query
    cycles = model_query(params["op"], params["bits_a"], params["bits_b"])
    return {"cycles": cycles,
            "seconds": cycles / DEFAULT_CONFIG.frequency_hz}


def plan_key(payload: Dict[str, Any]
             ) -> Tuple[str, Optional[int]]:
    """``(backend, canonical limbs)`` of one payload's lowered plan.

    The limb count is the cost-model size feature
    (:func:`repro.cost.features.plan_features`), ``None`` for jobs
    outside the model's domain — those still tally a backend but never
    join a latency aggregate.
    """
    from repro.cost.features import plan_features
    from repro.plan import PlanError
    from repro.plan.execute import plan_for_job
    try:
        params = validate_params(payload["op"], payload["params"])
        plan = plan_for_job(payload["op"], params)
    except (PlanError, ValueError):
        return "-", None
    backend = getattr(plan, "backend", None) or "-"
    features = plan_features(plan)
    return backend, features[2] if features is not None else None


# -- load generation ----------------------------------------------------------

def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact sorted-sample percentile (nearest-rank with interpolation)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[high] * fraction)


def run_load(host: str, port: int, requests: int = 200,
             concurrency: int = 8, seed: int = 0,
             verify: bool = True,
             timeout: float = 120.0) -> Dict[str, Any]:
    """Drive a mixed workload and return an honest report dict."""
    payloads = build_jobs(requests, seed=seed)
    client = ServeClient(host, port, timeout=timeout)
    results: List[Optional[Tuple[int, Dict[str, Any], float]]] = \
        [None] * len(payloads)
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(payloads):
                    return
                cursor["next"] = index + 1
            started = time.monotonic()
            try:
                status, body = client.request(payloads[index])
            except (OSError, http.client.HTTPException) as error:
                status, body = 0, {"ok": False,
                                   "error": "error:transport",
                                   "message": str(error)}
            elapsed_ms = (time.monotonic() - started) * 1000.0
            results[index] = (status, body, elapsed_ms)

    started = time.monotonic()
    threads = [threading.Thread(target=worker)
               for _ in range(max(1, concurrency))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.monotonic() - started

    ok = shed = invalid = deadline = errors = wrong = 0
    ok_latencies: List[float] = []
    per_op: Dict[str, int] = {op: 0 for op in JOB_OPS}
    backends: Dict[str, Dict[str, int]] = {}
    latency_groups: Dict[Tuple[str, str, int], List[float]] = {}
    failures: List[Dict[str, Any]] = []
    for payload, outcome in zip(payloads, results):
        if outcome is None:
            errors += 1
            continue
        status, body, elapsed_ms = outcome
        if status == 200 and body.get("ok"):
            ok += 1
            ok_latencies.append(elapsed_ms)
            per_op[payload["op"]] += 1
            resolved, limbs = plan_key(payload)
            op_tally = backends.setdefault(payload["op"], {})
            op_tally[resolved] = op_tally.get(resolved, 0) + 1
            if limbs is not None:
                latency_groups.setdefault(
                    (payload["op"], resolved, limbs),
                    []).append(elapsed_ms)
            if verify:
                expected = expected_result(payload)
                if body.get("result") != expected:
                    wrong += 1
                    if len(failures) < 5:
                        failures.append({"payload": payload,
                                         "got": body.get("result"),
                                         "expected": expected})
        elif status == 503:
            shed += 1
        elif status == 400:
            invalid += 1
        elif status == 504:
            deadline += 1
        else:
            errors += 1
            if len(failures) < 5:
                failures.append({"payload": payload, "status": status,
                                 "body": body})
    ok_latencies.sort()
    report = {
        "requests": requests,
        "concurrency": concurrency,
        "seed": seed,
        "ok": ok,
        "shed": shed,
        "invalid": invalid,
        "deadline": deadline,
        "errors": errors,
        "wrong_answers": wrong,
        "verified": bool(verify),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(ok / wall_s, 2) if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": round(_percentile(ok_latencies, 0.50), 3),
            "p90": round(_percentile(ok_latencies, 0.90), 3),
            "p99": round(_percentile(ok_latencies, 0.99), 3),
            "max": round(ok_latencies[-1], 3) if ok_latencies else 0.0,
        },
        "per_op_ok": per_op,
        "plan_backends": backends,
        # Per-(op, backend, limbs) end-to-end latency aggregates: the
        # rows ``repro cost harvest --serve`` folds into the dataset
        # (flagged end_to_end — calibration data, not kernel training).
        "op_backend_latency": [
            {"op": op, "backend": backend, "limbs": limbs,
             "n": len(values),
             "p50_ms": round(_percentile(sorted(values), 0.50), 3),
             "p90_ms": round(_percentile(sorted(values), 0.90), 3)}
            for (op, backend, limbs), values
            in sorted(latency_groups.items())
        ],
        "cpus": available_cpus(),
        "failures": failures,
    }
    return report


def write_bench(report: Dict[str, Any], path: str) -> None:
    """Persist a load report as pretty-printed JSON."""
    import pathlib
    target = pathlib.Path(path)
    if target.parent != pathlib.Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
