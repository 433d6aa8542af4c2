"""The traced run: where a served request's time goes, layer by layer.

One ``--trace 1`` run makes

1. an untraced load (the reference ``latency_p50_ms``) for half of
   ``--seconds``, on a deployment with the default estimated-wait
   gate: the requests it sheds (503 ``wait-exceeded``) are counted as
   ``serve.queue.default_shed_ratio`` rather than as failures;
2. for the other half, a load on a deployment booted with
   ``REPRO_TRACE=1``, with
   ``GET /healthz`` round trips interleaved; ``/metrics`` and
   ``/statz`` are scraped around it and ``/traces`` after it;
3. two fresh :mod:`probe` processes on the traced load's inputs, one
   with the cost model live and one under ``REPRO_COST=0``.

Per request it adds the layers measured from outside — HTTP round
trip, decode, lowering, pricing (twice on a fleet: router and shard
each run ``make_job``), the server span from the trace, encode — and
calls what the client saw beyond them ``unattributed``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

import load
from harness import HERE, Run, Verdict, percentile

OPS = ("mul", "div", "powmod", "pi_digits", "model_cycles")
#: The backends each op can lower to; the census reports each pair.
CENSUS = (("mul", "device"), ("mul", "packed"), ("mul", "specialized"),
          ("mul", "rns"), ("mul", "library"), ("div", "packed"),
          ("div", "specialized"), ("div", "library"), ("powmod", "rns"),
          ("powmod", "library"), ("pi_digits", "library"),
          ("model_cycles", "library"))
#: Every this many jobs, the first connection times a ``/healthz``.
PROBE_EVERY = 8


def median(values: List[float]) -> float:
    """Median, or 0.0 where the workload has no such sample."""
    return statistics.median(values) if values else 0.0


def parse_exposition(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` from the text exposition."""
    series: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


def scrape(deployment) -> Tuple[Dict[str, float], Dict[str, Any]]:
    _, metrics = deployment.get("/metrics")
    _, statz = deployment.get("/statz")
    return parse_exposition(metrics.decode()), json.loads(statz)


def delta(after: Dict[str, float], before: Dict[str, float],
          name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def is_shed(exchange: load.Exchange) -> bool:
    """A 503 from the estimated-wait gate."""
    if exchange.status != 503:
        return False
    try:
        return json.loads(exchange.body).get("reason") == "wait-exceeded"
    except ValueError:
        return False


def probe(run: Run, warm: load.LoadResult,
          measured: load.LoadResult) -> Tuple[List[Dict], List[Dict]]:
    """Rows from the cost-on and ``REPRO_COST=0`` probe processes."""
    source = run.run_dir / "inputs.jsonl"
    with open(source, "w", encoding="utf-8") as handle:
        for phase, result in (("warm", warm), ("run", measured)):
            for exchange in result.exchanges:
                if phase == "run" and not exchange.verified:
                    continue
                item = {"phase": phase, "index": exchange.index,
                        "payload": exchange.payload}
                if phase == "run":
                    item["body"] = exchange.body.decode("utf-8")
                handle.write(json.dumps(item) + "\n")
    run.reset_cache()
    script = str(HERE / "probe.py")
    jobs = [("full", run.env, []),
            ("nocost", dict(run.env, REPRO_COST="0"), ["--census-only"])]
    processes = []
    try:
        for name, env, flags in jobs:
            target = run.run_dir / ("probe-%s.json" % name)
            processes.append((target, subprocess.Popen(
                [sys.executable, script, str(source), str(target)] + flags,
                cwd=str(run.run_dir), env=env)))
        for _, process in processes:
            if process.wait(timeout=150) != 0:
                raise RuntimeError("layer probe failed")
    finally:
        for _, process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    return tuple(json.loads(target.read_text())["rows"]
                 for target, _ in processes)


def traced(run: Run) -> Tuple[Dict[str, Tuple[float, str]], Verdict]:
    verdict = Verdict()
    deployment, _ = run.boot(pin_wait=False)
    verdict.judge(run.warm(deployment), counted=False)
    # The two loads split --seconds between them.
    seconds = run.args.seconds / 2
    reference = run.measure(deployment, seconds)
    sheds = sum(1 for exchange in reference.exchanges if is_shed(exchange))
    shed_ratio = sheds / len(reference.exchanges)
    reference.exchanges = [exchange for exchange in reference.exchanges
                           if not is_shed(exchange)]
    plain = verdict.judge(reference)
    run.stop(deployment)

    deployment, _ = run.boot({"REPRO_TRACE": "1"})
    warm = run.warm(deployment)
    verdict.judge(warm, counted=False)
    metrics_before, statz_before = scrape(deployment)
    measured = run.measure(deployment, seconds, PROBE_EVERY)
    metrics_after, statz_after = scrape(deployment)
    _, body = deployment.get("/traces")
    spans = {trace["id"]: trace for trace in json.loads(body)["traces"]}
    run.stop(deployment)
    latency = verdict.judge(measured)

    rows, census_off = probe(run, warm, measured)
    fleet = run.shards > 0
    by_index = {exchange.index: exchange for exchange in measured.exchanges}
    rtt = median(measured.rtt_ms)

    table: Dict[str, Dict[str, List[float]]] = {
        op: {} for op in OPS}
    residuals: List[float] = []
    overheads: List[float] = []
    kernel_total_ms = 0.0
    kernel_by_op = {op: [row["kernel_ms"] for row in rows
                         if row["op"] == op and "kernel_ms" in row]
                    for op in OPS}
    for row in rows:
        exchange = by_index[row["index"]]
        cells = table[row["op"]]
        if not row["cached"]:
            kernel_total_ms += row.get("kernel_ms",
                                       median(kernel_by_op[row["op"]]))
        trace = spans.get(exchange.payload["id"])
        if trace is None:
            continue
        marks, spans_ms = trace["marks"], trace["spans_ms"]
        server_ms = marks["responded"] - marks["received"]
        wait_ms = spans_ms.get("admitted->batched", 0.0)
        execute_ms = spans_ms.get("execute_start->execute_end", 0.0)
        front_ms = (row["decode_us"] + row["lower_us"]
                    + row["price_us"]) / 1e3 * (2 if fleet else 1)
        encode_ms = row["encode_us"] / 1e3
        residual = exchange.latency_ms - (rtt + front_ms + server_ms
                                          + encode_ms)
        residuals.append(residual)
        overheads.append(exchange.latency_ms - server_ms)
        for name, value in (
                ("client", exchange.latency_ms),
                ("decode", row["decode_us"] / 1e3),
                ("lower", row["lower_us"] / 1e3),
                ("price", row["price_us"] / 1e3), ("wait", wait_ms),
                ("handoff", server_ms - wait_ms - execute_ms),
                ("encode", encode_ms), ("unattributed", residual)):
            cells.setdefault(name, []).append(value)
        # A batcher result-cache hit runs no kernel: keep it out of the
        # execute-vs-kernel comparison.
        if not trace["meta"].get("cached"):
            cells.setdefault("execute", []).append(execute_ms)

    print_table(run, table, kernel_by_op, rtt, fleet)
    print_census(rows, census_off)

    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    put("serve.jobs.decode_us", median([r["decode_us"] for r in rows]),
        "us")
    put("serve.server.encode_us", median([r["encode_us"] for r in rows]),
        "us")
    bodies = [len(by_index[r["index"]].body) / 1024.0 for r in rows]
    put("serve.server.body_kb", statistics.fmean(bodies) if bodies
        else 0.0, "kB")
    put("serve.server.http_rtt_ms", rtt, "ms")
    misses = [r for r in rows if r["miss"]]
    put("plan.lowering.lower_cold_us",
        median([r["lower_us"] for r in misses]), "us")
    put("plan.lowering.lower_warm_us",
        median([r["lower_warm_us"] for r in rows]), "us")
    put("plan.lowering.miss_ratio", len(misses) / max(1, len(rows)),
        "ratio")
    for op, backend in CENSUS:
        put("plan.lowering.backend.%s.%s" % (op, backend),
            sum(1 for r in rows
                if r["op"] == op and r["backend"] == backend), "count")
    changed = sum(1 for on, off in zip(rows, census_off)
                  if on["backend"] != off["backend"])
    put("cost.refined_share", changed / max(1, len(rows)), "ratio")
    put("cost.price_us", median([r["price_us"] for r in rows]), "us")
    put("serve.batcher.wait_ms", median(
        [trace["spans_ms"].get("admitted->batched", 0.0)
         for trace in spans.values()
         if trace["id"].startswith("bench-")]), "ms")
    for op in OPS:
        put("serve.batcher.execute_ms." + op,
            median(table[op].get("execute", [])), "ms")
    batches = delta(metrics_after, metrics_before,
                    "repro_serve_batch_size_count")
    put("serve.batcher.batch_size_mean",
        delta(metrics_after, metrics_before, "repro_serve_batch_size_sum")
        / batches if batches else 0.0, "count")
    hits = delta(metrics_after, metrics_before,
                 "repro_serve_cache_hits_total")
    lookups = hits + delta(metrics_after, metrics_before,
                           "repro_serve_cache_misses_total")
    put("serve.batcher.result_cache_hit_ratio",
        hits / lookups if lookups else 0.0, "ratio")
    for op in OPS:
        put("plan.execute.kernel_ms." + op, median(kernel_by_op[op]), "ms")
    put("plan.execute.busy_share", kernel_total_ms
        / (measured.wall_s * 1e3), "ratio")
    for op in OPS:
        execute = table[op].get("execute", [])
        put("serve.batcher.executor_overhead_ms." + op,
            median(execute) - median(kernel_by_op[op])
            if execute and kernel_by_op[op] else 0.0, "ms")
    router = router_metrics(statz_before, statz_after) if fleet \
        else (0.0, 0.0)
    put("shard.router.overhead_ms", median(overheads) if fleet else 0.0,
        "ms")
    put("shard.router.cache_hit_ratio", router[0], "ratio")
    put("shard.router.balance", router[1], "ratio")
    put("layers.unattributed_ms", median(residuals), "ms")
    traced_p50 = percentile(latency, 0.5)
    plain_p50 = percentile(plain, 0.5)
    put("trace.overhead_ratio", traced_p50 / plain_p50, "ratio")
    put("serve.queue.default_shed_ratio", shed_ratio, "ratio")
    print("latency_p50_ms: untraced %.3f (n=%d, default wait gate: %d "
          "shed), traced %.3f (n=%d); %d of %d traced requests attributed"
          % (plain_p50, len(plain), sheds, traced_p50, len(latency),
             len(residuals), len(rows)))
    for name, (value, unit) in metrics.items():
        print("%-44s %12.4f %s" % (name, value, unit))
    return metrics, verdict


def router_metrics(before: Dict[str, Any],
                   after: Dict[str, Any]) -> Tuple[float, float]:
    """(router result-cache hit ratio, min/max routed share) over the
    measured load, from ``/statz`` deltas."""
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
    served = [shard["served"] - old["served"]
              for shard, old in zip(after["shards"], before["shards"])]
    balance = min(served) / max(served) if max(served) else 0.0
    return (hits / lookups if lookups else 0.0), balance


def print_table(run: Run, table: Dict[str, Dict[str, List[float]]],
                kernel_by_op: Dict[str, List[float]], rtt: float,
                fleet: bool) -> None:
    columns = ("client", "decode", "lower", "price", "wait", "execute",
               "handoff", "encode", "unattributed")
    print("layer table, %s: per-op medians in ms; http_rtt %.3f ms is "
          "one per request; decode/lower/price count %s; execute "
          "and gap cover answers not served from the result cache"
          % (run.args.workload, rtt, "twice (router and shard)"
             if fleet else "once"))
    print("%-13s %5s " % ("op", "n") + " ".join(
        "%9s" % name[:9] for name in columns)
        + " %9s %9s" % ("kernel", "gap"))
    for op, cells in table.items():
        if not cells:
            continue
        values = [median(cells.get(name, [])) for name in columns]
        kernel = median(kernel_by_op[op])
        print("%-13s %5d " % (op, len(cells["client"])) + " ".join(
            "%9.3f" % value for value in values)
            + " %9.3f %9.3f" % (kernel, values[5] - kernel))


def print_census(rows: List[Dict], census_off: List[Dict]) -> None:
    for label, source in (("cost model live", rows),
                          ("REPRO_COST=0", census_off)):
        counts: Dict[str, int] = {}
        for row in source:
            key = "%s.%s" % (row["op"], row["backend"])
            counts[key] = counts.get(key, 0) + 1
        print("backend census (%s): %s" % (label, ", ".join(
            "%s=%d" % item for item in sorted(counts.items()))))
