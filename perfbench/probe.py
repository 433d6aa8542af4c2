"""Time each layer's public entry point on recorded inputs, from outside.

Runs as its own fresh process, so the plan cache starts as cold as a
freshly booted server's::

    python3 perfbench/probe.py INPUTS.jsonl OUT.json [--census-only]

``INPUTS.jsonl`` holds one ``{"phase", "index", "payload"[, "body"]}``
object per request in arrival order: the warm-up requests (``phase``
``warm``) are lowered first, untimed, as the server lowered them; each
``run`` request is then timed through

* ``plan.execute.plan_for_job`` in arrival order (cold on a plan-cache
  miss) and once more (warm), with the cache's hit/miss count;
* ``Plan.cost()`` + ``repro.cost.predict_plan_ns`` (admission price);
* ``json.loads`` + ``serve.jobs.validate_params`` of the request body;
* ``hex`` + ``json.dumps`` of the recorded response body;
* ``plan.execute.run`` for the first :data:`KERNEL_SAMPLES` requests of
  each op that the server did not answer from a result cache (a
  ``CambriconP`` for device plans).

``--census-only`` just records the backend each request lowers to.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, List

#: Requests per op whose kernel is re-run in process.
KERNEL_SAMPLES = 40


def _encode(body: Dict[str, Any]) -> bytes:
    """The server's encode step: hex the result integers, dump JSON."""
    result = body.get("result")
    if isinstance(result, dict):
        result = {key: hex(int(value, 16))
                  if isinstance(value, str) and value.startswith("0x")
                  else value for key, value in result.items()}
        body = dict(body, result=result)
    return json.dumps(body).encode("utf-8")


def main(argv: List[str]) -> int:
    source, target = argv[1], argv[2]
    census_only = "--census-only" in argv[3:]
    with open(source, encoding="utf-8") as handle:
        inputs = [json.loads(line) for line in handle]

    from repro import cost
    from repro.plan.execute import plan_for_job, run
    from repro.plan.lowering import plan_cache
    from repro.serve.jobs import validate_params

    cache = plan_cache()
    rows: List[Dict[str, Any]] = []
    plans = {}
    for item in inputs:
        payload = item["payload"]
        params = validate_params(payload["op"], payload["params"])
        misses = cache.misses
        began = time.perf_counter()
        plan = plan_for_job(payload["op"], params)
        lower_us = (time.perf_counter() - began) * 1e6
        if item["phase"] != "run":
            continue
        plans[item["index"]] = (plan, params, item)
        rows.append({"index": item["index"], "op": payload["op"],
                     "backend": plan.backend, "lower_us": lower_us,
                     "miss": cache.misses > misses})
    if census_only:
        _dump(target, {"rows": rows})
        return 0

    for row in rows:
        plan, params, item = plans[row["index"]]
        payload = item["payload"]

        began = time.perf_counter()
        plan_for_job(payload["op"], params)
        row["lower_warm_us"] = (time.perf_counter() - began) * 1e6

        began = time.perf_counter()
        plan.cost()
        cost.predict_plan_ns(plan)
        row["price_us"] = (time.perf_counter() - began) * 1e6

        request = json.dumps(payload).encode("utf-8")
        began = time.perf_counter()
        decoded = json.loads(request.decode("utf-8"))
        validate_params(decoded["op"], decoded["params"])
        row["decode_us"] = (time.perf_counter() - began) * 1e6

        body = json.loads(item["body"])
        began = time.perf_counter()
        _encode(body)
        row["encode_us"] = (time.perf_counter() - began) * 1e6
        row["cached"] = bool(body.get("cached"))

    device = None
    sampled: Dict[str, int] = {}
    for row in rows:
        if row["cached"] or sampled.get(row["op"], 0) >= KERNEL_SAMPLES:
            continue
        sampled[row["op"]] = sampled.get(row["op"], 0) + 1
        plan, params, _ = plans[row["index"]]
        if plan.backend == "device" and device is None:
            from repro.core.accelerator import CambriconP
            device = CambriconP()
        began = time.perf_counter()
        run(plan, params, device=device)
        row["kernel_ms"] = (time.perf_counter() - began) * 1e3
    _dump(target, {"rows": rows})
    return 0


def _dump(target: str, payload: Dict[str, Any]) -> None:
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
