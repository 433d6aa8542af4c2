#!/usr/bin/env python3
"""Served-request benchmark for ``repro serve``.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 \\
        --trace 0

Each run boots a fresh ``repro serve`` process tree (``--shards 2`` for
fleet-mix) in a hermetic state directory, warms it with a different
seed, then drives the workload closed-loop over two connections for
``--seconds`` and checks every answer against :mod:`oracle`.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs an untraced and a traced load and reports per-layer metrics and a
per-op layer table (see :mod:`layers`).  The last stdout line is the
JSON result; the exit code is non-zero on any wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

# Bytecode goes to the state directory, never next to the sources.
sys.pycache_prefix = str(Path(__file__).resolve().parent.parent
                         / ".perfbench" / "pycache")

import load  # noqa: E402
import workloads  # noqa: E402
from harness import (COST_DATASET, ROOT, STATE, Run, Verdict,  # noqa: E402
                     fit_cost_model, git, hermetic_env, percentile)

#: Boots per run; ``setup_s`` is their median.
SETUP_BOOTS = 5


def provenance(args: argparse.Namespace, attempted: int) -> Dict[str, Any]:
    from repro import cost
    from repro.plan import select
    return {
        "git": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "thresholds_fingerprint": list(select.fingerprint(select.active())),
        "cost_model": list(cost.selection_salt()) or "none",
        "workload": args.workload,
        "seed": args.seed,
        "requests": attempted,
    }


def git_revision() -> str:
    """``<rev>`` or ``<rev>-dirty``; ``unknown`` outside a git checkout."""
    rev = git("rev-parse", "HEAD")
    if rev is None:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return rev.strip() + ("-dirty" if dirty else "")


def end_to_end(run: Run) -> Tuple[Dict[str, Any], Verdict]:
    setups: List[float] = []
    deployment = None
    for _ in range(SETUP_BOOTS):
        if deployment is not None:
            run.stop(deployment)
        deployment, seconds = run.boot()
        setups.append(seconds)
    warm = run.warm(deployment)
    measured = run.measure(deployment, run.args.seconds)
    rss_mb = deployment.peak_rss_mb()
    run.stop(deployment)
    verdict = Verdict()
    verdict.judge(warm, counted=False)
    latency = verdict.judge(measured)
    verified = verdict.attempted - verdict.failed
    metrics = {
        "throughput_rps": (verified / measured.wall_s, "1/s"),
        "latency_p50_ms": (percentile(latency, 0.50), "ms"),
        "latency_p90_ms": (percentile(latency, 0.90), "ms"),
        "success_ratio": (verified / verdict.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "server_rss_mb": (rss_mb, "MB"),
    }
    print("load: %d attempted, %d verified, %d failed, %d wrong, "
          "%.2f s wall, %d connections closed loop"
          % (verdict.attempted, verified, verdict.failed, verdict.wrong,
             measured.wall_s, load.CONNECTIONS))
    print("setup: %s s over %d boots"
          % (", ".join("%.3f" % s for s in setups), len(setups)))
    for name, (value, unit) in metrics.items():
        counted = " (n=%d)" % verified if name.startswith("latency") \
            else ""
        print("%-16s %12.4f %s%s" % (name, value, unit, counted))
    return metrics, verdict


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / COST_DATASET).is_file():
        print("perfbench: no repro sources or %s under %s"
              % (COST_DATASET, ROOT), file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=str(STATE)))
    env = hermetic_env(run_dir)
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, env["PYTHONPATH"])
    run = Run(args, run_dir, env)
    try:
        fit_cost_model(run_dir, env)
        if args.trace:
            import layers
            metrics, verdict = layers.traced(run)
        else:
            metrics, verdict = end_to_end(run)
        print("provenance: " + json.dumps(
            provenance(args, verdict.attempted), sort_keys=True))
    finally:
        run.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    for reason in verdict.reasons:
        print("problem: " + reason)
    correct = verdict.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
