"""Shared run machinery: hermetic state, deployments, the oracle verdict."""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import deploy
import load
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Build and run state inside the checkout (ignored by git).
STATE = ROOT / ".perfbench"

WARMUP_S = 1.5
COST_DATASET = Path("results") / "COST_dataset.jsonl"
#: With only two clients the estimated-wait gate still, rarely, sheds a
#: costly powmod after cheap model_cycles jobs drag its cycles/ms rate
#: down.  Measured loads pin the gate open so no request fails; the
#: traced run's reference load keeps the default and counts those sheds.
PINNED_WAIT = {"REPRO_SERVE_MAX_WAIT_MS": "100000000"}


def percentile(ordered: List[float], q: float) -> float:
    """Sorted-sample percentile, linear between closest ranks."""
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def hermetic_env(run_dir: Path) -> Dict[str, str]:
    """The environment of every process the run starts: no inherited
    ``REPRO_*`` setting, and caches, dataset and traces in ``run_dir``."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")
           and name != "PYTHONDONTWRITEBYTECODE"}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(STATE / "pycache"),
        "REPRO_CACHE_DIR": str(run_dir / "cache"),
        "REPRO_COST_DATASET": str(run_dir / COST_DATASET.name),
        "REPRO_TRACE_FILE": str(run_dir / "trace.jsonl"),
    })
    return env


def git(*command: str) -> Optional[str]:
    """Output of ``git <command>`` in the checkout, or ``None`` when the
    checkout is no git work tree of its own."""
    def run(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], cwd=str(ROOT),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=30)
        except OSError:
            return None
        return done.stdout if done.returncode == 0 else None
    top = run("rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != ROOT:
        return None
    return run(*command)


def fit_cost_model(run_dir: Path, env: Dict[str, str]) -> None:
    """Fit the learned cost model from a read-only dataset copy, as a
    default deployment would have it.  In a git work tree the copy is
    the committed dataset, so rows appended since (``repro tune`` runs
    add some) do not change what is measured."""
    copy = run_dir / COST_DATASET.name
    committed = git("show", "HEAD:" + COST_DATASET.as_posix())
    if committed is None:
        shutil.copyfile(ROOT / COST_DATASET, copy)
    else:
        copy.write_text(committed, encoding="utf-8")
    copy.chmod(0o444)
    fitted = subprocess.run(
        [sys.executable, "-m", "repro", "cost", "fit"], cwd=str(run_dir),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=120)
    if fitted.returncode != 0:
        raise RuntimeError("repro cost fit failed:\n" + fitted.stdout)
    shutil.copytree(run_dir / "cache", fitted_cache(run_dir))


def fitted_cache(run_dir: Path) -> Path:
    """Snapshot of the cache directory right after the fit."""
    return run_dir / "cache.fitted"


class Run:
    """One benchmark run's deployments, all stopped by :meth:`close`."""

    def __init__(self, args: argparse.Namespace, run_dir: Path,
                 env: Dict[str, str]) -> None:
        self.args = args
        self.run_dir = run_dir
        self.env = env
        self.generate, self.shards = workloads.WORKLOADS[args.workload]
        self.live: List[deploy.Deployment] = []

    def boot(self, extra_env: Optional[Dict[str, str]] = None,
             pin_wait: bool = True) -> Tuple[deploy.Deployment, float]:
        """A fresh deployment on the just-fitted cache state; with
        ``pin_wait=False`` it keeps the default estimated-wait gate."""
        self.reset_cache()
        env = dict(self.env, **(PINNED_WAIT if pin_wait else {}),
                   **(extra_env or {}))
        deployment = deploy.Deployment(self.run_dir, env, self.shards)
        self.live.append(deployment)
        return deployment, deployment.boot()

    def reset_cache(self) -> None:
        """Back to the just-fitted cache: kernels an earlier process
        persisted would flatter the next one."""
        cache = Path(self.env["REPRO_CACHE_DIR"])
        shutil.rmtree(cache)
        shutil.copytree(fitted_cache(self.run_dir), cache)

    def stop(self, deployment: deploy.Deployment) -> None:
        deployment.stop()
        self.live.remove(deployment)

    def close(self) -> None:
        while self.live:
            self.stop(self.live[-1])

    def warm(self, deployment: deploy.Deployment) -> load.LoadResult:
        """Warm-up load on a seed derived from, never equal to, the
        measured one."""
        return load.closed_loop(
            deployment.host, deployment.port,
            self.generate(self.args.seed + workloads.WARM_SEED_OFFSET,
                          "warm"), WARMUP_S)

    def measure(self, deployment: deploy.Deployment, seconds: float,
                probe_every: int = 0) -> load.LoadResult:
        return load.closed_loop(deployment.host, deployment.port,
                                self.generate(self.args.seed, "bench"),
                                seconds, probe_every)


class Verdict:
    """Oracle outcome of loads: what was attempted, failed, wrong."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        self.reasons: List[str] = []

    def judge(self, result: load.LoadResult,
              counted: bool = True) -> List[float]:
        """Check every answer; returns the verified-correct latencies,
        sorted.  A warm-up (``counted=False``) adds only wrong answers."""
        latency: List[float] = []
        for exchange in result.exchanges:
            problem = oracle.check(exchange.payload, exchange.status,
                                   exchange.body)
            exchange.verified = problem is None
            if problem is None:
                latency.append(exchange.latency_ms)
                continue
            wrong = problem.startswith("wrong")
            if not (counted or wrong):
                continue
            self.failed += counted
            self.wrong += wrong
            if len(self.reasons) < 5:
                self.reasons.append("%s %s: %s" % (
                    exchange.payload["op"], exchange.payload["id"],
                    problem))
        if counted:
            self.attempted += len(result.exchanges)
        return sorted(latency) or [float("nan")]
