"""``repro bench-kernels``: per-backend kernel timings + hotspots.

Measures the mpn dispatchers — never concrete kernels — with every
backend pinned explicitly, so what is timed is exactly what a lowered
``backend="library"``/``"packed"`` plan executes:

* ``limb`` — the per-limb Python ladder (the seed implementation's
  only path, and the "before" baseline of every speedup column);
* ``packed`` — the packed backend (:mod:`repro.mpn.packed`): one
  CPython int product for mul/sqr, the Burnikel–Ziegler recursion over
  int products for div, and CPython ``pow`` for the powmod ``auto``
  runs, each behind its limb-list wrapper.

Timings are best-of-N ``perf_counter_ns``: the minimum discards
scheduler noise rather than averaging it in.  Every measured point
asserts that *all* available backends return bit-identical results
**and** that they match a Python-bigint ground-truth oracle — not just
the backend ``auto`` happens to select — so a disabled backend can
never hide an incorrect one, and a benchmark run doubles as a
differential test.  A cProfile pass over the largest measured multiply
records where the interpreter time actually goes.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.mpn import nat
from repro.mpn import powmod as mpn_powmod
from repro.mpn.div import divmod_nat
from repro.mpn.mul import PYTHON_POLICY, mul, sqr
from repro.mpn.nat import Nat

#: Bump when the JSON layout changes meaning.
#: v2: per-backend ``ns``/``speedup`` maps replaced the limb/packed
#: pair columns; powmod joined the op set; every point checks all
#: available backends against a bigint oracle.
#: v3: a compiled-kernel backend joined mul/sqr/div, measured and
#: oracle-checked like the rest.
#: v4: ``predicted_ns``/``predicted_err`` columns compare each point
#: against the learned cost model (:mod:`repro.cost`) when a fitted
#: model is live; absent otherwise.
#: v5: the v3 compiled-kernel column, hotspot and gate are gone.
#: v6: powmod gained a packed column (the block-Montgomery ladder).
#: v7: the residue-number-system column, hotspot and gates are gone;
#: the powmod gate moved to packed.
#: v8: ``packed_block_bits`` (op -> block width in bits of the packed
#: kernel it times) replaced the single ``pack_limbs``: each packed
#: kernel runs its own block (mul/sqr 35904 bits, div 1024, powmod
#: 256).
#: v9: ``packed_block_bits`` lost its ``div`` entry: packed division
#: recurses on whole ints and has no block.
#: v10: ``packed_block_bits`` is gone: packed mul/sqr are one int
#: product and packed powmod is ``pow``, so no timed packed kernel has
#: a block.
BENCH_SCHEMA_VERSION = 10

#: Figure-11-style bit-width ladder (the paper sweeps multiply sizes in
#: this range; 64k bits is the headline point).
FULL_LADDER = (1024, 4096, 16384, 65536)

#: Reduced ladder for CI smoke runs (--quick).
QUICK_LADDER = (1024, 4096, 16384)

#: Modulus ladder for powmod (its cost grows cubically, so the mul
#: ladder's top sizes would not time responsively in pure Python); the
#: exponent is fixed at 64 bits — the repeated-squaring loop length,
#: not the modulus arithmetic, scales with it.
POWMOD_FULL_LADDER = (1024, 4096)
POWMOD_QUICK_LADDER = (1024, 2048)
POWMOD_EXPONENT_LIMBS = 2

#: Backends each op can execute (always measured, always checked).
OP_BACKENDS = {
    "mul": ("limb", "packed"),
    "sqr": ("limb", "packed"),
    "div": ("limb", "packed"),
    "powmod": ("limb", "packed"),
}

#: Minimum packed/limb ratio --check tolerates at the largest measured
#: mul/sqr/div size (generous to absorb CI noise; a real regression
#: lands far below it).
CHECK_MIN_SPEEDUP = 0.9

#: Minimum packed/limb powmod ratio --check tolerates at the largest
#: measured modulus (packed ``pow`` wins well over 10x on measured
#: hosts; 1.2 is the noise-tolerant floor).
CHECK_PACKED_POWMOD_MIN_SPEEDUP = 1.2


def _random_operand(limbs: int, seed: int) -> Nat:
    """A deterministic pseudo-random operand of exactly ``limbs`` limbs."""
    state = seed or 1
    out = []
    for _ in range(limbs):
        state = (state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        out.append(state & nat.LIMB_MASK)
    out[-1] |= 1 << (nat.LIMB_BITS - 1)
    return out


def _best_ns(fn: Callable[[], object], repeats: int) -> int:
    """Best-of-``repeats`` wall time of ``fn()`` in nanoseconds."""
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _operands(op: str, bits: int, seed: int):
    limbs = max(1, bits // nat.LIMB_BITS)
    if op == "div":
        # 2n-by-n: the shape Figure 11's division rows use.
        return (_random_operand(2 * limbs, seed),
                _random_operand(limbs, seed + 7))
    if op == "powmod":
        # (base, odd modulus); the 64-bit exponent is derived inside
        # _runners so every backend exponentiates identically.
        modulus = _random_operand(limbs, seed + 7)
        modulus[0] |= 1
        return (_random_operand(limbs, seed), modulus)
    return (_random_operand(limbs, seed),
            _random_operand(limbs, seed + 7))


def _runners(op: str, a: Nat, b: Nat, policy,
             seed: int) -> Dict[str, Callable[[], object]]:
    """backend -> thunk for one measured point.

    All go through the public dispatchers with the backend pinned, so
    RPR012 dispatch discipline holds and the timings match what plans
    execute.
    """
    backends = OP_BACKENDS[op]
    if op == "mul":
        return {backend: (lambda bk=backend: mul(a, b, policy,
                                                 backend=bk))
                for backend in backends}
    if op == "sqr":
        return {backend: (lambda bk=backend: sqr(a, policy,
                                                 backend=bk))
                for backend in backends}
    if op == "div":
        def limb_mul(x: Nat, y: Nat) -> Nat:
            return mul(x, y, policy, backend="limb")
        return {"limb": lambda: divmod_nat(a, b, limb_mul,
                                           backend="limb"),
                "packed": lambda: divmod_nat(a, b, backend="packed")}
    if op == "powmod":
        exponent = _random_operand(POWMOD_EXPONENT_LIMBS, seed + 13)
        return {backend: (lambda bk=backend: mpn_powmod(a, exponent, b,
                                                        backend=bk))
                for backend in backends}
    raise ValueError("bench-kernels: unknown op %r" % (op,))


def _as_ints(op: str, result) -> Tuple[int, ...]:
    """A backend result as comparable Python ints."""
    if op == "div":
        return (nat.nat_to_int(result[0]), nat.nat_to_int(result[1]))
    return (nat.nat_to_int(result),)


def _oracle(op: str, a: Nat, b: Nat, seed: int) -> Tuple[int, ...]:
    """Ground truth from Python bigints (independent of every backend)."""
    x, y = nat.nat_to_int(a), nat.nat_to_int(b)
    if op == "mul":
        return (x * y,)
    if op == "sqr":
        return (x * x,)
    if op == "div":
        quotient, remainder = divmod(x, y)
        return (quotient, remainder)
    if op == "powmod":
        exponent = nat.nat_to_int(
            _random_operand(POWMOD_EXPONENT_LIMBS, seed + 13))
        return (pow(x, exponent, y),)
    raise ValueError("bench-kernels: unknown op %r" % (op,))


def check_point(op: str, bits: int, a: Nat, b: Nat,
                runners: Dict[str, Callable[[], object]],
                seed: int) -> None:
    """Assert every available backend agrees with the bigint oracle.

    This runs at *every* measured point, for *all* backends the op can
    execute — not just the one ``auto`` would pick — so a disabled
    backend can never mask a backend that computes the wrong answer.
    """
    truth = _oracle(op, a, b, seed)
    for backend, thunk in runners.items():
        got = _as_ints(op, thunk())
        if got != truth:
            raise AssertionError(
                "bench-kernels: %s at %d bits: the %s backend "
                "disagrees with the bigint oracle" % (op, bits, backend))


def _hotspots(thunk: Callable[[], object], top: int = 8) -> List[Dict]:
    """Top functions by cumulative time for one profiled run."""
    profiler = cProfile.Profile()
    profiler.enable()
    thunk()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    rows: List[Dict] = []
    for (filename, line, func), (calls, _, tottime, cumtime, _) in sorted(
            stats.stats.items(), key=lambda item: -item[1][3])[:top]:
        rows.append({
            "function": "%s:%d:%s" % (os.path.basename(filename), line,
                                      func),
            "calls": int(calls),
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    return rows


def _predicted_columns(op: str, bits: int, timings: Dict[str, int]
                       ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Learned-model predictions next to the measurements just taken.

    Empty maps when no fitted model is live (``REPRO_COST=0``, nothing
    fitted, or a fit under another policy fingerprint) — the bench then
    reports exactly its pre-model columns.  The relative errors feed
    the CI ``cost`` job's drift gate.
    """
    from repro import cost
    limbs = max(1, bits // nat.LIMB_BITS)
    predicted_ns: Dict[str, float] = {}
    predicted_err: Dict[str, float] = {}
    for backend, measured in timings.items():
        value = cost.predict_ns(op, backend, limbs)
        if value is None or measured <= 0:
            continue
        predicted_ns[backend] = round(value, 1)
        predicted_err[backend] = round(
            abs(value - measured) / measured, 4)
    return predicted_ns, predicted_err


def _ladder(op: str, quick: bool):
    if op == "powmod":
        return POWMOD_QUICK_LADDER if quick else POWMOD_FULL_LADDER
    return QUICK_LADDER if quick else FULL_LADDER


def bench_kernels(quick: bool = False, repeats: int = 5,
                  seed: int = 2022, profile: bool = True) -> Dict:
    """Measure every (op, bits, backend) point and return the report."""
    policy = PYTHON_POLICY
    entries: List[Dict] = []
    for op in ("mul", "sqr", "div", "powmod"):
        for bits in _ladder(op, quick):
            a, b = _operands(op, bits, seed)
            runners = _runners(op, a, b, policy, seed)
            check_point(op, bits, a, b, runners, seed)
            timings = {backend: _best_ns(thunk, repeats)
                       for backend, thunk in runners.items()}
            limb_ns = timings["limb"]
            entry = {
                "op": op,
                "bits": bits,
                "ns": timings,
                "speedup": {backend: round(limb_ns / max(1, t), 3)
                            for backend, t in timings.items()
                            if backend != "limb"},
            }
            predicted_ns, predicted_err = _predicted_columns(
                op, bits, timings)
            if predicted_ns:
                entry["predicted_ns"] = predicted_ns
                entry["predicted_err"] = predicted_err
            entries.append(entry)

    hotspots: Dict[str, List[Dict]] = {}
    if profile:
        top_bits = _ladder("mul", quick)[-1]
        a, b = _operands("mul", top_bits, seed)
        runners = _runners("mul", a, b, policy, seed)
        hotspots = {
            "limb_mul_%d_bits" % top_bits: _hotspots(runners["limb"]),
            "packed_mul_%d_bits" % top_bits: _hotspots(
                runners["packed"]),
        }

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "generated_by": "repro bench-kernels",
        "quick": quick,
        "repeats": repeats,
        "seed": seed,
        "cpus": os.cpu_count() or 1,
        "git": git_revision(),
        "python": platform.python_version(),
        "policy": policy.name,
        "entries": entries,
        "hotspots": hotspots,
    }


def git_revision() -> str:
    """``<rev>``, or ``<rev>-dirty`` with uncommitted tracked changes,
    for the checkout this package runs from; ``unknown`` outside git."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=str(Path(__file__).resolve().parent),
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return rev.strip() + ("-dirty" if dirty else "")


def check_report(report: Dict) -> List[str]:
    """Regression gates over the top measured size per op: packed must
    not lose to limb on mul/sqr/div (:data:`CHECK_MIN_SPEEDUP`), and
    packed powmod must beat limb Montgomery
    (:data:`CHECK_PACKED_POWMOD_MIN_SPEEDUP`).

    Returns human-readable failures (empty = pass), tolerances chosen
    so CI noise survives but a real regression does not.
    """
    failures: List[str] = []
    top: Dict[str, Dict] = {}
    for entry in report.get("entries", []):
        current = top.get(entry["op"])
        if current is None or entry["bits"] > current["bits"]:
            top[entry["op"]] = entry
    for op, entry in sorted(top.items()):
        speedup = entry["speedup"]
        floor = CHECK_PACKED_POWMOD_MIN_SPEEDUP if op == "powmod" \
            else CHECK_MIN_SPEEDUP
        if "packed" in speedup and speedup["packed"] < floor:
            failures.append(
                "%s at %d bits: packed is %.2fx the limb backend "
                "(< %.2fx tolerance)"
                % (op, entry["bits"], speedup["packed"], floor))
    return failures


def render_report(report: Dict) -> str:
    """Fixed-width table for terminal output."""
    lines = ["kernel benchmarks (best of %d, policy=%s):"
             % (report["repeats"], report["policy"]),
             "  %-6s %8s  %s" % ("op", "bits",
                                 "per-backend ms (speedup vs limb)")]
    for entry in report["entries"]:
        lines.append("  %-6s %8d  limb=%.3f  packed=%.3f (%.2fx)"
                     % (entry["op"], entry["bits"],
                        entry["ns"]["limb"] / 1e6,
                        entry["ns"]["packed"] / 1e6,
                        entry["speedup"]["packed"]))
    for label, rows in report.get("hotspots", {}).items():
        lines.append("  hotspots: %s" % label)
        for row in rows[:5]:
            lines.append("    %9.3f ms cum  %8d calls  %s"
                         % (row["cumtime_s"] * 1e3, row["calls"],
                            row["function"]))
    return "\n".join(lines)


def write_bench(report: Dict, output: str) -> Optional[Path]:
    """Persist the report JSON (parents created as needed)."""
    target = Path(output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return target
