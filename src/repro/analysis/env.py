"""Central registry of every ``REPRO_*`` environment variable.

Before this module, environment knobs were scattered ``os.environ``
reads across mpn/plan/parallel/serve — invisible to documentation,
impossible to enumerate, and easy to typo (a misspelled kill switch
silently does nothing).  Every variable the library honours is now
*declared* here with its default, type, and one-line contract, and
every read goes through the typed accessors below.  The EV rule family
of :mod:`repro.analysis.flow` enforces the discipline statically: an
``os.environ`` read of a ``REPRO_*`` name anywhere else in ``src/repro``
is a finding, as is a ``REPRO_*`` string literal naming an undeclared
variable.

The registry doubles as the killswitch table: ``render_table()``
produces the markdown shipped in ``docs/ENV.md`` (a sync test keeps
them identical), and ``repro analyze --env-table`` prints it.

This module imports only the standard library so that any layer —
including :mod:`repro.parallel` and :mod:`repro.mpn`, which the rest
of :mod:`repro.analysis` itself depends on — can use it without an
import cycle (:mod:`repro.analysis`'s ``__init__`` is lazy for the
same reason).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Values meaning "off" for boolean flags (case-insensitive).
_FALSY = ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable."""

    name: str
    default: str          # rendered default, for documentation
    kind: str             # flag | killswitch | int | float | string | path
    doc: str              # one-line contract
    scope: str            # owning subsystem, for the docs table

    def raw(self) -> str:
        """The stripped environment value ('' when unset)."""
        return os.environ.get(self.name, "").strip()

    def is_set(self) -> bool:
        return bool(self.raw())


#: name -> EnvVar, in declaration order (dicts preserve it).
REGISTRY: Dict[str, EnvVar] = {}


def declare(name: str, default: str, kind: str, doc: str,
            scope: str) -> EnvVar:
    """Register one variable (import-time only; duplicates are bugs)."""
    if name in REGISTRY:
        raise ValueError("environment variable %s declared twice" % name)
    if kind not in ("flag", "killswitch", "int", "float", "string",
                    "path"):
        raise ValueError("unknown env kind %r for %s" % (kind, name))
    var = EnvVar(name=name, default=default, kind=kind, doc=doc,
                 scope=scope)
    REGISTRY[name] = var
    return var


def all_vars() -> List[EnvVar]:
    """Every declared variable, in declaration order."""
    return list(REGISTRY.values())


def is_declared(name: str) -> bool:
    return name in REGISTRY


# -- typed accessors ----------------------------------------------------------

def flag(var: EnvVar) -> bool:
    """Opt-in boolean: unset/0/false/no/off mean disabled."""
    return var.raw().lower() not in _FALSY


def enabled(var: EnvVar) -> bool:
    """Killswitch boolean: on unless the value is exactly ``0``."""
    return var.raw() != "0"


def int_value(var: EnvVar, default: int,
              minimum: Optional[int] = None) -> int:
    """Integer knob with a documented default and an optional floor."""
    raw = var.raw()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r"
                         % (var.name, raw)) from None
    if minimum is not None and value < minimum:
        raise ValueError("%s must be >= %d, got %d"
                         % (var.name, minimum, value))
    return value


def float_value(var: EnvVar, default: float,
                minimum: Optional[float] = None) -> float:
    """Float knob with a documented default and an optional floor."""
    raw = var.raw()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("%s must be a number, got %r"
                         % (var.name, raw)) from None
    if minimum is not None and value < minimum:
        raise ValueError("%s must be >= %s, got %s"
                         % (var.name, minimum, value))
    return value


def string(var: EnvVar, default: str = "") -> str:
    """String knob ('' falls back to the default)."""
    return var.raw() or default


# -- the declarations ---------------------------------------------------------
# Keep scopes grouped; docs/ENV.md renders in this order.

SANITIZE = declare(
    "REPRO_SANITIZE", "off", "flag",
    "Install the runtime mpn invariant sanitizer at import "
    "(normalization, carry bounds, caller-aliasing checks).",
    "analysis")

WORKERS = declare(
    "REPRO_WORKERS", "0 (serial)", "string",
    "ParallelExecutor worker processes: 0/unset = strict serial, "
    "``auto`` = one per available CPU, N = exactly N.",
    "parallel")

CHUNK = declare(
    "REPRO_CHUNK", "items/(4*workers)", "int",
    "Submission chunk size for parallel map/starmap calls.",
    "parallel")

CACHE = declare(
    "REPRO_CACHE", "on", "killswitch",
    "Set to 0 to disable every on-disk memo cache (in-memory LRUs "
    "keep working).",
    "parallel")

CACHE_DIR = declare(
    "REPRO_CACHE_DIR", "~/.cache/repro", "path",
    "Root directory for the persistent caches (thresholds, memo "
    "spills).",
    "parallel")

THRESHOLDS = declare(
    "REPRO_THRESHOLDS", "<cache root>/thresholds.json", "path",
    "Explicit path of the tuned-thresholds file read once per "
    "process by the plan selector and written by ``repro tune``.",
    "mpn")

PACKED = declare(
    "REPRO_PACKED", "on", "killswitch",
    "Set to 0 to force the limb backend everywhere (disables the "
    "block-packed kernels; differential-triage aid; read once per "
    "process).",
    "plan")

COST = declare(
    "REPRO_COST", "on", "killswitch",
    "Set to 0 to disable the learned ns cost model everywhere "
    "(predicted-wait admission pricing and service-rate seeding fall "
    "back to the analytic Plan.cost() path, bit-identical to a build "
    "without the model).",
    "cost")

COST_DATASET = declare(
    "REPRO_COST_DATASET", "results/COST_dataset.jsonl", "path",
    "Where harvested and tuned (op, backend, limbs, ns) measurement "
    "rows accumulate for ``repro cost fit``.",
    "cost")

SERVE_QUEUE = declare(
    "REPRO_SERVE_QUEUE", "256", "int",
    "Admission-queue capacity (depth bound K of the serve layer).",
    "serve")

SERVE_MAX_WAIT_MS = declare(
    "REPRO_SERVE_MAX_WAIT_MS", "10000", "float",
    "Estimated-wait shedding bound: jobs whose modeled queueing delay "
    "exceeds this are rejected at admission.  On a fleet each shard "
    "applies it to its own queue.",
    "serve")

SERVE_MAX_BITS = declare(
    "REPRO_SERVE_MAX_BITS", str(1 << 20), "int",
    "Operand-size ceiling (bits) for mul/div/powmod requests.",
    "serve")

SERVE_MAX_DIGITS = declare(
    "REPRO_SERVE_MAX_DIGITS", "20000", "int",
    "Request ceiling for ``pi_digits`` jobs.",
    "serve")

SHARDS = declare(
    "REPRO_SHARDS", "0 (single process)", "int",
    "Default shard count for ``repro serve``: 0/unset runs the single "
    "asyncio process, N boots the fleet router in front of N "
    "supervised shard workers.",
    "shard")

SHARD_CACHE = declare(
    "REPRO_SHARD_CACHE", "on", "killswitch",
    "Set to 0 to disable the router's cross-shard result cache "
    "(memo-key-salted; differential-triage aid).",
    "shard")

SHARD_DRAIN_S = declare(
    "REPRO_SHARD_DRAIN_S", "20", "float",
    "Bounded deadline (seconds) for the router's graceful SIGTERM "
    "drain of its shard workers; stragglers are killed past it.",
    "shard")

SHARD_RESTARTS = declare(
    "REPRO_SHARD_RESTARTS", "5", "int",
    "Maximum supervisor restarts per crashed shard worker before it "
    "is left dead (the router routes around it).",
    "shard")

TRACE = declare(
    "REPRO_TRACE", "off", "flag",
    "Collect per-request span traces in the serve layer (exposed at "
    "``/traces``, dumped on drain).",
    "serve")

TRACE_FILE = declare(
    "REPRO_TRACE_FILE", "repro-serve-trace.jsonl", "path",
    "Where drained span traces are appended as JSON lines.",
    "serve")


# -- documentation rendering --------------------------------------------------

def render_table() -> str:
    """The killswitch/env table as markdown (docs/ENV.md body)."""
    lines = [
        "| Variable | Scope | Kind | Default | Effect |",
        "|---|---|---|---|---|",
    ]
    for var in all_vars():
        lines.append("| `%s` | %s | %s | `%s` | %s |"
                     % (var.name, var.scope, var.kind, var.default,
                        var.doc))
    return "\n".join(lines)
