"""Threshold autotuning + persistence (GMP's ``tuneup`` equivalent).

GMP's thresholds are "predefined and tuned in compile-time" (Section
VII-B); this module does the same for the reproduction's own kernels:
time each fast algorithm against the next-simpler one across operand
sizes, find the crossover, and persist the result so later processes
start tuned.

Timing uses ``time.perf_counter_ns`` best-of-N (wall-clock
``time.time`` proved noisy under load); the repetition count is a
parameter on every public entry point.

Persistence (the ``repro tune`` CLI drives this):

* measured crossovers serialize to ``~/.cache/repro/thresholds.json``
  (the shared cache root, ``REPRO_CACHE_DIR``-overridable), or to the
  explicit path in ``$REPRO_THRESHOLDS``;
* :func:`load_thresholds` reads them back in a fresh process;
* checked-in defaults live next to this module in
  ``thresholds_default.json`` and are returned by
  :func:`default_thresholds` when nothing has been tuned yet;
* :func:`tuned_policy` is the one-call answer: the best available
  :class:`~repro.mpn.mul.MulPolicy` for this host.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.mpn import nat
from repro.mpn.barrett import BarrettContext
from repro.mpn.burnikel_ziegler import divmod_bz
from repro.mpn.div import divmod_schoolbook
from repro.mpn.karatsuba import mul_karatsuba
from repro.mpn.mul import GMP_POLICY, MulPolicy, mul
from repro.mpn.nat import Nat
from repro.mpn.packed import divmod_packed, mul_packed
from repro.mpn.schoolbook import mul_schoolbook
from repro.mpn.toom import mul_toom

MulFn = Callable[[Nat, Nat], Nat]

#: Environment override naming the persisted thresholds file.
THRESHOLDS_ENV = "REPRO_THRESHOLDS"

#: Schema version of the persisted thresholds file; loaders reject
#: other versions (the invalidation rule: retune after upgrading).
#: v2: the compiled-kernel crossover left the record.
#: v3: the rns powmod crossover left the record (``auto`` powmod runs
#: the packed ladder at every width).
#: v4: the rns batch-mul crossover left the record (the residue-number
#: backend is gone).
THRESHOLDS_VERSION = 4

#: Default best-of-N repetition count for every timing measurement.
DEFAULT_REPEATS = 3


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


def _time_once(fn: MulFn, a: Nat, b: Nat,
               repeats: int = DEFAULT_REPEATS) -> int:
    """Best-of-``repeats`` runtime of ``fn(a, b)`` in nanoseconds.

    ``perf_counter_ns`` is monotonic and unaffected by clock slews; the
    best-of minimum discards scheduler noise rather than averaging it
    in, which is what a crossover comparison needs.
    """
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter_ns()
        fn(a, b)
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _record_pair(labels: Optional[Tuple[str, Optional[str],
                                        Optional[str]]],
                 limbs: int, slow_ns: int, fast_ns: int) -> None:
    """Feed one bisection probe to the cost dataset recorder (no-op
    outside a :func:`repro.cost.dataset.recording` block).

    ``labels`` is ``(op, slow_backend, fast_backend)``; a ``None``
    backend is unrecordable (e.g. a mixed dispatch arm).  When both
    sides run the *same* backend — the intra-limb algorithm ladder —
    the minimum is recorded once: it is the best known time for that
    backend at this size, whichever algorithm the dispatch would pick.
    """
    if labels is None:
        return
    from repro.cost import dataset as _dataset
    op, slow_backend, fast_backend = labels
    if slow_backend is not None and slow_backend == fast_backend:
        _dataset.record_point(op, slow_backend, limbs,
                              min(slow_ns, fast_ns))
        return
    _dataset.record_point(op, slow_backend, limbs, slow_ns)
    _dataset.record_point(op, fast_backend, limbs, fast_ns)


def find_crossover(slow: MulFn, fast: MulFn, low_limbs: int,
                   high_limbs: int, seed: int = 1,
                   repeats: int = DEFAULT_REPEATS,
                   labels: Optional[Tuple[str, Optional[str],
                                          Optional[str]]] = None) -> int:
    """Smallest limb count where ``fast`` beats ``slow`` (bisection).

    Assumes a single crossover in [low, high]; returns ``high`` when
    ``fast`` never wins in the range.  ``labels`` optionally names the
    two sides — ``(op, slow_backend, fast_backend)`` — so every probe
    doubles as a cost-dataset training point when a recorder is active
    (see :func:`repro.cost.dataset.recording`).
    """
    def fast_wins(limbs: int) -> bool:
        a = _random_operand(limbs, seed)
        b = _random_operand(limbs, seed + 7)
        fast_ns = _time_once(fast, a, b, repeats)
        slow_ns = _time_once(slow, a, b, repeats)
        _record_pair(labels, limbs, slow_ns, fast_ns)
        return fast_ns < slow_ns

    low, high = low_limbs, high_limbs
    if not fast_wins(high):
        return high
    while low < high:
        mid = (low + high) // 2
        if fast_wins(mid):
            high = mid
        else:
            low = mid + 1
    return low


# -- persisted thresholds ----------------------------------------------------


@dataclass
class Thresholds:
    """Every crossover the stack tunes, in one serializable record."""

    karatsuba_limbs: int
    toom3_limbs: int
    toom4_limbs: int
    toom6_limbs: int
    ssa_limbs: int
    #: Divisor limbs where Burnikel-Ziegler beats Algorithm D.
    bz_limbs: int = 64
    #: Modulus limbs where a precomputed Barrett reduce beats one
    #: schoolbook division (repeated-reduction workloads).
    barrett_limbs: int = 8
    #: Operand limbs where the block-packed multiplier
    #: (:mod:`repro.mpn.packed`) beats the limb ladder; 0 disables the
    #: packed backend entirely.
    packed_mul_limbs: int = 4
    #: Divisor limbs where the packed block division beats the limb division
    #: family; 0 disables the packed division path.
    packed_div_limbs: int = 4
    repeats: int = DEFAULT_REPEATS
    max_limbs: int = 0
    version: int = THRESHOLDS_VERSION

    def policy(self, name: str = "tuned") -> MulPolicy:
        """The multiplication policy these thresholds imply."""
        return MulPolicy(
            name=name,
            karatsuba_limbs=self.karatsuba_limbs,
            toom3_limbs=self.toom3_limbs,
            toom4_limbs=self.toom4_limbs,
            toom6_limbs=self.toom6_limbs,
            ssa_limbs=self.ssa_limbs,
        )

    def fingerprint(self) -> Tuple[int, ...]:
        """The tuple identifying this tuning state.

        Salts every plan memo key (:mod:`repro.plan.lowering`), so a
        retune invalidates downstream result caches wholesale.
        """
        from repro.plan import select
        return select.fingerprint(self)

    def mul_crossovers(self) -> List[Tuple[str, int]]:
        """(name, limbs) for every multiplication crossover, ascending."""
        return [("karatsuba", self.karatsuba_limbs),
                ("toom3", self.toom3_limbs),
                ("toom4", self.toom4_limbs),
                ("toom6", self.toom6_limbs),
                ("ssa", self.ssa_limbs)]

    def validate(self) -> None:
        """Raise ``ValueError`` unless the regime ordering holds."""
        names = [name for name, _ in self.mul_crossovers()]
        values = [limbs for _, limbs in self.mul_crossovers()]
        if any(limbs < 2 for limbs in values):
            raise ValueError("thresholds below 2 limbs: %s" % values)
        for (previous, current), name in zip(zip(values, values[1:]),
                                             names[1:]):
            if current <= previous:
                raise ValueError("threshold ordering violated at %s: %s"
                                 % (name, values))
        if self.bz_limbs < 2 or self.barrett_limbs < 1:
            raise ValueError("division thresholds must be positive")
        if self.packed_mul_limbs < 0 or self.packed_div_limbs < 0:
            raise ValueError("packed thresholds must be >= 0 "
                             "(0 disables the packed backend)")


def thresholds_path() -> Path:
    """Where thresholds persist: ``$REPRO_THRESHOLDS`` or the cache root."""
    from repro.analysis import env as _env
    override = _env.THRESHOLDS.raw()
    if override:
        return Path(override).expanduser()
    from repro.parallel.cache import cache_root
    return cache_root() / "thresholds.json"


def save_thresholds(thresholds: Thresholds,
                    path: Optional[Path] = None) -> Path:
    """Persist thresholds as JSON (atomic enough for a small file)."""
    thresholds.validate()
    target = Path(path) if path is not None else thresholds_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = asdict(thresholds)
    temp = target.with_suffix(target.suffix + ".tmp")
    temp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    os.replace(temp, target)
    return target


def load_thresholds(path: Optional[Path] = None) -> Optional[Thresholds]:
    """Thresholds from disk, or None when absent/invalid/out-of-date."""
    target = Path(path) if path is not None else thresholds_path()
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) \
            or payload.get("version") != THRESHOLDS_VERSION:
        return None
    try:
        thresholds = Thresholds(**payload)
        thresholds.validate()
    except (TypeError, ValueError):
        return None
    return thresholds


def default_thresholds() -> Thresholds:
    """The checked-in defaults shipped beside this module."""
    default_path = Path(__file__).with_name("thresholds_default.json")
    loaded = load_thresholds(default_path)
    if loaded is not None:
        return loaded
    # The JSON is part of the source tree; this fallback only fires on
    # exotic installs that strip data files.
    from repro.mpn.mul import PYTHON_POLICY
    return Thresholds(
        karatsuba_limbs=PYTHON_POLICY.karatsuba_limbs,
        toom3_limbs=PYTHON_POLICY.toom3_limbs,
        toom4_limbs=PYTHON_POLICY.toom4_limbs,
        toom6_limbs=PYTHON_POLICY.toom6_limbs,
        ssa_limbs=PYTHON_POLICY.ssa_limbs,
    )


@functools.lru_cache(maxsize=None)
def active_thresholds() -> Thresholds:
    """Persisted thresholds when available, checked-in defaults else.

    Read once per process: the mpn dispatchers consult the active
    thresholds per operation for backend selection, so even a ``stat``
    here would cost more than a small kernel.  A retune, file removal
    or ``$REPRO_THRESHOLDS`` retarget takes effect in a new process or
    after :func:`repro.plan.select.reload`.
    """
    return load_thresholds() or default_thresholds()


def tuned_policy() -> MulPolicy:
    """The best multiplication policy known for this host."""
    return active_thresholds().policy()


# -- measurement -------------------------------------------------------------


@dataclass
class TuneResult:
    """Measured crossovers and the policy/record they imply."""

    karatsuba_limbs: int
    toom3_limbs: int
    policy: MulPolicy
    measurements: List[Tuple[str, int]]
    thresholds: Optional[Thresholds] = field(default=None)
    #: Every (op, backend, limbs, ns) probe the bisections measured —
    #: cost-dataset rows (see :mod:`repro.cost.dataset`), appended to
    #: ``results/COST_dataset.jsonl`` by the ``repro tune`` CLI.
    raw_points: List[dict] = field(default_factory=list)

    def report(self) -> str:
        lines = ["threshold tuning (this host):"]
        for name, limbs in self.measurements:
            lines.append("  %-22s %6d limbs (%d bits)"
                         % (name, limbs, limbs * 32))
        return "\n".join(lines)


def find_division_crossover(max_limbs: int, seed: int = 1,
                            repeats: int = DEFAULT_REPEATS) -> int:
    """Divisor limbs where Burnikel-Ziegler beats Algorithm D."""
    def schoolbook(dividend: Nat, divisor: Nat) -> Nat:
        return divmod_schoolbook(dividend, divisor)[0]

    def recursive(dividend: Nat, divisor: Nat) -> Nat:
        return divmod_bz(dividend, divisor,
                         lambda x, y: mul(x, y, GMP_POLICY,
                                          backend="limb"))[0]

    def timed(fn: Callable[[Nat, Nat], Nat], limbs: int) -> int:
        dividend = _random_operand(2 * limbs, seed)
        divisor = _random_operand(limbs, seed + 7)
        return _time_once(fn, dividend, divisor, repeats)

    def recursive_wins(limbs: int) -> bool:
        recursive_ns = timed(recursive, limbs)
        schoolbook_ns = timed(schoolbook, limbs)
        # Both arms are the limb backend; the probe records its best.
        _record_pair(("div", "limb", "limb"), limbs, schoolbook_ns,
                     recursive_ns)
        return recursive_ns < schoolbook_ns

    low, high = 8, max(16, max_limbs)
    if not recursive_wins(high):
        return high
    while low < high:
        mid = (low + high) // 2
        if recursive_wins(mid):
            high = mid
        else:
            low = mid + 1
    return low


def find_barrett_crossover(max_limbs: int, seed: int = 1,
                           repeats: int = DEFAULT_REPEATS) -> int:
    """Modulus limbs where a prebuilt Barrett reduce beats division.

    Models the repeated-reduction regime (modexp, HE): the reciprocal
    precompute is excluded, exactly as a reduction loop amortizes it.
    """
    def wins(limbs: int) -> bool:
        modulus = _random_operand(limbs, seed + 3)
        value = _random_operand(2 * limbs, seed)
        while nat.cmp(value, mul(modulus, modulus, GMP_POLICY)) >= 0:
            value = nat.shr(value, 1)
        context = BarrettContext(modulus)
        barrett_ns = _time_once(lambda x, _: context.reduce(x),
                                value, modulus, repeats)
        division_ns = _time_once(
            lambda x, m: divmod_schoolbook(x, m)[1],
            value, modulus, repeats)
        return barrett_ns < division_ns

    low, high = 2, max(4, max_limbs)
    if not wins(high):
        return high
    while low < high:
        mid = (low + high) // 2
        if wins(mid):
            high = mid
        else:
            low = mid + 1
    return low


def find_packed_mul_crossover(max_limbs: int, seed: int = 1,
                              repeats: int = DEFAULT_REPEATS) -> int:
    """Operand limbs where the block-packed multiplier beats the limb
    ladder (both sides run exactly what dispatch would run)."""
    def limb_side(a: Nat, b: Nat) -> Nat:
        return mul(a, b, GMP_POLICY, backend="limb")

    return find_crossover(limb_side, mul_packed, 2,
                          max(8, max_limbs), seed, repeats,
                          labels=("mul", "limb", "packed"))


def find_packed_div_crossover(max_limbs: int, seed: int = 1,
                              repeats: int = DEFAULT_REPEATS) -> int:
    """Divisor limbs where the packed division beats the limb one."""
    def limb_side(dividend: Nat, divisor: Nat) -> Nat:
        return divmod_schoolbook(dividend, divisor)[0]

    def packed_side(dividend: Nat, divisor: Nat) -> Nat:
        return divmod_packed(dividend, divisor)[0]

    def timed(fn: Callable[[Nat, Nat], Nat], limbs: int) -> int:
        dividend = _random_operand(2 * limbs, seed)
        divisor = _random_operand(limbs, seed + 7)
        return _time_once(fn, dividend, divisor, repeats)

    def packed_wins(limbs: int) -> bool:
        packed_ns = timed(packed_side, limbs)
        limb_ns = timed(limb_side, limbs)
        _record_pair(("div", "limb", "packed"), limbs, limb_ns,
                     packed_ns)
        return packed_ns < limb_ns

    low, high = 2, max(8, max_limbs)
    if not packed_wins(high):
        return high
    while low < high:
        mid = (low + high) // 2
        if packed_wins(mid):
            high = mid
        else:
            low = mid + 1
    return low


def tune(max_limbs: int = 512, seed: int = 1,
         repeats: int = DEFAULT_REPEATS,
         measure_division: bool = True,
         measure_packed: bool = True) -> TuneResult:
    """Measure the crossovers this host actually exhibits.

    Multiplication: schoolbook/Karatsuba and Karatsuba/Toom-3 are
    measured directly; higher thresholds (Toom-4/6, SSA) need operand
    sizes too large to time responsively in pure Python, so they are
    scaled from the measured Toom-3 point with GMP's threshold ratios.
    Division: the Burnikel-Ziegler and Barrett crossovers are bisected
    the same way (skippable via ``measure_division`` for speed).

    Every bisection probe is additionally collected in the result's
    ``raw_points`` — timed (op, backend, limbs, ns) rows the learned
    cost model trains on — so a tune run feeds the dataset for free.
    """
    from repro.cost import dataset as _dataset
    with _dataset.recording() as raw_points:
        result = _tune_measured(max_limbs, seed, repeats,
                                measure_division, measure_packed)
    result.raw_points = raw_points
    return result


def _tune_measured(max_limbs: int, seed: int, repeats: int,
                   measure_division: bool,
                   measure_packed: bool) -> TuneResult:
    def karatsuba_once(a: Nat, b: Nat) -> Nat:
        return mul_karatsuba(a, b, mul_schoolbook)

    karatsuba_limbs = find_crossover(mul_schoolbook, karatsuba_once,
                                     4, min(128, max_limbs), seed,
                                     repeats,
                                     labels=("mul", "limb", "limb"))

    tuned_so_far = MulPolicy("tuning", karatsuba_limbs, 10 ** 9,
                             10 ** 9, 10 ** 9, 10 ** 9)

    def dispatch(a: Nat, b: Nat) -> Nat:
        # Forced limb backend: this measures the limb-ladder crossover,
        # not the packed backend (which has its own bisection below).
        return mul(a, b, tuned_so_far, backend="limb")

    def toom3_once(a: Nat, b: Nat) -> Nat:
        return mul_toom(a, b, 3, dispatch)

    toom3_limbs = find_crossover(dispatch, toom3_once,
                                 karatsuba_limbs + 4, max_limbs, seed,
                                 repeats,
                                 labels=("mul", "limb", "limb"))
    # Noisy hosts (or a small --max-limbs cap) can push both measured
    # crossovers to the top of their search range; keep the ladder
    # strictly ordered so the thresholds always validate.
    toom3_limbs = max(toom3_limbs, karatsuba_limbs + 1)

    # GMP's tuned tables place Toom-4 ~3x and Toom-6 ~7x above Toom-3,
    # SSA ~30x above; scale the measured point the same way.
    policy = MulPolicy(
        name="tuned",
        karatsuba_limbs=karatsuba_limbs,
        toom3_limbs=toom3_limbs,
        toom4_limbs=3 * toom3_limbs,
        toom6_limbs=7 * toom3_limbs,
        ssa_limbs=30 * toom3_limbs,
    )
    measurements = [("schoolbook->karatsuba", karatsuba_limbs),
                    ("karatsuba->toom3", toom3_limbs)]

    bz_limbs = default_thresholds().bz_limbs
    barrett_limbs = default_thresholds().barrett_limbs
    if measure_division:
        bz_limbs = find_division_crossover(
            min(256, max(32, max_limbs)), seed, repeats)
        barrett_limbs = find_barrett_crossover(
            min(64, max(8, max_limbs)), seed, repeats)
        measurements.append(("schoolbook->burnikel-ziegler", bz_limbs))
        measurements.append(("division->barrett", barrett_limbs))

    packed_mul_limbs = default_thresholds().packed_mul_limbs
    packed_div_limbs = default_thresholds().packed_div_limbs
    if measure_packed:
        packed_mul_limbs = find_packed_mul_crossover(
            min(64, max(8, max_limbs)), seed, repeats)
        packed_div_limbs = find_packed_div_crossover(
            min(64, max(8, max_limbs)), seed, repeats)
        measurements.append(("limb->packed mul", packed_mul_limbs))
        measurements.append(("limb->packed div", packed_div_limbs))

    thresholds = Thresholds(
        karatsuba_limbs=karatsuba_limbs,
        toom3_limbs=toom3_limbs,
        toom4_limbs=policy.toom4_limbs,
        toom6_limbs=policy.toom6_limbs,
        ssa_limbs=policy.ssa_limbs,
        bz_limbs=bz_limbs,
        barrett_limbs=barrett_limbs,
        packed_mul_limbs=packed_mul_limbs,
        packed_div_limbs=packed_div_limbs,
        repeats=repeats,
        max_limbs=max_limbs,
    )
    return TuneResult(karatsuba_limbs, toom3_limbs, policy,
                      measurements, thresholds)
