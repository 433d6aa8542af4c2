"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library's main flows — device
info, monolithic multiplies with cycle reports, pi digits, RSA round
trips, the BIPS benefit table, and a quick Figure-11-style platform
sweep.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.energy import area_mm2, gate_counts, power_w
    from repro.core.model import DEFAULT_CONFIG
    config = DEFAULT_CONFIG
    print("Cambricon-P (reproduction) — hardware characteristics")
    print("  configuration: %d PEs x %d IPUs, q=%d, L=%d, %.1f GHz"
          % (config.num_pes, config.num_ipus, config.q,
             config.limb_bits, config.frequency_hz / 1e9))
    print("  area:  %.3f mm^2 (TSMC 16 nm model)" % area_mm2())
    print("  power: %.3f W" % power_w())
    print("  monolithic multiply limit: %d bits"
          % config.monolithic_max_bits)
    print("  component shares:")
    for name, share in sorted(gate_counts().shares().items(),
                              key=lambda kv: -kv[1]):
        print("    %-14s %5.1f%%" % (name, share * 100))
    if args.selftest:
        from repro.core.accelerator import CambriconP
        CambriconP().selftest(verbose=True)
        print("  selftest: all passed")
    return 0


def _cmd_multiply(args: argparse.Namespace) -> int:
    from repro.core.accelerator import CambriconP
    from repro.mpn import nat_from_int, nat_to_int
    from repro.platforms import cpu
    rng = random.Random(args.seed)
    a = rng.getrandbits(args.bits) | (1 << (args.bits - 1))
    b = rng.getrandbits(args.bits) | (1 << (args.bits - 1))
    device = CambriconP()
    product, report = device.multiply(nat_from_int(a), nat_from_int(b),
                                      bit_serial=args.bit_serial)
    if nat_to_int(product) != a * b:
        raise RuntimeError("device product mismatch at %d bits "
                           "(simulator bug)" % args.bits)
    print("%d-bit x %d-bit multiply: exact (%d product bits)"
          % (args.bits, args.bits, nat_to_int(product).bit_length()))
    print("  passes=%d waves=%d cycles=%.0f time=%.3e s"
          % (report.num_passes, report.num_waves, report.cycles,
             report.seconds))
    print("  LLC traffic: %.0f bytes" % report.traffic.total_bytes)
    cpu_seconds = cpu.multiply_seconds(args.bits)
    print("  Xeon+GMP model: %.3e s  -> speedup %.2fx"
          % (cpu_seconds, cpu_seconds / report.seconds))
    return 0


def _cmd_pi(args: argparse.Namespace) -> int:
    from repro.apps import pi
    result = pi.run(args.digits)
    text = result.digits
    for offset in range(0, len(text), 72):
        print(text[offset:offset + 72])
    print("(%d terms, %d-bit arithmetic)"
          % (result.terms, result.precision_bits), file=sys.stderr)
    return 0


def _cmd_rsa(args: argparse.Namespace) -> int:
    from repro.apps import rsa
    result = rsa.run(bits=args.bits, seed=args.seed, messages=2)
    print("generated %d-bit key; encrypt/decrypt round trip: %s"
          % (result.key.bits, "ok" if result.ok else "FAILED"))
    return 0 if result.ok else 1


def _cmd_lambda(args: argparse.Namespace) -> int:
    from repro.core.bips import best_q, lambda_ratio
    print("BIPS benefit ratio lambda(q) at p_y = %d" % args.index_bits)
    for q in range(1, 9):
        print("  q=%d  lambda=%.4f" % (q, lambda_ratio(q,
                                                       args.index_bits)))
    q, best = best_q(args.index_bits)
    print("minimum %.4f at q=%d" % (best, q))
    return 0


def _sweep_point(bits: int) -> tuple:
    """One sweep row (top-level so worker processes can run it)."""
    from repro.platforms import cpu
    from repro.runtime import mpapca
    return bits, cpu.multiply_seconds(bits), mpapca.multiply_seconds(bits)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.parallel import ParallelExecutor
    sizes = []
    bits = 64
    while bits <= args.max_bits:
        sizes.append(bits)
        bits *= 4
    print("%-12s %-12s %-14s %s" % ("N (bits)", "CPU+GMP(s)",
                                    "Cambricon-P(s)", "speedup"))
    with ParallelExecutor(args.workers) as executor:
        rows = executor.map(_sweep_point, sizes)
    for bits, cpu_seconds, camp_seconds in rows:
        print("%-12d %-12.3e %-14.3e %.2fx"
              % (bits, cpu_seconds, camp_seconds,
                 cpu_seconds / camp_seconds))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cambricon-P reproduction command-line interface")
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="hardware characteristics")
    info.add_argument("--selftest", action="store_true",
                      help="run the device validation sweep")
    info.set_defaults(handler=_cmd_info)

    multiply = commands.add_parser(
        "multiply", help="run one monolithic multiply on the simulator")
    multiply.add_argument("bits", type=int, nargs="?", default=4096)
    multiply.add_argument("--seed", type=int, default=2022)
    multiply.add_argument("--bit-serial", action="store_true",
                          help="use the cycle-stepped bit-serial path")
    multiply.set_defaults(handler=_cmd_multiply)

    pi_parser = commands.add_parser("pi", help="digits of pi")
    pi_parser.add_argument("digits", type=int, nargs="?", default=100)
    pi_parser.set_defaults(handler=_cmd_pi)

    rsa_parser = commands.add_parser("rsa", help="RSA round trip")
    rsa_parser.add_argument("bits", type=int, nargs="?", default=512)
    rsa_parser.add_argument("--seed", type=int, default=2022)
    rsa_parser.set_defaults(handler=_cmd_rsa)

    lambda_parser = commands.add_parser(
        "lambda", help="BIPS benefit-ratio table")
    lambda_parser.add_argument("--index-bits", type=int, default=32)
    lambda_parser.set_defaults(handler=_cmd_lambda)

    sweep = commands.add_parser(
        "sweep", help="Figure-11-style multiply sweep")
    sweep.add_argument("--max-bits", type=int, default=1 << 20)
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: $REPRO_WORKERS)")
    sweep.set_defaults(handler=_cmd_sweep)

    price = commands.add_parser(
        "price", help="price an application run on all platform models")
    price.add_argument("app", choices=["pi", "frac", "zkcm", "rsa", "he"])
    price.add_argument("--size", type=int, default=0,
                       help="digits (pi), zoom (frac), qubits (zkcm), "
                            "key bits (rsa/he); 0 = default")
    price.set_defaults(handler=_cmd_price)

    tune_parser = commands.add_parser(
        "tune", help="measure and persist kernel thresholds for this host")
    tune_parser.add_argument("--max-limbs", type=int, default=384)
    tune_parser.add_argument("--repeats", type=int, default=3,
                             help="best-of-N timing repetitions")
    tune_parser.add_argument("--output", default=None,
                             help="thresholds file (default: "
                                  "$REPRO_THRESHOLDS or "
                                  "~/.cache/repro/thresholds.json)")
    tune_parser.add_argument("--dry-run", action="store_true",
                             help="measure and print without persisting")
    tune_parser.add_argument("--no-division", action="store_true",
                             help="skip the division/Barrett crossovers")
    tune_parser.add_argument("--no-packed", action="store_true",
                             help="skip the packed-backend crossovers")
    tune_parser.add_argument("--no-dataset", action="store_true",
                             help="discard the raw timing probes "
                                  "instead of appending them to the "
                                  "cost dataset")
    tune_parser.set_defaults(handler=_cmd_tune)

    cost_parser = commands.add_parser(
        "cost", help="learned wall-clock cost model: harvest "
                     "measurements, fit, evaluate")
    cost_parser.add_argument("action",
                             choices=["harvest", "fit", "eval", "show"])
    cost_parser.add_argument("--dataset", default=None,
                             help="measurement dataset (default: "
                                  "$REPRO_COST_DATASET or "
                                  "results/COST_dataset.jsonl)")
    cost_parser.add_argument("--bench", default=None,
                             help="harvest: a BENCH_kernels.json to "
                                  "fold into the dataset")
    cost_parser.add_argument("--serve", default=None,
                             help="harvest: a BENCH_serve.json "
                                  "(end-to-end rows, excluded from "
                                  "kernel fits)")
    cost_parser.add_argument("--traces", default=None,
                             help="harvest: a REPRO_TRACE span dump "
                                  "(plan-stamped JSON lines)")
    cost_parser.add_argument("--output", default=None,
                             help="eval: also write the report JSON "
                                  "here (results/BENCH_cost.json in CI)")
    cost_parser.add_argument("--check", action="store_true",
                             help="eval: exit non-zero unless the "
                                  "fitted model beats the analytic "
                                  "cost by the held-out error gate")
    cost_parser.set_defaults(handler=_cmd_cost)

    cache_parser = commands.add_parser(
        "cache", help="inspect or clear the persistent caches")
    cache_parser.add_argument("--clear", action="store_true",
                              help="delete every on-disk cache file")
    cache_parser.set_defaults(handler=_cmd_cache)

    report = commands.add_parser(
        "report", help="compile results/ into REPORT.md")
    report.add_argument("--results", default="results")
    report.add_argument("--output", default="REPORT.md")
    report.set_defaults(handler=_cmd_report)

    figures = commands.add_parser(
        "figures", help="render Figures 11 and 13 as ASCII charts")
    figures.add_argument("--which", choices=["11", "13", "all"],
                         default="all")
    figures.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: $REPRO_WORKERS)")
    figures.set_defaults(handler=_cmd_figures)

    plan_parser = commands.add_parser(
        "plan", help="lower one operation to its execution plan")
    plan_parser.add_argument("op",
                             choices=["mul", "div", "mod", "powmod",
                                      "sqrt", "add", "sub", "pi_digits",
                                      "model_cycles"],
                             help="operation to lower")
    plan_parser.add_argument("--bits", type=int, default=4096,
                             help="bit width of the first operand "
                                  "(default 4096)")
    plan_parser.add_argument("--bits-b", type=int, default=None,
                             help="bit width of the second operand "
                                  "(default: --bits)")
    plan_parser.add_argument("--digits", type=int, default=100,
                             help="pi_digits: decimal digits requested")
    plan_parser.add_argument("--backend",
                             choices=["auto", "library", "device",
                                      "packed"],
                             default="auto",
                             help="force the execution backend")
    plan_parser.add_argument("--verify", action="store_true",
                             help="run the static plan verifier on the "
                                  "lowered plan")
    plan_parser.set_defaults(handler=_cmd_plan)

    analyze = commands.add_parser(
        "analyze", help="run the interprocedural flow analyzer")
    analyze.add_argument("paths", nargs="*",
                         help="files/directories to analyze (default: "
                              "the installed repro package)")
    analyze.add_argument("--sarif", metavar="OUT.json",
                         help="also write findings as SARIF 2.1.0")
    analyze.add_argument("--no-baseline", action="store_true",
                         help="ignore the checked-in baseline and "
                              "report everything")
    analyze.add_argument("--baseline", metavar="PATH",
                         help="baseline file to apply (default: the "
                              "checked-in one)")
    analyze.add_argument("--write-baseline", metavar="PATH",
                         help="accept every current finding into PATH "
                              "and exit")
    analyze.add_argument("--list-rules", action="store_true",
                         help="print the AF/CC/EV rule catalogue")
    analyze.add_argument("--env-table", action="store_true",
                         help="print the REPRO_* registry as a "
                              "markdown table (docs/ENV.md source)")
    analyze.set_defaults(handler=_cmd_analyze)

    lint = commands.add_parser(
        "lint", help="run the kernel-contract linter")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--audit-noqa", action="store_true",
                      help="report noqa comments that suppress nothing "
                           "(in lint or flow analysis)")
    lint.set_defaults(handler=_cmd_lint)

    verify = commands.add_parser(
        "verify-stream",
        help="statically verify a Driver instruction stream")
    verify.add_argument("program", nargs="?",
                        help="JSON program file (see docs/ANALYSIS.md)")
    verify.add_argument("--selftest", action="store_true",
                        help="verify a generated well-formed program and "
                             "prove the checks fire on a hazardous one")
    verify.set_defaults(handler=_cmd_verify_stream)

    serve = commands.add_parser(
        "serve", help="run the arbitrary-precision job server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--queue", type=int, default=None,
                       help="admission-queue capacity "
                            "(default: $REPRO_SERVE_QUEUE or 256)")
    serve.add_argument("--shards", type=int, default=None,
                       help="shard worker processes behind the "
                            "fleet router; 0 = single process "
                            "(default: $REPRO_SHARDS)")
    serve.set_defaults(handler=_cmd_serve)

    bench_serve = commands.add_parser(
        "bench-serve",
        help="drive a verified load test against repro serve")
    bench_serve.add_argument("--host", default="127.0.0.1")
    bench_serve.add_argument("--port", type=int, default=None,
                             help="target an already-running server "
                                  "(default: self-host one)")
    bench_serve.add_argument("--requests", type=int, default=200)
    bench_serve.add_argument("--concurrency", type=int, default=8)
    bench_serve.add_argument("--seed", type=int, default=2022)
    bench_serve.add_argument("--shards", type=int, default=0,
                             help="also measure a sharded fleet of N "
                                  "workers against the single-shard "
                                  "baseline (self-hosted only)")
    bench_serve.add_argument("--no-verify", action="store_true",
                             help="skip bit-identical verification")
    bench_serve.add_argument("--output",
                             default="results/BENCH_serve.json")
    bench_serve.set_defaults(handler=_cmd_bench_serve)

    bench_kernels = commands.add_parser(
        "bench-kernels",
        help="time the limb vs block-packed mpn backends and record "
             "per-backend numbers")
    bench_kernels.add_argument("--quick", action="store_true",
                               help="reduced ladder for CI smoke runs")
    bench_kernels.add_argument("--check", action="store_true",
                               help="exit 1 if packed mul/sqr/div "
                                    "regresses below 0.9x limb, or "
                                    "packed powmod below 1.2x limb, at "
                                    "the largest measured size")
    bench_kernels.add_argument("--repeats", type=int, default=5,
                               help="best-of-N timing repetitions")
    bench_kernels.add_argument("--seed", type=int, default=2022)
    bench_kernels.add_argument("--no-profile", action="store_true",
                               help="skip the cProfile hotspot pass")
    bench_kernels.add_argument("--output",
                               default="results/BENCH_kernels.json")
    bench_kernels.set_defaults(handler=_cmd_bench_kernels)
    return parser


def _cmd_price(args: argparse.Namespace) -> int:
    from repro.apps import frac, he, pi, rsa, zkcm
    from repro.report import compare_trace
    runners = {
        "pi": lambda s: pi.trace_run(s or 1000),
        "frac": lambda s: frac.trace_run(zoom_exponent=s or 60),
        "zkcm": lambda s: zkcm.trace_run(num_qubits=s or 4),
        "rsa": lambda s: rsa.trace_run(bits=s or 512, messages=2),
        "he": lambda s: he.trace_run(bits=s or 256),
    }
    _, trace = runners[args.app](args.size)
    comparison = compare_trace(trace)
    print("%s (%d kernel ops):" % (args.app, trace.count()))
    print(comparison.table())
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.mpn.tune import save_thresholds, tune
    from repro.plan import select
    result = tune(max_limbs=args.max_limbs, repeats=args.repeats,
                  measure_division=not args.no_division,
                  measure_packed=not args.no_packed)
    print(result.report())
    print("tuned policy:", result.policy)
    if not args.dry_run and not args.no_dataset and result.raw_points:
        from repro.cost import dataset
        written = dataset.append_rows(result.raw_points)
        print("appended %d measurement row(s) to %s"
              % (written, dataset.dataset_path()))
    if not args.dry_run:
        output = Path(args.output) if args.output else None
        target = save_thresholds(result.thresholds, output)
        print("thresholds persisted to %s" % target)
        select.reload()
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.cost import dataset, model
    from repro.plan import select

    if args.action == "harvest":
        sources = [(args.bench, dataset.harvest_bench_kernels),
                   (args.serve, dataset.harvest_serve),
                   (args.traces, dataset.harvest_trace)]
        if not any(path for path, _ in sources):
            print("cost harvest: pass at least one of --bench, "
                  "--serve, --traces")
            return 2
        total = 0
        for path, harvester in sources:
            if not path:
                continue
            rows = harvester(path)
            written = dataset.append_rows(rows, args.dataset)
            print("harvested %d row(s) from %s" % (written, path))
            total += written
        print("dataset: %s (%d kernel row(s) total)"
              % (dataset.dataset_path(args.dataset),
                 len(dataset.load_rows(args.dataset))))
        return 0 if total else 1

    rows = dataset.load_rows(args.dataset)
    fingerprint = select.fingerprint()

    if args.action == "fit":
        if not rows:
            print("cost fit: no kernel rows in %s"
                  % dataset.dataset_path(args.dataset))
            return 1
        fitted = model.fit(rows, fingerprint)
        if fitted is None:
            print("cost fit: no (op, backend) group has enough "
                  "distinct sizes (need %d)" % model.MIN_GROUP_SIZES)
            return 1
        model.save(fitted)
        print("fitted %d group(s) from %d row(s): %s"
              % (len(fitted.groups), len(rows),
                 ", ".join(sorted(fitted.groups))))
        print("observed rate: %.6g cycles/ns; model digest %s"
              % (fitted.rate_cycles_per_ns, fitted.digest()))
        return 0

    if args.action == "eval":
        report = model.evaluate(rows, fingerprint)
        if report is None:
            print("cost eval: not enough rows to fit and hold out")
            return 1
        payload = {"schema": 1, "generated_by": "repro cost eval",
                   "fingerprint": list(fingerprint)}
        payload.update(report)
        print("held-out rows: %d of %d"
              % (report["rows_scored"], report["rows_holdout"]))
        print("median |rel err|: model %.4f vs analytic %.4f "
              "(%.2fx better; gate >= %.1fx: %s)"
              % (report["model_median_rel_err"],
                 report["analytic_median_rel_err"],
                 report["error_ratio"], report["gate_ratio"],
                 "PASS" if report["gate_ok"] else "FAIL"))
        if args.output:
            target = Path(args.output)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            print("wrote %s" % target)
        if args.check and not report["gate_ok"]:
            return 1
        return 0

    # show: the model state selection and admission actually see.
    print("killswitch: REPRO_COST=%s (%s)"
          % ("0" if not model.enabled() else "on",
             "disabled" if not model.enabled() else "enabled"))
    print("thresholds fingerprint: %s" % (tuple(fingerprint),))
    active = model.active_model()
    if active is None:
        print("active model: none (analytic Plan.cost() everywhere)")
        return 0
    print("active model: %d group(s), digest %s"
          % (len(active.groups), active.digest()))
    print("observed rate: %.6g cycles/ns" % active.rate_cycles_per_ns)
    for key in sorted(active.groups):
        group = active.groups[key]
        print("  %-18s ns ~= exp(%.3f) * limbs^%.3f  (n=%d, "
              "limbs %d..%d)"
              % (key, group["a"], group["b"], int(group["n"]),
                 int(group["limbs_min"]), int(group["limbs_max"])))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.parallel import cache_root, clear_disk_caches
    root = cache_root()
    if args.clear:
        removed = clear_disk_caches()
        print("cleared %d cache file(s) under %s" % (len(removed), root))
        return 0
    print("cache root: %s" % root)
    if not root.is_dir():
        print("  (empty)")
        return 0
    for path in sorted(root.glob("*.json")):
        print("  %-28s %8d bytes" % (path.name, path.stat().st_size))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path
    from repro.report import compile_report
    text = compile_report(Path(args.results), Path(args.output))
    print("wrote %s (%d sections, %d chars)"
          % (args.output, text.count("## "), len(text)))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.stream import verify_plan
    from repro.plan import OpSpec, PlanError, select
    from repro.plan.lowering import lower

    bits_b = args.bits_b if args.bits_b is not None else args.bits
    detail = ()
    bits_a = args.bits
    if args.op == "pi_digits":
        detail = (("digits", args.digits),)
        bits_a = bits_b = 0
    elif args.op == "model_cycles":
        detail = (("model_op", "mul"),)
        bits_b = 0
    elif args.op == "powmod" and not select.powmod_is_pow(args.backend):
        # mod width rides bits_a, exponent width bits_b; a library
        # lowering assumes the common odd-modulus (Montgomery) case.
        detail = (("mod_odd", 1),)
    try:
        spec = OpSpec(args.op, bits_a, bits_b, args.backend, detail)
        plan = lower(spec)
    except PlanError as error:
        print("plan: %s" % error, file=sys.stderr)
        return 2
    print(plan.describe())
    if args.op in ("mul", "div", "mod"):
        from repro.mpn.nat import LIMB_BITS
        from repro.plan.schedule import derive_schedule
        if args.op == "mul":
            sched_op = "mul"
            limbs = max(1, -(-min(bits_a, bits_b) // LIMB_BITS))
        else:
            sched_op = "div"
            limbs = max(1, -(-bits_b // LIMB_BITS))
        schedule = derive_schedule(sched_op, limbs)
        print("schedule:")
        print(schedule.render("  "))
    if args.verify:
        violations = verify_plan(plan)
        for violation in violations:
            print(violation.render())
        print("verify: %d hazard(s)" % len(violations))
        return 0 if not violations else 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analysis.flow import (ALL_RULE_IDS, DEFAULT_BASELINE,
                                     analyze_paths, save_baseline,
                                     write_sarif)
    if args.list_rules:
        for rule in ALL_RULE_IDS:
            print("%s %-24s %s" % (rule.code, rule.name, rule.rationale))
        return 0
    if args.env_table:
        from repro.analysis import env
        print(env.render_table())
        return 0
    paths = [str(p) for p in args.paths] \
        or [str(Path(repro.__file__).parent)]
    if args.write_baseline:
        report = analyze_paths(paths, baseline_path=None)
        save_baseline(args.write_baseline, report.findings)
        print("analyze: wrote %d baseline entr%s to %s"
              % (len(report.findings),
                 "y" if len(report.findings) == 1 else "ies",
                 args.write_baseline))
        return 0
    baseline = None if args.no_baseline \
        else (args.baseline or DEFAULT_BASELINE)
    report = analyze_paths(paths, baseline_path=baseline)
    if report.files_checked == 0:
        print("analyze: no Python files under %s" % ", ".join(paths),
              file=sys.stderr)
        return 2
    print(report.render())
    if args.sarif:
        write_sarif(args.sarif, report.findings)
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analysis import ALL_RULES, lint_paths
    if args.list_rules:
        for rule in ALL_RULES:
            print("%s %-24s %s" % (rule.code, rule.name, rule.rationale))
        return 0
    paths = args.paths or [Path(repro.__file__).parent]
    if args.audit_noqa:
        from repro.analysis.audit import audit_noqa
        audit = audit_noqa(paths)
        if audit.files_checked == 0:
            print("lint: no Python files under %s"
                  % ", ".join(str(p) for p in paths), file=sys.stderr)
            return 2
        print(audit.render())
        return 0 if audit.ok else 1
    report = lint_paths(paths)
    if report.files_checked == 0:
        # A typo'd path must not read as a clean bill of health.
        print("lint: no Python files under %s"
              % ", ".join(str(p) for p in paths), file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _load_stream_program(path: str):
    """Parse a JSON stream description into (llc, program).

    Format: ``{"llc": {"<addr>": <int or "0x..">, ...},
    "program": [{"op": "mul", "sources": [[addr, bits], ...],
    "dest": addr, "imm": 0}, ...]}``.
    """
    import json

    from repro.core.isa import Instruction, Opcode, OperandRef, SharedLLC
    from repro.mpn import nat_from_int
    with open(path, "r", encoding="utf-8") as handle:
        description = json.load(handle)
    llc = SharedLLC()
    for address, value in description.get("llc", {}).items():
        number = int(value, 0) if isinstance(value, str) else int(value)
        llc.write(int(address), nat_from_int(number))
    program = []
    for entry in description.get("program", []):
        # The stream loader deserializes externally-authored programs
        # for verification; there is no plan to lower here.
        program.append(Instruction(  # repro: noqa=direct-dispatch -- deserializing a user-supplied stream
            opcode=Opcode(entry["op"].lower()),
            sources=tuple(OperandRef(int(addr), int(bits))
                          for addr, bits in entry.get("sources", [])),
            destination=int(entry["dest"]),
            immediate=int(entry.get("imm", 0))))
    return llc, program


def _cmd_verify_stream(args: argparse.Namespace) -> int:
    from repro.analysis.stream import verify_stream
    if args.selftest:
        return _verify_stream_selftest()
    if not args.program:
        print("verify-stream: provide a JSON program file or --selftest",
              file=sys.stderr)
        return 2
    try:
        llc, program = _load_stream_program(args.program)
    except OSError as error:
        print("verify-stream: cannot read %s: %s" % (args.program, error),
              file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as error:
        # json.JSONDecodeError is a ValueError; bad opcodes/operand
        # descriptors land here too.
        print("verify-stream: malformed program %s: %s"
              % (args.program, error), file=sys.stderr)
        return 2
    violations = verify_stream(program, llc)
    for violation in violations:
        print("%s:%s" % (args.program, violation.render()))
    print("%d instruction(s), %d hazard(s)"
          % (len(program), len(violations)))
    return 0 if not violations else 1


def _verify_stream_selftest() -> int:
    from repro.analysis.stream import verify_stream
    from repro.core.isa import Driver, Instruction, Opcode, OperandRef
    from repro.mpn import nat_from_int
    driver = Driver()
    a = driver.alloc(nat_from_int(3 ** 50))
    b = driver.alloc(nat_from_int(7 ** 40))
    good = [
        Instruction(Opcode.MUL, (a, b), destination=2),  # repro: noqa=direct-dispatch -- selftest needs raw streams
        Instruction(Opcode.SHL, (OperandRef(2, a.bits + b.bits),),  # repro: noqa=direct-dispatch -- selftest needs raw streams
                    destination=3, immediate=64),
    ]
    clean = driver.verify(good)
    if clean:
        for violation in clean:
            print(violation.render(), file=sys.stderr)
        print("selftest FAILED: well-formed stream reported hazardous")
        return 1
    hazardous = [
        Instruction(Opcode.MUL, (a, OperandRef(99, 8)), destination=0),  # repro: noqa=direct-dispatch -- seeding hazards on purpose
        Instruction(Opcode.ADD, (a,), destination=4, immediate=3),  # repro: noqa=direct-dispatch -- seeding hazards on purpose
    ]
    hazards = driver.verify(hazardous)
    checks = sorted({violation.check for violation in hazards})
    if not hazards:
        print("selftest FAILED: hazardous stream verified clean")
        return 1
    print("selftest: clean stream ok; seeded stream raised %d hazard(s): %s"
          % (len(hazards), ", ".join(checks)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis import env as _env
    from repro.serve.server import ServeConfig, run_server

    def announce(line: str) -> None:
        print(line, flush=True)

    shards = args.shards if args.shards is not None \
        else _env.int_value(_env.SHARDS, 0, minimum=0)
    if shards > 0:
        from repro.shard import RouterConfig, run_router
        router_config = RouterConfig.from_env(
            host=args.host, port=args.port, shards=shards)
        return run_router(router_config, announce=announce)
    config = ServeConfig.from_env(
        host=args.host, port=args.port, queue_capacity=args.queue)
    return run_server(config, announce=announce)


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import run_load, write_bench
    from repro.serve.server import ServerThread

    def drive(host: str, port: int) -> int:
        report = run_load(host, port, requests=args.requests,
                          concurrency=args.concurrency, seed=args.seed,
                          verify=not args.no_verify)
        report["self_hosted"] = args.port is None
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.output:
            write_bench(report, args.output)
            print("wrote %s" % args.output, file=sys.stderr)
        if report["wrong_answers"] or report["errors"]:
            return 1
        return 0

    if args.shards > 0:
        if args.port is not None:
            print("bench-serve: --shards self-hosts its own fleet; "
                  "drop --port", file=sys.stderr)
            return 2
        return _bench_serve_sharded(args)
    if args.port is not None:
        return drive(args.host, args.port)
    with ServerThread() as hosted:
        return drive(hosted.host, hosted.port)


#: Sharded-throughput acceptance bar (asserted only on >= 2 CPUs).
BENCH_SHARD_TARGET = 1.5


def _bench_serve_sharded(args: argparse.Namespace) -> int:
    """Throughput-vs-shards: a single-shard baseline, then a routed
    fleet of ``--shards`` workers, same seeded workload.

    On a multi-core runner the sharded run must reach
    ``BENCH_SHARD_TARGET`` times the baseline throughput; on one CPU
    the shards time-slice one core, so the speedup is *recorded but
    not asserted* (the BENCH_parallel honesty convention) with an
    explicit ``skip_reason``.
    """
    import json

    from repro.parallel import available_cpus
    from repro.serve.client import run_load, write_bench
    from repro.serve.server import ServerThread
    from repro.shard import RouterConfig, RouterThread
    from repro.shard.cache import ShardResultCache

    with ServerThread() as hosted:
        baseline = run_load(hosted.host, hosted.port,
                            requests=args.requests,
                            concurrency=args.concurrency,
                            seed=args.seed,
                            verify=not args.no_verify)
    router_config = RouterConfig.from_env(host="127.0.0.1", port=0,
                                          shards=args.shards)
    # A cold in-memory cache: disk-warmed answers must never flatter
    # the sharded numbers.
    with RouterThread(router_config,
                      cache=ShardResultCache(persist=False)) as fleet:
        report = run_load(fleet.host, fleet.port,
                          requests=args.requests,
                          concurrency=args.concurrency,
                          seed=args.seed, verify=not args.no_verify)
        router_stats = fleet.router.statz()

    cpus = available_cpus()
    asserted = cpus >= 2
    baseline_rps = baseline["throughput_rps"]
    speedup = (report["throughput_rps"] / baseline_rps
               if baseline_rps > 0 else 0.0)
    report["self_hosted"] = True
    report["shards"] = args.shards
    report["per_shard_rps"] = round(
        report["throughput_rps"] / args.shards, 2)
    report["router"] = {
        "routed": router_stats["routed"],
        "shed": router_stats["shed"],
        "restarts": router_stats["restarts"],
        "cache": router_stats["cache"],
    }
    report["baseline_single"] = {
        "throughput_rps": baseline_rps,
        "ok": baseline["ok"],
        "shed": baseline["shed"],
        "wrong_answers": baseline["wrong_answers"],
        "errors": baseline["errors"],
        "wall_s": baseline["wall_s"],
    }
    report["scaling"] = {
        "speedup": round(speedup, 3),
        "target": BENCH_SHARD_TARGET,
        "asserted": asserted,
        "skip_reason": None if asserted else
        "speedup gate requires >= 2 CPUs; measured on %d" % cpus,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        write_bench(report, args.output)
        print("wrote %s" % args.output, file=sys.stderr)
    failed = bool(report["wrong_answers"] or report["errors"]
                  or baseline["wrong_answers"] or baseline["errors"])
    if asserted and speedup < BENCH_SHARD_TARGET:
        print("bench-serve: sharded speedup %.2fx below the %.1fx "
              "target on %d CPUs" % (speedup, BENCH_SHARD_TARGET,
                                     cpus), file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_bench_kernels(args: argparse.Namespace) -> int:
    from repro.bench import bench_kernels, write_bench
    from repro.bench import kernels as _ck
    from repro.bench.kernels import check_report, render_report

    report = bench_kernels(quick=args.quick, repeats=args.repeats,
                           seed=args.seed,
                           profile=not args.no_profile)
    print(render_report(report))
    if args.output:
        write_bench(report, args.output)
        print("wrote %s" % args.output, file=sys.stderr)
    if args.check:
        failures = check_report(report)
        for failure in failures:
            print("check: %s" % failure, file=sys.stderr)
        if failures:
            return 1
        print("check: every backend matches the bigint oracle at every "
              "point; packed >= %.1fx limb (powmod >= %.1fx) at the "
              "largest sizes"
              % (_ck.CHECK_MIN_SPEEDUP,
                 _ck.CHECK_PACKED_POWMOD_MIN_SPEEDUP),
              file=sys.stderr)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.parallel import ParallelExecutor
    from repro.report import figure_11, figure_13
    with ParallelExecutor(args.workers) as executor:
        if args.which in ("11", "all"):
            print(figure_11(executor=executor))
        if args.which in ("13", "all"):
            print()
            print(figure_13(executor=executor))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
