"""Command-line interface.

Examples::

    lucky-storage explain --t 2 --b 1 --fw 1 --fr 0
    lucky-storage run-experiment E1
    lucky-storage run-experiment all --markdown
    lucky-storage demo --t 2 --b 1
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench.experiments import ALL_EXPERIMENTS
from .bench.report import generate_report
from .core.config import SystemConfig
from .core.protocol import LuckyAtomicProtocol
from .core.quorums import explain
from .verify.atomicity import check_atomicity


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucky-storage",
        description=(
            "Reproduction of 'Lucky Read/Write Access to Robust Atomic Storage' "
            "(Guerraoui, Levy, Vukolic, DSN 2006)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    explain_parser = subparsers.add_parser(
        "explain", help="print the quorum arithmetic of a configuration"
    )
    explain_parser.add_argument("--t", type=int, default=2)
    explain_parser.add_argument("--b", type=int, default=1)
    explain_parser.add_argument("--fw", type=int, default=1)
    explain_parser.add_argument("--fr", type=int, default=0)

    run_parser = subparsers.add_parser(
        "run-experiment", help="run one experiment (E1..E10, A1, A2) or 'all'"
    )
    run_parser.add_argument("experiment", choices=list(ALL_EXPERIMENTS) + ["all"])
    run_parser.add_argument("--markdown", action="store_true", help="emit markdown tables")

    demo_parser = subparsers.add_parser(
        "demo", help="run a small write/read demo on the simulator"
    )
    demo_parser.add_argument("--t", type=int, default=2)
    demo_parser.add_argument("--b", type=int, default=1)
    demo_parser.add_argument("--failures", type=int, default=0)

    store_parser = subparsers.add_parser(
        "store-bench",
        help="sharded store: aggregate throughput vs shard count (+ Zipf check)",
    )
    store_parser.add_argument(
        "--max-shards", type=int, default=8, help="sweep shard counts 1..N"
    )
    store_parser.add_argument(
        "--ops", type=int, default=96, help="operations per sweep point"
    )
    store_parser.add_argument("--t", type=int, default=1)
    store_parser.add_argument("--b", type=int, default=0)
    store_parser.add_argument("--markdown", action="store_true", help="emit markdown tables")
    store_parser.add_argument(
        "--batch",
        dest="batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="coalesce same-destination messages into Batch frames (--no-batch disables)",
    )
    store_parser.add_argument(
        "--compare-batching",
        action="store_true",
        help=(
            "also run the batched-vs-unbatched sweep under per-frame overhead "
            "(the S2 table)"
        ),
    )
    store_parser.add_argument(
        "--frame-overhead",
        type=float,
        default=0.1,
        help="per-frame line time charged by the --compare-batching sweep",
    )
    store_parser.add_argument(
        "--skip-zipf",
        action="store_true",
        help="skip the Zipf keyspace atomicity check (with one Byzantine server)",
    )
    store_parser.add_argument(
        "--mwmr",
        action="store_true",
        help=(
            "also run the S3 contended-writers sweep: every key multi-writer, "
            "several clients racing with (ts, writer_id) timestamp pairs"
        ),
    )
    store_parser.add_argument(
        "--mwmr-writers",
        type=int,
        default=3,
        help="number of concurrent writer clients in the --mwmr sweep",
    )
    store_parser.add_argument(
        "--mwmr-skew",
        type=float,
        default=0.8,
        help="Zipf skew of the --mwmr sweep's key popularity",
    )
    store_parser.add_argument(
        "--leases",
        action="store_true",
        help=(
            "also run the S5 read-lease sweep: a read-heavy Zipf workload "
            "whose hot-key reads are served from per-register read leases in "
            "zero rounds, leases off vs on"
        ),
    )
    store_parser.add_argument(
        "--lease-duration",
        type=float,
        default=400.0,
        help=(
            "lease validity window (virtual time units) of the --leases and "
            "--writer-leases sweeps"
        ),
    )
    store_parser.add_argument(
        "--writer-leases",
        action="store_true",
        help=(
            "also run the S7 writer-lease sweep: a write-heavy Zipf workload "
            "with a dominant owner writer per key, writer leases off vs on, "
            "against the SWMR 1-round fast-path baseline"
        ),
    )
    store_parser.add_argument(
        "--wlease-writers",
        type=int,
        default=3,
        help="number of concurrent writer clients in the --writer-leases sweep",
    )
    store_parser.add_argument(
        "--recovery",
        action="store_true",
        help=(
            "also run the S4 crash-recovery sweep: WAL-on vs WAL-off, plus a "
            "schedule with more total crashes than t where durable servers "
            "recover from their write-ahead logs"
        ),
    )
    store_parser.add_argument(
        "--recovery-t",
        type=int,
        default=2,
        help="resilience bound t of the --recovery sweep (2t servers crash in total)",
    )
    store_parser.add_argument(
        "--codec-bench",
        action="store_true",
        help=(
            "also run the S6 codec micro-benchmark: encode/decode ops/sec "
            "and bytes per representative frame"
        ),
    )
    from .sim.topology import PROFILE_NAMES

    store_parser.add_argument(
        "--topology",
        action="append",
        choices=list(PROFILE_NAMES),
        default=None,
        metavar="PROFILE",
        help=(
            "also run the S8 topology sweep on this profile (repeatable): "
            "healthy/partition/gray/skew scenarios with the fast-path "
            "survival rate per cell"
        ),
    )
    store_parser.add_argument(
        "--churn",
        action="store_true",
        help=(
            "append dynamic-keyspace churn rows to the S8 sweep: registers "
            "created, written, read back through eviction, and dropped on "
            "both runtimes under a bounded resident table"
        ),
    )
    store_parser.add_argument(
        "--churn-registers",
        type=int,
        default=10_000,
        help="registers the --churn rows create over their lifetime",
    )
    store_parser.add_argument(
        "--churn-resident",
        type=int,
        default=1_000,
        help="resident register bound (LRU eviction above it) for --churn",
    )
    store_parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help=(
            "write every produced experiment table as JSON to PATH "
            "(the CI benchmark job merges this into BENCH_pr.json)"
        ),
    )
    store_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the sweeps under cProfile and print the top functions by "
            "cumulative time after the tables"
        ),
    )
    store_parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="how many functions the --profile report shows (default: 25)",
    )

    from .bench.hotpath import DEFAULT_REGRESSION_THRESHOLD, COMPONENTS

    hotpath_parser = subparsers.add_parser(
        "hotpath",
        help=(
            "hot-path microbenchmarks (sim event loop, codec, automaton "
            "dispatch, timer wheel, WAL); the CI perf gate's measurement"
        ),
    )
    hotpath_parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="minimum timed window per component (default: 0.05)",
    )
    hotpath_parser.add_argument(
        "--component",
        action="append",
        choices=sorted(COMPONENTS),
        default=None,
        help="run only this component (repeatable; default: all)",
    )
    hotpath_parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the hotpath/1 JSON document (BENCH_hotpath.json in CI)",
    )
    hotpath_parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help=(
            "compare against a baseline JSON (benchmarks/baseline_hotpath.json "
            "in CI); non-zero exit on regression"
        ),
    )
    hotpath_parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="allowed fractional drop below the baseline (default: 0.25)",
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help=(
            "run the protocol-aware static analysis rules (RP01..RP08) over "
            "the given paths; non-zero exit on any finding"
        ),
    )
    analyze_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze_parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (text for humans/CI logs, json for tooling)",
    )
    analyze_parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all), e.g. RP01,RP04",
    )
    analyze_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules with their rationale and exit",
    )
    analyze_parser.add_argument(
        "--doc",
        action="store_true",
        help=(
            "print the generated docs/analysis.md (rule table + rationales) "
            "and exit; CI diffs the committed file against this output"
        ),
    )
    return parser


def _cmd_explain(args: argparse.Namespace) -> int:
    config = SystemConfig(t=args.t, b=args.b, fw=args.fw, fr=args.fr)
    print(explain(config))
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    ids = None if args.experiment == "all" else [args.experiment]
    print(generate_report(ids, markdown=args.markdown))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    config = SystemConfig.balanced(args.t, args.b, num_readers=2)
    from .bench.harness import build_cluster

    cluster = build_cluster(LuckyAtomicProtocol(config), crash_servers=args.failures)
    print(
        f"servers={config.num_servers} t={config.t} b={config.b} "
        f"fw={config.fw} fr={config.fr} crashed={args.failures}"
    )
    write = cluster.write("hello-world")
    print(
        f"WRITE('hello-world'): rounds={write.rounds} fast={write.fast} "
        f"latency={write.latency:.2f}"
    )
    read = cluster.read("r1")
    print(
        f"READ() -> {read.value!r}: rounds={read.rounds} fast={read.fast} "
        f"latency={read.latency:.2f}"
    )
    print(check_atomicity(cluster.history()).summary())
    return 0


def _cmd_store_bench(args: argparse.Namespace) -> int:
    if args.profile:
        # Profile the whole sweep body: the report shows where the hot paths
        # actually spend their time (codec, event queue, automaton steps).
        from .bench.hotpath import profile_callable

        outcome: List[int] = []
        report = profile_callable(
            lambda: outcome.append(_run_store_bench(args)), top=args.profile_top
        )
        print()
        print(f"--- cProfile: top {args.profile_top} by cumulative time ---")
        print(report, end="")
        return outcome[0] if outcome else 1
    return _run_store_bench(args)


def _run_store_bench(args: argparse.Namespace) -> int:
    from .store.bench import (
        batching_sweep,
        lease_sweep,
        mwmr_sweep,
        recovery_sweep,
        sharded_throughput_sweep,
        writer_lease_sweep,
        zipf_store_scenario,
    )

    tables = []
    table = sharded_throughput_sweep(
        shard_counts=range(1, args.max_shards + 1),
        num_operations=args.ops,
        t=args.t,
        b=args.b,
        batching=args.batch,
    )
    tables.append(table)
    print(table.to_markdown() if args.markdown else table.format())
    if args.compare_batching:
        # The comparison always includes 8 shards (below that, per-key
        # serialization dominates and batching is a wash) and extends to
        # --max-shards when that reaches further.
        comparison = batching_sweep(
            shard_counts=sorted({1, 4, 8, max(args.max_shards, 8)}),
            num_operations=args.ops,
            t=args.t,
            b=args.b,
            frame_overhead=args.frame_overhead,
        )
        tables.append(comparison)
        print()
        print(comparison.to_markdown() if args.markdown else comparison.format())
    if args.mwmr:
        # S3: contended writers on an all-MWMR store; shard counts are the
        # powers of two up to --max-shards (plus --max-shards itself).
        contended = mwmr_sweep(
            shard_counts=sorted(
                {c for c in (1, 2, 4, 8) if c <= args.max_shards} | {args.max_shards}
            ),
            num_operations=args.ops,
            t=args.t,
            b=args.b,
            num_writers=args.mwmr_writers,
            skew=args.mwmr_skew,
            batching=args.batch,
        )
        tables.append(contended)
        print()
        print(contended.to_markdown() if args.markdown else contended.format())
    if args.leases:
        # S5: read-heavy Zipf workload with hot-key reads served from read
        # leases in zero rounds, leases off vs on over the same arrivals.
        leased = lease_sweep(
            num_keys=min(4, args.max_shards),
            num_operations=args.ops,
            t=args.t,
            b=args.b,
            lease_duration=args.lease_duration,
            batching=args.batch,
        )
        tables.append(leased)
        print()
        print(leased.to_markdown() if args.markdown else leased.format())
    if args.writer_leases:
        # S7: write-heavy Zipf workload with a dominant owner writer per key;
        # writer leases off vs on, against the SWMR 1-round baseline.
        wleased = writer_lease_sweep(
            num_keys=min(4, args.max_shards),
            num_operations=args.ops,
            t=args.t,
            b=args.b,
            num_writers=args.wlease_writers,
            lease_duration=args.lease_duration,
            batching=args.batch,
        )
        tables.append(wleased)
        print()
        print(wleased.to_markdown() if args.markdown else wleased.format())
    if args.recovery:
        # S4: durable servers under a crash/recovery schedule whose total
        # crashes exceed t while at most t servers are ever down at once.
        recovery = recovery_sweep(
            num_shards=min(4, args.max_shards),
            num_operations=args.ops,
            t=args.recovery_t,
            b=args.b,
            batching=args.batch,
        )
        tables.append(recovery)
        print()
        print(recovery.to_markdown() if args.markdown else recovery.format())
    if args.codec_bench:
        # S6: the codec in isolation — encode/decode rate and bytes per
        # representative frame.
        from .wire.bench import codec_microbench

        micro = codec_microbench()
        tables.append(micro)
        print()
        print(micro.to_markdown() if args.markdown else micro.format())
    if args.topology:
        # S8: the same protocol over explicit links and zones — healthy,
        # partitioned, gray and skewed — plus optional dynamic-keyspace
        # churn rows through the bounded register table.
        from .store.bench import topology_sweep

        sweep = topology_sweep(
            profiles=tuple(args.topology),
            t=args.t,
            b=args.b,
            churn=args.churn,
            churn_registers=args.churn_registers,
            churn_resident=args.churn_resident,
            batching=args.batch,
        )
        tables.append(sweep)
        print()
        print(sweep.to_markdown() if args.markdown else sweep.format())
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "command": "store-bench",
                    "parameters": {
                        "max_shards": args.max_shards,
                        "ops": args.ops,
                        "t": args.t,
                        "b": args.b,
                        "batching": args.batch,
                        "frame_overhead": args.frame_overhead,
                        "mwmr": args.mwmr,
                        "mwmr_writers": args.mwmr_writers,
                        "mwmr_skew": args.mwmr_skew,
                        "leases": args.leases,
                        "lease_duration": args.lease_duration,
                        "writer_leases": args.writer_leases,
                        "wlease_writers": args.wlease_writers,
                        "recovery": args.recovery,
                        "recovery_t": args.recovery_t,
                        "codec_bench": args.codec_bench,
                        "topology": args.topology,
                        "churn": args.churn,
                        "churn_registers": args.churn_registers,
                        "churn_resident": args.churn_resident,
                    },
                    "experiments": [table.to_dict() for table in tables],
                },
                fh,
                indent=2,
                default=str,
            )
        print(f"\nwrote {len(tables)} experiment table(s) to {args.json_out}")
    if not args.skip_zipf:
        # The Byzantine scenario needs b >= 1, so it runs on its own fixed
        # configuration rather than the sweep's --t/--b.
        store = zipf_store_scenario(byzantine=True, batching=args.batch)
        config = store.config
        results = store.check_atomicity()
        ok = all(result.ok for result in results.values())
        print(
            f"\nZipf keyspace (t={config.t} b={config.b}, {len(results)} keys, "
            f"1 Byzantine server, batching {'on' if args.batch else 'off'}): "
            + ("all per-key histories atomic" if ok else "ATOMICITY VIOLATED")
        )
        if not ok:
            return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import all_rules
    from .analysis.engine import run_analysis
    from .analysis.reporters import render_json, render_rules_doc, render_text

    if args.doc:
        print(render_rules_doc(all_rules()), end="")
        return 0

    if args.list_rules:
        for rule_class in all_rules():
            print(f"{rule_class.rule_id}  {rule_class.title}")
            print(f"      {rule_class.rationale}")
        return 0

    select = None
    if args.select is not None:
        select = [rule_id.strip() for rule_id in args.select.split(",") if rule_id.strip()]
        known = {rule_class.rule_id for rule_class in all_rules()}
        unknown = sorted(set(select) - known)
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2

    report = run_analysis(args.paths, select=select)
    rendered = render_json(report) if args.format == "json" else render_text(report)
    print(rendered)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``lucky-storage`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "run-experiment":
        return _cmd_run_experiment(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "store-bench":
        return _cmd_store_bench(args)
    if args.command == "hotpath":
        from .bench import hotpath

        hotpath_argv: List[str] = ["--min-seconds", str(args.min_seconds)]
        for component in args.component or []:
            hotpath_argv += ["--component", component]
        if args.json_out:
            hotpath_argv += ["--json-out", args.json_out]
        if args.check:
            hotpath_argv += ["--check", args.check]
        hotpath_argv += ["--threshold", str(args.threshold)]
        return hotpath.main(hotpath_argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
