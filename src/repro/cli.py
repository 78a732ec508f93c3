"""Command-line interface.

Examples::

    lucky-storage explain --t 2 --b 1 --fw 1 --fr 0
    lucky-storage run-experiment E1
    lucky-storage run-experiment S4
    lucky-storage run-experiment all --markdown
    lucky-storage demo --t 2 --b 1
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import all_rules
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
        "run-experiment",
        help="run one experiment (E1..E10, A1, A2), one store sweep (S1..S8) or 'all'",
    )
    run_parser.add_argument("experiment", choices=list(ALL_EXPERIMENTS) + ["all"])
    run_parser.add_argument("--markdown", action="store_true", help="emit markdown tables")

    demo_parser = subparsers.add_parser(
        "demo", help="run a small write/read demo on the simulator"
    )
    demo_parser.add_argument("--t", type=int, default=2)
    demo_parser.add_argument("--b", type=int, default=1)
    demo_parser.add_argument("--failures", type=int, default=0)

    rules = all_rules()
    analyze_parser = subparsers.add_parser(
        "analyze",
        help=(
            "run the protocol-aware static analysis rules "
            f"({rules[0].rule_id}..{rules[-1].rule_id}) over "
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


def _cmd_analyze(args: argparse.Namespace) -> int:
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
    if args.command == "analyze":
        return _cmd_analyze(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
