"""Wall-clock end-to-end benchmark of the store, with a per-layer ledger.

One workload, one run (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload tcp_lucky_c8 --seed 1 --seconds 12 --trace 0

Every workload, each run in a subprocess of its own, ``--repeat`` seeds each::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace 0|1] [--repeat R] [--out FILE]

Two such result files against the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --compare A.json B.json

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the time
untraced and half with the span objects injected, replays the captured server
inputs layer by layer and prints the per-layer metrics and the CPU ledger.
Every run checks every history it timed and exits non-zero if one fails.  The
last line of a run's output is its result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def collect(
    names: List[str], seed: int, seconds: float, trace: int, repeat: int, out: Optional[str]
) -> int:
    """Run each of *names* for *repeat* seeds, every run in a fresh subprocess
    (so peak memory and GC state are one run's own), and gather the results."""
    runs = []
    status = 0
    for name in names:
        for run_seed in range(seed, seed + repeat):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name]
            command += ["--seed", str(run_seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            status = status or done.returncode
            lines = done.stdout.strip().splitlines()
            if done.returncode == 0 and lines:
                runs.append({"workload": name, "seed": run_seed, **json.loads(lines[-1])})
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "trace": trace, "runs": runs}, fh, indent=1)
    return status


def _benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def _series(path: str) -> Dict[Tuple[str, str], List[float]]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    series: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for metric, entry in run["metrics"].items():
            series.setdefault((run["workload"], metric), []).append(entry["value"])
    return series


def _spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 with one value)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric; non-zero when one is worse."""
    benchmark = _benchmark()
    series_a, series_b = _series(path_a), _series(path_b)
    worse = 0
    print(
        f"{'workload':<18} {'metric':<14} {'A median':>12} {'B median':>12} "
        f"{'B vs A':>8} {'bound':>6} {'spread A/B':>13}  verdict"
    )
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            a = series_a.get((workload, metric["name"]))
            b = series_b.get((workload, metric["name"]))
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            lower = metric["better"] == "lower"
            # Positive = B is worse, as a share of A's median (the base).
            change = (median_b - median_a) / median_a * (1 if lower else -1)
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if change > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif max(_spread(a), _spread(b)) > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(
                f"{workload:<18} {metric['name']:<14} {median_a:>12.4f} {median_b:>12.4f} "
                f"{change:>+8.1%} {metric['bound']:>6.2f} "
                f"{_spread(a):>6.3f}/{_spread(b):<6.3f}  {verdict}"
            )
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="only this workload (default: every one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="seeds per workload")
    parser.add_argument("--out", help="write the results of every run to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    benchmark = _benchmark()
    names = [entry["name"] for entry in benchmark["workloads"]]
    seconds = args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.workload is None or args.out or args.repeat > 1:
        chosen = names if args.workload is None else [args.workload]
        return collect(chosen, args.seed, seconds, args.trace, args.repeat, args.out)
    try:
        from e2ebench import runner
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    result = runner.run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(f"{args.workload}: run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
