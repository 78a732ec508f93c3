"""Hot-path microbenchmarks and the CI perf gate behind them.

Every component that dominates a simulator or runtime profile gets a small,
deterministic workload measured in single-thread operations per second:

* ``sim_event_loop`` — full write/read cycles through :class:`SimCluster`,
  reported as simulator events dispatched per second.
* ``codec_encode`` / ``codec_decode`` — the binary wire codec over the
  representative frames of :mod:`repro.wire.bench` (minimal read, populated
  prewrite, read ack, 8-ack batch, the 11-message mixed batch of a saturated
  server).
* ``automaton_dispatch`` — a server automaton absorbing read queries, the
  per-message protocol step with no I/O around it.
* ``timer_wheel`` — the event queue's timer arm/cancel/pop churn, the
  operation mix the amortized wheel exists for.
* ``wal_append`` — batch appends through the file-backed write-ahead log
  (``fsync`` off: the framing + buffered-write cost, not the disk).

The workloads are fixed; only the wall clock varies between runs.  Results
are emitted (``--json-out``) as a ``hotpath/1`` document::

    {"schema": "hotpath/1",
     "parameters": {"min_seconds": ...},
     "components": {"sim_event_loop": {"ops_per_sec": ..., "unit": ...}, ...}}

and compared against ``benchmarks/baseline_hotpath.json`` by
:func:`check_against_baseline`: the CI ``perf`` job fails when any component
drops more than :data:`DEFAULT_REGRESSION_THRESHOLD` below its baseline.
Regenerate the baseline (on the reference runner) with::

    lucky-storage hotpath --json-out benchmarks/baseline_hotpath.json

Run directly: ``python -m repro.bench.hotpath [--json-out ...] [--check ...]``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.config import SystemConfig
from ..core.messages import Read
from ..core.protocol import LuckyAtomicProtocol
from ..persist.wal import WalRecord, WriteAheadLog
from ..sim.cluster import SimCluster
from ..sim.events import EventQueue
from ..sim.latency import FixedDelay
from ..wire.bench import ops_per_second, representative_payloads
from ..wire.codec import get_codec

__all__ = [
    "SCHEMA",
    "DEFAULT_REGRESSION_THRESHOLD",
    "COMPONENTS",
    "run_hotpath_bench",
    "check_against_baseline",
    "format_results",
    "main",
]

SCHEMA = "hotpath/1"

#: A component may drop this fraction below its checked-in baseline before
#: the CI perf gate fails (generous: CI runners are noisy neighbours).
DEFAULT_REGRESSION_THRESHOLD = 0.25


# --------------------------------------------------------------------------- #
# Component workloads
# --------------------------------------------------------------------------- #


def _small_suite() -> LuckyAtomicProtocol:
    return LuckyAtomicProtocol(SystemConfig.balanced(1, 0, num_readers=1))


def bench_sim_event_loop(min_seconds: float) -> Dict[str, Any]:
    """Simulator events dispatched per second over full write/read cycles."""
    suite = _small_suite()

    def cycle() -> int:
        cluster = SimCluster(suite, delay_model=FixedDelay(1.0))
        cluster.write("v")
        cluster.read("r1")
        cluster.run_until_quiescent()
        return cluster.events_processed

    events_per_cycle = cycle()
    cycles_per_second = ops_per_second(cycle, min_seconds)
    return {
        "ops_per_sec": cycles_per_second * events_per_cycle,
        "unit": "events/s",
        "detail": f"{events_per_cycle} events per write+read cycle",
    }


def bench_codec_encode(min_seconds: float) -> Dict[str, Any]:
    """Envelope encodes per second, averaged over the representative frames."""
    codec = get_codec("binary")
    payloads = representative_payloads()

    def encode_all() -> None:
        for _label, source, destination, message in payloads:
            codec.encode_envelope(source, destination, message)

    return {
        "ops_per_sec": ops_per_second(encode_all, min_seconds) * len(payloads),
        "unit": "frames/s",
        "detail": f"{len(payloads)} representative frames per iteration",
    }


def bench_codec_decode(min_seconds: float) -> Dict[str, Any]:
    codec = get_codec("binary")
    encoded = [
        codec.encode_envelope(source, destination, message)
        for _label, source, destination, message in representative_payloads()
    ]

    def decode_all() -> None:
        for frame in encoded:
            codec.decode_envelope(frame)

    return {
        "ops_per_sec": ops_per_second(decode_all, min_seconds) * len(encoded),
        "unit": "frames/s",
        "detail": f"{len(encoded)} representative frames per iteration",
    }


def bench_automaton_dispatch(min_seconds: float) -> Dict[str, Any]:
    """Protocol steps per second: a server absorbing read queries."""
    server = _small_suite().create_server("s1")
    message = Read(sender="r1", read_ts=1, round=1)

    def dispatch() -> None:
        server.handle_message(message)

    return {
        "ops_per_sec": ops_per_second(dispatch, min_seconds),
        "unit": "messages/s",
        "detail": "server handle_message(Read)",
    }


def bench_timer_wheel(min_seconds: float) -> Dict[str, Any]:
    """Timer arm/cancel/pop churn per second on the event queue."""
    arms = 128

    def churn() -> None:
        queue = EventQueue()
        for index in range(arms):
            queue.push_timer(float(index % 7), "p", f"t{index % 11}")
            if index % 3 == 0:
                queue.cancel_timer("p", f"t{(index + 5) % 11}")
        while queue.pop() is not None:
            pass

    return {
        "ops_per_sec": ops_per_second(churn, min_seconds) * arms,
        "unit": "arms/s",
        "detail": f"{arms} arms per iteration, one cancel per three arms",
    }


def bench_wal_append(min_seconds: float) -> Dict[str, Any]:
    """WAL records appended per second (fsync off: framing + buffered write)."""
    batch = [
        WalRecord("k1", "w", index, "w", f"value-{index}") for index in range(16)
    ]
    with tempfile.TemporaryDirectory(prefix="hotpath-wal-") as directory:
        wal = WriteAheadLog(os.path.join(directory, "bench.wal"), fsync=False)
        try:

            def append() -> None:
                wal.append(batch)

            rate = ops_per_second(append, min_seconds)
        finally:
            wal.close()
    return {
        "ops_per_sec": rate * len(batch),
        "unit": "records/s",
        "detail": f"batches of {len(batch)} records, fsync off",
    }


#: Component name -> workload.  Names are the stable keys of
#: the ``hotpath/1`` document and of the checked-in baseline.
COMPONENTS: Dict[str, Callable[[float], Dict[str, Any]]] = {
    "sim_event_loop": bench_sim_event_loop,
    "codec_encode": bench_codec_encode,
    "codec_decode": bench_codec_decode,
    "automaton_dispatch": bench_automaton_dispatch,
    "timer_wheel": bench_timer_wheel,
    "wal_append": bench_wal_append,
}


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #


def run_hotpath_bench(
    min_seconds: float = 0.05, components: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Run the selected component workloads; returns the ``hotpath/1`` document."""
    selected = list(components) if components else list(COMPONENTS)
    unknown = sorted(set(selected) - set(COMPONENTS))
    if unknown:
        raise ValueError(
            f"unknown hotpath component(s): {', '.join(unknown)} "
            f"(known: {', '.join(COMPONENTS)})"
        )
    results: Dict[str, Any] = {}
    for name in selected:
        results[name] = COMPONENTS[name](min_seconds)
    return {
        "schema": SCHEMA,
        "parameters": {"min_seconds": min_seconds},
        "components": results,
    }


def check_against_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> List[str]:
    """Regression check: every baseline component must hold its rate.

    Returns human-readable failure lines (empty means the gate passes).  A
    component present in the baseline but missing from *current* fails — a
    silently dropped benchmark must not read as a pass.  Components new in
    *current* are informational only (they gate once the baseline is
    regenerated).
    """
    failures: List[str] = []
    current_components = current.get("components", {})
    for name, entry in sorted(baseline.get("components", {}).items()):
        reference = float(entry["ops_per_sec"])
        measured_entry = current_components.get(name)
        if measured_entry is None:
            failures.append(f"{name}: missing from current results (baseline has it)")
            continue
        measured = float(measured_entry["ops_per_sec"])
        floor = reference * (1.0 - threshold)
        if measured < floor:
            drop = 100.0 * (1.0 - measured / reference)
            failures.append(
                f"{name}: {measured:,.0f} ops/s is {drop:.1f}% below the "
                f"baseline {reference:,.0f} ops/s (allowed drop: "
                f"{100.0 * threshold:.0f}%)"
            )
    return failures


def format_results(document: Dict[str, Any]) -> str:
    """A fixed-width table of component rates for logs and step summaries."""
    lines = [f"{'component':<20} {'ops/sec':>14}  unit"]
    for name, entry in sorted(document.get("components", {}).items()):
        unit = entry.get("unit", "ops/s")
        lines.append(f"{name:<20} {entry['ops_per_sec']:>14,.0f}  {unit}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Entry point (also reachable as ``lucky-storage hotpath``)
# --------------------------------------------------------------------------- #


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.hotpath",
        description="hot-path microbenchmarks (the CI perf gate's measurement)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="minimum timed window per component (default: 0.05)",
    )
    parser.add_argument(
        "--component",
        action="append",
        choices=sorted(COMPONENTS),
        default=None,
        help="run only this component (repeatable; default: all)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the hotpath/1 JSON document (how the baseline is regenerated)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against a baseline JSON; non-zero exit on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="allowed fractional drop below the baseline (default: 0.25)",
    )
    args = parser.parse_args(argv)

    document = run_hotpath_bench(
        min_seconds=args.min_seconds, components=args.component
    )
    print(format_results(document))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.json_out}")
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = check_against_baseline(document, baseline, threshold=args.threshold)
        if failures:
            print(f"\nPERF GATE FAILED vs {args.check}:")
            for line in failures:
                print(f"  {line}")
            print(
                "\nIf the drop is intended, regenerate the baseline: "
                "lucky-storage hotpath --json-out benchmarks/baseline_hotpath.json"
            )
            return 1
        print(f"\nperf gate passed vs {args.check} (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
