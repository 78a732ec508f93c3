#!/usr/bin/env python3
"""Fault-tolerance sweep: when do operations stay fast?

Reproduces the paper's headline trade-off interactively: for a chosen (t, b)
the script sweeps every (fw, fr) pair on the frontier ``fw + fr = t - b`` and
every number of actual crash failures, reporting whether lucky writes and reads
stayed fast and whether atomicity held.

Usage::

    python examples/fault_tolerance_sweep.py [t] [b]
"""

import sys

from repro import LuckyAtomicProtocol, SimCluster, SystemConfig, check_atomicity
from repro.core.config import frontier_threshold_pairs
from repro.sim.cluster import DROP
from repro.sim.failures import FailureSchedule


def sweep(t: int, b: int) -> None:
    print(
        f"t={t} faulty servers tolerated, b={b} of them possibly malicious, "
        f"S={2 * t + b + 1} servers, frontier fw+fr={t - b}"
    )
    header = f"{'fw':>3} {'fr':>3} {'failures':>9} {'write':>12} {'read':>12} {'atomic':>7}"
    print(header)
    print("-" * len(header))

    for fw, fr in frontier_threshold_pairs(t, b):
        config = SystemConfig(t=t, b=b, fw=fw, fr=fr, num_readers=1)
        for failures in range(t + 1):
            # Writes face `failures` crashed servers from the start.
            write_cluster = SimCluster(
                LuckyAtomicProtocol(config),
                failures=FailureSchedule.crash_servers_at_start(
                    failures, list(reversed(config.server_ids()))
                ),
            )
            write = write_cluster.write(f"value-{fw}-{failures}")

            # Reads face a fast write that reached only S - fw servers, then
            # `failures` crashes among the servers holding the value.
            missed = set(config.server_ids()[-fw:]) if fw else set()

            def drop_writer_to_missed(source, destination, message, now):
                if source == config.writer_id and destination in missed:
                    return DROP
                return None

            read_cluster = SimCluster(
                LuckyAtomicProtocol(config),
                message_filter=drop_writer_to_missed,
            )
            read_cluster.write(f"value-{fw}-{failures}")
            read_cluster.run_for(5.0)
            for server_id in config.server_ids()[:failures]:
                read_cluster.crash(server_id)
            read = read_cluster.read("r1")

            atomic = (
                check_atomicity(write_cluster.history()).ok
                and check_atomicity(read_cluster.history()).ok
            )
            write_label = "fast" if write.fast else f"slow({write.rounds}r)"
            read_label = "fast" if read.fast else f"slow({read.rounds}r)"
            print(
                f"{fw:>3} {fr:>3} {failures:>9} {write_label:>12} {read_label:>12} "
                f"{'yes' if atomic else 'NO':>7}"
            )
    print()
    print(
        "Expected shape (Propositions 1 and 2): write fast iff failures <= fw, "
        "read fast iff failures <= fr, atomic everywhere."
    )


def main() -> None:
    t = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    b = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    sweep(t, b)


if __name__ == "__main__":
    main()
