#!/usr/bin/env python3
"""Quickstart: a SWMR atomic register over 2t + b + 1 simulated servers.

Runs the paper's core algorithm on the deterministic simulator, shows that
lucky operations complete in a single communication round-trip, and verifies
the resulting history against the SWMR atomicity checker.

Usage::

    python examples/quickstart.py
"""

from repro import (
    LinkMetrics,
    LuckyAtomicProtocol,
    SimCluster,
    SystemConfig,
    Topology,
    check_atomicity,
)
from repro.core.quorums import explain


def main() -> None:
    # Tolerate t = 2 faulty servers, of which b = 1 may be malicious; grant the
    # write fast path fw = 1 failure of slack (so fr = 0 on the frontier).
    config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
    print("=== configuration ===")
    print(explain(config))
    print()

    # The network: one zone whose links all take one time unit, so every
    # operation is synchronous (faults would be NetworkSchedule windows).
    network = Topology(intra=LinkMetrics(latency=1.0))
    cluster = SimCluster(LuckyAtomicProtocol(config), topology=network)

    print("=== lucky operations (synchronous, contention-free) ===")
    write = cluster.write("hello-world")
    print(
        f"WRITE('hello-world'): rounds={write.rounds}  fast={write.fast}  "
        f"virtual latency={write.latency:.2f}"
    )

    read = cluster.read("r1")
    print(f"READ() by r1 -> {read.value!r}: rounds={read.rounds}  fast={read.fast}")

    # A second writer/reader cycle, now with one crashed server (within fw).
    cluster.crash("s6")
    write2 = cluster.write("still-fast")
    read2 = cluster.read("r2")
    print(
        f"after crashing s6: WRITE rounds={write2.rounds} fast={write2.fast}; "
        f"READ -> {read2.value!r} fast={read2.fast}"
    )
    print()

    print("=== consistency ===")
    result = check_atomicity(cluster.history())
    print(result.summary())
    result.raise_if_violated()

    print()
    print("messages exchanged:", cluster.trace.summary())


if __name__ == "__main__":
    main()
