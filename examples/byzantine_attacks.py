#!/usr/bin/env python3
"""Byzantine attack gallery.

Three scenes:

1. Malicious *servers* (forging, stale replay, equivocation) against the
   paper's algorithm — every attack bounces off the b+1 / highCand quorums.
2. The same forgery against a naive "everything is fast" protocol that ignores
   the ``fw + fr <= t - b`` bound — the atomicity checker catches the
   never-written value (the observable content of Proposition 2).
3. A malicious *reader* poisoning write-backs: breaks the atomic algorithm,
   is harmless against the Appendix D regular variant.

Usage::

    python examples/byzantine_attacks.py
"""

from repro import (
    FixedDelay,
    LuckyAtomicProtocol,
    SimCluster,
    SystemConfig,
    check_atomicity,
    check_regularity,
)
from repro.bench.adversary import ForgeQueryReplyStrategy, NaiveFastProtocol
from repro.core.types import TimestampValue
from repro.sim.byzantine import (
    EquivocationStrategy,
    ForgeHighTimestampStrategy,
    StaleReplayStrategy,
)
from repro.variants.regular import MaliciousWritebackReader, RegularStorageProtocol


def scene_one_malicious_servers() -> None:
    print("=== scene 1: malicious servers vs the paper's algorithm ===")
    config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
    for strategy in (ForgeHighTimestampStrategy(), StaleReplayStrategy(), EquivocationStrategy()):
        cluster = SimCluster(
            LuckyAtomicProtocol(config),
            delay_model=FixedDelay(1.0),
            byzantine={"s1": strategy},
        )
        cluster.write("genuine")
        read = cluster.read("r1")
        verdict = check_atomicity(cluster.history())
        print(
            f"  s1 plays {strategy.name:<22} -> READ returned {read.value!r:12} "
            f"({verdict.summary()})"
        )
    print()


def scene_two_overeager_protocol() -> None:
    print("=== scene 2: the same forgery vs an over-eager protocol ===")
    config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
    naive = SimCluster(
        NaiveFastProtocol(config),
        delay_model=FixedDelay(1.0),
        byzantine={"s1": ForgeQueryReplyStrategy()},
    )
    naive.write("legit")
    read = naive.read("r1")
    verdict = check_atomicity(naive.history())
    print(f"  naive fast protocol: READ returned {read.value!r} -> {verdict.summary()}")
    for violation in verdict.violations:
        print(f"    violation: {violation.property_name}: {violation.description}")

    paper = SimCluster(
        LuckyAtomicProtocol(config),
        delay_model=FixedDelay(1.0),
        byzantine={"s1": ForgeHighTimestampStrategy()},
    )
    paper.write("legit")
    read = paper.read("r1")
    print(
        f"  paper's algorithm:   READ returned {read.value!r} -> "
        f"{check_atomicity(paper.history()).summary()}"
    )
    print()


def scene_three_malicious_reader() -> None:
    print("=== scene 3: a malicious reader poisoning write-backs ===")
    atomic_config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
    atomic_cluster = SimCluster(LuckyAtomicProtocol(atomic_config), delay_model=FixedDelay(1.0))
    atomic_cluster.write("genuine")
    attacker = MaliciousWritebackReader(
        "r-mal", atomic_config, forged_pair=TimestampValue(10**6, "POISON")
    )
    atomic_cluster.inject("r-mal", attacker.read())
    atomic_cluster.run_for(5.0)
    read = atomic_cluster.read("r1")
    print(
        f"  atomic algorithm: honest READ returned {read.value!r} -> "
        f"{check_atomicity(atomic_cluster.history()).summary()}"
    )

    regular_suite = RegularStorageProtocol.for_parameters(t=2, b=1, num_readers=2)
    regular_cluster = SimCluster(regular_suite, delay_model=FixedDelay(1.0))
    regular_cluster.write("genuine")
    attacker = MaliciousWritebackReader("r-mal", regular_suite.config)
    regular_cluster.inject("r-mal", attacker.read())
    regular_cluster.run_for(5.0)
    read = regular_cluster.read("r1")
    print(
        f"  regular variant:  honest READ returned {read.value!r} -> "
        f"{check_regularity(regular_cluster.history()).summary()}"
    )
    print()
    print(
        "Take-away: write-backs are the atomicity/malicious-reader trade-off the "
        "paper discusses in Section 5 and resolves with the Appendix D variant."
    )


def main() -> None:
    scene_one_malicious_servers()
    scene_two_overeager_protocol()
    scene_three_malicious_reader()


if __name__ == "__main__":
    main()
