"""Experiment definitions E1-E10 and ablations A1-A2, and the registry.

Each function builds the relevant clusters, runs the workload, checks the
consistency condition, and returns an :class:`ExperimentTable` whose rows are
what ``lucky-storage run-experiment`` prints.  The functions are deliberately
deterministic (fixed seeds, fixed delay models) so the tables are reproducible
run to run.  :data:`ALL_EXPERIMENTS` lists them together with the store sweeps
of :mod:`repro.bench.sweeps`.
"""

from __future__ import annotations

from typing import Dict, List

from ..baselines.abd import ABDProtocol
from ..baselines.slow_robust import SlowRobustProtocol
from ..core.automaton import TimerPolicy
from ..core.config import SystemConfig, frontier_threshold_pairs
from ..core.protocol import LuckyAtomicProtocol, ProtocolSuite
from ..sim.byzantine import (
    ForgeHighTimestampStrategy,
    MuteStrategy,
    StaleReplayStrategy,
)
from ..sim.cluster import DROP, SimCluster
from ..sim.latency import FixedDelay, SlowProcessDelay, UniformDelay
from ..variants.regular import MaliciousWritebackReader, RegularStorageProtocol
from ..variants.trading import (
    TradingReadsProtocol,
    consecutive_lucky_read_sequences,
)
from ..variants.two_round import TwoRoundWriteProtocol
from ..verify.atomicity import check_atomicity
from ..verify.regularity import check_regularity
from ..workload.generator import contended_workload, lucky_workload, run_workload
from .adversary import ForgeQueryReplyStrategy, NaiveFastProtocol
from .harness import ExperimentTable, build_cluster, lucky_write_read_cycle, summarize
from .sweeps import STORE_SWEEPS

#: Appended to every table that reports a latency (E1, E2, E5, E10, A2).
PAPER_FAITHFUL_NOTE = (
    "Latencies are the paper's: these runs pin TimerPolicy.WAIT, under which a fast "
    "operation returns when its round-1 timer (round trip + margin) fires, so the "
    "latency column reads the timer.  Under the library default (TimerPolicy.DEADLINE) "
    "the same operations return after one round trip; rounds, fast fractions and "
    "message counts are identical under both."
)


def _paper_faithful(config: SystemConfig) -> LuckyAtomicProtocol:
    """The core algorithm with Fig. 1 l.5 / Fig. 2 l.17 verbatim.

    Only the experiments that report a *latency* use it: under the paper's
    wait that number is defined by the timer, and the tables reproduce the
    paper.  Every experiment about rounds, thresholds or safety runs under the
    default policy, which leaves those numbers untouched.
    """
    return LuckyAtomicProtocol(config, timer_policy=TimerPolicy.WAIT)


# --------------------------------------------------------------------------- #
# E1 — fast lucky writes despite up to fw failures (Theorem 3)
# --------------------------------------------------------------------------- #


def experiment_fast_writes(t: int = 2, b: int = 1, writes_per_trial: int = 5) -> ExperimentTable:
    """E1: lucky WRITE round counts as the number of actual failures grows."""
    fw = t - b
    config = SystemConfig(t=t, b=b, fw=fw, fr=0, num_readers=1)
    table = ExperimentTable(
        experiment_id="E1",
        title=f"Fast lucky WRITEs (t={t}, b={b}, fw={fw}): fast iff failures <= fw",
        columns=[
            "failures",
            "failure_kind",
            "writes",
            "fast_fraction",
            "mean_rounds",
            "mean_latency",
            "atomic",
        ],
    )
    scenarios: List[Dict] = [
        {"failures": f, "kind": "crash", "crash": f, "byz": {}} for f in range(t + 1)
    ]
    if b > 0:
        scenarios.append(
            {
                "failures": min(b, fw) if fw > 0 else b,
                "kind": "byzantine-mute",
                "crash": 0,
                "byz": {
                    f"s{i + 1}": MuteStrategy()
                    for i in range(min(b, fw) if fw > 0 else b)
                },
            }
        )
    for scenario in scenarios:
        cluster = build_cluster(
            _paper_faithful(config), crash_servers=scenario["crash"], byzantine=scenario["byz"]
        )
        writes = []
        for index in range(writes_per_trial):
            writes.append(cluster.write(f"w{index + 1}"))
            cluster.run_for(5.0)
        stats = summarize(writes)
        table.add_row(
            failures=scenario["failures"],
            failure_kind=scenario["kind"],
            writes=stats.count,
            fast_fraction=stats.fast_fraction,
            mean_rounds=stats.mean_rounds,
            mean_latency=stats.mean_latency,
            atomic=check_atomicity(cluster.history()).ok,
        )
    table.add_note(
        "Paper claim (Theorem 3): every synchronous WRITE completes in one round "
        f"whenever at most fw = {fw} servers fail; beyond that it takes 3 rounds."
    )
    table.add_note(PAPER_FAITHFUL_NOTE)
    return table


# --------------------------------------------------------------------------- #
# E2 — fast lucky reads despite up to fr failures (Theorem 4)
# --------------------------------------------------------------------------- #


def experiment_fast_reads(t: int = 2, b: int = 1, reads_per_trial: int = 5) -> ExperimentTable:
    """E2: lucky READ round counts as the number of actual failures grows."""
    fr = t - b
    config = SystemConfig(t=t, b=b, fw=0, fr=fr, num_readers=2)
    table = ExperimentTable(
        experiment_id="E2",
        title=f"Fast lucky READs (t={t}, b={b}, fr={fr}): fast iff failures <= fr",
        columns=[
            "failures",
            "failure_kind",
            "reads",
            "fast_fraction",
            "mean_rounds",
            "mean_latency",
            "atomic",
        ],
    )
    scenarios: List[Dict] = [
        {"failures": f, "kind": "crash-after-write", "crash": f, "byz": {}}
        for f in range(t + 1)
    ]
    if b > 0 and fr > 0:
        scenarios.append(
            {
                "failures": min(b, fr),
                "kind": "byzantine-stale",
                "crash": 0,
                "byz": {f"s{i + 1}": StaleReplayStrategy() for i in range(min(b, fr))},
            }
        )
    for scenario in scenarios:
        cluster = build_cluster(_paper_faithful(config), byzantine=scenario["byz"])
        cluster.write("published")
        cluster.run_for(5.0)
        # Crash the servers only *after* the write completed: this is the
        # regime Theorem 4 talks about — the value sits in the pw fields of
        # S - fw servers and the READ must still find a fast quorum among the
        # survivors.
        for server_id in reversed(cluster.config.server_ids()):
            if scenario["crash"] <= 0:
                break
            if server_id in scenario["byz"]:
                continue
            cluster.crash(server_id)
            scenario["crash"] -= 1
        reads = []
        for index in range(reads_per_trial):
            reads.append(cluster.read(cluster.config.reader_ids()[index % 2]))
            cluster.run_for(5.0)
        stats = summarize(reads)
        table.add_row(
            failures=scenario["failures"],
            failure_kind=scenario["kind"],
            reads=stats.count,
            fast_fraction=stats.fast_fraction,
            mean_rounds=stats.mean_rounds,
            mean_latency=stats.mean_latency,
            atomic=check_atomicity(cluster.history()).ok,
        )
    table.add_note(
        "Paper claim (Theorem 4): every lucky READ completes in one round whenever "
        f"at most fr = {fr} servers fail.  Failures are injected after the preceding "
        "WRITE so the fast-path quorum genuinely shrinks."
    )
    table.add_note(PAPER_FAITHFUL_NOTE)
    return table


# --------------------------------------------------------------------------- #
# E3 — the fw + fr <= t - b trade-off frontier (Proposition 1)
# --------------------------------------------------------------------------- #


def experiment_threshold_tradeoff(t: int = 3, b: int = 1) -> ExperimentTable:
    """E3: sweep (fw, fr) along the frontier and actual failures 0..t."""
    table = ExperimentTable(
        experiment_id="E3",
        title=f"Threshold trade-off fw + fr = t - b (t={t}, b={b})",
        columns=[
            "fw",
            "fr",
            "failures",
            "write_fast",
            "read_fast",
            "write_rounds",
            "read_rounds",
            "atomic",
        ],
    )
    for fw, fr in frontier_threshold_pairs(t, b):
        config = SystemConfig(t=t, b=b, fw=fw, fr=fr, num_readers=1)
        for failures in range(t + 1):
            # Write fastness: failures are present while the WRITE runs.
            write_cluster = build_cluster(LuckyAtomicProtocol(config), crash_servers=failures)
            write = write_cluster.write("x")
            write_cluster.run_for(5.0)
            write_atomic = check_atomicity(write_cluster.history()).ok

            # Read fastness, worst case of Theorem 4: the preceding fast WRITE
            # reached only S - fw servers (its messages to fw unlucky-but-alive
            # servers are lost), then `failures` of the servers holding the
            # value crash, then a lucky READ runs.  The READ finds the value on
            # S - fw - failures servers, which meets the fastpw quorum exactly
            # when failures <= fr.
            server_ids = config.server_ids()
            missed = set(server_ids[-fw:]) if fw else set()

            def drop_writer_to_missed(source, destination, message, now, missed=missed):
                if source == config.writer_id and destination in missed:
                    return DROP
                return None

            read_cluster = SimCluster(
                LuckyAtomicProtocol(config),
                delay_model=FixedDelay(1.0),
                message_filter=drop_writer_to_missed,
            )
            read_cluster.write("x")
            read_cluster.run_for(5.0)
            for server_id in server_ids[:failures]:
                read_cluster.crash(server_id)
            read = read_cluster.read("r1")
            read_cluster.run_for(5.0)
            read_atomic = check_atomicity(read_cluster.history()).ok

            table.add_row(
                fw=fw,
                fr=fr,
                failures=failures,
                write_fast=write.fast,
                read_fast=read.fast,
                write_rounds=write.rounds,
                read_rounds=read.rounds,
                atomic=write_atomic and read_atomic,
            )
    table.add_note(
        "Expected shape: write_fast iff failures <= fw and read_fast iff failures <= fr; "
        "atomicity holds everywhere."
    )
    return table


# --------------------------------------------------------------------------- #
# E4 — the upper bound made observable (Proposition 2)
# --------------------------------------------------------------------------- #


def experiment_upper_bound_adversary(t: int = 1, b: int = 1) -> ExperimentTable:
    """E4: the forged-state adversary against an over-eager protocol vs ours."""
    table = ExperimentTable(
        experiment_id="E4",
        title=f"Upper bound (t={t}, b={b}, t-b={t - b}): over-eager fast paths are unsafe",
        columns=["protocol", "adversary", "read_value", "violations", "violated_property"],
    )

    def run(suite: ProtocolSuite, byz, label: str) -> None:
        cluster = build_cluster(suite, byzantine=byz)
        cluster.write("legit-1")
        cluster.run_for(5.0)
        read = cluster.read("r1")
        cluster.run_for(5.0)
        result = check_atomicity(cluster.history())
        table.add_row(
            protocol=suite.name,
            adversary=label,
            read_value=str(read.value),
            violations=len(result.violations),
            violated_property=(result.violations[0].property_name if result.violations else "-"),
        )

    naive_config = SystemConfig(t=t, b=b, fw=0, fr=0, num_readers=1)
    run(
        NaiveFastProtocol(naive_config),
        {"s1": ForgeQueryReplyStrategy()},
        "forged never-written value",
    )
    paper_config = SystemConfig(t=t, b=b, fw=0, fr=0, num_readers=1)
    run(
        LuckyAtomicProtocol(paper_config),
        {"s1": ForgeHighTimestampStrategy()},
        "forged never-written value",
    )
    table.add_note(
        "The naive protocol grants fast operations beyond fw + fr <= t - b and a single "
        "malicious server imposes a never-written value (the failure mode behind "
        "Proposition 2's run r5); the paper's algorithm is immune because returning a "
        "value needs b + 1 confirmations plus highCand validation."
    )
    return table


# --------------------------------------------------------------------------- #
# E5 — contention: slow paths, write-backs, freezing (Theorems 1-2)
# --------------------------------------------------------------------------- #


def experiment_contention(t: int = 2, b: int = 1, num_writes: int = 8) -> ExperimentTable:
    """E5: reads overlapping writes stay atomic and fall back to slow paths."""
    config = SystemConfig.balanced(t, b, num_readers=2)
    table = ExperimentTable(
        experiment_id="E5",
        title=f"Contention behaviour (t={t}, b={b}): slow paths preserve atomicity",
        columns=[
            "scenario",
            "reads",
            "fast_fraction",
            "writeback_fraction",
            "mean_read_rounds",
            "mean_read_latency",
            "atomic",
        ],
    )
    scenarios = {
        "lucky (no overlap)": (
            lucky_workload(num_writes, config.reader_ids(), gap=15.0),
            FixedDelay(1.0),
        ),
        "contended (read overlaps write)": (
            contended_workload(num_writes, config.reader_ids(), write_gap=12.0, read_offset=0.5),
            FixedDelay(1.0),
        ),
        "contended + degraded links (unlucky)": (
            contended_workload(num_writes, config.reader_ids(), write_gap=25.0, read_offset=0.5),
            SlowProcessDelay(
                base=FixedDelay(1.0),
                slow_processes=set(config.server_ids()[-t:]),
                extra_delay=40.0,
            ),
        ),
    }
    for label, (workload, delay_model) in scenarios.items():
        cluster = build_cluster(_paper_faithful(config), delay_model=delay_model)
        handles = run_workload(cluster, workload)
        reads = [handle for handle in handles if handle.kind == "read"]
        stats = summarize(reads)
        writebacks = sum(
            1 for handle in reads if handle.done and handle.result.metadata.get("writeback")
        )
        table.add_row(
            scenario=label,
            reads=stats.count,
            fast_fraction=stats.fast_fraction,
            writeback_fraction=writebacks / max(1, stats.count),
            mean_read_rounds=stats.mean_rounds,
            mean_read_latency=stats.mean_latency,
            atomic=check_atomicity(cluster.history()).ok,
        )
    table.add_note(
        "Contended reads may take extra rounds and write back, but atomicity always holds "
        "(Theorem 1); lucky reads stay one-round."
    )
    table.add_note(PAPER_FAITHFUL_NOTE)
    return table


# --------------------------------------------------------------------------- #
# E6 — trading a few reads: fw = t-b, fr = t (Appendix A, Proposition 3)
# --------------------------------------------------------------------------- #


def experiment_trading_reads(
    t: int = 2, b: int = 0, sequence_length: int = 6
) -> ExperimentTable:
    """E6: at most one slow lucky READ per consecutive lucky-read sequence.

    The interesting regime of Appendix A is a *fast* WRITE that reached only
    ``S - fw`` servers, followed by the crash of up to ``fr = t`` of the
    servers holding the value: the first lucky READ of the next sequence has
    to run slow (it "finishes" the fast WRITE), after which every consecutive
    lucky READ is fast again.
    """
    fw = t - b
    config = SystemConfig.trading_reads(t, b, num_readers=2)
    table = ExperimentTable(
        experiment_id="E6",
        title=f"Trading a few reads (t={t}, b={b}, fw={fw}, fr={t})",
        columns=[
            "failures_after_write",
            "write_fast",
            "reads_in_sequence",
            "slow_reads_in_sequence",
            "max_slow_per_sequence",
            "first_read_rounds",
            "atomic",
        ],
    )
    server_ids = config.server_ids()
    for failures in sorted({0, t - b, t}):
        missed = set(server_ids[-fw:]) if fw else set()

        def drop_writer_to_missed(source, destination, message, now, missed=missed):
            if source == config.writer_id and destination in missed:
                return DROP
            return None

        cluster = SimCluster(
            TradingReadsProtocol(config),
            delay_model=FixedDelay(1.0),
            message_filter=drop_writer_to_missed,
        )
        write = cluster.write("traded-value")
        cluster.run_for(5.0)
        cluster.message_filter = None
        # Crash up to fr = t of the servers that actually hold the value.
        for server_id in server_ids[:failures]:
            cluster.crash(server_id)
        reads = []
        for index in range(sequence_length):
            reads.append(cluster.read(cluster.config.reader_ids()[index % 2]))
            cluster.run_for(10.0)
        history = cluster.history()
        sequences = consecutive_lucky_read_sequences(history)
        max_slow = max((sequence.slow_count for sequence in sequences), default=0)
        table.add_row(
            failures_after_write=failures,
            write_fast=write.fast,
            reads_in_sequence=len(reads),
            slow_reads_in_sequence=sum(1 for handle in reads if not handle.fast),
            max_slow_per_sequence=max_slow,
            first_read_rounds=reads[0].rounds,
            atomic=check_atomicity(history).ok,
        )
    table.add_note(
        "Paper claim (Proposition 3): with fw = t-b and fr = t, any sequence of consecutive "
        "lucky READs contains at most one slow READ, even when t servers fail; the single "
        "slow READ is the one that 'finishes' the fast WRITE."
    )
    return table


# --------------------------------------------------------------------------- #
# E7 — two-round writes with fast reads (Appendix C, Propositions 5-6)
# --------------------------------------------------------------------------- #


def experiment_two_round_write(t: int = 2, b: int = 1) -> ExperimentTable:
    """E7: the Appendix C algorithm on S = 2t + b + min(b, fr) + 1 servers."""
    table = ExperimentTable(
        experiment_id="E7",
        title=f"Two-round WRITEs + fast lucky READs (t={t}, b={b})",
        columns=[
            "fr",
            "servers",
            "extra_servers",
            "failures",
            "max_write_rounds",
            "read_fast_fraction",
            "atomic",
        ],
    )
    for fr in range(0, t + 1):
        suite = TwoRoundWriteProtocol.for_parameters(t, b, fr, num_readers=2)
        for failures in sorted({0, fr}):
            cluster = build_cluster(
                TwoRoundWriteProtocol.for_parameters(t, b, fr, num_readers=2),
                crash_servers=failures,
            )
            cycle = lucky_write_read_cycle(cluster, num_cycles=4)
            write_stats = summarize(cycle["writes"])
            read_stats = summarize(cycle["reads"])
            table.add_row(
                fr=fr,
                servers=suite.config.num_servers,
                extra_servers=suite.config.extra_servers,
                failures=failures,
                max_write_rounds=write_stats.max_rounds,
                read_fast_fraction=read_stats.fast_fraction,
                atomic=check_atomicity(cluster.history()).ok,
            )
    table.add_note(
        "Paper claim (Proposition 6): with min(b, fr) extra servers every WRITE takes at most "
        "two rounds and every lucky READ is fast despite fr failures."
    )
    return table


# --------------------------------------------------------------------------- #
# E8 — the regular variant and malicious readers (Appendix D, Proposition 7)
# --------------------------------------------------------------------------- #


def experiment_regular_variant(t: int = 2, b: int = 1) -> ExperimentTable:
    """E8: regularity survives malicious readers; atomic store does not."""
    table = ExperimentTable(
        experiment_id="E8",
        title=f"Regular variant vs malicious readers (t={t}, b={b})",
        columns=[
            "protocol",
            "failures",
            "write_fast",
            "read_fast",
            "honest_read_value",
            "regular",
            "atomic",
        ],
    )

    def run(suite: ProtocolSuite, failures: int, poison: bool) -> None:
        cluster = build_cluster(suite, crash_servers=failures)
        cluster.write("genuine-1")
        cluster.run_for(5.0)
        if poison:
            attacker = MaliciousWritebackReader("r-mal", cluster.config)
            effects = attacker.read()
            cluster.inject("r-mal", effects)  # forged write-backs
            cluster.run_for(5.0)
        write = cluster.write("genuine-2")
        cluster.run_for(5.0)
        read = cluster.read("r1")
        cluster.run_for(5.0)
        history = cluster.history()
        table.add_row(
            protocol=suite.name,
            failures=failures,
            write_fast=write.fast,
            read_fast=read.fast,
            honest_read_value=str(read.value),
            regular=check_regularity(history).ok,
            atomic=check_atomicity(history).ok,
        )

    run(RegularStorageProtocol.for_parameters(t, b, num_readers=2), failures=0, poison=True)
    run(RegularStorageProtocol.for_parameters(t, b, num_readers=2), failures=t, poison=True)
    run(
        LuckyAtomicProtocol(SystemConfig.balanced(t, b, num_readers=2)),
        failures=0,
        poison=True,
    )
    table.add_note(
        "The regular variant ignores reader write-backs, so the poisoned value never "
        "surfaces and lucky operations stay fast with fw = t-b, fr = t; the atomic "
        "algorithm is vulnerable to malicious readers (Section 5), which may surface "
        "as a stale or never-written read."
    )
    return table


# --------------------------------------------------------------------------- #
# E9 — contending with the ghost writer (Appendix E, Theorem 13)
# --------------------------------------------------------------------------- #


def experiment_ghost_writer(t: int = 2, b: int = 1, reads_after_crash: int = 6) -> ExperimentTable:
    """E9: after the writer crashes mid-WRITE, at most 3 reads per reader are slow."""
    config = SystemConfig.balanced(t, b, num_readers=1)
    table = ExperimentTable(
        experiment_id="E9",
        title=f"Ghost writer (t={t}, b={b}): slow READs after a writer crash",
        columns=[
            "crash_point",
            "reads",
            "slow_reads",
            "max_read_rounds",
            "first_fast_read_index",
            "atomic",
        ],
    )

    partial_delivery = {
        "crash before any PW delivered": 0,
        "crash after PW reaches b+1 servers": config.b + 1,
        "crash after PW reaches all servers": config.num_servers,
    }
    for label, reach in partial_delivery.items():
        reached_servers = set(config.server_ids()[:reach])

        def pw_filter(source, destination, message, now, reached=reached_servers):
            if source == config.writer_id and destination not in reached:
                return DROP
            return None

        cluster = SimCluster(
            LuckyAtomicProtocol(config),
            delay_model=FixedDelay(1.0),
            message_filter=None,
        )
        cluster.write("committed-1")
        cluster.run_for(5.0)
        # The ghost write: restrict its PW delivery, then crash the writer.
        cluster.message_filter = pw_filter
        cluster.start_write("ghost-value")
        cluster.run_for(0.5)
        cluster.crash(config.writer_id)
        cluster.message_filter = None
        cluster.run_for(5.0)

        reads = []
        for _ in range(reads_after_crash):
            reads.append(cluster.read("r1"))
            cluster.run_for(5.0)
        slow = [index for index, handle in enumerate(reads) if not handle.fast]
        first_fast = next((index for index, handle in enumerate(reads) if handle.fast), -1)
        table.add_row(
            crash_point=label,
            reads=len(reads),
            slow_reads=len(slow),
            max_read_rounds=max(handle.rounds for handle in reads),
            first_fast_read_index=first_fast,
            atomic=check_atomicity(cluster.history()).ok,
        )
    table.add_note(
        "Paper claim (Theorem 13): at most three synchronous READs per reader invoked after "
        "the writer's failure are slow; afterwards performance is restored."
    )
    return table


# --------------------------------------------------------------------------- #
# E10 — best-case/worst-case comparison against baselines
# --------------------------------------------------------------------------- #


def experiment_baseline_comparison(t: int = 2, b: int = 1, cycles: int = 6) -> ExperimentTable:
    """E10: rounds and latency of Lucky vs always-slow robust vs ABD."""
    table = ExperimentTable(
        experiment_id="E10",
        title=f"Baseline comparison (t={t}, b={b}): who wins under lucky conditions",
        columns=[
            "protocol",
            "servers",
            "tolerates_byzantine",
            "scenario",
            "write_rounds",
            "read_rounds",
            "write_latency",
            "read_latency",
            "atomic",
        ],
    )
    suites = [
        ("lucky", lambda: _paper_faithful(SystemConfig.balanced(t, b, num_readers=2)), True),
        (
            "slow",
            lambda: SlowRobustProtocol(
                SystemConfig(t=t, b=b, num_readers=2, enforce_tradeoff=False)
            ),
            True,
        ),
        ("abd", lambda: ABDProtocol(SystemConfig.crash_only(t, num_readers=2)), False),
    ]
    delay_scenarios = {
        "lucky network": FixedDelay(1.0),
        "jittery network": UniformDelay(0.5, 1.5),
    }
    for label, delay in delay_scenarios.items():
        for _key, factory, byz in suites:
            suite = factory()
            cluster = build_cluster(suite, delay_model=delay, seed=7)
            cycle = lucky_write_read_cycle(cluster, num_cycles=cycles)
            write_stats = summarize(cycle["writes"])
            read_stats = summarize(cycle["reads"])
            table.add_row(
                protocol=suite.name,
                servers=suite.config.num_servers,
                tolerates_byzantine=byz,
                scenario=label,
                write_rounds=write_stats.mean_rounds,
                read_rounds=read_stats.mean_rounds,
                write_latency=write_stats.mean_latency,
                read_latency=read_stats.mean_latency,
                atomic=check_atomicity(cluster.history()).ok,
            )
    table.add_note(
        "Expected shape: under lucky conditions the paper's algorithm matches ABD's round "
        "counts (1-round writes, ~1-round reads) while tolerating Byzantine servers; the "
        "always-slow robust baseline pays 3-4 rounds for every operation."
    )
    table.add_note(PAPER_FAITHFUL_NOTE)
    return table


# --------------------------------------------------------------------------- #
# A1 — ablation: predicate evaluation domain
# --------------------------------------------------------------------------- #


def experiment_ablation_predicates(t: int = 2, b: int = 1) -> ExperimentTable:
    """A1: responders-only predicate domain vs the literal pseudocode reading."""
    config = SystemConfig.balanced(t, b, num_readers=1)
    table = ExperimentTable(
        experiment_id="A1",
        title="Ablation: predicate domain (responders-only vs literal initialisation)",
        columns=["mode", "failures", "read_fast_fraction", "mean_read_rounds", "atomic"],
    )
    for mode, count_unresponsive in (("responders-only", False), ("literal", True)):
        for failures in (0, t - b):
            cluster = build_cluster(
                LuckyAtomicProtocol(config, count_unresponsive=count_unresponsive),
                crash_servers=failures,
                byzantine={"s1": StaleReplayStrategy()} if b > 0 else {},
            )
            cluster.write("x")
            cluster.run_for(5.0)
            reads = []
            for _ in range(4):
                reads.append(cluster.read("r1"))
                cluster.run_for(5.0)
            stats = summarize(reads)
            table.add_row(
                mode=mode,
                failures=failures,
                read_fast_fraction=stats.fast_fraction,
                mean_read_rounds=stats.mean_rounds,
                atomic=check_atomicity(cluster.history()).ok,
            )
    table.add_note(
        "Both modes behave identically on these workloads; the library defaults to the "
        "responders-only domain because it is the reading consistent with the proofs."
    )
    return table


# --------------------------------------------------------------------------- #
# A2 — scalability: message complexity and latency vs resilience
# --------------------------------------------------------------------------- #


def experiment_scalability(max_t: int = 4, b_ratio: float = 0.5) -> ExperimentTable:
    """A2: servers, messages per operation and latency as t grows."""
    table = ExperimentTable(
        experiment_id="A2",
        title="Scalability of the data-centric pattern (messages per operation vs t)",
        columns=[
            "t",
            "b",
            "servers",
            "messages_per_write",
            "messages_per_read",
            "write_latency",
            "read_latency",
        ],
    )
    for t in range(1, max_t + 1):
        b = max(0, int(t * b_ratio))
        config = SystemConfig.balanced(t, b, num_readers=1)
        cluster = build_cluster(_paper_faithful(config))
        cycles = 4
        before = cluster.trace.total_messages()
        cycle = lucky_write_read_cycle(cluster, num_cycles=cycles)
        total = cluster.trace.total_messages() - before
        write_stats = summarize(cycle["writes"])
        read_stats = summarize(cycle["reads"])
        per_op = total / (2 * cycles)
        table.add_row(
            t=t,
            b=b,
            servers=config.num_servers,
            messages_per_write=per_op,
            messages_per_read=per_op,
            write_latency=write_stats.mean_latency,
            read_latency=read_stats.mean_latency,
        )
    table.add_note(
        "Each fast operation exchanges 2S messages (one round-trip with every server); "
        "latency stays flat because rounds, not server count, dominate."
    )
    table.add_note(PAPER_FAITHFUL_NOTE)
    return table


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #


ALL_EXPERIMENTS = {
    "E1": experiment_fast_writes,
    "E2": experiment_fast_reads,
    "E3": experiment_threshold_tradeoff,
    "E4": experiment_upper_bound_adversary,
    "E5": experiment_contention,
    "E6": experiment_trading_reads,
    "E7": experiment_two_round_write,
    "E8": experiment_regular_variant,
    "E9": experiment_ghost_writer,
    "E10": experiment_baseline_comparison,
    "A1": experiment_ablation_predicates,
    "A2": experiment_scalability,
    **STORE_SWEEPS,
}


def run_experiment(experiment_id: str) -> ExperimentTable:
    """Run a single experiment by id (raises ``KeyError`` for unknown ids)."""
    return ALL_EXPERIMENTS[experiment_id]()


def run_all_experiments() -> List[ExperimentTable]:
    """Run every experiment in order and return their tables."""
    return [factory() for factory in ALL_EXPERIMENTS.values()]
