"""Shape tests for the experiment registry (``lucky-storage run-experiment``).

Each experiment must reproduce the qualitative shape of the paper claim it
covers: who is fast, where the thresholds sit, and that the consistency
condition holds.  Absolute latencies are not asserted.  The store sweeps
S1-S8 are rows of the same registry; the sweeps with a store feature of their
own (S3, S4, S7, S8) have their shape tests next to that feature's tests.
"""

import random
import time
from pathlib import Path

import pytest

from repro.bench import sweeps
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    experiment_ablation_predicates,
    experiment_baseline_comparison,
    experiment_contention,
    experiment_fast_reads,
    experiment_fast_writes,
    experiment_ghost_writer,
    experiment_regular_variant,
    experiment_scalability,
    experiment_threshold_tradeoff,
    experiment_trading_reads,
    experiment_two_round_write,
    experiment_upper_bound_adversary,
)
from repro.bench.harness import build_cluster
from repro.bench.report import generate_report
from repro.bench.sweeps import (
    batching_sweep,
    lease_sweep,
    run,
    sharded_throughput_sweep,
    zipf_run,
)
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol

EXPERIMENTS_ALL = Path(__file__).resolve().parents[1] / "fixtures" / "experiments_all.txt"

#: What a replayable run may not call: the wall clocks, and the module-level
#: ``random`` functions, which draw from one unseeded generator.
CLOCKS_AND_DRAWS = [
    (time, name)
    for name in ("time", "monotonic", "perf_counter", "time_ns", "monotonic_ns", "perf_counter_ns")
] + [
    (random, name)
    for name, value in vars(random).items()
    if isinstance(getattr(value, "__self__", None), random.Random)
]


def forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name}() called by a virtual-time table")

    return call


class TestExperimentShapes:
    def test_e1_fast_writes_threshold(self):
        table = experiment_fast_writes(t=2, b=1)
        for row in table.rows:
            if row["failure_kind"].startswith("crash"):
                expected_fast = 1.0 if row["failures"] <= 1 else 0.0
                assert row["fast_fraction"] == expected_fast
            assert row["atomic"]

    def test_e2_fast_reads_threshold(self):
        table = experiment_fast_reads(t=2, b=1)
        for row in table.rows:
            if row["failures"] <= 1:
                assert row["fast_fraction"] == 1.0
            assert row["atomic"]

    @pytest.mark.parametrize("t,b", [(2, 0), (3, 1)])
    def test_e3_tradeoff_frontier_is_sharp(self, t, b):
        table = experiment_threshold_tradeoff(t=t, b=b)
        for row in table.rows:
            assert row["write_fast"] == (row["failures"] <= row["fw"])
            assert row["read_fast"] == (row["failures"] <= row["fr"])
            assert row["atomic"]

    def test_e4_naive_protocol_violates_and_paper_does_not(self):
        table = experiment_upper_bound_adversary()
        by_protocol = {row["protocol"]: row for row in table.rows}
        assert by_protocol["naive-fast (UNSAFE)"]["violations"] >= 1
        assert by_protocol["lucky-atomic"]["violations"] == 0

    def test_e5_contention_slows_reads_but_keeps_atomicity(self):
        table = experiment_contention(t=2, b=1, num_writes=4)
        rows = {row["scenario"]: row for row in table.rows}
        assert rows["lucky (no overlap)"]["fast_fraction"] == 1.0
        assert rows["contended + degraded links (unlucky)"]["fast_fraction"] < 1.0
        assert all(row["atomic"] for row in table.rows)

    def test_e6_at_most_one_slow_read_per_sequence(self):
        table = experiment_trading_reads(t=2, b=0, sequence_length=5)
        assert all(row["max_slow_per_sequence"] <= 1 for row in table.rows)
        assert all(row["atomic"] for row in table.rows)
        worst = [row for row in table.rows if row["failures_after_write"] == 2]
        assert worst and worst[0]["slow_reads_in_sequence"] == 1

    def test_e6_holds_with_a_byzantine_budget(self):
        table = experiment_trading_reads(t=2, b=1, sequence_length=5)
        assert all(row["max_slow_per_sequence"] <= 1 for row in table.rows)
        assert all(row["atomic"] for row in table.rows)

    def test_e7_two_round_writes_with_fast_reads(self):
        table = experiment_two_round_write(t=2, b=1)
        assert all(row["max_write_rounds"] <= 2 for row in table.rows)
        assert all(row["read_fast_fraction"] == 1.0 for row in table.rows)
        assert all(row["atomic"] for row in table.rows)

    def test_e8_regular_variant_survives_malicious_readers(self):
        table = experiment_regular_variant(t=2, b=1)
        regular_rows = [row for row in table.rows if row["protocol"] == "lucky-regular"]
        atomic_rows = [row for row in table.rows if row["protocol"] == "lucky-atomic"]
        assert all(row["regular"] for row in regular_rows)
        assert all(row["honest_read_value"].startswith("genuine") for row in regular_rows)
        assert any(not row["atomic"] for row in atomic_rows)

    def test_e9_ghost_writer_bounded_disruption(self):
        table = experiment_ghost_writer(t=2, b=1, reads_after_crash=5)
        assert all(row["slow_reads"] <= 3 for row in table.rows)
        assert all(row["atomic"] for row in table.rows)

    def test_e9_first_fast_read_comes_early(self):
        # Once some read has written the ghost (or committed) value back,
        # every later read is fast again.
        table = experiment_ghost_writer(t=2, b=1, reads_after_crash=8)
        assert all(row["first_fast_read_index"] <= 3 for row in table.rows)

    def test_e10_lucky_protocol_beats_slow_baseline(self):
        table = experiment_baseline_comparison(t=2, b=1, cycles=3)
        lucky_rows = [row for row in table.rows if row["protocol"] == "lucky-atomic"]
        slow_rows = [row for row in table.rows if row["protocol"] == "slow-robust"]
        for lucky, slow in zip(lucky_rows, slow_rows, strict=True):
            assert lucky["write_rounds"] < slow["write_rounds"]
            assert lucky["read_rounds"] < slow["read_rounds"]
            assert lucky["read_latency"] < slow["read_latency"]
            # The lucky store wins by roughly the ratio of round counts (~3x).
            assert slow["read_latency"] / lucky["read_latency"] > 2.0
            assert slow["write_rounds"] == 3.0 and lucky["write_rounds"] == 1.0
        abd_rows = [row for row in table.rows if row["protocol"] == "abd-crash-only"]
        for lucky, abd in zip(lucky_rows, abd_rows, strict=True):
            # As many write rounds as the crash-only classic and one fewer
            # read round, while additionally tolerating Byzantine servers.
            assert lucky["write_rounds"] == abd["write_rounds"] == 1.0
            assert lucky["read_rounds"] < abd["read_rounds"]
        assert all(row["atomic"] for row in table.rows)

    def test_a1_ablation_modes_agree_on_lucky_runs(self):
        table = experiment_ablation_predicates(t=2, b=1)
        assert all(row["atomic"] for row in table.rows)
        by_mode = {}
        for row in table.rows:
            by_mode.setdefault(row["mode"], []).append(row["read_fast_fraction"])
        assert by_mode["responders-only"] == by_mode["literal"]

    def test_a2_scalability_messages_grow_linearly_with_servers(self):
        table = experiment_scalability(max_t=3)
        messages = table.column("messages_per_write")
        servers = table.column("servers")
        assert all(
            count == pytest.approx(2 * server_count)
            for count, server_count in zip(messages, servers, strict=True)
        )
        # Latency is round-bound, not size-bound: it stays flat as t grows.
        latencies = table.column("write_latency")
        assert max(latencies) - min(latencies) < 1e-6

    @pytest.mark.parametrize("t,b", [(1, 0), (2, 1), (3, 1), (4, 2)])
    def test_a2_a_lucky_write_exchanges_2s_messages(self, t, b):
        config = SystemConfig.balanced(t, b, num_readers=1)
        cluster = build_cluster(LuckyAtomicProtocol(config))
        handle = cluster.write("payload")
        # The round-1 timer is a deadline: the write completes on the ack that
        # makes it fast (S - fw), the stragglers' acks are still in flight.
        assert handle.fast
        cluster.run_until_quiescent()
        # One round trip with every server: 2S protocol messages in all.
        assert cluster.trace.total_messages() == 2 * config.num_servers


class TestStoreSweepShapes:
    def test_s1_throughput_grows_monotonically_to_eight_shards(self):
        table = sharded_throughput_sweep()
        throughputs = table.column("throughput")
        assert len(throughputs) == 8
        assert all(b > a for a, b in zip(throughputs, throughputs[1:], strict=False))
        # Sharding overlaps client operations, so the gain is substantial.
        assert throughputs[-1] / throughputs[0] > 4.0
        # The Byzantine Zipf check is a note of the table (a violation raises).
        assert any("Byzantine" in note for note in table.notes)

    def test_s2_batching_wins_at_scale_by_collapsing_frames(self):
        table = batching_sweep(shard_counts=(1, 8, 16))
        rows = {row["shards"]: row for row in table.rows}
        for shards in (8, 16):
            assert rows[shards]["batched"] > rows[shards]["unbatched"]
            assert rows[shards]["frames_batched"] < rows[shards]["frames_unbatched"]
        # At one shard per-key serialization dominates and batching is a no-op.
        assert rows[1]["batched"] == pytest.approx(rows[1]["unbatched"], rel=0.05)

    def test_s5_leased_hot_key_reads_beat_the_fast_path(self):
        table = lease_sweep(num_operations=160)
        rows = {row["scenario"]: row for row in table.rows}
        assert rows["leased"]["lease_fraction"] > 0.5
        assert (
            rows["leased"]["hot_read_throughput"]
            > 1.5 * rows["no-lease"]["hot_read_throughput"]
        )
        assert rows["leased"]["hot_read_latency"] < rows["no-lease"]["hot_read_latency"]

    @pytest.mark.parametrize("leases", [False, True])
    def test_s5_run_completes_and_counts_lease_reads(self, leases):
        store = run(
            zipf_run(96, 4, skew=1.1, write_fraction=0.04, mean_gap=0.2, t=1, b=0, leases=leases)
        )
        assert len(store.completed_operations()) == 96
        assert (store.lease_reads() > 0) == leases


class TestReportGeneration:
    def test_registry_contains_all_experiments(self):
        ids = "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 A1 A2 S1 S2 S3 S4 S5 S7 S8"
        assert list(ALL_EXPERIMENTS) == ids.split()

    def test_every_table_carries_its_registry_id(self):
        for experiment_id in ("E4", "S2"):
            assert ALL_EXPERIMENTS[experiment_id]().experiment_id == experiment_id

    def test_run_experiment_all_matches_the_checked_in_fixture(self, monkeypatch):
        """Every table is virtual time on fixed seeds: no cell may read a clock.

        The whole registry runs with the wall clocks and the module-level
        ``random`` functions replaced by ones that raise, so a clock read or
        an unseeded draw on any table's path fails here even where its value
        never reaches a cell.  Only S8's ``asyncio`` churn row gets them back:
        it runs the real runtime on real timers, and the fixture is
        ``run-experiment all`` minus that row.  A change that moves a table
        regenerates it on purpose::

            lucky-storage run-experiment all | grep -v '^asyncio ' \\
                > tests/fixtures/experiments_all.txt
        """
        real = {(module, name): getattr(module, name) for module, name in CLOCKS_AND_DRAWS}
        asyncio_churn = sweeps.run_asyncio_churn

        def asyncio_churn_on_real_clocks(*args):
            with monkeypatch.context() as restore:
                for (module, name), value in real.items():
                    restore.setattr(module, name, value)
                return asyncio_churn(*args)

        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "run_asyncio_churn", asyncio_churn_on_real_clocks)
            for module, name in CLOCKS_AND_DRAWS:
                patch.setattr(module, name, forbidden(f"{module.__name__}.{name}"))
            lines = generate_report().splitlines()
        assert sum(line.startswith("asyncio ") for line in lines) == 1
        rendered = [line for line in lines if not line.startswith("asyncio ")]
        assert rendered == EXPERIMENTS_ALL.read_text().splitlines()

    def test_generate_single_experiment_report(self):
        text = generate_report(["E4"])
        assert "E4" in text and "naive-fast" in text

    def test_markdown_report(self):
        text = generate_report(["E4"], markdown=True)
        assert text.startswith("### E4")
