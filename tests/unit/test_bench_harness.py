"""Unit tests for the benchmark harness utilities and the CLI."""

import pytest

from repro.bench.harness import ExperimentTable, build_cluster, lucky_write_read_cycle, summarize
from repro.bench.sweeps import topology_sweep
from repro.cli import _build_parser, main
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.byzantine import MuteStrategy


class TestExperimentTable:
    def test_rows_and_columns_render(self):
        table = ExperimentTable("T1", "demo", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a=True, b="x")
        text = table.format()
        assert "T1" in text and "demo" in text
        assert "2.500" in text
        assert "yes" in text

    def test_notes_are_rendered(self):
        table = ExperimentTable("T1", "demo", columns=["a"])
        table.add_note("remember this")
        assert "remember this" in table.format()

    def test_markdown_rendering(self):
        table = ExperimentTable("T1", "demo", columns=["a"])
        table.add_row(a=3)
        markdown = table.to_markdown()
        assert markdown.startswith("### T1")
        assert "| a |" in markdown

    def test_column_accessor(self):
        table = ExperimentTable("T1", "demo", columns=["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column("a") == [1, 2]


class TestSummarize:
    def test_empty_stats(self):
        stats = summarize([])
        assert stats.count == 0 and stats.fast_fraction == 0.0
        assert stats.throughput == 0.0 and stats.lease_fraction == 0.0

    def test_statistics_over_handles(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0)
        cluster = build_cluster(LuckyAtomicProtocol(config))
        handles = [cluster.write("a"), cluster.write("b")]
        stats = summarize(handles)
        assert stats.count == 2
        assert stats.fast_fraction == 1.0
        assert stats.mean_rounds == 1.0
        assert stats.max_rounds == 1
        # Two back-to-back lucky writes of one round trip (2 time units) each.
        assert stats.span == 4.0 and stats.throughput == 0.5
        assert stats.lease_fraction == 0.0


class TestBuildCluster:
    def test_crashes_avoid_byzantine_servers(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=0)
        cluster = build_cluster(
            LuckyAtomicProtocol(config), crash_servers=1, byzantine={"s6": MuteStrategy()}
        )
        assert "s6" not in cluster.failures.crash_times
        assert len(cluster.failures.crash_times) == 1

    def test_too_many_crashes_raise(self):
        config = SystemConfig(t=1, b=1, fw=0, fr=0)
        with pytest.raises(ValueError):
            build_cluster(LuckyAtomicProtocol(config), crash_servers=5)

    def test_cycle_produces_expected_counts(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0)
        cluster = build_cluster(LuckyAtomicProtocol(config))
        cycle = lucky_write_read_cycle(cluster, num_cycles=3)
        assert len(cycle["writes"]) == 3
        assert len(cycle["reads"]) == 3


class TestCli:
    def test_explain_command(self, capsys):
        assert main(["explain", "--t", "2", "--b", "1", "--fw", "1", "--fr", "0"]) == 0
        output = capsys.readouterr().out
        assert "round quorum" in output

    def test_demo_command(self, capsys):
        assert main(["demo", "--t", "1", "--b", "0"]) == 0
        output = capsys.readouterr().out
        assert "WRITE" in output and "READ" in output and "atomicity: OK" in output

    def test_run_experiment_command(self, capsys):
        assert main(["run-experiment", "E1"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output

    def test_run_experiment_runs_a_store_sweep(self, capsys):
        assert main(["run-experiment", "S2"]) == 0
        assert "== S2: sharded store: batched vs unbatched" in capsys.readouterr().out

    def test_run_experiment_is_the_only_benchmark_table_command(self):
        subcommands = _build_parser()._subparsers._group_actions[0].choices  # noqa: SLF001
        assert set(subcommands) == {"explain", "run-experiment", "demo", "analyze"}

    def test_retired_hotpath_subcommand_is_a_usage_error(self, capsys):
        # Component costs are rows of the e2e ledger; there is no second
        # timing command to fall back on.
        with pytest.raises(SystemExit) as exited:
            main(["hotpath"])
        assert exited.value.code == 2
        assert "invalid choice: 'hotpath'" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run-experiment", "E99"])


def _s8_row(profile, scenario, num_operations):
    table = topology_sweep(
        profiles=(profile,), scenarios=(scenario,), num_operations=num_operations, churn=False
    )
    (row,) = table.rows
    return row


class TestTopologySweep:
    """Small S8 smoke runs — the frozen size is ``run-experiment S8``."""

    def test_lan_healthy_is_all_fast(self):
        row = _s8_row("lan", "healthy", num_operations=12)
        assert row["completed"] == row["operations"] == 12
        assert float(row["fast_rate"]) >= 0.9
        assert row["drops"] == 0
        assert row["atomic"] == "yes"

    def test_wan_partition_degrades_without_collapsing(self):
        row = _s8_row("wan-3dc", "partition", num_operations=16)
        # Every operation still completes through the round quorum and the
        # history stays atomic; the severed zone only costs the fast path.
        assert row["completed"] == row["operations"] == 16
        assert row["drops"] > 0
        assert 0.0 < float(row["fast_rate"]) < 1.0
        assert row["atomic"] == "yes"

    def test_sweep_table_shape_and_churn_rows(self):
        table = topology_sweep(
            profiles=("lan",),
            scenarios=("healthy", "gray"),
            num_operations=8,
            churn=True,
            churn_registers=40,
            churn_resident=8,
        )
        assert table.experiment_id == "S8"
        scenarios = [row["scenario"] for row in table.rows]
        assert scenarios[:2] == ["healthy", "gray"]
        # Churn appends one sim row and one asyncio-runtime row.
        assert len(scenarios) == 4
        assert all(label.startswith("churn") for label in scenarios[2:])
        assert all(row["atomic"] == "yes" for row in table.rows)
        assert all(row["completed"] == row["operations"] for row in table.rows)
