"""Smoke test of the end-to-end benchmark, collected by the tier-1 suite.

Every workload runs with 0.2 s slices and all checks on, so a change to the
program's surface that breaks the benchmark fails here, not in the next
benchmark run.  Nothing is asserted about speed.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from e2ebench import metrics, runner, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Names later issues refer to; the benchmark may add workloads, not rename these.
ISSUE_WORKLOADS = {
    "tcp_lucky_c8",
    "tcp_saturate_c64",
    "mem_durable_w_c64",
    "mem_leased_c8",
    "sim_faulty_zipf",
}
SMOKE_SECONDS = 0.6
#: ``--seconds`` at which the simulator workload is 300 operations.
SIM_SMOKE_SECONDS = 0.45


@pytest.fixture
def small(monkeypatch):
    """A keyspace and warm-up sized for a test, not for a measurement."""
    monkeypatch.setattr(workloads, "NUM_KEYS", 256)
    monkeypatch.setattr(workloads, "WARMUP_S", 0.2)
    monkeypatch.setattr(workloads, "SETUP_BUDGET_S", 0.0)


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_the_contract(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert benchmark_json["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert benchmark_json["run_seconds"] == workloads.DEFAULT_SECONDS
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_json[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in benchmark_json["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in (
        benchmark_json["end_to_end"]
    )


def test_benchmark_json_matches_the_code(benchmark_json):
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert ISSUE_WORKLOADS <= set(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark_json["end_to_end"]
    ] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]


def test_every_layer_metric_says_what_it_should_move():
    gated = {row[0] for row in metrics.END_TO_END}
    for name, _unit, better, layer, how, moves, on in metrics.PER_LAYER:
        assert better in ("lower", "higher"), name
        assert layer and how, name
        assert moves in gated or moves == metrics.NONE, name
        assert on and set(on) <= set(workloads.WORKLOADS), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_every_history_checks(small, name):
    result = runner.run_workload(name, seed=1, seconds=SMOKE_SECONDS, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [row[0] for row in metrics.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_durable_run_fills_the_ledger_and_loses_nothing(small):
    result = runner.run_workload(
        "mem_durable_w_c64", seed=2, seconds=SMOKE_SECONDS, trace=True
    )
    assert result["correct"]
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(values) == [row[0] for row in metrics.PER_LAYER]
    assert values["persist.lost_acked_writes"] == 0
    assert values["persist.appends_per_op"] > 0
    assert values["persist.append_ms_fsync_on"] > 0
    assert values["core.server_step_us_per_msg"] > 0
    assert 0 < values["ledger.unattributed_cpu_share"] < 1
    # The WAL directories are removed after the run; only span files stay.
    left = os.listdir(workloads.RUN_DIR)
    assert [entry for entry in left if not entry.startswith("spans-")] == []


def test_simulator_run_repeats_for_a_seed_and_differs_across_seeds():
    def outcome(seed):
        simulated, _blocking, _handles = workloads.run_sim(
            workloads.WORKLOADS["sim_faulty_zipf"], seed, SIM_SMOKE_SECONDS
        )
        assert simulated.attempted == 300
        return (
            simulated.counters,  # events, messages, bytes
            metrics.fast_rate(simulated),
            [op[5].rounds for op in simulated.ops],
        )

    first, again, other = outcome(1), outcome(1), outcome(2)
    assert first == again
    assert first != other
    assert 0 < first[1] < 1  # this workload does reach the slow path
