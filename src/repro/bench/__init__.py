"""Benchmark harness: experiments E1-E10, ablations A1-A2 and the store sweeps S1-S8."""

from .adversary import ForgeQueryReplyStrategy, NaiveFastProtocol
from .experiments import ALL_EXPERIMENTS, run_all_experiments, run_experiment
from .harness import (
    ExperimentTable,
    OperationStats,
    build_cluster,
    lucky_write_read_cycle,
    summarize,
)
from .report import format_markdown_report, format_report, generate_report

__all__ = [
    "ForgeQueryReplyStrategy",
    "NaiveFastProtocol",
    "ALL_EXPERIMENTS",
    "run_all_experiments",
    "run_experiment",
    "ExperimentTable",
    "OperationStats",
    "build_cluster",
    "lucky_write_read_cycle",
    "summarize",
    "format_markdown_report",
    "format_report",
    "generate_report",
]
