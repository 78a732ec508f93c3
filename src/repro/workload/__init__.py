"""Workload generation and execution helpers."""

from .generator import (
    ScheduledOperation,
    Workload,
    churn_workload,
    contended_workload,
    contended_writers_workload,
    dense_store_workload,
    keyspace_workload,
    lucky_workload,
    owned_writers_workload,
    poisson_workload,
    run_workload,
    value_sequence,
    workload_event_budget,
    zipf_weights,
)

__all__ = [
    "ScheduledOperation",
    "Workload",
    "churn_workload",
    "contended_workload",
    "contended_writers_workload",
    "dense_store_workload",
    "keyspace_workload",
    "lucky_workload",
    "owned_writers_workload",
    "poisson_workload",
    "run_workload",
    "value_sequence",
    "workload_event_budget",
    "zipf_weights",
]
