"""Benchmark harness: experiment tables and common measurement helpers.

Every experiment in :mod:`repro.bench.experiments` and every store sweep in
:mod:`repro.bench.sweeps` returns an :class:`ExperimentTable` — a list of row
dictionaries plus formatting metadata — which ``lucky-storage run-experiment``
prints and ``tests/integration/test_experiments.py`` asserts the shape of.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.protocol import ProtocolSuite
from ..sim.byzantine import ByzantineStrategy
from ..sim.cluster import OperationHandle, SimCluster
from ..sim.failures import FailureSchedule
from ..sim.latency import DelayModel, FixedDelay


@dataclass
class ExperimentTable:
    """A named table of results (one per paper claim / figure)."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    # ------------------------------------------------------------ formatting
    def format(self) -> str:
        """Render the table as fixed-width text."""
        widths = {col: len(col) for col in self.columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {col: self._fmt(row.get(col, "")) for col in self.columns}
            rendered_rows.append(rendered)
            for col, text in rendered.items():
                widths[col] = max(widths[col], len(text))
        lines = [f"== {self.experiment_id}: {self.title} =="]
        header = " | ".join(col.ljust(widths[col]) for col in self.columns)
        lines.append(header)
        lines.append("-+-".join("-" * widths[col] for col in self.columns))
        for rendered in rendered_rows:
            lines.append(" | ".join(rendered[col].ljust(widths[col]) for col in self.columns))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def to_markdown(self) -> str:
        """Render the table as GitHub-flavoured markdown."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(self._fmt(row.get(col, "")) for col in self.columns) + " |"
            )
        for note in self.notes:
            lines.append("")
            lines.append(f"*Note: {note}*")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #


@dataclass
class OperationStats:
    """Aggregate statistics over a set of completed operations."""

    count: int
    fast_count: int
    mean_rounds: float
    max_rounds: int
    mean_latency: float
    #: Virtual time from the first invocation to the last completion.
    span: float = 0.0
    #: Operations served under a lease (zero-round reads, one-round writes).
    lease_count: int = 0

    @property
    def fast_fraction(self) -> float:
        return self.fast_count / self.count if self.count else 0.0

    @property
    def lease_fraction(self) -> float:
        return self.lease_count / self.count if self.count else 0.0

    @property
    def throughput(self) -> float:
        """Completed operations per unit of virtual time over :attr:`span`."""
        if not self.count:
            return 0.0
        return self.count / self.span if self.span > 0 else float("inf")


def summarize(handles: Sequence[OperationHandle]) -> OperationStats:
    """Aggregate round/latency statistics over completed operation handles."""
    completed = [handle for handle in handles if handle.done]
    if not completed:
        return OperationStats(0, 0, 0.0, 0, 0.0)
    rounds = [handle.rounds for handle in completed]
    latencies = [handle.latency for handle in completed]
    return OperationStats(
        count=len(completed),
        fast_count=sum(1 for handle in completed if handle.fast),
        mean_rounds=statistics.fmean(rounds),
        max_rounds=max(rounds),
        mean_latency=statistics.fmean(latencies),
        span=max(handle.completed_at for handle in completed)
        - min(handle.invoked_at for handle in completed),
        lease_count=sum(1 for handle in completed if handle.result.metadata.get("lease")),
    )


def build_cluster(
    suite: ProtocolSuite,
    crash_servers: int = 0,
    byzantine: Optional[Dict[str, ByzantineStrategy]] = None,
    delay_model: Optional[DelayModel] = None,
    seed: int = 0,
    crash_at: float = 0.0,
) -> SimCluster:
    """Build a cluster with *crash_servers* crashed replicas and given adversaries.

    Byzantine strategies are assigned to the first servers; crashes are applied
    to the last servers so the two fault populations never overlap.
    """
    byzantine = byzantine or {}
    server_ids = suite.config.server_ids()
    failures = FailureSchedule.none()
    crashed = 0
    for server_id in reversed(server_ids):
        if crashed >= crash_servers:
            break
        if server_id in byzantine:
            continue
        failures.crash(server_id, crash_at)
        crashed += 1
    if crashed < crash_servers:
        raise ValueError("not enough non-Byzantine servers left to crash")
    return SimCluster(
        suite,
        delay_model=delay_model or FixedDelay(1.0),
        failures=failures,
        byzantine=byzantine,
        seed=seed,
    )


def lucky_write_read_cycle(
    cluster: SimCluster,
    num_cycles: int,
    reader_ids: Optional[Sequence[str]] = None,
    settle_gap: float = 5.0,
) -> Dict[str, List[OperationHandle]]:
    """Run *num_cycles* of (WRITE, then READ) with generous gaps (lucky ops)."""
    reader_ids = list(reader_ids or cluster.config.reader_ids())
    writes: List[OperationHandle] = []
    reads: List[OperationHandle] = []
    for index in range(num_cycles):
        writes.append(cluster.write(f"value-{index + 1}"))
        cluster.run_for(settle_gap)
        reads.append(cluster.read(reader_ids[index % len(reader_ids)]))
        cluster.run_for(settle_gap)
    return {"writes": writes, "reads": reads}
