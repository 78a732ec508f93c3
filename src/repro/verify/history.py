"""Operation histories.

A history is the externally observable behaviour of a storage: for every
operation, who invoked it, what it was, when it was invoked and when (if ever)
it completed, and what it returned.  The simulator and the asyncio runtime both
produce histories; the checkers in :mod:`repro.verify.atomicity`,
:mod:`repro.verify.regularity` and :mod:`repro.verify.linearizability` consume
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(slots=True)
class OperationRecord:
    """One invoked operation.

    ``value`` is the written value for writes and the returned value for reads.
    ``completed_at`` is ``None`` for operations that never returned (allowed by
    the model when the invoking client crashes).

    Slotted: a client node retains one record per completed operation for the
    life of the process, so the per-instance ``__dict__`` was most of a record.
    """

    client_id: str
    kind: str  # "write" | "read"
    value: Any
    invoked_at: float
    completed_at: Optional[float]
    rounds: int = 0
    fast: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def end_time(self) -> float:
        """Completion time, or +inf for incomplete operations."""
        return self.completed_at if self.completed_at is not None else math.inf

    def precedes(self, other: "OperationRecord") -> bool:
        """Real-time precedence: this op completed before *other* was invoked."""
        return self.complete and self.end_time < other.invoked_at

    def concurrent_with(self, other: "OperationRecord") -> bool:
        return not self.precedes(other) and not other.precedes(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        completion = f"{self.completed_at:.2f}" if self.complete else "pending"
        return (
            f"{self.kind.upper()}({self.value!r}) by {self.client_id} "
            f"[{self.invoked_at:.2f}, {completion}]"
        )


#: What orders the writes of a multi-writer register: ``(ts, writer_id)``.
Pair = Tuple[int, str]

#: The pair of the initial value ⊥ (below every written pair).
BOTTOM_PAIR: Pair = (0, "")


def written_pair(write: OperationRecord) -> Optional[Pair]:
    """The pair a completed multi-writer WRITE carries.

    MWMR writes always stamp their ``writer_id``; for writes that lack it
    (hand-built records) the invoking client is the writer by definition.
    """
    ts = write.metadata.get("ts")
    if ts is None:
        return None
    return (ts, write.metadata.get("writer_id", write.client_id))


def reported_pair(read: OperationRecord) -> Optional[Pair]:
    """The pair a READ explicitly reported, or ``None``.

    Unlike writes there is no fallback: the reading client's id says nothing
    about the pair's writer, and reads of SWMR-written pairs legitimately
    carry no ``writer_id`` at all.
    """
    ts = read.metadata.get("ts")
    writer_id = read.metadata.get("writer_id")
    if ts is None or writer_id is None:
        return None
    return (ts, writer_id)


def observed_pair(write: OperationRecord) -> Optional[Pair]:
    """The pair a successful CAS / RMW decided against, or ``None``."""
    metadata = write.metadata
    if "observed_ts" not in metadata:
        return None
    if metadata.get("observed_bottom"):
        return BOTTOM_PAIR
    return (metadata["observed_ts"], metadata.get("observed_writer") or "")


def _writes_never_overlap(writes: Sequence[OperationRecord]) -> bool:
    """Whether a sequence of writes (in invocation order) is well-formed."""
    for earlier, later in zip(writes, writes[1:], strict=False):
        if not earlier.complete and later.invoked_at >= earlier.invoked_at:
            # An incomplete write may only be the last one.
            return later is writes[-1] and earlier is writes[-2]
        if earlier.end_time > later.invoked_at:
            return False
    return True


class History:
    """An ordered collection of :class:`OperationRecord` with SWMR helpers."""

    def __init__(self, records: Iterable[OperationRecord] = ()) -> None:
        self.records: List[OperationRecord] = list(records)

    # ---------------------------------------------------------------- build
    def add(self, record: OperationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[OperationRecord]:
        return iter(self.records)

    # --------------------------------------------------------------- slices
    def writes(self) -> List[OperationRecord]:
        """All WRITE operations in invocation order (the paper's ``wr_1..wr_n``)."""
        return sorted(
            (record for record in self.records if record.kind == "write"),
            key=lambda record: record.invoked_at,
        )

    def reads(self, only_complete: bool = True) -> List[OperationRecord]:
        reads = [record for record in self.records if record.kind == "read"]
        if only_complete:
            reads = [record for record in reads if record.complete]
        return sorted(reads, key=lambda record: record.invoked_at)

    # ------------------------------------------------------- SWMR structure
    def has_duplicate_write_values(self) -> bool:
        """Whether two WRITEs wrote the same value (makes checking ambiguous)."""
        values = [record.value for record in self.writes()]
        return len(values) != len(set(map(repr, values)))

    def writer_is_well_formed(self) -> bool:
        """Writes by the single writer never overlap each other."""
        return _writes_never_overlap(self.writes())

    # ------------------------------------------------------------ multi-key
    def by_register(self) -> Dict[Optional[Any], "History"]:
        """Sub-histories grouped by the register each operation targeted.

        Operations without a ``register_id`` in their metadata (single-register
        deployments) are grouped under ``None``.  Consistency is a per-register
        property, so checkers reason about each group independently.
        """
        groups: Dict[Optional[Any], List[OperationRecord]] = {}
        for record in self.records:
            groups.setdefault(record.metadata.get("register_id"), []).append(record)
        return {key: History(records) for key, records in groups.items()}

    # ------------------------------------------------------------------ MWMR
    def is_mwmr(self) -> bool:
        """Whether some write of this history came from a multi-writer client.

        MWMR writers stamp ``mwmr: True`` into their completion metadata, so a
        history that contains such a write belongs to a multi-writer register
        and concurrent writes by *different* clients are legal.
        """
        return any(
            record.kind == "write" and record.metadata.get("mwmr")
            for record in self.records
        )

    def writes_by_client(self) -> Dict[str, List[OperationRecord]]:
        """Writes grouped by invoking client, each group in invocation order."""
        groups: Dict[str, List[OperationRecord]] = {}
        for record in self.writes():
            groups.setdefault(record.client_id, []).append(record)
        return groups

    def clients_are_well_formed(self) -> bool:
        """Writes of each *individual* client never overlap each other.

        The multi-writer analogue of :meth:`writer_is_well_formed`: different
        clients may write concurrently, but one client still has at most one
        outstanding operation per register.
        """
        return all(
            _writes_never_overlap(writes)
            for writes in self.writes_by_client().values()
        )

    # ------------------------------------------------------------ contention
    def contention_free(self, read: OperationRecord) -> bool:
        """Whether *read* overlaps no WRITE (the paper's contention-free)."""
        return all(
            write.precedes(read) or read.precedes(write) for write in self.writes()
        )

    def merge(self, other: "History") -> "History":
        return History(self.records + other.records)

    def describe(self) -> str:
        lines = [repr(record) for record in sorted(self.records, key=lambda r: r.invoked_at)]
        return "\n".join(lines)
