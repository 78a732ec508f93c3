"""Message counts of simulated runs.

Every delivered and every dropped protocol message is counted, so tests can
assert communication patterns ("the fast READ exchanged exactly one round of
messages") and experiments can report message complexity.  Only counts are
kept: ``delivered`` is keyed by ``(source, destination, kind)`` and
``dropped`` by ``(source, destination, reason)``, so a run's trace stays as
small as its set of links however long it runs.  A test that needs the
traffic of one interval takes a copy of a counter at its start and subtracts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class MessageTrace:
    """Delivered messages by link and kind, dropped ones by link and reason."""

    delivered: Counter[Tuple[str, str, str]] = field(default_factory=Counter)
    dropped: Counter[Tuple[str, str, str]] = field(default_factory=Counter)

    def record_delivery(self, source: str, destination: str, kind: str) -> None:
        self.delivered[(source, destination, kind)] += 1

    def record_drop(self, source: str, destination: str, reason: str, messages: int = 1) -> None:
        self.dropped[(source, destination, reason)] += messages

    # ---------------------------------------------------------------- queries
    def count_by_kind(self) -> Dict[str, int]:
        """Delivered messages per kind, in order of each kind's first delivery."""
        counts: Dict[str, int] = {}
        for (_source, _destination, kind), count in self.delivered.items():
            counts[kind] = counts.get(kind, 0) + count
        return counts

    def total_messages(self) -> int:
        return sum(self.delivered.values())

    def summary(self) -> Dict[str, int]:
        summary = {"delivered": self.total_messages(), "dropped": sum(self.dropped.values())}
        summary.update(self.count_by_kind())
        return summary
