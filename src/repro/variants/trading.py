"""Threshold-trading modes of the core algorithm (Appendix A and Section 5).

The core algorithm itself is unchanged in these modes — what changes is the
configuration and what is guaranteed:

* **Trading (few) reads** (Appendix A, Proposition 3): run the core algorithm
  with ``fw = t - b`` and ``fr = t``.  Every lucky WRITE is fast despite up to
  ``t - b`` failures, and in any sequence of *consecutive* lucky READs at most
  one is slow, regardless of the number (up to ``t``) of failures.
* **Trading writes** (Section 5): remove the WRITE fast path (line 8 of
  Fig. 1).  Writes always take three rounds but every lucky READ is fast
  despite ``fr = t`` failures.

This module provides the two protocol suites plus the analysis helpers used by
the E6 benchmark to split a history into sequences of consecutive lucky READs
and count the slow ones per sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.config import SystemConfig
from ..core.protocol import LuckyAtomicProtocol, ProtocolSuite
from ..core.reader import AtomicReader
from ..core.server import StorageServer
from ..core.writer import AtomicWriter
from ..verify.history import History, OperationRecord


class TradingReadsProtocol(LuckyAtomicProtocol):
    """The core algorithm configured with ``fw = t - b`` and ``fr = t``.

    Beyond the ``fw + fr <= t - b`` frontier the guarantee "every lucky READ is
    fast" no longer holds (Proposition 2); what Proposition 3 guarantees
    instead is at most one slow lucky READ per sequence of consecutive lucky
    READs.
    """

    name = "lucky-atomic-trading-reads"

    @classmethod
    def for_parameters(cls, t: int, b: int, num_readers: int = 2, timer_delay: float = 10.0):
        return cls(
            SystemConfig.trading_reads(t, b, num_readers=num_readers), timer_delay=timer_delay
        )


class TradingWritesProtocol(ProtocolSuite):
    """The core algorithm with the WRITE fast path removed (Section 5).

    Every WRITE is slow (three rounds); every lucky READ is fast despite the
    failure of up to ``fr = t`` servers, because the value a READ must return
    is always fully written into the ``vw`` fields of ``S - t`` servers.
    """

    name = "lucky-atomic-trading-writes"
    consistency = "atomic"

    @classmethod
    def for_parameters(cls, t: int, b: int, num_readers: int = 2, timer_delay: float = 10.0):
        config = SystemConfig(
            t=t, b=b, fw=0, fr=t, num_readers=num_readers, enforce_tradeoff=False
        )
        return cls(config, timer_delay=timer_delay)

    def create_server(self, server_id: str, *, register_id: str = "") -> StorageServer:
        return StorageServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> AtomicWriter:
        return AtomicWriter(
            self.config,
            timer_delay=self.timer_delay,
            enable_fast_path=False,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )

    def create_reader(self, reader_id: str, *, register_id: str = "") -> AtomicReader:
        return AtomicReader(
            reader_id,
            self.config,
            timer_delay=self.timer_delay,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )


# --------------------------------------------------------------------------- #
# Consecutive lucky READ sequence analysis (Definitions 1 and 2, Appendix A)
# --------------------------------------------------------------------------- #


@dataclass
class LuckyReadSequence:
    """A maximal sequence of consecutive lucky READs (no WRITE overlaps it)."""

    reads: List[OperationRecord]

    @property
    def length(self) -> int:
        return len(self.reads)

    @property
    def slow_count(self) -> int:
        return sum(1 for read in self.reads if not read.fast)

    @property
    def fast_count(self) -> int:
        return sum(1 for read in self.reads if read.fast)


def consecutive_lucky_read_sequences(history: History) -> List[LuckyReadSequence]:
    """Split *history*'s complete READs into maximal consecutive lucky sequences.

    Following Definitions 1 and 2 of Appendix A, a sequence is an ordered set
    of READs, each preceding the next, such that no WRITE is invoked between
    the invocation of the first and the response of the last.  This helper
    builds maximal such sequences from a history whose READs are themselves
    contention-free (lucky runs), splitting whenever a WRITE was invoked in the
    gap between two READs or the READs overlap each other.
    """
    reads = [read for read in history.reads(only_complete=True) if history.contention_free(read)]
    reads.sort(key=lambda read: read.invoked_at)
    writes = history.writes()

    sequences: List[LuckyReadSequence] = []
    current: List[OperationRecord] = []

    def write_invoked_between(start: float, end: float) -> bool:
        return any(start <= write.invoked_at <= end for write in writes)

    for read in reads:
        if not current:
            current = [read]
            continue
        previous = current[-1]
        same_sequence = previous.precedes(read) and not write_invoked_between(
            previous.invoked_at, read.end_time
        )
        if same_sequence:
            current.append(read)
        else:
            sequences.append(LuckyReadSequence(current))
            current = [read]
    if current:
        sequences.append(LuckyReadSequence(current))
    return sequences


def max_slow_reads_per_sequence(history: History) -> int:
    """The largest number of slow READs in any consecutive lucky-read sequence."""
    sequences = consecutive_lucky_read_sequences(history)
    if not sequences:
        return 0
    return max(sequence.slow_count for sequence in sequences)
