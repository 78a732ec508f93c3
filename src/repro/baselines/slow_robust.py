"""The "always slow" robust baseline.

This is the comparator the paper's introduction argues against: an optimally
resilient (``S = 2t + b + 1``) Byzantine-tolerant atomic storage that only
plans for the worst case and never expedites operations.  Concretely it is the
paper's own algorithm with both fast paths removed and without the round-1
timer waits:

* every WRITE runs the PW phase plus both W rounds (three round-trips),
* every READ runs its query round(s) and then always writes the selected value
  back (at least four round-trips in total).

The paper's related-work section places SBQ-L [21] and similar protocols in
this regime (reads and writes are never fast).  Using the same code base for
the baseline keeps the comparison about *protocol structure* rather than
implementation quality.
"""

from __future__ import annotations

from ..core.automaton import TimerPolicy
from ..core.protocol import ProtocolSuite
from ..core.reader import AtomicReader
from ..core.server import StorageServer
from ..core.writer import AtomicWriter


class SlowRobustProtocol(ProtocolSuite):
    """Optimally resilient atomic storage with no best-case optimisation."""

    name = "slow-robust"
    consistency = "atomic"

    def create_server(self, server_id: str, *, register_id: str = "") -> StorageServer:
        return StorageServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> AtomicWriter:
        return AtomicWriter(
            self.config,
            timer_delay=self.timer_delay,
            enable_fast_path=False,
            timer_policy=TimerPolicy.NONE,
            register_id=register_id,
        )

    def create_reader(self, reader_id: str, *, register_id: str = "") -> AtomicReader:
        return AtomicReader(
            reader_id,
            self.config,
            timer_delay=self.timer_delay,
            enable_fast_path=False,
            timer_policy=TimerPolicy.NONE,
            register_id=register_id,
        )
