"""Protocol suite wiring the lease roles into a single-register deployment.

The sharded store lifts leases key by key through
``ShardedProtocol(leases=...)``; this suite is the single-register equivalent
used by unit tests and small experiments: every server is a
:class:`~repro.lease.server.LeaseServer` around the base suite's server, and
every reader is a :class:`~repro.core.reader.LeasedReader`.  The writer is
untouched — revocation is entirely server-side, which is exactly what makes a
WRITE to a leased register invalidate outstanding leases *before* its
acknowledgements complete.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.automaton import Automaton, ClientAutomaton
from ..core.protocol import LuckyAtomicProtocol, ProtocolSuite
from .server import LeaseServer


class LeasedLuckyProtocol(ProtocolSuite):
    """The core algorithm with quorum read leases on its one register."""

    name = "lucky-atomic-leased"
    consistency = "atomic"

    def __init__(self, base: LuckyAtomicProtocol, lease_duration: float = 60.0) -> None:
        super().__init__(base.config, timer_delay=base.timer_delay, timer_policy=base.timer_policy)
        self.base = base
        self.lease_duration = lease_duration

    def create_server(self, server_id: str, *, register_id: str = "") -> Automaton:
        return LeaseServer(
            self.base.create_server(server_id, register_id=register_id),
            lease_duration=self.lease_duration,
        )

    def create_writer(self, *, register_id: str = "") -> ClientAutomaton:
        return self.base.create_writer(register_id=register_id)

    def create_reader(self, reader_id: str, *, register_id: str = "") -> ClientAutomaton:
        return self.base.create_leased_reader(
            reader_id, lease_duration=self.lease_duration, register_id=register_id
        )

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["lease_duration"] = self.lease_duration
        return info
