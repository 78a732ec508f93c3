"""Leases: zero-round reads and one-round multi-writer writes.

A holder acquires a **per-register lease** from a quorum of ``S - t`` servers
(the request piggybacks on the first round of an ordinary fallback operation,
so acquisition is free under the batching layer) and then relies on its cached
``(ts, writer_id, value)`` pair until the lease expires, is revoked, or is
fenced out by a granter's bumped incarnation.  Under a *read* lease a reader
serves reads locally; under a *writer* lease an MWMR writer skips the
timestamp query and decides CAS locally.

The mechanism exists once: the client half and the safety argument (clean
grants, withholding, quorum intersection, epoch fence and grace) are in
:mod:`repro.core.lease`, the server half in :mod:`repro.lease.table`, and the
two roles' withhold policies in :mod:`repro.lease.server`.  Lease-served
operations linearize exactly like protocol operations, and the unchanged
atomicity checkers verify them against the same properties.
"""

from ..core.reader import LeasedReader
from ..core.writer import LeasedWriter
from .server import LeaseServer, WriterLeaseServer

__all__ = [
    "LeaseServer",
    "LeasedReader",
    "LeasedWriter",
    "WriterLeaseServer",
]
