"""Dynamic keyspace support: moving a register across the eviction boundary.

A production keyspace is millions of registers, almost all cold.  No process
builds an automaton for a register nobody asked it about, and a
:class:`~repro.store.sharding.ShardedServer` with ``max_resident`` set also
bounds the table of the ones that *were* asked about.  Its admission
(``ensure_register``) *faults in* a non-resident register — built fresh by
the suite's factory, rehydrated if it was evicted earlier — and the LRU table
evicts the coldest resident register once the bound is exceeded, into the
server's own ``spilled`` table: register id → an **encoded snapshot frame**
(the checksummed :func:`~repro.persist.snapshot.encode_snapshot` framing the
durability layer uses), so an evicted register costs a few dozen bytes
instead of a live automaton.  A fault-in pops the frame, and a crash loses
the table with the rest of the incarnation.  This extends the lazy
``StorageServer._ensure_reader`` admission pattern from per-reader state to
whole registers.

:func:`export_register_state` / :func:`restore_register_state` move one
register's durable state across the eviction boundary, unwrapping whatever
wrapper stack (lease layers, Byzantine shims) the suite built around it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.automaton import Automaton
from ..persist.durable import unwrap


def export_register_state(automaton: Automaton) -> Dict[str, Any]:
    """The durable state of one register automaton (empty if it has none)."""
    storage = unwrap(automaton)
    export = getattr(storage, "export_state", None)
    if export is None:
        return {}
    state = export()
    return dict(state) if isinstance(state, dict) else {}


def restore_register_state(automaton: Automaton, state: Optional[Dict[str, Any]]) -> None:
    """Adopt exported state into a freshly built register automaton.

    Restoration goes through the storage automaton's monotone
    ``restore_state`` rule, so rehydrating on top of replayed WAL records
    (or vice versa) converges to the same state regardless of order.
    """
    storage = unwrap(automaton)
    restore = getattr(storage, "restore_state", None)
    if restore is not None and state:
        restore(state)
