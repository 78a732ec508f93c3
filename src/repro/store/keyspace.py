"""Dynamic keyspace support: bounded register tables and eviction spill space.

A production keyspace is millions of registers, almost all cold.  No process
builds an automaton for a register nobody asked it about (admission, below);
this module provides the spill layer that additionally makes the table of the
ones that *were* asked about *memory-bounded*:

* :class:`RegisterEvictionStore` holds the exported state of evicted
  registers as **encoded snapshot frames** (the same checksummed
  :func:`~repro.persist.snapshot.encode_snapshot` framing the durability
  layer uses), one per register, so an evicted register costs a few dozen
  bytes instead of a live automaton.
* :func:`export_register_state` / :func:`restore_register_state` move one
  register's durable state across the eviction boundary, unwrapping whatever
  wrapper stack (lease layers, Byzantine shims) the suite built around it.

The admission side lives in :class:`~repro.store.sharding.ShardedServer`
(`ensure_register`): a message for a non-resident register *faults it in* —
built fresh by the suite's factory, rehydrated from the eviction store if it
was evicted earlier — and the LRU table evicts the coldest resident register
once the bound is exceeded.  This extends the lazy
``StorageServer._ensure_reader`` admission pattern from per-reader state to
whole registers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.automaton import Automaton
from ..persist.durable import unwrap
from ..persist.snapshot import decode_snapshot, encode_snapshot


def export_register_state(automaton: Automaton) -> Dict[str, Any]:
    """The durable state of one register automaton (empty if it has none)."""
    storage = unwrap(automaton)
    export = getattr(storage, "export_state", None)
    if export is None:
        return {}
    state = export()
    return dict(state) if isinstance(state, dict) else {}


def restore_register_state(automaton: Automaton, state: Dict[str, Any]) -> None:
    """Adopt exported state into a freshly built register automaton.

    Restoration goes through the storage automaton's monotone
    ``restore_state`` rule, so rehydrating on top of replayed WAL records
    (or vice versa) converges to the same state regardless of order.
    """
    storage = unwrap(automaton)
    restore = getattr(storage, "restore_state", None)
    if restore is not None and state:
        restore(state)


class RegisterEvictionStore:
    """Per-server spill space: register id → encoded snapshot frame.

    Deliberately dumb: it neither orders nor bounds its content (the resident
    table does the bounding; the spill space *is* the cold majority of the
    keyspace).  State is stored encoded so an evicted register's footprint is
    its wire size, and a corrupt frame reads as "no state" exactly like a
    torn snapshot file.
    """

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}
        self.saves = 0
        self.loads = 0

    def save(self, register_id: str, state: Dict[str, Any]) -> None:
        self._blobs[register_id] = encode_snapshot(state)
        self.saves += 1

    def load(self, register_id: str) -> Optional[Dict[str, Any]]:
        blob = self._blobs.get(register_id)
        if blob is None:
            return None
        self.loads += 1
        state = decode_snapshot(blob)
        return state if isinstance(state, dict) else None

    def discard(self, register_id: str) -> None:
        self._blobs.pop(register_id, None)

    def __contains__(self, register_id: str) -> bool:
        return register_id in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)

    def register_ids(self) -> List[str]:
        return sorted(self._blobs)
