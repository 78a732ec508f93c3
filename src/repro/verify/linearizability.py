"""A generic linearizability checker for a read/write/CAS register.

The checker in :mod:`repro.verify.atomicity` is fast and follows the paper's
definition literally, but its per-property formulation can be subtle (written
values duplicated, open writes, conditional writes).  This module provides an
independent checker based on exhaustive linearization search (in the spirit of
Wing & Gong) that the test suite uses as the reference on small histories of
all three kinds: a history the sweep accepts must be linearizable, and on
well-formed single-writer histories the two must agree.

The search makes no single-writer assumption: every operation — whoever
invoked it — is linearized somewhere between its invocation and its response,
so it applies unchanged to *multi-writer* histories.  A successful CAS / RMW
whose record carries the pair it observed follows the sequential
specification of a conditional write: it may take effect only directly after
the write with that pair (or first, if it observed ⊥).  A failed CAS is
recorded as a read and is one.  For a sharded run use
:func:`cross_validate_registers`: linearizability of a key-value store
decomposes per key, so each register's history is searched independently
(which also keeps the exponential search tractable).

Complexity is exponential in the number of concurrent operations, so the
checker refuses histories above a configurable size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.types import is_bottom
from .history import BOTTOM_PAIR, History, Pair, observed_pair, written_pair


class HistoryTooLarge(ValueError):
    """Raised when the exhaustive search would be intractable."""


@dataclass(frozen=True)
class _Op:
    index: int
    kind: str
    value_repr: str
    invoked_at: float
    end_time: float
    complete: bool
    #: The pair this write carries, and the one it had to replace (conditional).
    pair: Optional[Pair] = None
    observed: Optional[Pair] = None


def _prepare(history: History) -> List[_Op]:
    # Incomplete reads have no visible effect; ``index`` is the position in
    # the returned list (the search indexes it by ``last_write``).
    visible = [r for r in history.records if r.kind != "read" or r.complete]
    return [
        _Op(
            index=index,
            kind=record.kind,
            value_repr="<bottom>" if is_bottom(record.value) else repr(record.value),
            invoked_at=record.invoked_at,
            end_time=record.end_time,
            complete=record.complete,
            pair=written_pair(record),
            observed=observed_pair(record),
        )
        for index, record in enumerate(visible)
    ]


def is_linearizable(history: History, max_operations: int = 24) -> bool:
    """Whether *history* is linearizable as a single read/write/CAS register.

    Incomplete WRITEs are optional: they may be linearized (they might have
    taken effect) or dropped (they might not have).  Incomplete READs are
    ignored.  Raises :class:`HistoryTooLarge` beyond *max_operations*.
    """
    ops = _prepare(history)
    if len(ops) > max_operations:
        raise HistoryTooLarge(
            f"history has {len(ops)} operations; exhaustive search capped at {max_operations}"
        )

    total = len(ops)
    #: memo of (linearized-set, last-write-index) states already proven fruitless.
    failed: Set[Tuple[FrozenSet[int], int]] = set()

    def value_of(last_write: int) -> str:
        if last_write == -1:
            return "<bottom>"
        return ops[last_write].value_repr

    def pair_of(last_write: int) -> Optional[Pair]:
        return BOTTOM_PAIR if last_write == -1 else ops[last_write].pair

    def search(done: FrozenSet[int], last_write: int) -> bool:
        if len(done) == total:
            return True
        key = (done, last_write)
        if key in failed:
            return False
        pending = [op for op in ops if op.index not in done]
        # An operation may be linearized next only if no other pending
        # operation completed before it was invoked (real-time order).
        earliest_end = min(op.end_time for op in pending)
        for op in pending:
            if op.invoked_at > earliest_end:
                continue
            if op.kind == "read":
                if op.value_repr != value_of(last_write):
                    continue
                if search(done | {op.index}, last_write):
                    return True
            else:
                # An unstamped (open) write may carry any pair, the observed one too.
                replaces = op.observed is None or pair_of(last_write) in (None, op.observed)
                if replaces and search(done | {op.index}, op.index):
                    return True
                # An incomplete write may also be dropped entirely.
                if not op.complete and search(done | {op.index}, last_write):
                    return True
        failed.add(key)
        return False

    # Incomplete writes that are dropped are modelled by linearizing them but
    # not letting them change the register (handled above), so the search space
    # always covers all operations.
    return search(frozenset(), -1)


def cross_validate(history: History, max_operations: int = 24) -> Optional[bool]:
    """Run the exhaustive checker, returning ``None`` if the history is too big."""
    try:
        return is_linearizable(history, max_operations=max_operations)
    except HistoryTooLarge:
        return None


def cross_validate_registers(
    histories: Dict[str, History], max_operations: int = 24
) -> Dict[str, Optional[bool]]:
    """Cross-validate every per-register history of a sharded (or MWMR) run.

    A key-value store is linearizable iff each key's history is, so the
    exhaustive search runs per register.  Each entry is ``True``/``False`` for
    searched histories and ``None`` for histories above *max_operations*.
    """
    return {
        register_id: cross_validate(history, max_operations=max_operations)
        for register_id, history in histories.items()
    }
