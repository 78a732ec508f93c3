"""Core value types shared by every protocol in the library.

The paper manipulates *timestamp-value pairs* everywhere: the writer assigns a
monotonically increasing timestamp to each written value (Fig. 1, line 3), the
servers store such pairs in their ``pw``, ``w`` and ``vw`` fields (Fig. 3) and
the reader predicates compare pairs by timestamp (Fig. 2, lines 1-10).  This
module defines those pairs along with the ``frozen`` entries used by the
freezing mechanism and a few small helpers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, cast

# The paper uses ``ts0`` as the initial timestamp and ``bottom`` as the initial
# value of the storage (Section 2.2).  ``bottom`` is not a valid WRITE input.
INITIAL_TIMESTAMP = 0

# Sentinel object for the initial value of the register.  The sentinel is a
# dedicated singleton (rather than ``None``) so that examples and tests can
# legitimately write ``None`` if they wish.
class _Bottom:
    """Singleton sentinel for the register's initial value (the paper's ⊥)."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "⊥"

    def __reduce__(self) -> "tuple[type[_Bottom], tuple[()]]":
        return (_Bottom, ())


BOTTOM = _Bottom()


class SlotsPickleMixin:
    """Pickle support for ``frozen=True, slots=True`` dataclasses on 3.10.

    CPython 3.11+ equips frozen slots dataclasses with ``__getstate__`` /
    ``__setstate__`` automatically (its generated pair shadows these); 3.10
    creates the slots but leaves default object pickling in place, which
    cannot restore a frozen dict-less instance.  The empty ``__slots__``
    keeps subclasses free of a ``__dict__``.
    """

    __slots__ = ()

    def __getstate__(self) -> List[Any]:
        return [getattr(self, f.name) for f in dataclasses.fields(cast(Any, self))]

    def __setstate__(self, state: List[Any]) -> None:
        for f, value in zip(dataclasses.fields(cast(Any, self)), state):
            object.__setattr__(self, f.name, value)


def is_bottom(value: Any) -> bool:
    """Return ``True`` if *value* is the initial register value ⊥."""
    return isinstance(value, _Bottom)


@dataclass(frozen=True, order=False, slots=True)
class TimestampValue(SlotsPickleMixin):
    """A timestamp-value pair ``c = <ts, val>`` as used throughout the paper.

    Ordering is by the lexicographic pair ``(ts, writer_id)``.  The paper's
    SWMR protocol has a single writer, so every pair it manipulates carries the
    default empty ``writer_id`` and ordering degenerates to by-timestamp — the
    pseudocode's comparisons are unchanged.  The multi-writer (MWMR) extension
    stamps the issuing writer's identity into ``writer_id``: two writers that
    independently pick the same numeric timestamp then still produce totally
    ordered pairs, which is the classic ABD-lineage lift from SWMR to MWMR.

    Equality considers every field, which is what the reader predicates (e.g.
    ``invalidw``) need to detect two different values carrying the same
    timestamp pair (only possible if some server is malicious, Lemma 2).
    """

    ts: int
    val: Any = BOTTOM
    writer_id: str = ""

    @property
    def order_key(self) -> Tuple[int, str]:
        """The lexicographic ordering key ``(ts, writer_id)``."""
        return (self.ts, self.writer_id)

    def replace_if_newer(self, candidate: "TimestampValue") -> "TimestampValue":
        """The server ``update()`` helper of Fig. 3 (line 17)."""
        if candidate.order_key > self.order_key:
            return candidate
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.writer_id:
            return f"<{self.ts},{self.val!r},{self.writer_id}>"
        return f"<{self.ts},{self.val!r}>"


#: The initial pair ``<ts0, ⊥>`` stored by every process.
INITIAL_PAIR = TimestampValue(INITIAL_TIMESTAMP, BOTTOM)

#: The initial reader timestamp ``tsr0``.
INITIAL_READ_TIMESTAMP = 0


@dataclass(frozen=True, slots=True)
class FrozenEntry(SlotsPickleMixin):
    """A frozen value for one reader: ``<pw, tsr>`` stored in ``frozen_rj``.

    The writer freezes the current pre-written pair for a reader whose slow
    READ it detected via the ``newread`` piggyback (Fig. 1, ``freezevalues``);
    servers store the frozen pair together with the read timestamp it was
    frozen for (Fig. 3, line 6) and return it in READ_ACKs.
    """

    pair: TimestampValue = INITIAL_PAIR
    read_ts: int = INITIAL_READ_TIMESTAMP


#: Initial per-reader frozen entry ``<<ts0, ⊥>, tsr0>``.
INITIAL_FROZEN = FrozenEntry(INITIAL_PAIR, INITIAL_READ_TIMESTAMP)


@dataclass(frozen=True, slots=True)
class FreezeDirective(SlotsPickleMixin):
    """One element of the writer's ``frozen`` set: ``<rj, pw, read_ts[rj]>``.

    Sent by the writer inside a PW (core algorithm, Fig. 1) or W message
    (Appendix C variant, Fig. 6) to instruct servers to freeze ``pair`` for the
    reader ``reader_id`` and read timestamp ``read_ts``.
    """

    reader_id: str
    pair: TimestampValue
    read_ts: int


@dataclass(frozen=True, slots=True)
class NewReadReport(SlotsPickleMixin):
    """One element of a server's ``newread`` set: ``<rj, tsrj>``.

    Servers piggyback these on PW_ACKs to tell the writer which readers have
    announced a slow READ that has not been frozen for yet (Fig. 3, line 7).
    """

    reader_id: str
    read_ts: int


def freshest(*pairs: TimestampValue) -> TimestampValue:
    """Return the pair with the highest ``(ts, writer_id)`` among *pairs*.

    Ties are broken in favour of the earliest argument, which matches the
    server ``update`` rule (strictly greater pairs replace).
    """
    if not pairs:
        raise ValueError("freshest() requires at least one pair")
    best = pairs[0]
    for pair in pairs[1:]:
        if pair.order_key > best.order_key:
            best = pair
    return best


def as_dict(obj: Any) -> Any:
    """Recursively convert protocol dataclasses into JSON-friendly structures.

    Used by the TCP transport and by the benchmark report writer.  ``BOTTOM``
    is encoded as the string ``"<bottom>"`` and decoded by :func:`from_dict_value`.
    """
    if is_bottom(obj):
        return {"__bottom__": True}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **{
                field.name: as_dict(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [as_dict(item) for item in obj]
    if isinstance(obj, dict):
        return {key: as_dict(value) for key, value in obj.items()}
    return obj
