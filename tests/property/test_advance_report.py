"""A server step reports exactly the durable pairs it moved.

The write-ahead log and read-lease revocation both act on ``Effects.advanced``,
the report :meth:`~repro.core.server.PairRegister.advance` fills.  The
reference the report must equal is the check it replaced: capture the durable
fields before a step, diff them after it, one ``(register_id, field, pair)``
entry per field that changed, in ``pw``, ``w``, ``vw`` order.  The property
feeds random message streams — pre-writes, writer and reader ``W`` rounds 1-3,
reads, timestamp queries and ABD's query/store rounds, carrying fresh, stale,
equal-order and forged pairs — to every kind of storage register.
"""

from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.abd import ABDServer
from repro.core.config import SystemConfig
from repro.core.messages import (
    BaselineQuery,
    BaselineStore,
    PreWrite,
    Read,
    TimestampQuery,
    Write,
)
from repro.core.server import StorageServer
from repro.core.types import FreezeDirective, TimestampValue
from repro.persist.wal import WAL_FIELDS
from repro.variants.regular import RegularServer
from repro.variants.two_round import TwoRoundServer

CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0)
REGISTER = "k"
SERVERS = {
    "storage": lambda: StorageServer("s1", CONFIG, REGISTER),
    "regular": lambda: RegularServer("s1", CONFIG, REGISTER),
    "two-round": lambda: TwoRoundServer("s1", CONFIG, REGISTER),
    "abd": lambda: ABDServer("s1", CONFIG, REGISTER),
}


def capture(storage: Any) -> Optional[Tuple[Any, ...]]:
    """The durable fields of *storage* before a step.

    The WAL fields it has: a capture that insisted on all three saw nothing
    of an ABD server, which holds one, and its cluster logged nothing.
    """
    pairs = tuple(getattr(storage, field, None) for field in WAL_FIELDS)
    return pairs if any(isinstance(pair, TimestampValue) for pair in pairs) else None


def diff(register_id: str, storage: Any, before: Optional[Tuple[Any, ...]]) -> List[Any]:
    """What changed since :func:`capture`, one entry per field, in field order."""
    if before is None:
        return []
    entries = []
    for field, previous in zip(WAL_FIELDS, before, strict=True):
        current = getattr(storage, field, None)
        if current != previous:
            entries.append((register_id, field, current))
    return entries


# Few timestamps and two writer ids, so a stream keeps producing stale,
# equal-order (same (ts, writer_id), another value: a forgery) and fresh pairs.
PAIRS = st.builds(
    TimestampValue,
    ts=st.integers(min_value=0, max_value=4),
    val=st.sampled_from(["a", "b", "FORGED"]),
    writer_id=st.sampled_from(["", "", "w2"]),
)
SENDERS = st.sampled_from(["w", "r1", "r2"])
DIRECTIVES = st.lists(
    st.builds(
        FreezeDirective,
        reader_id=st.sampled_from(["r1", "r2"]),
        pair=PAIRS,
        read_ts=st.integers(min_value=0, max_value=3),
    ),
    max_size=2,
).map(tuple)


def _write(
    sender: str, round_number: int, pair: TimestampValue, frozen: Tuple[Any, ...]
) -> Write:
    return Write(
        sender=sender,
        register_id=REGISTER,
        round=round_number,
        ts=pair.ts,
        pair=pair,
        frozen=frozen,
        from_writer=sender == "w",
    )


MESSAGES = st.one_of(
    st.builds(
        lambda pw, w, frozen: PreWrite(
            sender="w", register_id=REGISTER, ts=pw.ts, pw=pw, w=w, frozen=frozen
        ),
        PAIRS,
        PAIRS,
        DIRECTIVES,
    ),
    st.builds(_write, SENDERS, st.integers(min_value=1, max_value=3), PAIRS, DIRECTIVES),
    st.builds(
        lambda sender, read_ts, round_number: Read(
            sender=sender, register_id=REGISTER, read_ts=read_ts, round=round_number
        ),
        st.sampled_from(["r1", "r2"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=2),
    ),
    st.builds(
        lambda sender: TimestampQuery(sender=sender, register_id=REGISTER, op_id=1), SENDERS
    ),
    st.builds(
        lambda sender, pair, phase: BaselineStore(
            sender=sender, register_id=REGISTER, op_id=1, pair=pair, phase=phase
        ),
        SENDERS,
        PAIRS,
        st.integers(min_value=1, max_value=2),
    ),
    st.builds(
        lambda sender: BaselineQuery(sender=sender, register_id=REGISTER, op_id=1), SENDERS
    ),
)


@given(
    kind=st.sampled_from(sorted(SERVERS)),
    messages=st.lists(MESSAGES, min_size=1, max_size=25),
)
@settings(max_examples=150, deadline=None)
def test_every_step_reports_the_fields_it_moved(kind, messages):
    server = SERVERS[kind]()
    for message in messages:
        before = capture(server)
        effects = server.handle_message(message)
        assert list(effects.advanced) == diff(REGISTER, server, before), message
    # What a snapshot carries restores the same state into a fresh register.
    restored = SERVERS[kind]()
    restored.restore_state(server.export_state())
    assert restored.export_state() == server.export_state()
