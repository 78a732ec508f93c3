"""Unit tests for the server automaton (Fig. 3)."""

import pytest

from repro.core.automaton import Effects
from repro.core.config import SystemConfig
from repro.core.messages import PreWrite, PreWriteAck, Read, ReadAck, Write, WriteAck
from repro.core.server import StorageServer
from repro.core.types import (
    INITIAL_PAIR,
    FreezeDirective,
    NewReadReport,
    TimestampValue,
)


@pytest.fixture
def config():
    return SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)


@pytest.fixture
def server(config):
    return StorageServer("s1", config)


V1 = TimestampValue(1, "v1")
V2 = TimestampValue(2, "v2")


class TestAdvance:
    """Fig. 3's ``update``: a pair moves only to a strictly higher
    ``(ts, writer_id)``, and the step reports each move it made."""

    def advance(self, server, current, candidate):
        server.pw = current
        effects = Effects()
        server.advance(effects, "pw", candidate)
        return effects.advanced

    def test_advance_takes_strictly_newer(self, server):
        new = TimestampValue(3, "new")
        assert self.advance(server, TimestampValue(2, "old"), new) == (("", "pw", new),)
        assert server.pw is new

    def test_advance_keeps_current_on_tie(self, server):
        current = TimestampValue(2, "old")
        assert self.advance(server, current, TimestampValue(2, "other")) == ()
        assert server.pw is current

    def test_advance_keeps_current_on_older(self, server):
        current = TimestampValue(2, "old")
        assert self.advance(server, current, TimestampValue(1, "ancient")) == ()
        assert server.pw is current

    def test_advance_uses_order_key(self, server):
        current = TimestampValue(5, "x", writer_id="r1")
        candidate = TimestampValue(5, "y", writer_id="w")
        assert self.advance(server, current, candidate) == (("", "pw", candidate),)
        assert self.advance(server, candidate, current) == ()
        assert server.pw is candidate


class TestPreWrite:
    def test_prewrite_updates_pw_and_w(self, server):
        effects = server.handle_message(
            PreWrite(sender="w", ts=2, pw=V2, w=V1, frozen=())
        )
        assert server.pw == V2
        assert server.w == V1
        assert isinstance(effects.sends[0].message, PreWriteAck)
        assert effects.sends[0].destination == "w"
        assert effects.sends[0].message.ts == 2

    def test_prewrite_never_regresses_timestamps(self, server):
        server.handle_message(PreWrite(sender="w", ts=2, pw=V2, w=V2))
        server.handle_message(PreWrite(sender="w", ts=1, pw=V1, w=V1))
        assert server.pw == V2
        assert server.w == V2

    def test_freeze_directive_adopted_when_not_stale(self, server):
        directive = FreezeDirective(reader_id="r1", pair=V1, read_ts=4)
        server.handle_message(
            PreWrite(sender="w", ts=1, pw=V1, w=INITIAL_PAIR, frozen=(directive,))
        )
        assert server.frozen["r1"].pair == V1
        assert server.frozen["r1"].read_ts == 4

    def test_freeze_directive_ignored_when_stale(self, server):
        server.handle_message(Read(sender="r1", read_ts=9, round=2))  # announces 9
        directive = FreezeDirective(reader_id="r1", pair=V1, read_ts=4)
        server.handle_message(
            PreWrite(sender="w", ts=1, pw=V1, w=INITIAL_PAIR, frozen=(directive,))
        )
        assert server.frozen["r1"].pair == INITIAL_PAIR

    def test_newread_reports_unfrozen_slow_reads(self, server):
        # r2 announced read timestamp 5 (via a slow READ round); no freeze yet.
        server.handle_message(Read(sender="r2", read_ts=5, round=2))
        effects = server.handle_message(PreWrite(sender="w", ts=3, pw=V2, w=V1))
        ack = effects.sends[0].message
        assert NewReadReport(reader_id="r2", read_ts=5) in ack.newread

    def test_newread_empty_once_frozen(self, server):
        server.handle_message(Read(sender="r2", read_ts=5, round=2))
        directive = FreezeDirective(reader_id="r2", pair=V1, read_ts=5)
        effects = server.handle_message(
            PreWrite(sender="w", ts=3, pw=V2, w=V1, frozen=(directive,))
        )
        assert effects.sends[0].message.newread == ()


class TestRead:
    def test_read_ack_carries_current_state(self, server):
        server.handle_message(PreWrite(sender="w", ts=1, pw=V1, w=V1))
        effects = server.handle_message(Read(sender="r1", read_ts=3, round=1))
        ack = effects.sends[0].message
        assert isinstance(ack, ReadAck)
        assert ack.pw == V1
        assert ack.read_ts == 3
        assert ack.round == 1

    def test_first_round_read_does_not_announce_timestamp(self, server):
        server.handle_message(Read(sender="r1", read_ts=3, round=1))
        assert server.read_ts["r1"] == 0

    def test_later_round_read_announces_timestamp(self, server):
        server.handle_message(Read(sender="r1", read_ts=3, round=2))
        assert server.read_ts["r1"] == 3

    def test_read_timestamp_never_decreases(self, server):
        server.handle_message(Read(sender="r1", read_ts=7, round=2))
        server.handle_message(Read(sender="r1", read_ts=3, round=2))
        assert server.read_ts["r1"] == 7

    def test_unknown_reader_is_admitted_lazily(self, server):
        effects = server.handle_message(Read(sender="r9", read_ts=1, round=1))
        assert effects.sends[0].destination == "r9"
        assert "r9" in server.frozen


class TestWritePhases:
    def test_round_one_updates_pw_only(self, server):
        server.handle_message(Write(sender="w", round=1, ts=1, pair=V1))
        assert server.pw == V1
        assert server.w == INITIAL_PAIR
        assert server.vw == INITIAL_PAIR

    def test_round_two_updates_w(self, server):
        server.handle_message(Write(sender="w", round=2, ts=1, pair=V1))
        assert server.w == V1
        assert server.vw == INITIAL_PAIR

    def test_round_three_updates_vw(self, server):
        server.handle_message(Write(sender="w", round=3, ts=1, pair=V1))
        assert server.vw == V1

    def test_write_ack_echoes_round_and_ts(self, server):
        effects = server.handle_message(
            Write(sender="r1", round=2, ts=9, pair=V1, from_writer=False)
        )
        ack = effects.sends[0].message
        assert isinstance(ack, WriteAck)
        assert ack.round == 2
        assert ack.ts == 9
        assert effects.sends[0].destination == "r1"

    def test_write_never_regresses(self, server):
        server.handle_message(Write(sender="w", round=3, ts=2, pair=V2))
        server.handle_message(Write(sender="w", round=3, ts=1, pair=V1))
        assert server.vw == V2


class TestBookkeeping:
    def test_describe_exposes_registers(self, server):
        server.handle_message(Write(sender="w", round=1, ts=1, pair=V1))
        description = server.describe()
        assert description["pw"] == V1
        assert "read_ts" in description

    def test_unknown_message_type_is_ignored(self, server):
        assert server.handle_message(PreWriteAck(sender="x", ts=1)).empty
