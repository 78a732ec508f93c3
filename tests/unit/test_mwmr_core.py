"""Unit tests for the MWMR core: (ts, writer_id) pairs, query phase, routing."""

import pytest

from repro.core.config import SystemConfig
from repro.core.messages import (
    PreWrite,
    PreWriteAck,
    ReadAck,
    TimestampQuery,
    TimestampQueryAck,
    Write,
    WriteAck,
)
from repro.core.mwmr import MultiWriterClient
from repro.core.protocol import LuckyAtomicProtocol, ProtocolSuite, RegisterSpec
from repro.core.server import StorageServer
from repro.core.types import INITIAL_PAIR, TimestampValue, freshest
from repro.core.writer import AtomicWriter


@pytest.fixture
def config():
    return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)


class TestLexicographicPairs:
    def test_writer_id_breaks_timestamp_ties(self):
        low = TimestampValue(5, "a", writer_id="r1")
        high = TimestampValue(5, "b", writer_id="w")
        assert high.order_key > low.order_key

    def test_default_writer_id_sorts_below_named_writers(self):
        swmr = TimestampValue(5, "a")
        mwmr = TimestampValue(5, "b", writer_id="r1")
        assert mwmr.order_key > swmr.order_key

    def test_conflicts_require_equal_pairs(self):
        a = TimestampValue(5, "x", writer_id="w")
        b = TimestampValue(5, "y", writer_id="w")
        c = TimestampValue(5, "y", writer_id="r1")
        assert a.order_key == b.order_key and a != b
        assert a.order_key != c.order_key  # different writer: ordered, not equal

    def test_freshest_uses_order_key(self):
        a = TimestampValue(5, "x", writer_id="r1")
        b = TimestampValue(5, "y", writer_id="w")
        assert freshest(a, b) is b

    def test_repr_shows_writer_only_when_set(self):
        assert "r1" in repr(TimestampValue(1, "v", writer_id="r1"))
        assert repr(TimestampValue(1, "v")) == "<1,'v'>"


class TestMwmrWriterQueryPhase:
    def test_write_starts_with_a_timestamp_query(self, config):
        writer = AtomicWriter(config, writer_id="r1", mwmr=True)
        effects = writer.write("v1")
        assert len(effects.sends) == config.num_servers
        assert all(isinstance(s.message, TimestampQuery) for s in effects.sends)
        assert not effects.timers  # the query round needs no timer

    def test_ts_is_max_plus_one_and_stamped_with_writer_id(self, config):
        writer = AtomicWriter(config, writer_id="r1", mwmr=True)
        writer.write("v1")
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(
                TimestampQueryAck(
                    sender=f"s{index}",
                    op_id=1,
                    pw=TimestampValue(7, "other", writer_id="w"),
                    w=TimestampValue(6, "older", writer_id="w"),
                )
            )
        # Query quorum reached: the PW round for (8, "v1", "r1") goes out.
        pre_writes = [s.message for s in effects.sends if isinstance(s.message, PreWrite)]
        assert len(pre_writes) == config.num_servers
        assert pre_writes[0].ts == 8
        assert pre_writes[0].pw == TimestampValue(8, "v1", writer_id="r1")
        assert writer.ts == 8

    def test_forged_high_query_reply_only_skips_timestamps(self, config):
        writer = AtomicWriter(config, writer_id="r1", mwmr=True)
        writer.write("v1")
        effects = None
        replies = [TimestampValue(10**9, "FORGED", writer_id="zz")] + [
            INITIAL_PAIR
        ] * (config.round_quorum - 1)
        for index, pair in enumerate(replies, start=1):
            effects = writer.handle_message(
                TimestampQueryAck(sender=f"s{index}", op_id=1, pw=pair, w=pair)
            )
        pre_writes = [s.message for s in effects.sends if isinstance(s.message, PreWrite)]
        # The forged timestamp is skipped over, never adopted as someone
        # else's value: the writer's own pair still wins the order.
        assert pre_writes[0].pw.val == "v1"
        assert pre_writes[0].ts == 10**9 + 1

    def test_stale_query_acks_are_ignored(self, config):
        writer = AtomicWriter(config, writer_id="r1", mwmr=True)
        writer.write("v1")
        effects = writer.handle_message(
            TimestampQueryAck(sender="s1", op_id=99, pw=INITIAL_PAIR, w=INITIAL_PAIR)
        )
        assert effects.empty

    def test_completion_metadata_marks_mwmr(self, config):
        writer = AtomicWriter(config, writer_id="r1", mwmr=True)
        writer.write("v1")
        for index in range(1, config.round_quorum + 1):
            writer.handle_message(
                TimestampQueryAck(
                    sender=f"s{index}", op_id=1, pw=INITIAL_PAIR, w=INITIAL_PAIR
                )
            )
        completion = None
        for index in range(1, config.fast_write_quorum + 1):
            effects = writer.handle_message(PreWriteAck(sender=f"s{index}", ts=1))
            if effects.completions:
                completion = effects.completions[0]
        assert completion is not None
        assert completion.metadata["mwmr"] is True
        assert completion.metadata["writer_id"] == "r1"
        assert completion.rounds == 2  # query + fast PW

    def test_swmr_writer_still_one_round_without_query(self, config):
        writer = AtomicWriter(config)
        effects = writer.write("v1")
        assert all(isinstance(s.message, PreWrite) for s in effects.sends)
        completion = None
        for index in range(1, config.fast_write_quorum + 1):
            out = writer.handle_message(PreWriteAck(sender=f"s{index}", ts=1))
            if out.completions:
                completion = out.completions[0]
        assert completion is not None and completion.rounds == 1 and completion.fast
        assert "mwmr" not in completion.metadata


class TestServerQueryHandling:
    def test_server_reports_pw_and_w(self, config):
        server = StorageServer("s1", config)
        server.handle_message(
            PreWrite(sender="w", ts=3, pw=TimestampValue(3, "x"), w=TimestampValue(2, "y"))
        )
        effects = server.handle_message(TimestampQuery(sender="r1", op_id=4))
        ack = effects.sends[0].message
        assert isinstance(ack, TimestampQueryAck)
        assert ack.op_id == 4
        assert ack.pw == TimestampValue(3, "x")
        assert ack.w == TimestampValue(2, "y")

    def test_update_is_lexicographic_across_writers(self, config):
        server = StorageServer("s1", config)
        server.handle_message(
            PreWrite(sender="r1", ts=5, pw=TimestampValue(5, "a", writer_id="r1"))
        )
        server.handle_message(
            PreWrite(sender="w", ts=5, pw=TimestampValue(5, "b", writer_id="w"))
        )
        assert server.pw == TimestampValue(5, "b", writer_id="w")
        # The lower pair does not displace the higher one.
        server.handle_message(
            PreWrite(sender="r1", ts=5, pw=TimestampValue(5, "a", writer_id="r1"))
        )
        assert server.pw == TimestampValue(5, "b", writer_id="w")

    def test_write_ack_echoes_from_writer_flag(self, config):
        server = StorageServer("s1", config)
        writer_ack = server.handle_message(
            Write(sender="w", round=2, ts=1, pair=TimestampValue(1, "v"), from_writer=True)
        ).sends[0].message
        reader_ack = server.handle_message(
            Write(sender="r1", round=1, ts=1, pair=TimestampValue(1, "v"), from_writer=False)
        ).sends[0].message
        assert writer_ack.from_writer is True
        assert reader_ack.from_writer is False


class TestMultiWriterClient:
    def test_routes_acks_by_role(self, config):
        client = MultiWriterClient("r1", config)
        client.write("v1")
        # Query acks go to the writer role.
        for index in range(1, config.round_quorum + 1):
            client.handle_message(
                TimestampQueryAck(
                    sender=f"s{index}", op_id=1, pw=INITIAL_PAIR, w=INITIAL_PAIR
                )
            )
        assert client.writer._attempt is not None
        assert client.writer._attempt.phase == "pw"
        # A reader write-back echo must not advance the writer's W phase.
        before = client.writer._attempt.phase
        client.handle_message(WriteAck(sender="s1", round=2, ts=1, from_writer=False))
        assert client.writer._attempt.phase == before

    def test_read_ack_reaches_reader_role(self, config):
        client = MultiWriterClient("r1", config)
        client.read()
        client.handle_message(
            ReadAck(sender="s1", read_ts=1, round=1, pw=INITIAL_PAIR, w=INITIAL_PAIR)
        )
        assert client.reader.views.response_count() == 1

    def test_one_outstanding_operation_per_register(self, config):
        client = MultiWriterClient("r1", config)
        client.write("v1")
        assert client.busy
        with pytest.raises(RuntimeError, match="well-formedness"):
            client.read()
        with pytest.raises(RuntimeError, match="well-formedness"):
            client.write("v2")

    def test_timer_delay_propagates_to_both_roles(self, config):
        client = MultiWriterClient("r1", config, timer_delay=7.0)
        assert client.writer.timer_delay == 7.0
        client.timer_delay = 3.5
        assert client.writer.timer_delay == 3.5
        assert client.reader.timer_delay == 3.5

    def test_describe_exposes_both_roles(self, config):
        info = MultiWriterClient("r1", config).describe()
        assert info["mwmr"] is True
        assert info["writer"]["mwmr"] is True
        assert info["reader"]["process_id"] == "r1"


class TestProtocolFactory:
    def test_lucky_protocol_builds_mwmr_clients(self, config):
        suite = LuckyAtomicProtocol(config)
        client = suite.create_client("r2", RegisterSpec(mwmr=True), 60.0)
        assert isinstance(client, MultiWriterClient)
        assert client.process_id == "r2"

    def test_base_suite_rejects_mwmr(self, config):
        with pytest.raises(NotImplementedError, match="does not support mwmr registers"):
            ProtocolSuite(config).create_client("r1", RegisterSpec(mwmr=True), 60.0)
