"""Unit tests for variant-specific behaviours (server/writer/reader deltas)."""


from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.messages import PreWriteAck, Write, WriteAck
from repro.core.types import INITIAL_FROZEN, FreezeDirective, TimestampValue
from repro.variants.regular import (
    MaliciousWritebackReader,
    RegularReader,
    RegularServer,
    RegularWriter,
)
from repro.variants.trading import (
    LuckyReadSequence,
    consecutive_lucky_read_sequences,
    max_slow_reads_per_sequence,
)
from repro.variants.two_round import TwoRoundReader, TwoRoundServer, TwoRoundWriter
from repro.verify.history import History, OperationRecord


V1 = TimestampValue(1, "v1")
V2 = TimestampValue(2, "v2")


class TestRegularServer:
    def test_ignores_writebacks_from_readers(self):
        config = SystemConfig.regular(2, 1)
        server = RegularServer("s1", config)
        effects = server.handle_message(
            Write(sender="r1", round=1, ts=1, pair=V2, from_writer=False)
        )
        assert effects.empty
        assert server.pw.ts == 0

    def test_accepts_writes_from_the_writer(self):
        config = SystemConfig.regular(2, 1)
        server = RegularServer("s1", config)
        server.handle_message(Write(sender="w", round=2, ts=1, pair=V1))
        assert server.pw == V1 and server.w == V1


class TestRegularWriterAndReader:
    def test_regular_writer_w_phase_is_single_round(self):
        config = SystemConfig.regular(2, 1)
        writer = RegularWriter(config, timer_delay=5.0)
        writer.write("v")
        for index in range(1, config.round_quorum + 1):
            writer.handle_message(PreWriteAck(sender=f"s{index}", ts=1))
        writer.on_timer("w/op1/pw")  # not enough for the fast path -> W round 2
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(WriteAck(sender=f"s{index}", round=2, ts=1))
        assert effects.completions and effects.completions[0].rounds == 2

    def test_regular_reader_never_writes_back(self):
        from repro.core.messages import ReadAck

        config = SystemConfig.regular(2, 1)
        reader = RegularReader("r1", config, timer_delay=5.0, timer_policy=TimerPolicy.NONE)
        reader.read()
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(
                ReadAck(sender=f"s{index}", read_ts=1, round=1, pw=V1, w=V1)
            )
        assert effects.completions
        assert not any(isinstance(send.message, Write) for send in effects.sends)

    def test_malicious_writeback_reader_emits_three_forged_rounds(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0)
        attacker = MaliciousWritebackReader("r-mal", config)
        effects = attacker.read()
        rounds = {send.message.round for send in effects.sends}
        assert rounds == {1, 2, 3}
        assert all(not send.message.from_writer for send in effects.sends)
        assert effects.completions


class TestTwoRoundVariantUnits:
    def test_writer_never_uses_timer_or_fast_path(self):
        config = SystemConfig.two_round_write(2, 1, 1)
        writer = TwoRoundWriter(config)
        effects = writer.write("v")
        assert not effects.timers
        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(PreWriteAck(sender=f"s{index}", ts=1))
        # At S - t acknowledgements the write proceeds straight into round 2
        # (never the one-round fast path, Fig. 6).
        w_rounds = [send.message.round for send in effects.sends if isinstance(send.message, Write)]
        assert w_rounds and set(w_rounds) == {2}
        assert not effects.completions

    def test_freeze_directives_travel_in_w_message(self):
        config = SystemConfig.two_round_write(1, 1, 1)
        writer = TwoRoundWriter(config)
        writer.write("v")
        from repro.core.types import NewReadReport

        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(
                PreWriteAck(
                    sender=f"s{index}",
                    ts=1,
                    newread=(NewReadReport(reader_id="r1", read_ts=3),),
                )
            )
        w_messages = [send.message for send in effects.sends if isinstance(send.message, Write)]
        assert w_messages and w_messages[0].frozen
        assert w_messages[0].frozen[0].reader_id == "r1"
        assert writer.frozen == ()  # cleared once shipped

    def test_server_applies_freeze_only_from_writer(self):
        config = SystemConfig.two_round_write(1, 1, 1)
        server = TwoRoundServer("s1", config)
        directive = FreezeDirective(reader_id="r1", pair=V1, read_ts=3)
        server.handle_message(
            Write(sender="r2", round=2, ts=9, pair=V1, frozen=(directive,), from_writer=False)
        )
        assert server.frozen.get("r1", INITIAL_FROZEN).read_ts == 0
        server.handle_message(
            Write(sender="w", round=2, ts=1, pair=V1, frozen=(directive,))
        )
        assert server.frozen["r1"].read_ts == 3

    def test_reader_fast_predicate_counts_w_fields(self):
        from repro.core.messages import ReadAck

        config = SystemConfig.two_round_write(1, 0, 1)  # S=3, S-t-fr=1
        reader = TwoRoundReader("r1", config, timer_policy=TimerPolicy.NONE)
        reader.read()
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(
                ReadAck(sender=f"s{index}", read_ts=1, round=1, pw=V1, w=V1)
            )
        completion = effects.completions[0]
        assert completion.fast  # one w-field match suffices when fr = t = 1


class TestSequenceAnalysis:
    def _read(self, value, start, end, fast, client="r1"):
        return OperationRecord(
            client, "read", value, start, end, rounds=1 if fast else 4, fast=fast
        )

    def _write(self, value, start, end):
        return OperationRecord("w", "write", value, start, end)

    def test_sequences_split_on_writes(self):
        history = History(
            [
                self._write("a", 0, 1),
                self._read("a", 2, 3, True),
                self._read("a", 4, 5, True),
                self._write("b", 6, 7),
                self._read("b", 8, 9, False),
                self._read("b", 10, 11, True),
            ]
        )
        sequences = consecutive_lucky_read_sequences(history)
        assert [sequence.length for sequence in sequences] == [2, 2]
        assert max_slow_reads_per_sequence(history) == 1

    def test_overlapping_reads_break_the_chain(self):
        history = History(
            [
                self._write("a", 0, 1),
                self._read("a", 2, 6, True, client="r1"),
                self._read("a", 3, 7, True, client="r2"),
            ]
        )
        sequences = consecutive_lucky_read_sequences(history)
        assert len(sequences) == 2

    def test_contended_reads_are_excluded(self):
        history = History(
            [
                self._write("a", 0, 10),
                self._read("a", 2, 3, True),
            ]
        )
        assert consecutive_lucky_read_sequences(history) == []

    def test_sequence_statistics(self):
        sequence = LuckyReadSequence(
            [self._read("a", 0, 1, True), self._read("a", 2, 3, False)]
        )
        assert sequence.length == 2
        assert sequence.fast_count == 1
        assert sequence.slow_count == 1

    def test_empty_history_has_no_slow_reads(self):
        assert max_slow_reads_per_sequence(History()) == 0
