"""Unit tests for the writer automaton (Fig. 1), driven message by message."""

import pytest

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.messages import PreWrite, PreWriteAck, Write, WriteAck
from repro.core.types import NewReadReport, TimestampValue
from repro.core.writer import AtomicWriter


@pytest.fixture
def config():
    # S=6, S-t=4, S-fw=5.
    return SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)


@pytest.fixture
def writer(config):
    return AtomicWriter(config, timer_delay=5.0)


@pytest.fixture
def faithful_writer(config):
    """Fig. 1 l.5 verbatim: the PW phase ends on S - t acks AND the timer."""
    return AtomicWriter(config, timer_delay=5.0, timer_policy=TimerPolicy.WAIT)


def pw_timer_id(writer):
    return f"{writer.process_id}/op{writer._op_counter}/pw"


def ack(server_id, ts, newread=()):
    return PreWriteAck(sender=server_id, ts=ts, newread=tuple(newread))


class TestPreWritePhase:
    def test_write_broadcasts_prewrite_with_incremented_ts(self, writer, config):
        effects = writer.write("v1")
        assert writer.ts == 1
        assert len(effects.sends) == config.num_servers
        message = effects.sends[0].message
        assert isinstance(message, PreWrite)
        assert message.pw == TimestampValue(1, "v1")
        assert len(effects.timers) == 1

    def test_write_while_busy_is_rejected(self, writer):
        writer.write("v1")
        with pytest.raises(RuntimeError):
            writer.write("v2")

    def test_no_completion_before_timer_expires(self, faithful_writer, config):
        writer = faithful_writer
        writer.write("v1")
        for index in range(1, config.num_servers + 1):
            effects = writer.handle_message(ack(f"s{index}", 1))
            assert effects.empty

    def test_no_completion_before_deadline_below_s_minus_fw(self, writer, config):
        # Deadline: S - t acks alone decide nothing — the timer does, and it
        # decides as it always did (W phase).
        writer.write("v1")
        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(ack(f"s{index}", 1))
            assert effects.empty
        effects = writer.on_timer(pw_timer_id(writer))
        assert not effects.completions and not effects.cancels
        assert all(isinstance(send.message, Write) for send in effects.sends)

    def test_no_completion_before_quorum(self, writer):
        writer.write("v1")
        effects = writer.on_timer(pw_timer_id(writer))
        assert not effects.completions
        effects = writer.handle_message(ack("s1", 1))
        assert not effects.completions

    def test_fast_path_with_s_minus_fw_acks(self, faithful_writer, config):
        # Paper-faithful, synchronous run: all acknowledgements arrive before
        # the timer fires, which ends the phase.
        writer = faithful_writer
        writer.write("v1")
        for index in range(1, config.fast_write_quorum + 1):
            effects = writer.handle_message(ack(f"s{index}", 1))
            assert not effects.completions
        effects = writer.on_timer(pw_timer_id(writer))
        assert effects.completions and not effects.cancels
        completion = effects.completions[0]
        assert completion.fast and completion.rounds == 1
        assert not writer.busy

    def test_fast_path_with_s_minus_fw_acks_deadline(self, writer, config):
        # Deadline: the ack that brings the WRITE to S - fw returns it and
        # disarms the timer; the completion is the paper-faithful one.
        writer.write("v1")
        timer_id = pw_timer_id(writer)
        for index in range(1, config.fast_write_quorum):
            effects = writer.handle_message(ack(f"s{index}", 1))
            assert effects.empty
        effects = writer.handle_message(ack(f"s{config.fast_write_quorum}", 1))
        completion = effects.completions[0]
        assert completion.fast and completion.rounds == 1
        assert completion.metadata["pw_acks"] == config.fast_write_quorum
        assert effects.cancels == [timer_id]
        assert not writer.busy and writer.w == TimestampValue(1, "v1")

    def test_late_ack_and_stale_timer_after_early_return_are_ignored(self, writer, config):
        writer.write("v1")
        timer_id = pw_timer_id(writer)
        for index in range(1, config.fast_write_quorum + 1):
            effects = writer.handle_message(ack(f"s{index}", 1))
        assert effects.completions
        # The sixth ack and a timer that raced its cancellation reach an idle
        # writer ...
        assert writer.handle_message(ack("s6", 1)).empty
        assert writer.on_timer(timer_id).empty
        # ... and one with the next WRITE already in its PW phase.
        writer.write("v2")
        assert writer.handle_message(ack("s6", 1)).empty
        assert writer.on_timer(timer_id).empty
        assert not writer._attempt.timer_expired

    def test_late_acks_after_timer_miss_the_fast_path(self, writer, config):
        # Unlucky run: the timer expires while only S-t acknowledgements are
        # in; the writer must not wait for more and proceeds with the W phase
        # even though a fifth acknowledgement arrives later.
        writer.write("v1")
        writer.on_timer(pw_timer_id(writer))
        for index in range(1, config.round_quorum):
            writer.handle_message(ack(f"s{index}", 1))
        effects = writer.handle_message(ack(f"s{config.round_quorum}", 1))
        assert not effects.completions
        assert any(isinstance(send.message, Write) for send in effects.sends)

    def test_slow_path_with_only_s_minus_t_acks(self, writer, config):
        writer.write("v1")
        for index in range(1, config.round_quorum + 1):
            writer.handle_message(ack(f"s{index}", 1))
        effects = writer.on_timer(pw_timer_id(writer))
        # Not enough for the fast path: the W phase (round 2) starts.
        assert not effects.completions
        w_messages = [send.message for send in effects.sends]
        assert all(isinstance(message, Write) and message.round == 2 for message in w_messages)
        assert len(w_messages) == config.num_servers

    def test_stale_ack_with_wrong_ts_is_ignored(self, writer):
        writer.write("v1")
        writer.on_timer(pw_timer_id(writer))
        effects = writer.handle_message(ack("s1", ts=99))
        assert effects.empty

    def test_duplicate_acks_from_same_server_count_once(self, writer, config):
        writer.write("v1")
        writer.on_timer(pw_timer_id(writer))
        for _ in range(config.fast_write_quorum):
            effects = writer.handle_message(ack("s1", 1))
        assert not effects.completions


class TestWPhase:
    def _enter_w_phase(self, writer, config):
        writer.write("v1")
        for index in range(1, config.round_quorum + 1):
            writer.handle_message(ack(f"s{index}", 1))
        return writer.on_timer(pw_timer_id(writer))

    def test_round_three_follows_round_two(self, writer, config):
        self._enter_w_phase(writer, config)
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(WriteAck(sender=f"s{index}", round=2, ts=1))
        w3 = [send.message for send in effects.sends]
        assert all(message.round == 3 for message in w3)

    def test_completion_after_round_three_quorum(self, writer, config):
        self._enter_w_phase(writer, config)
        for index in range(1, config.round_quorum + 1):
            writer.handle_message(WriteAck(sender=f"s{index}", round=2, ts=1))
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(WriteAck(sender=f"s{index}", round=3, ts=1))
        completion = effects.completions[0]
        assert completion.rounds == 3
        assert not completion.fast

    def test_wrong_round_acks_are_ignored(self, writer, config):
        self._enter_w_phase(writer, config)
        effects = writer.handle_message(WriteAck(sender="s1", round=3, ts=1))
        assert effects.empty


class TestFreezing:
    def test_freeze_requires_b_plus_one_reports(self, writer, config):
        writer.write("v1")
        writer.handle_message(ack("s1", 1, [NewReadReport("r1", 4)]))
        for index in range(2, config.round_quorum + 1):
            writer.handle_message(ack(f"s{index}", 1))
        writer.on_timer(pw_timer_id(writer))
        assert writer.frozen == ()

    def test_freeze_records_directive_and_read_ts(self, writer, config):
        writer.write("v1")
        reports = [NewReadReport("r1", 4), NewReadReport("r1", 5)]
        writer.handle_message(ack("s1", 1, [reports[0]]))
        writer.handle_message(ack("s2", 1, [reports[1]]))
        for index in range(3, config.round_quorum + 1):
            writer.handle_message(ack(f"s{index}", 1))
        writer.on_timer(pw_timer_id(writer))
        assert len(writer.frozen) == 1
        directive = writer.frozen[0]
        assert directive.reader_id == "r1"
        # b+1 = 2 reports with timestamps {5, 4}: the (b+1)-st highest is 4.
        assert directive.read_ts == 4
        assert directive.pair == TimestampValue(1, "v1")
        assert writer.read_ts["r1"] == 4

    def test_frozen_directives_ride_on_next_prewrite(self, writer, config):
        self.test_freeze_records_directive_and_read_ts(writer, config)
        # Complete the outstanding write's W phase first.
        for round_number in (2, 3):
            for index in range(1, config.round_quorum + 1):
                writer.handle_message(WriteAck(sender=f"s{index}", round=round_number, ts=1))
        effects = writer.write("v2")
        prewrite = effects.sends[0].message
        assert len(prewrite.frozen) == 1
        assert prewrite.frozen[0].reader_id == "r1"

    def test_stale_newread_reports_do_not_refreeze(self, writer, config):
        self.test_freeze_records_directive_and_read_ts(writer, config)
        for round_number in (2, 3):
            for index in range(1, config.round_quorum + 1):
                writer.handle_message(WriteAck(sender=f"s{index}", round=round_number, ts=1))
        writer.write("v2")
        # The same (r1, 4) reports arrive again: not higher than read_ts[r1].
        writer.handle_message(ack("s1", 2, [NewReadReport("r1", 4)]))
        writer.handle_message(ack("s2", 2, [NewReadReport("r1", 4)]))
        for index in range(3, config.round_quorum + 1):
            writer.handle_message(ack(f"s{index}", 2))
        writer.on_timer(pw_timer_id(writer))
        assert writer.frozen == ()


class TestAblationFlags:
    def test_disabled_fast_path_always_runs_w_phase(self, config):
        writer = AtomicWriter(config, enable_fast_path=False)
        writer.write("v1")
        for index in range(1, config.num_servers + 1):
            writer.handle_message(ack(f"s{index}", 1))
        # Even with every acknowledgement in hand the fast path is disabled:
        # the timer expiration triggers the W phase instead of a completion.
        effects = writer.on_timer("w/op1/pw")
        assert not effects.completions
        assert any(isinstance(send.message, Write) for send in effects.sends)

    def test_no_timer_mode_misses_the_fast_path(self, config):
        # Without the timer wait the writer acts as soon as S - t replies are
        # in, which is below the S - fw fast quorum here: this documents why
        # the timer wait of Fig. 1 line 5 exists.
        writer = AtomicWriter(config, timer_policy=TimerPolicy.NONE)
        effects = writer.write("v1")
        assert not effects.timers
        for index in range(1, config.round_quorum + 1):
            effects = writer.handle_message(ack(f"s{index}", 1))
        assert not effects.completions
        assert any(isinstance(send.message, Write) for send in effects.sends)

    def test_describe_reports_state(self, writer):
        writer.write("v1")
        description = writer.describe()
        assert description["ts"] == 1
        assert description["busy"] is True
