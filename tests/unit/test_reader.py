"""Unit tests for the reader automaton (Fig. 2), driven message by message."""

import pytest

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.messages import Read, ReadAck, Write, WriteAck
from repro.core.reader import AtomicReader
from repro.core.types import INITIAL_PAIR, FrozenEntry, TimestampValue


@pytest.fixture
def config():
    # S=6, S-t=4, fastpw quorum 5, safe quorum 2.
    return SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)


@pytest.fixture
def reader(config):
    return AtomicReader("r1", config, timer_delay=5.0)


@pytest.fixture
def faithful_reader(config):
    """Fig. 2 l.17 verbatim: round 1 ends on S - t replies AND the timer."""
    return AtomicReader("r1", config, timer_delay=5.0, timer_policy=TimerPolicy.WAIT)


V1 = TimestampValue(1, "v1")
V2 = TimestampValue(2, "v2")


def round1_timer(reader):
    return f"{reader.process_id}/op{reader._op_counter}/read-round-1"


def ack(server_id, pw, w=None, vw=None, frozen=None, read_ts=1, rnd=1):
    return ReadAck(
        sender=server_id,
        read_ts=read_ts,
        round=rnd,
        pw=pw,
        w=w if w is not None else pw,
        vw=vw if vw is not None else INITIAL_PAIR,
        frozen=frozen if frozen is not None else FrozenEntry(),
    )


class TestReadRounds:
    def test_read_broadcasts_round_one(self, reader, config):
        effects = reader.read()
        assert reader.read_ts == 1
        messages = [send.message for send in effects.sends]
        assert all(isinstance(message, Read) and message.round == 1 for message in messages)
        assert len(messages) == config.num_servers
        assert len(effects.timers) == 1

    def test_read_while_busy_rejected(self, reader):
        reader.read()
        with pytest.raises(RuntimeError):
            reader.read()

    def test_fast_read_after_full_pw_quorum(self, faithful_reader, config):
        # Paper-faithful, synchronous run: the fastpw quorum of replies
        # arrives before the round-1 timer expires, which ends the round.
        reader = faithful_reader
        reader.read()
        for index in range(1, config.fast_read_pw_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1))
            assert not effects.completions
        effects = reader.on_timer(round1_timer(reader))
        completion = effects.completions[0]
        assert completion.fast
        assert completion.rounds == 1
        assert completion.value == "v1"
        assert completion.metadata["writeback"] is False
        assert not effects.cancels  # the timer fired; nothing to disarm

    def test_fast_read_after_full_pw_quorum_deadline(self, reader, config):
        # Deadline: the reply that completes the fastpw quorum returns the
        # READ and disarms the timer; the completion is the paper-faithful one.
        reader.read()
        timer_id = round1_timer(reader)
        for index in range(1, config.fast_read_pw_quorum):
            effects = reader.handle_message(ack(f"s{index}", V1))
            assert effects.empty
        effects = reader.handle_message(ack(f"s{config.fast_read_pw_quorum}", V1))
        completion = effects.completions[0]
        assert completion.fast
        assert completion.rounds == 1
        assert completion.value == "v1"
        assert completion.metadata["writeback"] is False
        assert effects.cancels == [timer_id]
        assert not reader.busy

    def test_no_return_before_timer_in_round_one(self, faithful_reader, config):
        reader = faithful_reader
        reader.read()
        for index in range(1, config.num_servers + 1):
            effects = reader.handle_message(ack(f"s{index}", V1))
            assert effects.empty
        effects = reader.on_timer(round1_timer(reader))
        assert effects.completions

    def test_no_return_before_deadline_unless_fast(self, reader, config):
        # Deadline: S - t replies and C != ∅ are not enough — V1 is safe and
        # highCand after four replies but not fast, so the timer decides, and
        # decides as it always did (write-back).
        reader.read()
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1))
            assert effects.empty
        assert reader.views.select(reader.read_ts) == V1
        effects = reader.on_timer(round1_timer(reader))
        assert not effects.completions and not effects.cancels
        assert all(isinstance(send.message, Write) for send in effects.sends)

    def test_late_ack_and_stale_timer_after_early_return_are_ignored(self, reader, config):
        reader.read()
        timer_id = round1_timer(reader)
        for index in range(1, config.fast_read_pw_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1))
        assert effects.completions
        # The sixth server's reply and a timer that raced its cancellation
        # reach an idle reader ...
        assert reader.handle_message(ack("s6", V1)).empty
        assert reader.on_timer(timer_id).empty
        # ... and, worse, one with the next READ already in round 1: the stale
        # timer (op-scoped id) must not expire the new round.
        reader.read()
        assert reader.handle_message(ack("s6", V1, read_ts=1)).empty
        assert reader.on_timer(timer_id).empty
        assert not reader._attempt.timer_expired

    def test_select_runs_at_most_once_per_new_responder(self, reader, config):
        # Keep the early read cheap: below S - t replies, on a duplicate, on a
        # stale reply and on a reply whose pw pair is not itself fast the
        # candidate set is not computed at all.
        calls = []
        select = reader.views.select
        reader.views.select = lambda read_ts: calls.append(read_ts) or select(read_ts)
        reader.read()
        for index in range(1, config.round_quorum + 1):
            reader.handle_message(ack(f"s{index}", V1))  # pw count 4 < 5
        reader.handle_message(ack("s1", V1))  # duplicate
        reader.handle_message(ack("s5", V1, read_ts=99))  # stale
        reader.handle_message(ack("s5", V2))  # a lone fresher pair: not fast
        assert calls == []
        effects = reader.handle_message(ack("s6", V1))  # pw count reaches 5
        assert calls == [1]
        assert effects.completions[0].value == "v1"

    def test_fast_read_via_vw_quorum(self, reader, config):
        reader.read()
        reader.on_timer(round1_timer(reader))
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1, vw=V1))
        completion = effects.completions[0]
        assert completion.fast and completion.value == "v1"

    def test_safe_but_not_fast_triggers_writeback(self, reader, config):
        reader.read()
        reader.on_timer(round1_timer(reader))
        # Only S-t = 4 servers respond with the value: safe and highCand hold
        # but neither fastpw (needs 5) nor fastvw (vw stale) does.
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1))
        assert not effects.completions
        writebacks = [send.message for send in effects.sends]
        assert all(isinstance(message, Write) and message.round == 1 for message in writebacks)

    def test_empty_candidate_set_starts_next_round(self, reader, config):
        reader.read()
        reader.on_timer(round1_timer(reader))
        # One server reports a higher forged value: with only four responders it
        # is neither safe nor invalidated, so C is empty and round 2 begins.
        effects = reader.handle_message(ack("s1", V2))
        for index in range(2, config.round_quorum):
            effects = reader.handle_message(ack(f"s{index}", V1))
        assert not effects.sends
        effects = reader.handle_message(ack(f"s{config.round_quorum}", V1))
        round2 = [send.message for send in effects.sends]
        assert all(isinstance(message, Read) and message.round == 2 for message in round2)

    def test_round_two_needs_no_timer(self, reader, config):
        self.test_empty_candidate_set_starts_next_round(reader, config)
        effects = None
        for index in range(1, config.num_servers + 1):
            effects = reader.handle_message(ack(f"s{index}", V1, rnd=2))
        # All six servers now agree on V1, which invalidates the forged V2.
        assert not any(isinstance(send.message, Read) for send in effects.sends)

    def test_stale_read_ts_acks_ignored(self, reader):
        reader.read()
        effects = reader.handle_message(ack("s1", V1, read_ts=99))
        assert effects.empty


class TestTimerScoping:
    """Regression tests: timer identifiers are scoped per (operation, round)."""

    def test_stale_round_one_timer_ignored_in_round_two(self, reader, config):
        reader.read()
        reader.on_timer(round1_timer(reader))
        # Force C = ∅ after round 1 so the reader enters round 2 (same shape
        # as test_empty_candidate_set_starts_next_round above).
        reader.handle_message(ack("s1", V2))
        for index in range(2, config.round_quorum + 1):
            reader.handle_message(ack(f"s{index}", V1))
        attempt = reader._attempt
        assert attempt.round == 2
        responders_before = set(attempt.round_responders)
        # A stale round-1 timer (duplicate delivery, forged id) fires now: it
        # must neither re-evaluate the round nor emit anything.
        effects = reader.on_timer(round1_timer(reader))
        assert effects.empty
        assert attempt.round == 2
        assert attempt.round_responders == responders_before

    def test_round_one_timer_ignored_without_timer_wait(self, config):
        reader = AtomicReader("r1", config, timer_delay=5.0, timer_policy=TimerPolicy.NONE)
        reader.read()
        attempt = reader._attempt
        assert attempt.timer_expired  # set eagerly, no timer was armed
        reader.handle_message(ack("s1", V1))
        # No timer exists in this mode, so a round-1 timer id reaching the
        # automaton is stale by definition and must be a no-op.
        effects = reader.on_timer(round1_timer(reader))
        assert effects.empty
        assert attempt.round == 1
        assert not reader._attempt.phase == "done"

    def test_round_one_timer_id_is_round_scoped(self, reader):
        effects = reader.read()
        assert effects.timers[0].timer_id.endswith("read-round-1")


class TestWriteback:
    def _reach_writeback(self, reader, config):
        reader.read()
        reader.on_timer(round1_timer(reader))
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1))
        return effects

    def test_writeback_runs_three_rounds_then_completes(self, reader, config):
        self._reach_writeback(reader, config)
        for round_number in (1, 2):
            effects = None
            for index in range(1, config.round_quorum + 1):
                effects = reader.handle_message(
                    WriteAck(sender=f"s{index}", round=round_number, ts=reader.read_ts)
                )
            next_round = [send.message for send in effects.sends]
            assert all(message.round == round_number + 1 for message in next_round)
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(
                WriteAck(sender=f"s{index}", round=3, ts=reader.read_ts)
            )
        completion = effects.completions[0]
        assert completion.rounds == 4  # 1 read round + 3 write-back rounds
        assert not completion.fast
        assert completion.metadata["writeback"] is True

    def test_writeback_acks_with_wrong_ts_ignored(self, reader, config):
        self._reach_writeback(reader, config)
        effects = reader.handle_message(WriteAck(sender="s1", round=1, ts=12345))
        assert effects.empty


class TestFrozenPath:
    def test_frozen_value_returned_even_with_forged_higher_value(self, reader, config):
        reader.read()
        reader.on_timer(round1_timer(reader))
        frozen = FrozenEntry(V1, read_ts=1)
        reader.handle_message(ack("s1", TimestampValue(50, "forged")))
        reader.handle_message(ack("s2", INITIAL_PAIR, frozen=frozen))
        reader.handle_message(ack("s3", INITIAL_PAIR, frozen=frozen))
        effects = reader.handle_message(ack("s4", INITIAL_PAIR))
        # The frozen candidate is selectable; the reader proceeds (slow path,
        # because fast() does not hold for it).
        assert any(isinstance(send.message, Write) for send in effects.sends)

    def test_frozen_entry_for_older_read_is_ignored(self, reader, config):
        reader.read()
        reader.on_timer(round1_timer(reader))
        stale_frozen = FrozenEntry(V1, read_ts=0)
        for index in range(1, config.round_quorum + 1):
            reader.handle_message(ack(f"s{index}", INITIAL_PAIR, frozen=stale_frozen))
        # Nothing is safe (only the initial value is live, which is safe) —
        # actually the initial pair is live at every responder, so it is the
        # candidate; the frozen pair for the *previous* read must not be.
        selected = reader.views.selectable(reader.read_ts)
        assert V1 not in selected


class TestAblationFlags:
    def test_no_timer_mode_acts_on_round_quorum(self, config):
        # Without the round-1 timer the reader decides at S - t replies, below
        # the fastpw quorum: the value is returned but only after a write-back
        # (this documents why the timer wait of Fig. 2 line 17 exists).
        reader = AtomicReader("r1", config, timer_policy=TimerPolicy.NONE)
        effects = reader.read()
        assert not effects.timers
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1))
        assert not effects.completions
        assert any(isinstance(send.message, Write) for send in effects.sends)

    def test_disabled_fast_path_forces_writeback(self, config):
        reader = AtomicReader("r1", config, enable_fast_path=False, timer_policy=TimerPolicy.NONE)
        reader.read()
        effects = None
        for index in range(1, config.round_quorum + 1):
            effects = reader.handle_message(ack(f"s{index}", V1, vw=V1))
        assert not effects.completions
        assert any(isinstance(send.message, Write) for send in effects.sends)

    def test_describe_reports_read_ts(self, reader):
        reader.read()
        assert reader.describe()["read_ts"] == 1
