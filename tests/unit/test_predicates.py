"""Unit tests for the reader-side predicates (Fig. 2, lines 1-10)."""

import pytest

from repro.core.config import SystemConfig
from repro.core.messages import ReadAck
from repro.core.predicates import ViewTable
from repro.core.types import INITIAL_PAIR, FrozenEntry, TimestampValue


def make_config() -> SystemConfig:
    # t=2, b=1 -> S=6, safe quorum 2, fastpw quorum 5, invalidw 4, invalidpw 3.
    return SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)


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


@pytest.fixture
def table():
    return ViewTable(make_config())


V1 = TimestampValue(1, "v1")
V2 = TimestampValue(2, "v2")


class TestRecording:
    def test_record_marks_server_responded(self, table):
        assert table.record_ack(ack("s1", V1))
        assert table.response_count() == 1
        assert table.responders() == ["s1"]

    def test_stale_round_does_not_overwrite(self, table):
        table.record_ack(ack("s1", V2, rnd=2))
        assert not table.record_ack(ack("s1", V1, rnd=1))
        assert table.view("s1").pw == V2

    def test_newer_round_overwrites(self, table):
        table.record_ack(ack("s1", V1, rnd=1))
        assert table.record_ack(ack("s1", V2, rnd=2))
        assert table.view("s1").pw == V2

    def test_unknown_server_is_ignored(self, table):
        assert not table.record_ack(ack("s99", V1))

    def test_reset_clears_everything(self, table):
        table.record_ack(ack("s1", V1))
        table.reset()
        assert table.response_count() == 0
        assert table.view("s1").pw == INITIAL_PAIR


class TestSafe:
    def test_safe_needs_b_plus_one_live_reports(self, table):
        table.record_ack(ack("s1", V1))
        assert not table.safe(V1)
        table.record_ack(ack("s2", V1))
        assert table.safe(V1)

    def test_value_in_w_field_counts_as_live(self, table):
        table.record_ack(ack("s1", pw=V2, w=V1))
        table.record_ack(ack("s2", pw=V2, w=V1))
        assert table.safe(V1)
        assert table.safe(V2)

    def test_safe_frozen_requires_matching_read_ts(self, table):
        frozen = FrozenEntry(V1, read_ts=5)
        table.record_ack(ack("s1", INITIAL_PAIR, frozen=frozen))
        table.record_ack(ack("s2", INITIAL_PAIR, frozen=frozen))
        assert table.safe_frozen(V1, read_ts=5)
        assert not table.safe_frozen(V1, read_ts=6)


class TestFast:
    def test_fastpw_needs_2b_t_1_matches(self, table):
        for index in range(1, 5):
            table.record_ack(ack(f"s{index}", V1))
        assert not table.fast_pw(V1)
        table.record_ack(ack("s5", V1))
        assert table.fast_pw(V1)
        assert table.fast(V1)

    def test_fastvw_needs_b_plus_one_matches(self, table):
        table.record_ack(ack("s1", V1, vw=V1))
        assert not table.fast_vw(V1)
        table.record_ack(ack("s2", V1, vw=V1))
        assert table.fast_vw(V1)
        assert table.fast(V1)

    def test_counts_are_exposed(self, table):
        table.record_ack(ack("s1", V1, vw=V1))
        table.record_ack(ack("s2", V2, w=V1))
        assert table.count_w(V1) == 2


class TestInvalid:
    def test_invalidw_requires_s_minus_t_older_reports(self, table):
        # 4 servers report only the old value -> V2 cannot be relied upon.
        for index in range(1, 4):
            table.record_ack(ack(f"s{index}", V1))
        assert not table.invalid_w(V2)
        table.record_ack(ack("s4", V1))
        assert table.invalid_w(V2)

    def test_invalidpw_requires_s_minus_b_minus_t_older_pw(self, table):
        for index in range(1, 3):
            table.record_ack(ack(f"s{index}", V1))
        assert not table.invalid_pw(V2)
        table.record_ack(ack("s3", V1))
        assert table.invalid_pw(V2)

    def test_conflicting_value_with_same_timestamp_counts_as_invalidating(self, table):
        conflicting = TimestampValue(2, "other")
        for index in range(1, 5):
            table.record_ack(ack(f"s{index}", conflicting))
        assert table.invalid_w(V2)

    def test_server_holding_the_value_does_not_invalidate_it(self, table):
        for index in range(1, 7):
            table.record_ack(ack(f"s{index}", V2))
        assert not table.invalid_w(V2)
        assert not table.invalid_pw(V2)


class TestHighCandAndSelection:
    def test_high_cand_holds_when_no_higher_candidate(self, table):
        table.record_ack(ack("s1", V1))
        table.record_ack(ack("s2", V1))
        assert table.high_cand(V1)

    def test_high_cand_fails_when_higher_candidate_not_invalidated(self, table):
        # s1 reports V2: it is a (possibly genuine) higher candidate and only
        # three servers responded, too few to invalidate it.
        table.record_ack(ack("s1", V2))
        table.record_ack(ack("s2", V1))
        table.record_ack(ack("s3", V1))
        assert not table.high_cand(V1)

    def test_high_cand_holds_once_higher_candidate_is_invalidated(self, table):
        table.record_ack(ack("s1", V2))
        for index in range(2, 6):
            table.record_ack(ack(f"s{index}", V1))
        # V2 appears on one server only; the other four responded with an older
        # pw/w, which meets both invalidation thresholds.
        assert table.invalid_w(V2) and table.invalid_pw(V2)
        assert table.high_cand(V1)

    def test_select_returns_highest_safe_candidate(self, table):
        for index in range(1, 6):
            table.record_ack(ack(f"s{index}", V2))
        table.record_ack(ack("s6", V1))
        assert table.select(read_ts=1) == V2

    def test_select_returns_none_when_nothing_safe(self, table):
        table.record_ack(ack("s1", V1))
        assert table.select(read_ts=1) is None

    def test_frozen_candidate_is_selectable_without_high_cand(self, table):
        frozen = FrozenEntry(V1, read_ts=3)
        # A forged higher value on one server cannot block a frozen candidate.
        table.record_ack(ack("s1", TimestampValue(99, "forged")))
        table.record_ack(ack("s2", INITIAL_PAIR, frozen=frozen))
        table.record_ack(ack("s3", INITIAL_PAIR, frozen=frozen))
        table.record_ack(ack("s4", INITIAL_PAIR))
        assert V1 in table.selectable(read_ts=3)


class TestLiteralDomainMode:
    def test_unresponsive_servers_count_in_literal_mode(self):
        table = ViewTable(make_config(), count_unresponsive=True)
        table.record_ack(ack("s1", V2))
        # In literal mode the five silent servers hold <ts0, bottom> which is
        # older than V2, so the invalidation thresholds are met immediately.
        assert table.invalid_w(V2)
        table_strict = ViewTable(make_config(), count_unresponsive=False)
        table_strict.record_ack(ack("s1", V2))
        assert not table_strict.invalid_w(V2)
