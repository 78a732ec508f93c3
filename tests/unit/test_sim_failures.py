"""Unit tests for the crash-failure schedule."""

import math

import pytest

from repro.sim.failures import CrashWindow, FailureSchedule


class TestFailureSchedule:
    def test_none_schedule_never_crashes(self):
        schedule = FailureSchedule.none()
        assert not schedule.is_crashed("s1", 1000.0)

    def test_crash_at_start_applies_immediately(self):
        schedule = FailureSchedule.crash_at_start(["s1", "s2"])
        assert schedule.is_crashed("s1", 0.0)
        assert schedule.is_crashed("s2", 5.0)
        assert not schedule.is_crashed("s3", 5.0)

    def test_crash_servers_at_start_takes_prefix(self):
        schedule = FailureSchedule.crash_servers_at_start(2, ["s1", "s2", "s3"])
        assert schedule.is_crashed("s1", 0.0) and schedule.is_crashed("s2", 0.0)
        assert not schedule.is_crashed("s3", 0.0)

    def test_crash_servers_at_start_rejects_overflow(self):
        with pytest.raises(ValueError):
            FailureSchedule.crash_servers_at_start(4, ["s1", "s2"])

    def test_crash_respects_time(self):
        schedule = FailureSchedule().crash("s1", at=10.0)
        assert not schedule.is_crashed("s1", 9.9)
        assert schedule.is_crashed("s1", 10.0)

    def test_earliest_crash_time_wins(self):
        schedule = FailureSchedule().crash("s1", at=10.0).crash("s1", at=5.0)
        assert schedule.is_crashed("s1", 5.0)
        schedule2 = FailureSchedule().crash("s1", at=5.0).crash("s1", at=10.0)
        assert schedule2.is_crashed("s1", 5.0)
        assert schedule2.windows["s1"] == [CrashWindow(start=5.0)]

    def test_permanent_crash_after_a_recovered_outage(self):
        schedule = FailureSchedule().crash("s1", at=10.0, recover_at=20.0).crash("s1", at=30.0)
        assert schedule.is_crashed("s1", 15.0)
        assert not schedule.is_crashed("s1", 25.0)
        assert schedule.is_crashed("s1", 1e9)
        assert schedule.permanently_crashed() == {"s1"}

    def test_peak_counts_every_server_down_at_once(self):
        schedule = FailureSchedule.crash_at_start(["s1", "s2"])
        assert schedule.max_simultaneous_faulty(["s1", "s2", "s3"]) == 2
        assert schedule.max_simultaneous_faulty(["s1", "s3"]) == 1


class TestCrashWindows:
    def test_windows_bound_the_outage(self):
        schedule = FailureSchedule().crash("s1", at=10.0, recover_at=20.0)
        assert not schedule.is_crashed("s1", 9.9)
        assert schedule.is_crashed("s1", 10.0)
        assert schedule.is_crashed("s1", 19.9)
        assert not schedule.is_crashed("s1", 20.0)  # alive at the recovery instant

    def test_multiple_windows_per_process(self):
        schedule = (
            FailureSchedule()
            .crash("s1", at=30.0, recover_at=40.0)
            .crash("s1", at=10.0, recover_at=20.0)
        )
        assert schedule.is_crashed("s1", 15.0)
        assert not schedule.is_crashed("s1", 25.0)
        assert schedule.is_crashed("s1", 35.0)
        assert schedule.total_crashes(["s1"]) == 2
        assert [w.start for w in schedule.windows["s1"]] == [10.0, 30.0]

    def test_overlapping_windows_rejected(self):
        schedule = FailureSchedule().crash("s1", at=10.0, recover_at=20.0)
        with pytest.raises(ValueError):
            schedule.crash("s1", at=15.0, recover_at=25.0)
        with pytest.raises(ValueError):
            schedule.crash("s1", at=15.0)
        assert schedule.windows["s1"] == [CrashWindow(10.0, 20.0)]

    def test_recovery_must_follow_crash(self):
        with pytest.raises(ValueError):
            FailureSchedule().crash("s1", at=10.0, recover_at=10.0)

    def test_negative_lose_tail_rejected(self):
        with pytest.raises(ValueError):
            FailureSchedule().crash("s1", at=1.0, recover_at=2.0, lose_tail=-1)

    def test_permanent_crash_without_recovery(self):
        schedule = FailureSchedule().crash("s1", at=10.0)
        assert schedule.is_crashed("s1", 1e9)
        assert schedule.permanently_crashed() == {"s1"}
        assert schedule.recovery_events() == []

    def test_recovered_process_is_not_permanently_crashed(self):
        schedule = FailureSchedule().crash("s1", at=10.0, recover_at=20.0)
        assert schedule.permanently_crashed() == set()

    def test_recovery_events_sorted_with_lose_tail(self):
        schedule = (
            FailureSchedule()
            .crash("s2", at=30.0, recover_at=40.0, lose_tail=2)
            .crash("s1", at=10.0, recover_at=20.0)
        )
        events = schedule.recovery_events()
        assert [(pid, w.recover_at, w.lose_tail) for pid, w in events] == [
            ("s1", 20.0, 0),
            ("s2", 40.0, 2),
        ]

    def test_mark_recovered_closes_the_covering_window(self):
        schedule = FailureSchedule().crash("s1", at=10.0)
        schedule.mark_recovered("s1", 15.0)
        assert schedule.windows["s1"] == [CrashWindow(10.0, 15.0)]
        schedule.mark_recovered("s1", 30.0)  # already up: nothing to close
        assert schedule.windows["s1"] == [CrashWindow(10.0, 15.0)]
        schedule.crash("s1", at=20.0)
        schedule.mark_recovered("s1", 20.0)  # at the crash instant: never down
        assert schedule.windows["s1"] == [CrashWindow(10.0, 15.0)]
        assert not schedule.is_crashed("s1", math.inf)

    def test_peak_bounds_simultaneous_not_total(self):
        servers = ["s1", "s2", "s3"]
        schedule = (
            FailureSchedule()
            .crash("s1", at=10.0, recover_at=20.0)
            .crash("s2", at=30.0, recover_at=40.0)
            .crash("s3", at=50.0, recover_at=60.0)
        )
        assert schedule.total_crashes(servers) == 3
        assert schedule.max_simultaneous_faulty(servers) == 1

    def test_peak_counts_overlapping_outages(self):
        schedule = (
            FailureSchedule()
            .crash("s1", at=10.0, recover_at=20.0)
            .crash("s2", at=15.0, recover_at=25.0)
        )
        assert schedule.max_simultaneous_faulty(["s1", "s2", "s3"]) == 2

    def test_byzantine_servers_count_as_always_faulty(self):
        schedule = FailureSchedule().crash("s1", at=10.0, recover_at=20.0)
        peak = schedule.max_simultaneous_faulty(["s1", "s2", "s3"], always_faulty={"s2"})
        assert peak == 2
