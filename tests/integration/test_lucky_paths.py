"""Integration tests for the core theorems: fast lucky writes and reads.

These tests exercise the whole stack (automata + simulator) and assert the
round counts the paper proves: Theorem 3 (fast writes despite fw failures) and
Theorem 4 (fast reads despite fr failures), plus the sharpness of the
``fw + fr = t - b`` frontier.
"""

import pytest

from repro.core.config import SystemConfig, frontier_threshold_pairs
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import DROP, SimCluster
from repro.sim.failures import FailureSchedule, NetworkSchedule
from repro.sim.topology import Topology
from repro.verify.atomicity import check_atomicity


def build(config, **kwargs):
    return SimCluster(LuckyAtomicProtocol(config), **kwargs)


class TestFastWrites:
    @pytest.mark.parametrize("t,b", [(1, 0), (2, 1), (3, 1), (2, 2)])
    def test_lucky_write_is_one_round_without_failures(self, t, b):
        config = SystemConfig.balanced(t, b, num_readers=1)
        cluster = build(config)
        handle = cluster.write("value")
        assert handle.fast and handle.rounds == 1
        assert check_atomicity(cluster.history()).ok

    @pytest.mark.parametrize("failures", [0, 1])
    def test_lucky_write_fast_with_up_to_fw_crashes(self, failures):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        failures_schedule = FailureSchedule.crash_servers_at_start(
            failures, list(reversed(config.server_ids()))
        )
        cluster = build(config, failures=failures_schedule)
        assert cluster.write("value").fast

    def test_write_slow_beyond_fw_failures(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        failures_schedule = FailureSchedule.crash_servers_at_start(
            2, list(reversed(config.server_ids()))
        )
        cluster = build(config, failures=failures_schedule)
        handle = cluster.write("value")
        assert not handle.fast
        assert handle.rounds == 3
        assert check_atomicity(cluster.history()).ok

    def test_unlucky_write_on_asynchronous_network_is_slow_but_correct(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        slow = NetworkSchedule().gray_failure("s5", 50.0).gray_failure("s6", 50.0)
        cluster = build(config, topology=Topology(schedule=slow))
        handle = cluster.write("value")
        assert not handle.fast
        assert handle.rounds == 3
        read = cluster.read("r1")
        assert read.value == "value"
        assert check_atomicity(cluster.history()).ok

    def test_every_write_in_a_burst_is_fast(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        cluster = build(config)
        for index in range(10):
            assert cluster.write(f"v{index}").fast


class TestFastReads:
    def test_lucky_read_after_fast_write_is_one_round(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=1, num_readers=2)
        cluster = build(config)
        cluster.write("value")
        handle = cluster.read("r1")
        assert handle.fast and handle.rounds == 1
        assert handle.value == "value"

    def test_lucky_read_after_slow_write_is_one_round(self):
        # Make the write slow by crashing more than fw servers up front; the
        # read must still be fast because the slow write reached S - t vw's.
        config = SystemConfig(t=2, b=1, fw=0, fr=1, num_readers=2)
        failures_schedule = FailureSchedule.crash_servers_at_start(
            1, list(reversed(config.server_ids()))
        )
        cluster = build(config, failures=failures_schedule)
        write = cluster.write("value")
        assert not write.fast
        read = cluster.read("r1")
        assert read.fast and read.value == "value"

    def test_initial_read_returns_bottom_fast(self):
        from repro.core.types import is_bottom

        config = SystemConfig(t=2, b=1, fw=0, fr=1, num_readers=1)
        cluster = build(config)
        handle = cluster.read("r1")
        assert handle.fast
        assert is_bottom(handle.value)

    def test_read_slow_beyond_fr_failures_but_still_correct(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        # The fast write misses the last server (slow link), then one of the
        # servers holding the value crashes: 4 < fastpw quorum 5 remain.
        def drop_to_s6(source, destination, message, now):
            if source == "w" and destination == "s6":
                return DROP
            return None

        cluster = build(config, message_filter=drop_to_s6)
        write = cluster.write("value")
        assert write.fast
        cluster.crash("s1")
        read = cluster.read("r1")
        assert not read.fast
        assert read.value == "value"
        assert check_atomicity(cluster.history()).ok

    def test_reads_by_different_readers_are_all_fast(self):
        config = SystemConfig(t=3, b=1, fw=1, fr=1, num_readers=3)
        cluster = build(config)
        cluster.write("value")
        for reader_id in config.reader_ids():
            handle = cluster.read(reader_id)
            assert handle.fast and handle.value == "value"


class TestFrontierSharpness:
    @pytest.mark.parametrize("t,b", [(2, 0), (3, 1)])
    def test_write_fast_exactly_up_to_fw(self, t, b):
        for fw, fr in frontier_threshold_pairs(t, b):
            config = SystemConfig(t=t, b=b, fw=fw, fr=fr, num_readers=1)
            for failures in range(t + 1):
                schedule = FailureSchedule.crash_servers_at_start(
                    failures, list(reversed(config.server_ids()))
                )
                cluster = build(config, failures=schedule)
                handle = cluster.write("value")
                assert handle.fast == (failures <= fw), (
                    f"fw={fw} failures={failures}: expected fast={failures <= fw}"
                )

    def test_latency_gap_between_fast_and_slow_paths(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        fast_cluster = build(config)
        fast_write = fast_cluster.write("value")
        slow_cluster = build(
            config,
            failures=FailureSchedule.crash_servers_at_start(
                2, list(reversed(config.server_ids()))
            ),
        )
        slow_write = slow_cluster.write("value")
        # A slow write pays two extra round-trips on top of the fast path.
        assert slow_write.latency >= fast_write.latency + 3.0
