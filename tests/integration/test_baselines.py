"""Integration tests for the baseline protocols (ABD and always-slow robust)."""

import pytest

from repro.baselines.abd import ABDProtocol
from repro.baselines.slow_robust import SlowRobustProtocol
from repro.core.config import ConfigurationError, SystemConfig
from repro.sim.byzantine import ForgeHighTimestampStrategy
from repro.sim.cluster import SimCluster
from repro.sim.failures import FailureSchedule
from repro.verify.atomicity import check_atomicity
from repro.workload.generator import contended_workload, run_workload


def build(suite, **kwargs):
    return SimCluster(suite, **kwargs)


class TestABD:
    def test_rejects_byzantine_configurations(self):
        with pytest.raises(ConfigurationError):
            ABDProtocol(SystemConfig(t=2, b=1, enforce_tradeoff=False))

    def test_writes_are_one_round_and_reads_two(self):
        config = SystemConfig.crash_only(t=2, num_readers=2)
        cluster = build(ABDProtocol(config))
        write = cluster.write("value")
        read = cluster.read("r1")
        assert write.rounds == 1
        assert read.rounds == 2
        assert read.value == "value"

    def test_tolerates_t_crashes(self):
        config = SystemConfig.crash_only(t=2, num_readers=1)
        failures = FailureSchedule.crash_servers_at_start(2, list(reversed(config.server_ids())))
        cluster = build(ABDProtocol(config), failures=failures)
        cluster.write("value")
        assert cluster.read("r1").value == "value"
        assert check_atomicity(cluster.history()).ok

    def test_contended_workload_is_atomic(self):
        config = SystemConfig.crash_only(t=2, num_readers=2)
        cluster = build(ABDProtocol(config))
        run_workload(cluster, contended_workload(5, config.reader_ids(), write_gap=6.0))
        assert check_atomicity(cluster.history()).ok

    def test_crash_after_write_preserves_read_your_writes(self):
        config = SystemConfig.crash_only(t=2, num_readers=1)
        cluster = build(ABDProtocol(config))
        cluster.write("value")
        for server_id in list(reversed(config.server_ids()))[:2]:
            cluster.crash(server_id)
        assert cluster.read("r1").value == "value"


class TestSlowRobust:
    def test_writes_always_three_rounds(self):
        config = SystemConfig(t=2, b=1, num_readers=1, enforce_tradeoff=False)
        cluster = build(SlowRobustProtocol(config))
        for index in range(3):
            assert cluster.write(f"v{index}").rounds == 3

    def test_reads_always_write_back(self):
        config = SystemConfig(t=2, b=1, num_readers=1, enforce_tradeoff=False)
        cluster = build(SlowRobustProtocol(config))
        cluster.write("value")
        read = cluster.read("r1")
        assert not read.fast
        assert read.result.metadata["writeback"] is True
        assert read.value == "value"

    def test_tolerates_byzantine_server_and_crashes(self):
        config = SystemConfig(t=2, b=1, num_readers=2, enforce_tradeoff=False)
        cluster = build(SlowRobustProtocol(config), byzantine={"s1": ForgeHighTimestampStrategy()})
        cluster.crash(config.server_ids()[-1])
        cluster.write("value")
        assert cluster.read("r1").value == "value"
        assert check_atomicity(cluster.history()).ok

    def test_slower_than_lucky_protocol_on_lucky_runs(self):
        from repro.core.protocol import LuckyAtomicProtocol

        slow_config = SystemConfig(t=2, b=1, num_readers=1, enforce_tradeoff=False)
        slow_cluster = build(SlowRobustProtocol(slow_config))
        lucky_config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        lucky_cluster = build(LuckyAtomicProtocol(lucky_config))
        slow_write = slow_cluster.write("value")
        lucky_write = lucky_cluster.write("value")
        assert slow_write.latency > lucky_write.latency
        slow_read = slow_cluster.read("r1")
        lucky_read = lucky_cluster.read("r1")
        assert slow_read.latency > lucky_read.latency
