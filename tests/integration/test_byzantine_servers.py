"""Integration tests: the core algorithm under Byzantine servers.

Up to ``b`` servers may behave arbitrarily — forging values, replaying stale
state, equivocating, or staying silent.  The storage must remain atomic and,
when the failures stay within the fast-path thresholds, fast.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.byzantine import (
    EquivocationStrategy,
    ForgeHighTimestampStrategy,
    ForgedStateStrategy,
    MuteStrategy,
    StaleReplayStrategy,
    TwoFacedStrategy,
)
from repro.sim.cluster import SimCluster
from repro.core.types import TimestampValue, is_bottom
from repro.verify.atomicity import check_atomicity
from repro.workload.generator import contended_workload, run_workload


def build(config, byzantine, **kwargs):
    return SimCluster(LuckyAtomicProtocol(config), byzantine=byzantine, **kwargs)


STRATEGIES = [
    ForgeHighTimestampStrategy(),
    StaleReplayStrategy(),
    EquivocationStrategy(),
    MuteStrategy(),
    ForgedStateStrategy(forged_pair=TimestampValue(10**6, "PHANTOM"), include_w=True),
    TwoFacedStrategy(honest_towards={"w"}, lie=StaleReplayStrategy()),
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
class TestSingleByzantineServer:
    def test_reads_never_return_forged_or_stale_values(self, strategy):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        cluster = build(config, {"s1": strategy})
        for index in range(4):
            cluster.write(f"genuine-{index}")
            cluster.run_for(5.0)
            read = cluster.read(config.reader_ids()[index % 2])
            assert read.value == f"genuine-{index}"
            cluster.run_for(5.0)
        check_atomicity(cluster.history()).raise_if_violated()

    def test_contended_workload_stays_atomic(self, strategy):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        cluster = build(config, {"s1": strategy})
        run_workload(cluster, contended_workload(5, config.reader_ids(), write_gap=10.0))
        check_atomicity(cluster.history()).raise_if_violated()

    def test_lucky_operations_stay_fast_despite_byzantine_server(self, strategy):
        # With fw = 1 = b the malicious server may be the one "failure" the
        # fast paths have to absorb.
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        cluster = build(config, {"s1": strategy})
        write = cluster.write("value")
        assert write.fast
        cluster.run_for(5.0)
        read = cluster.read("r1")
        assert read.value == "value"
        check_atomicity(cluster.history()).raise_if_violated()


class TestTwoByzantineServers:
    def test_b_equals_two_configuration_survives_collusion(self):
        config = SystemConfig(t=2, b=2, fw=0, fr=0, num_readers=2)
        byzantine = {
            "s1": ForgeHighTimestampStrategy(),
            "s2": ForgeHighTimestampStrategy(),
        }
        cluster = build(config, byzantine)
        cluster.write("real")
        cluster.run_for(5.0)
        read = cluster.read("r1")
        assert read.value == "real"
        check_atomicity(cluster.history()).raise_if_violated()

    def test_colluding_forgers_cannot_fool_fresh_reader(self):
        config = SystemConfig(t=2, b=2, fw=0, fr=0, num_readers=1)
        phantom = TimestampValue(5, "PHANTOM")
        byzantine = {
            "s1": ForgedStateStrategy(forged_pair=phantom, include_w=True, include_vw=True),
            "s2": ForgedStateStrategy(forged_pair=phantom, include_w=True, include_vw=True),
        }
        cluster = build(config, byzantine)
        read = cluster.read("r1")
        # b = 2 colluders are one short of the b + 1 = 3 confirmations needed.
        assert is_bottom(read.value)
        check_atomicity(cluster.history()).raise_if_violated()


class TestByzantinePlusCrash:
    def test_mixed_fault_budget_is_tolerated(self):
        # t = 3, b = 1: one forger plus two crashed servers (3 faults total).
        config = SystemConfig(t=3, b=1, fw=1, fr=1, num_readers=2)
        cluster = build(config, {"s1": ForgeHighTimestampStrategy()})
        cluster.crash(config.server_ids()[-1])
        cluster.crash(config.server_ids()[-2])
        for index in range(3):
            cluster.write(f"v{index}")
            cluster.run_for(5.0)
            read = cluster.read("r1")
            assert read.value == f"v{index}"
            cluster.run_for(5.0)
        check_atomicity(cluster.history()).raise_if_violated()

    def test_byzantine_plus_crash_beyond_fast_thresholds_degrades_gracefully(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        cluster = build(config, {"s1": MuteStrategy()})
        cluster.crash(config.server_ids()[-1])
        write = cluster.write("value")
        assert not write.fast  # two failures > fw = 1
        read = cluster.read("r1")
        assert read.value == "value"
        check_atomicity(cluster.history()).raise_if_violated()
