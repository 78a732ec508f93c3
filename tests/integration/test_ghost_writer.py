"""Integration tests for Appendix E: contending with the ghost writer.

When the writer crashes during an incomplete WRITE, subsequent READs are
formally under contention forever (the WRITE never completes), so none of them
is "lucky".  Theorem 13 still bounds the damage: at most three synchronous
READs per reader are slow, after which performance is restored.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.messages import PreWrite, Write
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import DROP, SimCluster
from repro.verify.atomicity import check_atomicity


def ghost_cluster(config, reach, crash_phase="pw"):
    """A cluster where the writer crashes mid-WRITE.

    ``reach`` is the number of servers the ghost WRITE's PW message reaches;
    ``crash_phase`` selects whether the writer dies during the PW phase or
    after entering the W phase.
    """
    reached = set(config.server_ids()[:reach])
    state = {"filtering": False}

    def pw_filter(source, destination, message, now):
        if not state["filtering"]:
            return None
        if source == config.writer_id and isinstance(message, (PreWrite, Write)):
            if destination not in reached:
                return DROP
        return None

    cluster = SimCluster(LuckyAtomicProtocol(config), message_filter=pw_filter)
    cluster.write("committed")
    cluster.run_for(5.0)
    state["filtering"] = True
    cluster.start_write("ghost")
    if crash_phase == "pw":
        cluster.run_for(0.5)
    else:
        cluster.run_for(4.0)  # deep enough to have entered the W phase if slow
    cluster.crash(config.writer_id)
    state["filtering"] = False
    cluster.run_for(10.0)
    return cluster


class TestGhostWriter:
    @pytest.mark.parametrize("reach", [0, 2, 3, 6])
    def test_at_most_three_slow_reads_per_reader(self, reach):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        cluster = ghost_cluster(config, reach=reach)
        reads = []
        for _ in range(8):
            reads.append(cluster.read("r1"))
            cluster.run_for(5.0)
        slow = [handle for handle in reads if not handle.fast]
        assert len(slow) <= 3
        check_atomicity(cluster.history()).raise_if_violated()

    @pytest.mark.parametrize("reach", [0, 2, 6])
    def test_reads_settle_back_to_fast(self, reach):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        cluster = ghost_cluster(config, reach=reach)
        reads = []
        for _ in range(8):
            reads.append(cluster.read("r1"))
            cluster.run_for(5.0)
        # Once a slow read has written its value back, later reads are fast.
        assert all(handle.fast for handle in reads[-3:])

    def test_ghost_value_is_returned_consistently_across_readers(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        cluster = ghost_cluster(config, reach=4)
        first = cluster.read("r1")
        cluster.run_for(5.0)
        second = cluster.read("r2")
        # Whichever value the first reader settles on (the committed one or the
        # ghost one), the second reader must not go back in time.
        values = ("committed", "ghost")
        assert first.value in values and second.value in values
        if first.value == "ghost":
            assert second.value == "ghost"
        check_atomicity(cluster.history()).raise_if_violated()

    def test_writer_crash_during_w_phase(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        # Make the ghost write slow (reaches only 4 < S - fw = 5 servers) so it
        # enters the W phase before the crash.
        cluster = ghost_cluster(config, reach=4, crash_phase="w")
        reads = []
        for _ in range(6):
            reads.append(cluster.read("r1"))
            cluster.run_for(5.0)
        assert sum(1 for handle in reads if not handle.fast) <= 3
        check_atomicity(cluster.history()).raise_if_violated()

    def test_no_reads_needed_when_ghost_write_reached_everyone(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        cluster = ghost_cluster(config, reach=6)
        first = cluster.read("r1")
        assert first.value == "ghost"
        assert first.fast
