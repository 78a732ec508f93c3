"""Unit tests for the simulator's one network model, the topology.

Covers the :class:`~repro.sim.topology.Topology` API itself (zones, links,
bounds, timers), its faults — the time-windowed
:class:`~repro.sim.failures.NetworkSchedule` plus clock skew — the contract
that a delivered jittered frame costs exactly one draw from the cluster's
generator, and (at the bottom) a hypothesis sweep asserting that on *random*
topologies atomicity always holds and the SWMR fast path survives whenever
every round trip fits the client's topology-derived timer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import DROP, SimCluster
from repro.sim.failures import GrayWindow, NetworkSchedule, PartitionWindow
from repro.sim.topology import PROFILE_NAMES, LinkMetrics, Topology
from repro.store.sim import ShardedSimStore


@pytest.fixture
def rng():
    return random.Random(7)


class TestLinkMetrics:
    def test_delay_includes_jitter_and_transfer(self, rng):
        topology = Topology(intra=LinkMetrics(latency=2.0, jitter=1.0, bandwidth=100.0))
        for _ in range(50):
            delay = topology.delay("a", "b", 0.0, rng, size=200)
            assert 2.0 + 2.0 <= delay <= 2.0 + 1.0 + 2.0  # latency + transfer(+jitter)

    def test_bound_excludes_transfer_time(self):
        link = LinkMetrics(latency=2.0, jitter=1.0, bandwidth=100.0)
        assert link.bound() == 3.0

    def test_transfer_time_is_size_over_bandwidth(self, rng):
        topology = Topology(intra=LinkMetrics(latency=1.0, bandwidth=100.0))
        assert topology.delay("w", "s1", 0.0, rng, size=250) == 3.5
        assert topology.delay("w", "s1", 0.0, rng) == 1.0  # a size-less frame

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            LinkMetrics(latency=-1.0)
        with pytest.raises(ValueError, match="bandwidth"):
            LinkMetrics(bandwidth=0.0)

    def test_constant_link_delay_and_bound(self, rng):
        topology = Topology(intra=LinkMetrics(latency=2.0))
        assert topology.delay("w", "s1", 0.0, rng, size=500) == 2.0
        assert topology.bound("w", "s1") == 2.0
        assert topology.suggested_timer_for("w", ["s1", "s2"]) == 4.5

    @pytest.mark.parametrize("latency,jitter", [(0.5, 1.0), (1.0, 2.0)])
    def test_jittered_link_draws_like_a_uniform_range(self, latency, jitter):
        # The draw is latency + uniform(0, jitter): under the same seed that is
        # exactly uniform(latency, latency + jitter), the range E10's jittery
        # network always had, so seeded runs keep their histories.
        topology = Topology(intra=LinkMetrics(latency=latency, jitter=jitter))
        drawn, reference = random.Random(3), random.Random(3)
        for _ in range(100):
            assert topology.delay("w", "s1", 0.0, drawn) == reference.uniform(
                latency, latency + jitter
            )
        assert topology.bound("w", "s1") == latency + jitter


class TestZonesAndLinks:
    def _topology(self):
        return Topology(
            zones={"a": ["s1", "w"], "b": ["s2"], "c": []},
            intra=LinkMetrics(latency=1.0),
            inter=LinkMetrics(latency=10.0),
        )

    def test_zone_assignment_and_lookup(self):
        topology = self._topology()
        assert topology.zone_of("s1") == "a"
        assert topology.processes_in("a") == ["s1", "w"]
        assert "c" in topology.zone_names  # empty zones still exist
        # Unassigned processes share the first zone.
        assert topology.zone_of("ghost") == "a"
        assert Topology().zone_of("ghost") == "z0"

    def test_link_resolution_intra_inter_and_explicit(self):
        topology = self._topology()
        assert topology.link("s1", "w").latency == 1.0
        assert topology.link("s1", "s2").latency == 10.0
        topology.set_link("a", "b", LinkMetrics(latency=3.0))
        # Explicit links are symmetric regardless of insertion order.
        assert topology.link("s1", "s2").latency == 3.0
        assert topology.link("s2", "s1").latency == 3.0

    def test_zone_link_override_gives_per_destination_bounds(self):
        topology = Topology(
            zones={"near": ["w", "s1"], "far": ["s3"]},
            links={("near", "far"): LinkMetrics(latency=9.0)},
        )
        assert topology.bound("w", "s1") == 1.0
        assert topology.bound("w", "s3") == 9.0
        assert topology.suggested_timer_for("w", ["s1", "s3"]) == 18.5

    def test_profiles_round_robin_processes_over_zones(self):
        topology = Topology.profile(
            "wan-3dc", server_ids=["s1", "s2", "s3"], client_ids=["w", "r1"]
        )
        zones = [topology.zone_of(s) for s in ("s1", "s2", "s3")]
        assert zones == ["dc1", "dc2", "dc3"]  # one quorum member per DC
        assert topology.zone_of("w") == "dc1"
        assert topology.zone_of("r1") == "dc2"

    def test_every_named_profile_builds(self):
        for name in PROFILE_NAMES:
            topology = Topology.profile(name, server_ids=["s1", "s2", "s3"])
            assert topology.name == name
            assert topology.describe().startswith(name)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown topology profile"):
            Topology.profile("moonbase")


class TestNetworkFaults:
    """A fault is a schedule window; one that starts now starts at ``now``."""

    def _topology(self, schedule=None):
        return Topology(zones={"a": ["s1", "w"], "b": ["s2"]}, schedule=schedule)

    def test_partition_from_now_severs_across_the_cut_only(self, rng):
        topology = self._topology(NetworkSchedule().partition(["a"], ["b"]))
        assert topology.delay("s1", "s2", 0.0, rng) is None
        assert topology.partition_drops == 1
        # Intra-zone traffic is untouched by the cut.
        assert topology.delay("s1", "w", 0.0, rng) is not None

    def test_partition_cuts_both_directions(self, rng):
        topology = self._topology(NetworkSchedule().partition(["b"], ["a"]))
        assert topology.delay("s2", "s1", 0.0, rng) is None
        assert topology.delay("w", "s2", 0.0, rng) is None

    def test_zone_on_both_sides_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            NetworkSchedule().partition(["a"], ["a", "b"])

    def test_gray_window_adds_delay_both_ways_inside_the_window_only(self, rng):
        schedule = NetworkSchedule().gray_failure("s2", 9.0, start=5.0, end=10.0)
        topology = self._topology(schedule)
        healthy = topology.delay("s1", "w", 0.0, rng)
        for now in (5.0, 9.9):
            assert topology.delay("s1", "s2", now, rng) == healthy + 9.0
            assert topology.delay("s2", "s1", now, rng) == healthy + 9.0
        for now in (4.9, 10.0):  # [start, end) is half-open
            assert topology.delay("s1", "s2", now, rng) == healthy
        # The bound is the healthy network's: the gray server is unlucky,
        # clients keep the base timer.
        assert topology.suggested_timer_for("w", ["s1", "s2"]) == 2.5

    def test_gray_window_keeps_the_clusters_base_timer(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
        topology = Topology(schedule=NetworkSchedule().gray_failure("s3", 40.0))
        cluster = SimCluster(LuckyAtomicProtocol(config), topology=topology)
        assert cluster.writer.timer_delay == 2.5

    def test_gray_windows_of_both_endpoints_add_up(self, rng):
        schedule = NetworkSchedule().gray_failure("s1", 3.0).gray_failure("s2", 4.0)
        topology = self._topology(schedule)
        assert topology.delay("s1", "s2", 0.0, rng) == 1.0 + 3.0 + 4.0
        assert topology.delay("s1", "w", 0.0, rng) == 1.0 + 3.0

    def test_a_severed_frame_is_dropped_whatever_its_gray_extra(self, rng):
        schedule = NetworkSchedule().partition(["a"], ["b"], end=5.0).gray_failure("s2", 4.0)
        topology = self._topology(schedule)
        assert topology.delay("s1", "s2", 1.0, rng) is None
        assert topology.delay("s1", "s2", 5.0, rng) == 1.0 + 4.0  # healed, still gray

    def test_skew_validation(self):
        with pytest.raises(ValueError, match="positive"):
            self._topology().set_skew("w", 0.0)

    def test_skew_scales_timers_only(self):
        topology = self._topology()
        assert topology.timer_scale("w") == 1.0
        topology.set_skew("w", 0.5)
        assert topology.timer_scale("w") == 0.5
        # The network is untouched by clock skew.
        assert topology.bound("s1", "w") == topology.bound("s1", "s2")


class TestBoundsAndTimers:
    def test_per_process_timers_differ_by_zone(self):
        topology = Topology.profile(
            "wan-3dc", server_ids=["s1", "s2", "s3"], client_ids=["w"]
        )
        servers = ["s1", "s2", "s3"]
        # w sits in dc1 with s1: its worst round trip crosses a WAN link
        # both ways (2 * (20 + 2) = 44) plus the margin.
        assert topology.suggested_timer_for("w", servers) == pytest.approx(44.5)
        # A process whose peers are all zone-local arms a far shorter timer.
        assert topology.suggested_timer_for("s1", ["w"]) == pytest.approx(2.2 + 0.5)

    def test_every_link_has_a_bound(self):
        # No link is unbounded, so a round trip is always a number: with no
        # peers at all it is zero and the timer is the margin alone.
        topology = Topology()
        assert topology.round_trip_bound("w", []) == 0.0
        assert topology.suggested_timer_for("w", [], margin=0.5) == 0.5
        assert topology.round_trip_bound("w", ["s1", "s2"]) == 2.0

    def test_delay_model_is_every_link_with_those_metrics(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        link = LinkMetrics(latency=0.5, jitter=1.0)

        def history(**network):
            cluster = SimCluster(LuckyAtomicProtocol(config), seed=3, **network)
            for index in range(4):
                cluster.start_write(f"v{index}")
                cluster.start_read("r1")
                cluster.run_until_quiescent()
            return [
                (r.kind, r.value, r.invoked_at, r.completed_at) for r in cluster.history()
            ]

        assert history(delay_model=link) == history(topology=Topology(intra=link))

    def test_cluster_rejects_topology_and_model_together(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
        with pytest.raises(ValueError, match="not both"):
            SimCluster(
                LuckyAtomicProtocol(config),
                delay_model=LinkMetrics(latency=1.0),
                topology=Topology(),
            )


class TestNetworkSchedule:
    def test_partition_window_semantics(self):
        window = PartitionWindow(start=5.0, end=10.0, side_a=frozenset({"a"}), side_b=frozenset({"b"}))
        assert not window.severs("a", "b", 4.9)
        assert window.severs("a", "b", 5.0)
        assert window.severs("b", "a", 9.9)  # symmetric
        assert not window.severs("a", "b", 10.0)  # half-open
        assert not window.severs("a", "c", 7.0)  # uninvolved zone unaffected

    def test_gray_window_sums_per_process(self):
        schedule = (
            NetworkSchedule()
            .gray_failure("s1", 3.0, start=0.0, end=10.0)
            .gray_failure("s1", 2.0, start=5.0, end=10.0)
        )
        assert schedule.gray_extra("s1", 1.0) == 3.0
        assert schedule.gray_extra("s1", 6.0) == 5.0
        assert schedule.gray_extra("s2", 6.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="end after it starts"):
            NetworkSchedule().partition(["a"], ["b"], start=5.0, end=5.0)
        with pytest.raises(ValueError, match="both sides"):
            NetworkSchedule(
                partitions=(
                    PartitionWindow(
                        start=0.0,
                        side_a=frozenset({"a"}),
                        side_b=frozenset({"a", "b"}),
                    ),
                )
            )
        with pytest.raises(ValueError, match="non-negative"):
            NetworkSchedule().gray_failure("s1", -1.0)
        with pytest.raises(ValueError, match="end after it starts"):
            NetworkSchedule(gray=(GrayWindow("s1", 1.0, start=3.0, end=2.0),))

    def test_scheduled_partition_drives_topology(self, rng):
        schedule = NetworkSchedule().partition(["a"], ["b"], start=5.0, end=10.0)
        topology = Topology(zones={"a": ["s1"], "b": ["s2"]}, schedule=schedule)
        assert topology.delay("s1", "s2", 0.0, rng) is not None
        assert topology.delay("s1", "s2", 7.0, rng) is None
        assert topology.delay("s1", "s2", 12.0, rng) is not None


class TestDrawCountContract:
    """A delivered frame on a jittered link consumes exactly one draw from
    ``cluster.rng``; a severed frame or a zero-jitter link consumes none.
    The byte identity of every seeded table rests on this."""

    SEED = 11
    CONFIG = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

    def _write_frames(self, topology):
        """Send one write's round-1 frames (one per server); return the cluster."""
        cluster = SimCluster(LuckyAtomicProtocol(self.CONFIG), topology=topology, seed=self.SEED)
        cluster.start_write("v")  # unbatched: every frame leaves now
        assert cluster.frames_sent == self.CONFIG.num_servers
        return cluster

    def test_a_delivered_jittered_frame_draws_once(self):
        cluster = self._write_frames(Topology(intra=LinkMetrics(latency=1.0, jitter=0.5)))
        reference = random.Random(self.SEED)
        for _ in range(self.CONFIG.num_servers):
            reference.uniform(0.0, 0.5)
        assert cluster.rng.getstate() == reference.getstate()

    def test_a_severed_frame_draws_nothing(self):
        topology = Topology(
            zones={"clients": ["w", "r1"], "servers": self.CONFIG.server_ids()},
            intra=LinkMetrics(latency=1.0, jitter=0.5),
            schedule=NetworkSchedule().partition(["clients"], ["servers"]),
        )
        cluster = self._write_frames(topology)
        assert topology.partition_drops == self.CONFIG.num_servers
        assert cluster.rng.getstate() == random.Random(self.SEED).getstate()

    def test_a_zero_jitter_link_draws_nothing(self):
        cluster = self._write_frames(Topology(intra=LinkMetrics(latency=1.0)))
        assert cluster.rng.getstate() == random.Random(self.SEED).getstate()

    def test_every_frame_of_a_run_draws_once(self):
        topology = Topology(intra=LinkMetrics(latency=1.0, jitter=0.5))
        cluster = SimCluster(LuckyAtomicProtocol(self.CONFIG), topology=topology, seed=self.SEED)
        cluster.write("v")
        cluster.read("r1")
        cluster.run_until_quiescent()
        assert draws_taken(cluster.rng, self.SEED) == cluster.frames_sent

    def test_a_batch_frame_draws_once(self):
        store = ShardedSimStore(
            LuckyAtomicProtocol(self.CONFIG),
            ["k1", "k2"],
            batching=True,
            topology=Topology(intra=LinkMetrics(latency=1.0, jitter=0.5)),
            seed=self.SEED,
        )
        store.start_write("k1", "a")
        store.start_write("k2", "b")
        store.run_until_quiescent()
        assert store.messages_sent > store.frames_sent  # the writes shared frames
        assert draws_taken(store.rng, self.SEED) == store.frames_sent

    @pytest.mark.parametrize("verdict", [DROP, 1.0], ids=["dropped", "explicit-delay"])
    def test_a_message_the_filter_decides_draws_nothing(self, verdict):
        cluster = SimCluster(
            LuckyAtomicProtocol(self.CONFIG),
            topology=Topology(intra=LinkMetrics(latency=1.0, jitter=0.5)),
            message_filter=lambda source, destination, message, now: verdict,
            seed=self.SEED,
        )
        cluster.start_write("v")
        assert cluster.rng.getstate() == random.Random(self.SEED).getstate()


def draws_taken(rng, seed, limit=10_000):
    """How many draws *rng* has taken since it was seeded with *seed*."""
    reference = random.Random(seed)
    for count in range(limit):
        if reference.getstate() == rng.getstate():
            return count
        reference.random()
    raise AssertionError(f"more than {limit} draws")


# --------------------------------------------------------------------------
# Hypothesis: random topologies never break atomicity, and the fast path
# survives whenever the zone-local quorum round trip fits the timer.
# --------------------------------------------------------------------------

_latencies = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
_jitters = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def random_topologies(draw):
    zone_count = draw(st.integers(min_value=1, max_value=3))
    intra = LinkMetrics(latency=draw(_latencies), jitter=draw(_jitters))
    inter = LinkMetrics(latency=draw(_latencies), jitter=draw(_jitters))
    zones = {f"z{i}": [] for i in range(zone_count)}
    topology = Topology(zones=zones, intra=intra, inter=inter, name="random")
    names = list(zones)
    for index, pid in enumerate(["s1", "s2", "s3"]):
        topology.assign(pid, names[index % zone_count])
    for index, pid in enumerate(["w", "r1"]):
        topology.assign(pid, names[index % zone_count])
    return topology


@settings(max_examples=15, deadline=None)
@given(topology=random_topologies(), seed=st.integers(min_value=0, max_value=2**16))
def test_random_topology_atomic_and_fast(topology, seed):
    config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
    store = ShardedSimStore(
        LuckyAtomicProtocol(config), ["k"], topology=topology, seed=seed
    )
    results = []
    for round_index in range(3):
        results.append(store.write("k", f"v{round_index}"))
        results.append(store.read("k", "r1"))
    assert store.verify_atomic()
    # The auto timer covers each client's own worst round trip (jitter
    # included), so every sequential operation on the fault-free topology
    # is lucky: 1 round, regardless of how the zones were carved.
    assert all(result.fast for result in results)


@settings(max_examples=10, deadline=None)
@given(topology=random_topologies(), seed=st.integers(min_value=0, max_value=2**16))
def test_random_topology_partition_degrades_but_stays_atomic(topology, seed):
    # Sever one server-only zone (skip topologies where every zone hosts a
    # client: an op behind the cut would have no quorum path and stall).
    victims = [
        zone
        for zone in topology.zone_names
        if 0 < len(topology.processes_in(zone)) <= 1
        and all(p.startswith("s") for p in topology.processes_in(zone))
    ]
    config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
    store = ShardedSimStore(
        LuckyAtomicProtocol(config), ["k"], topology=topology, seed=seed
    )
    if victims:
        others = [zone for zone in topology.zone_names if zone != victims[0]]
        topology.schedule.partition([victims[0]], others)
    store.write("k", "a")
    read = store.read("k", "r1")
    assert read.value == "a"
    assert store.verify_atomic()
