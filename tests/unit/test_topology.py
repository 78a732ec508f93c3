"""Unit tests for the topology layer (zones, links, scenario mutators).

Covers the :class:`~repro.sim.topology.Topology` API itself, the
time-windowed :class:`~repro.sim.failures.NetworkSchedule`, the
delay-model adapter's byte-compatibility with the flat layer it replaced,
and (at the bottom) a hypothesis sweep asserting that on *random*
topologies atomicity always holds and the SWMR fast path survives
whenever every round trip fits the client's topology-derived timer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import SimCluster
from repro.sim.failures import GrayWindow, NetworkSchedule, PartitionWindow
from repro.sim.latency import (
    FixedDelay,
    LogNormalDelay,
    PerLinkDelay,
    SlowProcessDelay,
    UniformDelay,
)
from repro.sim.topology import PROFILE_NAMES, DelayModelTopology, LinkMetrics, Topology
from repro.store.sim import ShardedSimStore


@pytest.fixture
def rng():
    return random.Random(7)


class TestLinkMetrics:
    def test_delay_includes_jitter_and_transfer(self, rng):
        link = LinkMetrics(latency=2.0, jitter=1.0, bandwidth=100.0)
        for _ in range(50):
            delay = link.delay(rng, size=200)
            assert 2.0 + 2.0 <= delay <= 2.0 + 1.0 + 2.0  # latency + transfer(+jitter)

    def test_bound_excludes_transfer_time(self):
        link = LinkMetrics(latency=2.0, jitter=1.0, bandwidth=100.0)
        assert link.bound() == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            LinkMetrics(latency=-1.0)
        with pytest.raises(ValueError, match="bandwidth"):
            LinkMetrics(bandwidth=0.0)


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

    def test_link_resolution_intra_inter_and_explicit(self):
        topology = self._topology()
        assert topology.link("s1", "w").latency == 1.0
        assert topology.link("s1", "s2").latency == 10.0
        topology.set_link("a", "b", LinkMetrics(latency=3.0))
        # Explicit links are symmetric regardless of insertion order.
        assert topology.link("s1", "s2").latency == 3.0
        assert topology.link("s2", "s1").latency == 3.0

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


class TestScenarioMutators:
    def _topology(self):
        return Topology(zones={"a": ["s1", "w"], "b": ["s2"]})

    def test_split_severs_and_heal_restores(self, rng):
        topology = self._topology()
        topology.split(["a"], ["b"])
        assert topology.delay("s1", "s2", 0.0, rng) is None
        assert topology.partition_drops == 1
        # Intra-zone traffic is untouched by the cut.
        assert topology.delay("s1", "w", 0.0, rng) is not None
        topology.heal()
        assert topology.delay("s1", "s2", 0.0, rng) is not None

    def test_isolate_cuts_zone_from_everyone(self, rng):
        topology = self._topology()
        topology.isolate("b")
        assert topology.is_severed("s2", "s1", 0.0)
        assert topology.is_severed("w", "s2", 0.0)

    def test_zone_on_both_sides_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            self._topology().split(["a"], ["a", "b"])

    def test_gray_adds_delay_on_both_directions(self, rng):
        topology = self._topology()
        healthy = topology.delay("s1", "w", 0.0, rng)
        topology.set_gray("s2", 9.0)
        assert topology.delay("s1", "s2", 0.0, rng) == pytest.approx(healthy + 9.0)
        assert topology.delay("s2", "s1", 0.0, rng) == pytest.approx(healthy + 9.0)
        topology.clear_gray("s2")
        assert topology.delay("s1", "s2", 0.0, rng) == pytest.approx(healthy)

    def test_gray_and_skew_validation(self):
        topology = self._topology()
        with pytest.raises(ValueError, match="non-negative"):
            topology.set_gray("s1", -1.0)
        with pytest.raises(ValueError, match="positive"):
            topology.set_skew("w", 0.0)

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
        timer, fallback = topology.suggested_timer_for("w", servers)
        assert not fallback
        # w sits in dc1 with s1: its worst round trip crosses a WAN link
        # both ways (2 * (20 + 2) = 44) plus the margin.
        assert timer == pytest.approx(44.5)
        # A process whose peers are all zone-local arms a far shorter timer.
        local, _ = topology.suggested_timer_for("s1", ["w"])
        assert local == pytest.approx(2.2 + 0.5)

    def test_lease_duration_dominates_holder_round_trip(self):
        topology = Topology.profile("wan-3dc", server_ids=["s1", "s2", "s3"])
        duration = topology.suggested_lease_duration("s1", ["s2", "s3"])
        assert duration == pytest.approx(44.0 * 10.0)

    def test_unbounded_links_fall_back_with_flag(self):
        topology = Topology.from_delay_model(LogNormalDelay(median=1.0))
        timer, fallback = topology.suggested_timer_for("w", ["s1"])
        assert fallback
        assert timer == topology.unbounded_fallback

    def test_slow_process_model_keeps_the_base_timer_but_flags_fallback(self):
        # SlowProcessDelay deliberately suggests the *base* network's timer
        # (the slow links are meant to be unlucky); the flag still reports
        # that no global bound backs it.
        topology = Topology.from_delay_model(SlowProcessDelay(FixedDelay(1.0), {"s9"}))
        timer, fallback = topology.suggested_timer_for("w", ["s1"])
        assert fallback
        assert timer == FixedDelay(1.0).suggested_timer()


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

    def test_scheduled_partition_drives_topology(self, rng):
        schedule = NetworkSchedule().partition(["a"], ["b"], start=5.0, end=10.0)
        topology = Topology(zones={"a": ["s1"], "b": ["s2"]}, schedule=schedule)
        assert topology.delay("s1", "s2", 0.0, rng) is not None
        assert topology.delay("s1", "s2", 7.0, rng) is None
        assert topology.delay("s1", "s2", 12.0, rng) is not None


class TestDelayModelAdapter:
    def test_samples_match_the_wrapped_model(self):
        model = UniformDelay(low=1.0, high=3.0)
        adapter = Topology.from_delay_model(model)
        assert isinstance(adapter, DelayModelTopology)
        assert adapter.delay("a", "b", 0.0, random.Random(3)) == model.sample(
            "a", "b", 0.0, random.Random(3)
        )

    def test_timer_matches_the_pre_topology_suggestion(self):
        model = FixedDelay(2.0)
        adapter = Topology.from_delay_model(model)
        timer, fallback = adapter.suggested_timer_for("w", ["s1", "s2"])
        assert timer == model.suggested_timer()
        assert not fallback

    def test_mutators_still_compose_on_top(self, rng):
        adapter = Topology.from_delay_model(FixedDelay(1.0))
        adapter.assign("s1", "a")
        adapter.assign("s2", "b")
        adapter.split(["a"], ["b"])
        assert adapter.delay("s1", "s2", 0.0, rng) is None
        assert adapter.delay("s2", "s2", 0.0, rng) == 1.0

    def test_cluster_rejects_topology_and_model_together(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
        with pytest.raises(ValueError, match="not both"):
            SimCluster(
                LuckyAtomicProtocol(config),
                delay_model=FixedDelay(1.0),
                topology=Topology(),
            )


class TestPerLinkBound:
    """On models whose links genuinely differ, bound(source, destination)
    tells the truth per link."""

    def test_per_link_delay_bound_is_per_destination(self):
        model = PerLinkDelay(
            base=FixedDelay(1.0), overrides={("w", "s3"): FixedDelay(9.0)}
        )
        assert model.bound("w", "s1") == 1.0
        assert model.bound("w", "s3") == 9.0

    def test_slow_process_bound_is_slow_not_asynchronous(self):
        model = SlowProcessDelay(FixedDelay(1.0), {"s3"}, extra_delay=5.0)
        assert model.bound("w", "s1") == 1.0
        assert model.bound("w", "s3") == 6.0


class TestFallbackTimerWarning:
    """Satellite: the unbounded-model fallback timer is configurable and the
    hosting cluster warns exactly once when it is actually used."""

    def _cluster(self, model):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
        return SimCluster(LuckyAtomicProtocol(config), delay_model=model)

    def test_warns_once_and_uses_configured_fallback(self):
        model = LogNormalDelay(median=1.0, unbounded_fallback=17.0)
        with pytest.warns(RuntimeWarning, match="no synchronous bound"):
            cluster = self._cluster(model)
        writer = cluster.processes[cluster.config.writer_id]
        assert writer.timer_delay == 17.0
        assert cluster._warned_timer_fallback

    def test_bounded_model_never_warns(self, recwarn):
        self._cluster(FixedDelay(1.0))
        assert not [w for w in recwarn.list if w.category is RuntimeWarning]


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
        topology.isolate(victims[0])
    store.write("k", "a")
    read = store.read("k", "r1")
    assert read.value == "a"
    assert store.verify_atomic()
