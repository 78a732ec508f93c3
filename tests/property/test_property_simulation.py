"""Property-based end-to-end tests: random workloads, delays and failures.

Whatever the (admissible) fault pattern, delay distribution, workload and
round-1 timer policy, the core algorithm and its variants must produce atomic
(resp. regular) histories, and every operation must terminate.  Contention-free
operations under at most ``fw`` / ``fr`` failures must be fast whether the
round-1 timer is a wait (the paper) or a deadline (the default).
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig, frontier_threshold_pairs
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.byzantine import (
    EquivocationStrategy,
    ForgeHighTimestampStrategy,
    MuteStrategy,
    StaleReplayStrategy,
)
from repro.sim.cluster import SimCluster
from repro.sim.failures import FailureSchedule
from repro.sim.topology import LinkMetrics, Topology
from repro.store.sim import ShardedSimStore
from repro.variants.regular import RegularStorageProtocol
from repro.variants.two_round import TwoRoundWriteProtocol
from repro.verify.atomicity import check_atomicity
from repro.verify.regularity import check_regularity
from repro.workload.generator import (
    ScheduledOperation,
    Workload,
    contended_workload,
    keyspace_workload,
    lucky_workload,
    owned_writers_workload,
    poisson_workload,
    run_workload,
)

STRATEGY_FACTORIES = [
    MuteStrategy,
    ForgeHighTimestampStrategy,
    StaleReplayStrategy,
    EquivocationStrategy,
]

#: Paper-faithful wait and the default deadline: every schedule property holds
#: under both (TimerPolicy.NONE is the always-slow baseline's, see E10).
policies = st.sampled_from([TimerPolicy.WAIT, TimerPolicy.DEADLINE])


def jittery():
    """Every link takes a uniform delay in [0.5, 1.5] (bound 1.5)."""
    return Topology(intra=LinkMetrics(latency=0.5, jitter=1.0))


@st.composite
def fault_scenarios(draw):
    t = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.integers(min_value=0, max_value=min(t, 2)))
    config = SystemConfig.balanced(t, b, num_readers=2)
    server_ids = config.server_ids()
    num_byzantine = draw(st.integers(min_value=0, max_value=b))
    byzantine = {
        server_ids[index]: draw(st.sampled_from(STRATEGY_FACTORIES))()
        for index in range(num_byzantine)
    }
    num_crashes = draw(st.integers(min_value=0, max_value=t - num_byzantine))
    crashed = server_ids[len(server_ids) - num_crashes :] if num_crashes else []
    crash_time = draw(st.floats(min_value=0.0, max_value=30.0))
    failures = FailureSchedule()
    for server_id in crashed:
        failures.crash(server_id, at=crash_time)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    network = jittery() if draw(st.booleans()) else Topology()
    return config, byzantine, failures, network, seed


@given(fault_scenarios(), st.integers(min_value=1, max_value=3), policies, st.booleans())
@settings(max_examples=100, deadline=None)
def test_core_algorithm_is_atomic_under_random_faults(scenario, num_cycles, policy, leases):
    config, byzantine, failures, network, seed = scenario
    suite = LuckyAtomicProtocol(config, timer_policy=policy)
    workload = contended_workload(num_cycles, config.reader_ids(), write_gap=12.0)
    faults = dict(topology=network, failures=failures, seed=seed)
    if leases:
        # One leased key, unbatched like the single register.
        cluster = ShardedSimStore(
            suite,
            ["k"],
            byzantine={sid: type(strategy) for sid, strategy in byzantine.items()},
            batching=False,
            leases=["k"],
            lease_duration=20.0,
            **faults,
        )
        workload = Workload([replace(op, key="k") for op in workload.operations])
    else:
        cluster = SimCluster(suite, byzantine=byzantine, **faults)
    handles = run_workload(cluster, workload)
    assert all(handle.done for handle in handles)
    check_atomicity(cluster.history()).raise_if_violated()


@given(fault_scenarios(), policies)
@settings(max_examples=20, deadline=None)
def test_lucky_workloads_are_atomic_and_terminate(scenario, policy):
    config, byzantine, failures, network, seed = scenario
    cluster = SimCluster(
        LuckyAtomicProtocol(config, timer_policy=policy),
        topology=network,
        byzantine=byzantine,
        failures=failures,
        seed=seed,
    )
    handles = run_workload(cluster, lucky_workload(3, config.reader_ids(), gap=10.0))
    assert all(handle.done for handle in handles)
    check_atomicity(cluster.history()).raise_if_violated()


@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_poisson_mixes_stay_atomic(t, b, seed):
    if b > t:
        b = t
    config = SystemConfig.balanced(t, b, num_readers=2)
    cluster = SimCluster(LuckyAtomicProtocol(config), seed=seed)
    workload = poisson_workload(
        duration=60.0, write_rate=0.15, read_rate=0.3, readers=config.reader_ids(), seed=seed
    )
    handles = run_workload(cluster, workload)
    assert all(handle.done for handle in handles)
    check_atomicity(cluster.history()).raise_if_violated()


@given(fault_scenarios(), policies)
@settings(max_examples=15, deadline=None)
def test_regular_variant_is_regular_under_random_faults(scenario, policy):
    config, byzantine, failures, network, seed = scenario
    regular_config = SystemConfig.regular(config.t, config.b, num_readers=2)
    cluster = SimCluster(
        RegularStorageProtocol(regular_config, timer_policy=policy),
        topology=network,
        byzantine=byzantine,
        failures=failures,
        seed=seed,
    )
    handles = run_workload(
        cluster, contended_workload(2, regular_config.reader_ids(), write_gap=12.0)
    )
    assert all(handle.done for handle in handles)
    check_regularity(cluster.history()).raise_if_violated()


@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**16),
    policies,
)
@settings(max_examples=15, deadline=None)
def test_two_round_variant_is_atomic_under_random_faults(t, b, fr, seed, policy):
    b = min(b, t)
    fr = min(fr, t)
    suite = TwoRoundWriteProtocol(
        SystemConfig.two_round_write(t, b, fr, num_readers=2), timer_policy=policy
    )
    cluster = SimCluster(suite, seed=seed)
    handles = run_workload(
        cluster, contended_workload(2, suite.config.reader_ids(), write_gap=12.0)
    )
    assert all(handle.done for handle in handles)
    assert all(
        handle.rounds <= 2 for handle in handles if handle.kind == "write"
    )
    check_atomicity(cluster.history()).raise_if_violated()


def owner_workload(owners, foreign, num_operations, seed):
    """Each key is read and written by its owner, in that owner's own lease;
    one foreign client writes and reads every key now and then, so an owner's
    write sometimes meets a second holder."""
    rng = random.Random(seed)
    keys = sorted(owners)
    operations, now = [], 0.0
    for index in range(num_operations):
        now += rng.expovariate(1.0 / 0.7)
        key = rng.choice(keys)
        draw = rng.random()
        if draw < 0.1:
            operation = ScheduledOperation(now, "write", foreign, f"{key}:{foreign}:{index}", key)
        elif draw < 0.2:
            operation = ScheduledOperation(now, "read", foreign, key=key)
        elif draw < 0.45:
            owner = owners[key]
            operation = ScheduledOperation(now, "write", owner, f"{key}:{owner}:{index}", key)
        else:
            operation = ScheduledOperation(now, "read", owners[key], key=key)
        operations.append(operation)
    return Workload(operations)


@given(fault_scenarios(), policies, st.booleans())
@settings(max_examples=40, deadline=None)
def test_mwmr_store_is_atomic_and_conditionals_isolated(scenario, policy, leases):
    """Concurrent writers, RMWs and readers on multi-writer keys: every per-key
    history passes the checker keyed by stamped pairs, conditional isolation
    included wherever a conditional ran — with writer and read leases on and
    off.  With leases, owned keys add the case where a read-lease holder
    writes: each owner reads and writes its own key, one client writes all."""
    config, byzantine, failures, network, seed = scenario
    owners = {f"own-{reader}": reader for reader in config.reader_ids()} if leases else {}
    store = ShardedSimStore(
        LuckyAtomicProtocol(config, timer_policy=policy),
        ["k1", "k2", *owners],
        byzantine={sid: type(strategy) for sid, strategy in byzantine.items()},
        mwmr=True,
        writer_leases=leases,
        leases=leases,
        lease_duration=15.0,
        topology=network,
        failures=failures,
        seed=seed,
    )
    clients = config.client_ids()
    workload = owned_writers_workload(
        30,
        ["k1", "k2"],
        writers=clients,
        readers=clients,
        rmw_fraction=0.3,
        mean_gap=0.7,
        seed=seed,
    )
    if owners:
        owned = owner_workload(owners, config.writer_id, 30, seed)
        workload = Workload(workload.operations + owned.operations)
    handles = run_workload(store, workload)
    assert all(handle.done for handle in handles)
    assert store.verify_atomic()


@st.composite
def lucky_scenarios(draw):
    """A frontier configuration with at most ``fw`` (resp. ``fr``) failures,
    one of which may be malicious, on a synchronous network."""
    t = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.integers(min_value=0, max_value=min(t, 2)))
    fw, fr = draw(st.sampled_from(frontier_threshold_pairs(t, b)))
    config = SystemConfig(t=t, b=b, fw=fw, fr=fr, num_readers=2)
    network = jittery() if draw(st.booleans()) else Topology()
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return config, network, seed


@given(lucky_scenarios(), policies, st.data())
@settings(max_examples=60, deadline=None)
def test_lucky_writes_are_fast_despite_fw_failures(scenario, policy, data):
    config, network, seed = scenario
    failed = data.draw(st.integers(min_value=0, max_value=config.fw))
    server_ids = config.server_ids()
    byzantine = {}
    if failed and config.b and data.draw(st.booleans()):
        byzantine = {server_ids[0]: MuteStrategy()}
    crashed = server_ids[len(server_ids) - (failed - len(byzantine)) :]
    cluster = SimCluster(
        LuckyAtomicProtocol(config, timer_policy=policy),
        topology=network,
        byzantine=byzantine,
        failures=FailureSchedule.crash_at_start(crashed if failed else []),
        seed=seed,
    )
    writes = []
    for index in range(4):
        writes.append(cluster.write(f"v{index}"))
        cluster.run_for(6.0)
    assert all(write.fast and write.rounds == 1 for write in writes)
    check_atomicity(cluster.history()).raise_if_violated()


@given(lucky_scenarios(), policies, st.data())
@settings(max_examples=60, deadline=None)
def test_lucky_reads_are_fast_despite_fr_failures(scenario, policy, data):
    config, network, seed = scenario
    failed = data.draw(st.integers(min_value=0, max_value=config.fr))
    server_ids = config.server_ids()
    byzantine = {}
    if failed and config.b and data.draw(st.booleans()):
        byzantine = {server_ids[0]: StaleReplayStrategy()}
    cluster = SimCluster(
        LuckyAtomicProtocol(config, timer_policy=policy),
        topology=network,
        byzantine=byzantine,
        seed=seed,
    )
    assert cluster.write("published").fast
    cluster.run_for(6.0)
    # Theorem 4's regime: the failures strike after the WRITE returned, so the
    # READ must find its fast quorum among the survivors.
    for server_id in server_ids[len(server_ids) - (failed - len(byzantine)) :]:
        if failed:
            cluster.crash(server_id)
    reads = []
    for index in range(4):
        reads.append(cluster.read(config.reader_ids()[index % 2]))
        cluster.run_for(6.0)
    assert all(read.fast and read.rounds == 1 for read in reads)
    assert all(read.value == "published" for read in reads)
    check_atomicity(cluster.history()).raise_if_violated()


#: Longer than any operation lasts: messages sent to a crashed server are lost
#: for good (nothing retransmits), so an operation terminates only if at most
#: ``t`` servers are down over its *whole* lifetime — the paper's fault bound.
QUIET_GAP = 20.0


@st.composite
def recovery_schedules(draw):
    """One to three outages (t = 1: one server at a time, a quiet gap apart)
    whose crash and recovery instants fall anywhere among the acks a busy
    store keeps in flight."""
    schedule = FailureSchedule()
    now = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        crash_at = now + draw(st.floats(min_value=0.5, max_value=6.0))
        recover_at = crash_at + draw(st.floats(min_value=0.05, max_value=4.0))
        schedule.crash(draw(st.sampled_from(["s1", "s2", "s3"])), at=crash_at, recover_at=recover_at)
        now = recover_at + QUIET_GAP
    return schedule


@given(recovery_schedules(), st.booleans(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_recoveries_stay_atomic_under_the_receiver_side_fence(schedule, batching, seed):
    """A receiver fences only what it has seen, so a pre-crash ack can be
    counted after its sender recovered.  With ``lose_tail=0`` that is sound —
    the ack's record was in the log before the ack left — which is all the
    simulator's old sender-side fence was ever hiding."""
    config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
    store = ShardedSimStore(
        LuckyAtomicProtocol(config),
        ["k1", "k2", "k3"],
        batching=batching,
        topology=jittery(),
        failures=schedule,
        durable=True,
        seed=seed,
    )
    workload = keyspace_workload(80, store.keys, config.reader_ids(), mean_gap=1.0, seed=seed)
    handles = run_workload(store, workload)
    store.run_until_quiescent()
    assert all(handle.done for handle in handles)
    assert store.verify_atomic()
    assert sum(store.incarnation(sid) for sid in config.server_ids()) == len(
        schedule.recovery_events()
    )
