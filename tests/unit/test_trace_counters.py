"""The simulator's message counters, pinned on seeded faulty runs.

Each run exercises different drop paths (a crashed destination, a severed
partition, an outbox lost to a crash before its flush or drained by a
recovery, a filter drop and a stale-epoch fence), and its delivered total,
per-kind counts and drops per reason are literals: a path that forgets to
count, or counts twice, moves one.  The literals are those the per-message
log of earlier versions gave.  Replies
to a process the cluster does not host count as ``unknown``, and the counters
grow with the links a run uses, not with its length.
"""

from collections import Counter

import pytest

from repro.bench.sweeps import dense_run, run, topology_run, zipf_run
from repro.core.automaton import Effects
from repro.core.config import SystemConfig
from repro.core.messages import Read
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import DROP, SimCluster
from repro.sim.failures import FailureSchedule
from repro.sim.latency import FixedDelay
from repro.store.sim import ShardedSimStore


def _zipf_with_a_crashed_server():
    failures = FailureSchedule.crash_at_start(["s6"])
    return run(zipf_run(byzantine=True, failures=failures)).cluster


def _partition():
    return run(topology_run("wan-3dc", "partition")).cluster


def _rolling_recoveries():
    failures = (
        FailureSchedule()
        .crash("s1", at=5.0, recover_at=12.0, lose_tail=2)
        .crash("s2", at=20.0, recover_at=26.0)
    )
    return run(dense_run(3, 48, 1, durable=True, failures=failures)).cluster


def _filtered_and_stale():
    def crawl(source, destination, message, now):
        if source == "s1" and now < 1.5:
            return 19.0  # s1's pre-crash acks land after its recovery
        if (source, destination) == ("s3", "r1"):
            return DROP
        return None

    cluster = SimCluster(
        LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0)),
        delay_model=FixedDelay(1.0),
        failures=FailureSchedule().crash("s1", at=1.5, recover_at=1.8, lose_tail=10),
        durable=True,
        message_filter=crawl,
    )
    cluster.write("v1")
    cluster.write("v2")
    cluster.read("r1")
    cluster.run_until_quiescent()
    return cluster


def _outboxes_lost_in_crashes():
    """s1 crashes with an ack buffered for its next flush, and s2 crashes and
    recovers at once, so the dead incarnation's outbox is drained unsent."""
    senders = []

    def probe(source, destination, message, now):
        senders.append(source)

    store = ShardedSimStore(
        LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0)),
        ["k1", "k2"],
        delay_model=FixedDelay(1.0),
        durable=True,
        message_filter=probe,
    )
    for key, server in (("k1", "s1"), ("k2", "s2")):
        senders.clear()
        handle = store.start_write(key, f"{key}:v")
        store.run(until=lambda server=server: server in senders)
        store.crash(server)
        if server == "s2":
            store.recover_server(server)
        store.cluster.run_until_done(handle)
        if server == "s1":
            store.recover_server(server)
    store.write("k1", "k1:v2")
    store.run_until_quiescent()
    assert store.verify_atomic()
    return store.cluster


@pytest.mark.parametrize(
    "build, delivered, by_kind, drops",
    [
        (
            _zipf_with_a_crashed_server,
            3060,
            {
                "Read": 425,
                "ReadAck": 425,
                "PreWrite": 325,
                "PreWriteAck": 325,
                "Write": 780,
                "WriteAck": 780,
            },
            {"crashed": 306},
        ),
        (
            _partition,
            388,
            {
                "PreWrite": 88,
                "PreWriteAck": 88,
                "Read": 74,
                "ReadAck": 74,
                "Write": 32,
                "WriteAck": 32,
            },
            {"partitioned": 34},
        ),
        (
            _rolling_recoveries,
            240,
            {"PreWrite": 60, "Read": 60, "PreWriteAck": 60, "ReadAck": 60},
            {"crashed": 24},
        ),
        (
            _filtered_and_stale,
            16,
            {"PreWrite": 6, "PreWriteAck": 5, "Read": 3, "ReadAck": 2},
            {"filtered": 1, "stale-epoch": 1},
        ),
        (
            _outboxes_lost_in_crashes,
            16,
            {"PreWrite": 9, "PreWriteAck": 7},
            {"crashed": 2},
        ),
    ],
    ids=["zipf-crashed", "partition", "recoveries", "filtered-stale", "outboxes-lost"],
)
def test_seeded_faulty_runs_count_pinned_messages(build, delivered, by_kind, drops):
    trace = build().trace
    assert trace.total_messages() == delivered
    assert trace.count_by_kind() == by_kind
    assert list(trace.count_by_kind()) == list(by_kind)  # first-delivery order
    reasons = Counter()
    for (_source, _destination, reason), count in trace.dropped.items():
        reasons[reason] += count
    assert reasons == drops
    assert trace.summary() == {
        "delivered": delivered,
        "dropped": sum(drops.values()),
        **by_kind,
    }


def _cluster():
    return SimCluster(
        LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0)), delay_model=FixedDelay(1.0)
    )


def test_replies_to_an_unhosted_process_count_as_unknown():
    cluster = _cluster()
    effects = Effects()
    effects.broadcast(cluster.config.server_ids(), Read(sender="x", read_ts=1))
    cluster.inject("x", effects)
    cluster.run_until_quiescent()
    assert cluster.trace.dropped == Counter(
        {(server_id, "x", "unknown"): 1 for server_id in cluster.config.server_ids()}
    )
    assert cluster.trace.count_by_kind() == {"Read": 3}


def test_the_trace_grows_with_the_links_not_with_the_run():
    cluster = _cluster()

    def run_cycles(count):
        for index in range(count):
            cluster.write(f"v{index}")
            cluster.read("r1")
        cluster.run_until_quiescent()
        return set(cluster.trace.delivered)

    links_after_ten = run_cycles(10)
    assert run_cycles(200) == links_after_ten
    assert cluster.trace.total_messages() == 210 * 2 * 2 * cluster.config.num_servers
