"""The store surface exists once and means the same on every runtime."""

import asyncio
import inspect

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import is_bottom
from repro.runtime.cluster import ShardedAsyncCluster, sharded_tcp_cluster
from repro.sim.latency import FixedDelay, UniformDelay
from repro.store.sim import ShardedSimStore
from repro.store.surface import StoreSurface

SURFACE = [
    "keys",
    "mwmr_keys",
    "leased_keys",
    "writer_lease_keys",
    "create_register",
    "drop_register",
    "evictions",
    "rehydrations",
    "history",
    "histories",
    "check_atomicity",
    "verify_atomic",
]


@pytest.mark.parametrize("name", SURFACE)
def test_both_runtimes_inherit_the_one_member(name):
    member = getattr(StoreSurface, name)
    assert getattr(ShardedSimStore, name) is member
    assert getattr(ShardedAsyncCluster, name) is member


#: Create, use, drop and recreate ``dyn`` around a CAS on the writer-leased
#: key; ``idle`` stays live and untouched throughout.
SCRIPT = [
    ("create_register", "dyn"),
    ("write", "dyn", "d1"),
    ("read", "dyn"),
    ("compare_and_swap", "hot", None, "h1"),
    ("drop_register", "dyn"),
    ("create_register", "dyn"),
    ("read", "dyn"),
]
CAPABILITIES = {"mwmr": ["hot"], "leases": ["hot"], "writer_leases": ["hot"]}


async def _play(store):
    """Run SCRIPT on *store* (blocking or awaitable verbs alike)."""
    outcomes = []
    for verb, *args in SCRIPT:
        outcome = getattr(store, verb)(*args)
        if inspect.isawaitable(outcome):
            outcome = await outcome
        outcomes.append(outcome)
    return {
        "first_read": outcomes[2].value,
        # The simulator hands back a handle holding the completion.
        "cas_kind": getattr(outcomes[3], "result", outcomes[3]).kind,
        "last_read_is_bottom": is_bottom(outcomes[6].value),
        "keys": store.keys,
        "capabilities": (store.mwmr_keys, store.leased_keys, store.writer_lease_keys),
        "history_keys": list(store.histories()),
        "history_sizes": {key: len(history) for key, history in store.histories().items()},
        "verdicts": {key: result.ok for key, result in store.check_atomicity().items()},
        "dyn_values": [record.value for record in store.history("dyn#1")],
        "verified": store.verify_atomic(),
    }


def _on_the_simulator(base):
    store = ShardedSimStore(
        base, ["plain", "idle", "hot"], delay_model=FixedDelay(1.0), **CAPABILITIES
    )
    return asyncio.run(_play(store))


def _on_asyncio(build):
    def run(base):
        async def main():
            async with build(
                base, ["plain", "idle", "hot"], timer_delay=100.0, **CAPABILITIES
            ) as store:
                return await _play(store)

        return asyncio.run(main())

    return run


@pytest.mark.parametrize(
    "run",
    [_on_the_simulator, _on_asyncio(ShardedAsyncCluster), _on_asyncio(sharded_tcp_cluster)],
    ids=["simulator", "asyncio-memory", "asyncio-tcp"],
)
def test_the_same_script_reads_the_same_on_every_runtime(run):
    base = LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2))
    assert run(base) == {
        "first_read": "d1",
        "cas_kind": "write",
        "last_read_is_bottom": True,
        "keys": ["plain", "idle", "hot", "dyn"],
        "capabilities": (["hot"], ["hot"], ["hot"]),
        # Sorted; the archive of the dropped incarnation and the live key
        # nobody touched are both there.
        "history_keys": ["dyn", "dyn#1", "hot", "idle", "plain"],
        "history_sizes": {"dyn": 1, "dyn#1": 2, "hot": 1, "idle": 0, "plain": 0},
        "verdicts": {"dyn": True, "dyn#1": True, "hot": True, "idle": True, "plain": True},
        "dyn_values": ["d1", "d1"],
        "verified": True,
    }


def test_a_store_that_skipped_the_constructor_still_drops_and_archives():
    # benchmarks/e2e builds its traced cluster this way: a ready-made suite
    # handed straight to AsyncCluster.__init__.
    from repro.runtime.cluster import AsyncCluster
    from repro.store.sharding import ShardedProtocol

    class SuiteCluster(ShardedAsyncCluster):
        def __init__(self, suite, **kwargs):
            AsyncCluster.__init__(self, suite, **kwargs)

    base = LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1))

    async def main():
        async with SuiteCluster(ShardedProtocol(base, ["k"]), timer_delay=100.0) as store:
            await store.write("k", "v")
            store.drop_register("k")
            store.create_register("k")
            store.drop_register("k")
            return store.keys, list(store.histories()), store.verify_atomic()

    assert asyncio.run(main()) == ([], ["k#1"], True)


#: Every verb once, on the writer-leased key: both CAS outcomes and an RMW.
RECORD_SCRIPT = [
    ("write", "hot", "a"),
    ("read", "hot"),
    ("compare_and_swap", "hot", "a", "b"),
    ("compare_and_swap", "hot", "stale", "c"),
    ("read_modify_write", "hot", lambda value: value + "!"),
]


async def _records(store):
    for verb, *args in RECORD_SCRIPT:
        outcome = getattr(store, verb)(*args)
        if inspect.isawaitable(outcome):
            await outcome
    return [
        (
            (record.client_id, record.kind, record.value, record.rounds, record.fast),
            sorted(set(record.metadata) - {"latency_s"}),
            record.complete,
        )
        # The simulator keeps one cluster-wide list, asyncio one per client.
        for record in sorted(store.history("hot"), key=lambda record: record.invoked_at)
    ]


def test_both_runtimes_build_the_same_records():
    base = LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2))
    keys = ["plain", "idle", "hot"]
    simulated = asyncio.run(
        _records(ShardedSimStore(base, keys, delay_model=FixedDelay(1.0), **CAPABILITIES))
    )

    async def main():
        async with ShardedAsyncCluster(base, keys, timer_delay=100.0, **CAPABILITIES) as store:
            return await _records(store)

    assert simulated == asyncio.run(main())
    assert [(kind, value) for (_, kind, value, _, _), _, _ in simulated] == [
        ("write", "a"),
        ("read", "a"),
        ("write", "b"),
        ("read", "b"),
        ("write", "b!"),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_an_archived_multi_writer_key_is_still_checked_as_multi_writer(seed):
    # Three writers race four times; what was atomic while the key was live
    # stays atomic once `drop_register` archives it as `k#1` — the archive has
    # no spec, so the checker keys its writes by the pairs they still carry.
    config = SystemConfig(t=1, b=0, fw=0, fr=0, num_readers=2)
    base, delays = LuckyAtomicProtocol(config), UniformDelay(0.5, 1.5)
    store = ShardedSimStore(base, ["k"], mwmr=["k"], delay_model=delays, seed=seed)
    for round_number in range(4):
        for client in config.client_ids()[:3]:
            store.start_write("k", f"{client}:{round_number}", client)
        store.run_until_quiescent()
        store.read("k")
    live = store.check_atomicity()["k"]
    assert live.ok and live.consistency == "mwmr-atomicity"
    store.drop_register("k")
    archived = store.check_atomicity()["k#1"]
    assert archived.ok, archived.violations
    assert (archived.consistency, archived.checked_writes) == ("mwmr-atomicity", 12)
    assert store.verify_atomic()
