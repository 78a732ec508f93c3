"""Integration tests for the dynamic keyspace and the bounded register table.

The write → evict → rehydrate → read round trip on both runtimes, register
creation/drop at runtime, durable recovery interleaved with eviction, and a
small churn-workload acceptance run (the scaled-up version is the S8
``--churn`` benchmark row).
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import is_bottom
from repro.runtime.cluster import ShardedAsyncCluster
from repro.sim.failures import FailureSchedule
from repro.sim.topology import LinkMetrics, Topology
from repro.store.sim import ShardedSimStore
from repro.store.surface import find_router
from repro.workload.generator import churn_workload, keyspace_workload, run_workload


def config(**kwargs):
    return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2, **kwargs)


def bounded_store(max_resident=2, keys=(), **kwargs):
    return ShardedSimStore(
        LuckyAtomicProtocol(config()),
        list(keys),
        max_resident=max_resident,
        **kwargs,
    )


class TestDynamicMembership:
    @pytest.mark.parametrize(
        "capabilities, durable",
        [
            ({}, False),
            ({"mwmr": True}, False),
            ({"leases": True}, False),
            ({}, True),
            ({"leases": True}, True),
        ],
        ids=["plain", "mwmr", "leased", "durable", "leased-durable"],
    )
    def test_create_then_use_register_at_runtime(self, capabilities, durable):
        """A key created at runtime is the key declared at construction: one
        seeded Zipf workload reads the same, operation by operation and byte
        by byte, whichever way its keys came to exist — with compactions and
        an outage of s1 (losing a log record) in the durable cases."""
        keys = [f"k{index}" for index in range(12)]

        def run(declared):
            outage = FailureSchedule().crash("s1", at=40.0, recover_at=55.0, lose_tail=1)
            store = ShardedSimStore(
                LuckyAtomicProtocol(config()),
                keys if declared else [],
                **(capabilities if declared else {}),
                lease_duration=25.0,
                topology=Topology(intra=LinkMetrics(latency=0.5, jitter=1.0)),
                seed=11,
                **({"durable": True, "compact_every": 8, "failures": outage} if durable else {}),
            )
            if not declared:
                assert store.keys == []
                for key in keys:
                    store.create_register(key, **capabilities)
            workload = keyspace_workload(
                150, keys, store.config.reader_ids(), write_fraction=0.3, mean_gap=0.6, seed=5
            )
            handles = run_workload(store, workload)
            store.run_until_quiescent()
            assert all(handle.done for handle in handles) and store.verify_atomic()
            operations = [
                (h.register_id, h.result.kind, h.result.value, h.rounds, h.fast, h.completed_at)
                for h in handles
            ]
            counters = (store.events_processed, store.messages_sent, store.bytes_sent)
            return operations, counters

        assert run(declared=True) == run(declared=False)

    def test_drop_register_discards_state_everywhere(self):
        store = bounded_store(max_resident=None)
        store.create_register("tmp")
        store.write("tmp", "x")
        store.drop_register("tmp")
        assert "tmp" not in store.keys
        # Re-creating the key starts from bottom: the old state is gone from
        # every process and from the servers' spill.
        store.create_register("tmp")
        assert is_bottom(store.read("tmp").value)
        assert store.verify_atomic()

    def test_dropped_key_history_is_archived_and_checkable(self):
        store = bounded_store(max_resident=None)
        store.create_register("tmp")
        store.write("tmp", "x")
        store.drop_register("tmp")
        # The dead incarnation's operations are archived under tmp#1 so they
        # stay checkable without shadowing a future register named tmp.
        histories = store.histories()
        assert "tmp" not in histories
        assert [r.value for r in histories["tmp#1"].writes()] == ["x"]
        assert store.verify_atomic()

    def test_unknown_key_still_raises(self):
        store = bounded_store(max_resident=None)
        with pytest.raises(KeyError):
            store.write("ghost", "x")


class TestEvictionRoundTrip:
    def test_write_evict_rehydrate_read(self):
        store = bounded_store(max_resident=2)
        for index in range(6):
            store.create_register(f"k{index}")
            store.write(f"k{index}", f"v{index}")
        assert store.evictions > 0
        # k0 went cold long ago; every server's resident table dropped it.
        for server_id in store.config.server_ids():
            router = find_router(store.processes[server_id])
            assert "k0" not in router.registers
            assert "k0" in router.spilled
        # Reading it faults the state back in from the spilled snapshots.
        assert store.read("k0").value == "v0"
        assert store.rehydrations > 0
        assert store.verify_atomic()

    def test_resident_table_never_exceeds_bound_on_servers(self):
        store = bounded_store(max_resident=3)
        for index in range(10):
            store.create_register(f"k{index}")
            store.write(f"k{index}", str(index))
        for server_id in store.config.server_ids():
            assert len(find_router(store.processes[server_id]).registers) <= 3

    def test_lru_order_keeps_the_recently_touched(self):
        store = bounded_store(max_resident=2)
        for key in ("a", "b", "c"):
            store.create_register(key)
        store.write("a", "1")
        store.write("b", "2")
        store.read("a")  # touch a so b is now the coldest
        store.write("c", "3")  # evicts b, not a
        server = store.config.server_ids()[0]
        resident = find_router(store.processes[server]).registers
        assert "b" not in resident and "a" in resident and "c" in resident
        assert store.read("b").value == "2"  # still rehydratable

    def test_durable_recovery_mid_eviction(self):
        store = bounded_store(max_resident=2, durable=True)
        for index in range(5):
            store.create_register(f"k{index}")
            store.write(f"k{index}", f"v{index}")
        assert store.evictions > 0
        crashed = store.config.server_ids()[0]
        store.crash(crashed)
        store.write("k4", "v4b")  # quorum still completes with one server down
        store.recover_server(crashed)
        # Evicted-then-recovered state must still rehydrate: the spill died
        # with the crashed incarnation, and recovery rebuilds it from the WAL.
        assert store.read("k0").value == "v0"
        assert store.read("k4").value == "v4b"
        assert store.verify_atomic()


class TestSimChurnAcceptance:
    def test_churn_workload_is_atomic_under_a_tight_bound(self):
        store = bounded_store(max_resident=8)
        workload = churn_workload(60, readers=store.config.reader_ids(), seed=3)
        handles = run_workload(store, workload)
        assert handles and all(handle.done for handle in handles)
        assert store.evictions > 0 and store.rehydrations > 0
        results = store.check_atomicity()
        assert results and all(result.ok for result in results.values())


class TestAdmissionOnly:
    """A declared key is a table entry until something asks for it."""

    KEYS = [f"k{index}" for index in range(50)]

    @staticmethod
    def resident(processes):
        return {pid: list(find_router(automaton).registers) for pid, automaton in processes}

    def test_a_declared_key_nobody_touched_has_no_automaton_on_the_simulator(self):
        store = ShardedSimStore(
            LuckyAtomicProtocol(config()), self.KEYS, leases=["k7"], durable=True, compact_every=4
        )
        processes = store.processes.items()
        assert set(map(tuple, self.resident(processes).values())) == {()}
        store.write("k7", "a")
        assert store.read("k7", "r1").value == "a"
        assert self.resident(processes) == {
            "s1": ["k7"], "s2": ["k7"], "s3": ["k7"], "w": ["k7"], "r1": ["k7"], "r2": []
        }  # fmt: skip
        assert store.keys == self.KEYS and len(store.histories()) == 50
        assert store.verify_atomic()

    def test_a_declared_key_nobody_touched_has_no_automaton_on_asyncio(self, tmp_path):
        async def scenario(store):
            nodes = {**store.server_nodes, **store.client_nodes}
            processes = [(pid, node.automaton) for pid, node in nodes.items()]
            assert set(map(tuple, self.resident(processes).values())) == {()}
            await store.write("k7", "a")
            assert (await store.read("k7", "r2")).value == "a"
            assert self.resident(processes) == {
                "s1": ["k7"], "s2": ["k7"], "s3": ["k7"], "w": ["k7"], "r1": [], "r2": ["k7"]
            }  # fmt: skip
            assert store.verify_atomic()

        ShardedAsyncCluster.run_scenario(
            LuckyAtomicProtocol(config()),
            scenario,
            keys=self.KEYS,
            leases=["k7"],
            durable=True,
            wal_dir=str(tmp_path),
            message_delay_s=0.0005,
        )

    def test_a_restarted_asyncio_server_admits_what_its_files_name(self, tmp_path):
        async def scenario(store):
            await store.write("k1", "a")
            await store.write("k2", "b")
            await store.read("k3")  # read-only: no WAL record, so not recovered
            store.crash_server("s1")
            node = await store.restart_server("s1")
            router = find_router(node.automaton)
            assert sorted(router.registers) == ["k1", "k2"] and router.recovered
            assert (await store.read("k1")).value == "a"
            assert store.verify_atomic()

        ShardedAsyncCluster.run_scenario(
            LuckyAtomicProtocol(config()),
            scenario,
            keys=self.KEYS,
            durable=True,
            wal_dir=str(tmp_path),
            message_delay_s=0.0005,
        )


class TestAsyncioEvictionRoundTrip:
    def test_write_evict_rehydrate_read_and_drop(self):
        base = LuckyAtomicProtocol(config())

        async def scenario(store):
            for index in range(6):
                key = f"k{index}"
                store.create_register(key)
                await store.write(key, f"v{index}")
            assert store.evictions > 0
            # k0 is long cold: reading it rehydrates from the spill space.
            read = await store.read("k0")
            assert read.value == "v0"
            assert store.rehydrations > 0
            store.drop_register("k3")
            store.create_register("k3")
            fresh = await store.read("k3")
            assert is_bottom(fresh.value)
            for history in store.histories().values():
                from repro.verify.atomicity import check_atomicity

                check_atomicity(history).raise_if_violated()

        ShardedAsyncCluster.run_scenario(
            base, scenario, keys=[], max_resident=2, message_delay_s=0.0005
        )
