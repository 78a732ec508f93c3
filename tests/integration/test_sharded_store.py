"""Integration tests for the sharded multi-register store.

The sharding layer must preserve the paper's per-register guarantees while
multiplexing every register over one shared fleet: per-key histories from
skewed multi-key workloads — with crashes and Byzantine servers — must all
pass the existing single-register atomicity checker, on both the virtual-time
simulator and the asyncio runtime (in-memory and TCP transports).
"""

import asyncio

import pytest

from repro.bench.harness import summarize
from repro.bench.sweeps import dense_run, run, zipf_run
from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.runtime.cluster import ShardedAsyncCluster, sharded_tcp_cluster
from repro.sim.byzantine import StaleReplayStrategy
from repro.store.sim import ShardedSimStore
from repro.verify.atomicity import check_atomicity
from repro.workload.generator import keyspace_workload, run_workload


class TestSimStoreWorkloads:
    def test_zipf_keyspace_histories_are_atomic_per_key(self):
        store = run(zipf_run(num_operations=150, num_keys=6, seed=1))
        results = store.check_atomicity()
        assert set(results) == {f"k{i}" for i in range(1, 7)}
        assert all(result.ok for result in results.values())
        # The skew actually skews: the rank-1 key sees the most operations.
        sizes = {key: len(history) for key, history in store.histories().items()}
        assert sizes["k1"] == max(sizes.values())

    def test_zipf_keyspace_atomic_with_byzantine_server(self):
        store = run(zipf_run(num_operations=150, num_keys=6, byzantine=True))
        assert store.verify_atomic()
        # The attack really ran: no read returned the forged value.
        for history in store.histories().values():
            for record in history.reads():
                assert record.value != "FORGED"

    def test_stale_replay_byzantine_server_is_harmless_per_key(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            ["k1", "k2", "k3"],
            byzantine={"s2": StaleReplayStrategy},
        )
        workload = keyspace_workload(
            80, store.keys, config.reader_ids(), write_fraction=0.5, seed=7
        )
        run_workload(store, workload)
        assert store.verify_atomic()

    def test_deferred_keyed_ops_record_queueing_delay(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        store = ShardedSimStore(LuckyAtomicProtocol(config), ["k1"])
        # Two writes on the same key scheduled back-to-back: the second must
        # defer (per-key well-formedness) and record its queueing delay.
        workload = keyspace_workload(
            12, ["k1"], config.reader_ids(), write_fraction=1.0, mean_gap=0.1, seed=3
        )
        handles = run_workload(store, workload)
        assert all(handle.done for handle in handles)
        assert all(handle.scheduled_at is not None for handle in handles)
        deferred = [h for h in handles if h.queueing_delay > 0]
        assert deferred, "a saturating single-key workload must defer operations"
        for handle in deferred:
            record = [
                r
                for r in store.history("k1")
                if r.invoked_at == handle.invoked_at and r.kind == handle.kind
            ][0]
            assert record.metadata["scheduled_at"] == handle.scheduled_at
            assert record.metadata["queueing_delay"] == pytest.approx(
                handle.queueing_delay
            )
        assert store.verify_atomic()

    def test_throughput_scales_from_one_to_eight_shards(self):
        throughputs = []
        for shards in (1, 2, 4, 8):
            store = run(dense_run(shards, num_operations=48))
            assert len(store.completed_operations()) == 48
            throughputs.append(summarize(store.completed_operations()).throughput)
        assert all(b > a for a, b in zip(throughputs, throughputs[1:], strict=False))

    def test_batched_mode_beats_unbatched_under_frame_overhead(self):
        results = {}
        for batching in (False, True):
            store = run(dense_run(8, num_operations=48, batching=batching, frame_overhead=0.1))
            results[batching] = summarize(store.completed_operations()).throughput
        assert results[True] > results[False]


class TestBatchingUnderByzantineServers:
    def test_malicious_batch_cannot_corrupt_cobatched_registers(self):
        """A Byzantine server's forged replies ride the same envelopes as its
        honest co-batched replies; the receiving router dispatches strictly by
        ``register_id``, so the forgery stays confined to the register it
        targets and every per-key history remains atomic."""
        store = run(zipf_run(num_operations=150, num_keys=6, byzantine=True))
        assert store.suite.batching
        # Batching actually engaged: fewer frames than protocol messages.
        assert store.frames_sent < store.messages_sent
        assert store.verify_atomic()
        for history in store.histories().values():
            for record in history.reads():
                assert record.value != "FORGED"

    def test_stale_replay_strategy_is_harmless_inside_batches(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            ["k1", "k2", "k3"],
            byzantine={"s2": StaleReplayStrategy},
            batching=True,
        )
        workload = keyspace_workload(
            80, store.keys, config.reader_ids(), write_fraction=0.5, mean_gap=0.2, seed=7
        )
        run_workload(store, workload)
        assert store.frames_sent < store.messages_sent
        assert store.verify_atomic()


class TestAsyncShardedStore:
    def test_concurrent_multi_key_operations_in_memory(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        keys = ["k1", "k2", "k3", "k4"]

        async def scenario():
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config), keys, timer_delay=100.0
            ) as store:
                await asyncio.gather(
                    *(store.write(key, f"{key}-value") for key in keys)
                )
                reads = await asyncio.gather(
                    *(
                        store.read(key, config.reader_ids()[i % 2])
                        for i, key in enumerate(keys)
                    )
                )
                return reads, store.histories()

        reads, histories = asyncio.run(scenario())
        assert [read.value for read in reads] == [f"{key}-value" for key in keys]
        assert set(histories) == set(keys)
        for history in histories.values():
            assert check_atomicity(history).ok

    def test_histories_of_many_keys_check_atomic_on_one_clock(self):
        # Regression: every client node used to take its own clock origin at
        # construction, and building a client over hundreds of registers
        # takes milliseconds — more than an operation lasts — so a reader's
        # records sat that much *earlier* than the writer's in the merged
        # history and a read appeared to return before its write was invoked.
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        keys = [f"k{index:04d}" for index in range(768)]

        async def scenario():
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config), keys, message_delay_s=0.0
            ) as store:
                origins = {node.start_time for node in store.client_nodes.values()}
                for index, key in enumerate(keys[::12]):
                    await store.write(key, f"{key}-value")
                    await store.read(key, config.reader_ids()[index % 2])
                return origins, store.histories()

        origins, histories = asyncio.run(scenario())
        assert len(origins) == 1
        touched = [history for history in histories.values() if len(history)]
        assert len(touched) == 64
        for history in touched:
            check_atomicity(history).raise_if_violated()

    def test_per_key_well_formedness_enforced_on_asyncio(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

        async def scenario():
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config), ["k1"]
            ) as store:
                first = asyncio.ensure_future(store.write("k1", "a"))
                await asyncio.sleep(0)  # let the first write register as pending
                with pytest.raises(RuntimeError, match="already has a pending"):
                    await store.write("k1", "b")
                await first

        asyncio.run(scenario())

    def test_unknown_key_does_not_poison_the_pending_slot(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)

        async def scenario():
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config), ["k1"]
            ) as store:
                with pytest.raises(KeyError, match="no register"):
                    await store.write("typo", "x")
                # A failed invocation must not leak a pending slot: retrying
                # the same (bad) key reports the KeyError again, not a bogus
                # "already has a pending write".
                with pytest.raises(KeyError, match="no register"):
                    await store.write("typo", "x")
                write = await store.write("k1", "a")
                return write

        write = asyncio.run(scenario())
        assert write.value == "a"

    def test_sharded_store_over_tcp_sockets(self):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        keys = ["k1", "k2", "k3"]

        async def scenario():
            async with sharded_tcp_cluster(
                LuckyAtomicProtocol(config), keys, timer_delay=100.0
            ) as store:
                await asyncio.gather(
                    *(store.write(key, f"tcp-{key}") for key in keys)
                )
                reads = await asyncio.gather(*(store.read(key) for key in keys))
                return reads, store.histories()

        reads, histories = asyncio.run(scenario())
        assert [read.value for read in reads] == [f"tcp-{key}" for key in keys]
        for history in histories.values():
            assert check_atomicity(history).ok

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_batching_sends_fewer_frames_on_asyncio_transports(self, transport):
        """Concurrent multi-key operations started in the same event-loop tick
        coalesce into Batch envelopes — one transport frame per destination —
        while disabling batching sends every protocol message as its own
        frame.  Results and per-key atomicity are identical either way."""
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        keys = [f"k{i}" for i in range(1, 7)]

        def run(batching):
            async def scenario():
                factory = (
                    sharded_tcp_cluster if transport == "tcp" else ShardedAsyncCluster
                )
                async with factory(
                    LuckyAtomicProtocol(config),
                    keys,
                    batching=batching,
                    timer_delay=200.0,
                ) as store:
                    await asyncio.gather(
                        *(store.write(key, f"{key}-value") for key in keys)
                    )
                    reads = await asyncio.gather(*(store.read(key) for key in keys))
                    return (
                        [read.value for read in reads],
                        store.transport.frames_sent,
                        store.histories(),
                    )

            return asyncio.run(scenario())

        values_batched, frames_batched, histories = run(True)
        values_unbatched, frames_unbatched, _ = run(False)
        assert values_batched == values_unbatched == [f"{key}-value" for key in keys]
        assert frames_batched < frames_unbatched
        for history in histories.values():
            assert check_atomicity(history).ok
