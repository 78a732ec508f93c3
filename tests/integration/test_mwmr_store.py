"""Integration tests for multi-writer (MWMR) registers on the sharded store.

Covers the tentpole properties end to end: concurrent writers linearize via
lexicographic ``(ts, writer_id)`` pairs (property-based, cross-validated
against the exhaustive linearizability search), SWMR siblings keep the paper's
one-round lucky fast path, Byzantine forgeries on one MWMR key stay confined
to that key, and the asyncio runtime drives the same automata.
"""

import asyncio
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import summarize
from repro.bench.sweeps import contended_run, mixed_store_run, mwmr_sweep, run
from repro.core.automaton import Effects
from repro.core.config import SystemConfig
from repro.core.messages import TimestampQuery, TimestampQueryAck
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import TimestampValue, is_bottom
from repro.runtime.cluster import ShardedAsyncCluster
from repro.sim.byzantine import ByzantineStrategy, ForgeHighTimestampStrategy
from repro.sim.topology import LinkMetrics, Topology
from repro.store.sim import ShardedSimStore
from repro.verify.atomicity import check_atomicity
from repro.verify.linearizability import cross_validate, cross_validate_registers
from repro.workload.generator import (
    ScheduledOperation,
    Workload,
    contended_writers_workload,
    run_workload,
)


def jittery():
    """Every link takes a uniform delay in [0.5, 1.5]."""
    return Topology(intra=LinkMetrics(latency=0.5, jitter=1.0))


def make_store(keys, mwmr=True, byzantine=None, t=1, b=0, num_readers=2, **kwargs):
    config = SystemConfig.balanced(t, b, num_readers=num_readers)
    return ShardedSimStore(
        LuckyAtomicProtocol(config),
        keys,
        mwmr=mwmr,
        byzantine=byzantine,
        **kwargs,
    )


class TestConcurrentWriters:
    def test_two_writers_racing_on_one_key_linearize(self):
        store = make_store(["k"])
        h1 = store.start_write("k", "from-w", client_id="w")
        h2 = store.start_write("k", "from-r1", client_id="r1")
        store.run(until=lambda: h1.done and h2.done)
        read = store.read("k", "r2")
        assert read.value in ("from-w", "from-r1")
        result = store.check_atomicity()["k"]
        assert result.ok, result.violations
        assert cross_validate(store.history("k")) is True

    def test_sequential_writers_see_each_others_timestamps(self):
        store = make_store(["k"])
        first = store.write("k", "a", client_id="r1")
        second = store.write("k", "b", client_id="w")
        assert second.result.metadata["ts"] > first.result.metadata["ts"]
        read = store.read("k", "r2")
        assert read.value == "b"
        assert store.verify_atomic()

    def test_mwmr_write_metadata_and_round_count(self):
        store = make_store(["k"])
        handle = store.write("k", "a", client_id="r1")
        assert handle.result.metadata["mwmr"] is True
        assert handle.result.metadata["writer_id"] == "r1"
        assert handle.rounds == 2  # query + fast PW

    def test_every_client_can_write_an_mwmr_key(self):
        store = make_store(["k"], num_readers=3)
        for client_id in ["w", "r1", "r2", "r3"]:
            store.write("k", f"v-{client_id}", client_id=client_id)
        read = store.read("k", "r1")
        assert read.value == "v-r3"
        assert store.verify_atomic()


class TestMixedStores:
    def test_swmr_sibling_keeps_one_round_fast_write(self):
        store = make_store(["swmr", "mwmr"], mwmr=["mwmr"])
        swmr_write = store.write("swmr", "x")
        mwmr_write = store.write("mwmr", "y", client_id="r1")
        assert swmr_write.rounds == 1 and swmr_write.fast
        assert mwmr_write.rounds == 2
        assert store.verify_atomic()

    def test_sweep_run_checks_each_key_under_its_own_spec(self):
        # ``run`` verifies through the store: SWMR keys by invocation rank,
        # MWMR keys by their stamped (ts, writer_id) pairs.
        store = run(mixed_store_run())
        results = store.check_atomicity()
        assert {key: result.consistency for key, result in results.items()} == {
            "k1": "atomicity",
            "k2": "mwmr-atomicity",
        }
        assert all(result.ok for result in results.values())

    def test_reader_cannot_write_swmr_key(self):
        store = make_store(["swmr", "mwmr"], mwmr=["mwmr"])
        with pytest.raises(TypeError, match="single-writer"):
            store.start_write("swmr", "nope", client_id="r1")
        # No ghost handle: the writer can still use the key normally.
        assert store.write("swmr", "fine").value == "fine"

    def test_writer_cannot_read_swmr_key_but_reads_mwmr_keys(self):
        store = make_store(["swmr", "mwmr"], mwmr=["mwmr"])
        with pytest.raises(TypeError, match="never reads"):
            store.start_read("swmr", "w")
        store.write("mwmr", "v", client_id="r1")
        assert store.read("mwmr", "w").value == "v"

    def test_unknown_mwmr_ids_are_rejected(self):
        with pytest.raises(ValueError, match="mwmr ids are not registers"):
            make_store(["k1"], mwmr=["k1", "ghost"])


@dataclass
class ForgeQueryStrategy(ByzantineStrategy):
    """Replies to MWMR timestamp queries with a fabricated enormous pair."""

    name = "forge-query"

    def respond(self, inner, message):
        if not isinstance(message, TimestampQuery):
            return None
        forged = TimestampValue(10**6, "FORGED", writer_id="evil")
        effects = Effects()
        effects.send(
            message.sender,
            TimestampQueryAck(
                sender=inner.process_id, op_id=message.op_id, pw=forged, w=forged
            ),
        )
        return effects


class TestByzantineContainment:
    def _assert_no_forgery_leaks(self, store):
        for key, history in store.histories().items():
            for record in history:
                if record.kind != "read" or not record.complete:
                    continue
                assert record.value != "FORGED", (
                    f"forged value leaked into register {key!r}"
                )
                if not is_bottom(record.value):
                    assert record.value.startswith(f"{key}:"), (
                        f"register {key!r} returned a sibling's value: "
                        f"{record.value!r}"
                    )
            result = check_atomicity(history, mwmr=True)
            assert result.ok, (key, result.violations)

    def _race_writers(self, store, keys, writers):
        for round_index in range(3):
            handles = [
                store.start_write(key, f"{key}:{writer}:v{round_index}", client_id=writer)
                for key in keys
                for writer in writers
                if key not in store.hosts[writer].open
            ]
            store.run(until=lambda hs=handles: all(h.done for h in hs))
            reads = [store.start_read(key, "r3") for key in keys]
            store.run(until=lambda rs=reads: all(r.done for r in rs))

    def test_forged_read_replies_never_leak_across_mwmr_keys(self):
        store = make_store(
            ["m1", "m2"],
            t=2,
            b=1,
            num_readers=3,
            byzantine={"s1": ForgeHighTimestampStrategy},
        )
        self._race_writers(store, ["m1", "m2"], ["w", "r1"])
        self._assert_no_forgery_leaks(store)
        assert cross_validate_registers(store.histories()) == {"m1": True, "m2": True}

    def test_forged_query_replies_only_skip_timestamps(self):
        store = make_store(
            ["m1", "m2"],
            t=2,
            b=1,
            num_readers=3,
            byzantine={"s1": ForgeQueryStrategy},
        )
        self._race_writers(store, ["m1", "m2"], ["w", "r2"])
        self._assert_no_forgery_leaks(store)
        # The forged timestamp inflates later pairs but never becomes a value.
        some_write = next(
            record
            for record in store.history("m1")
            if record.kind == "write" and record.complete
        )
        assert some_write.metadata["ts"] >= 1


class TestContendedWorkload:
    def test_contended_writers_workload_stays_atomic(self):
        store = make_store(["k1", "k2", "k3"], num_readers=3)
        workload = contended_writers_workload(
            60,
            ["k1", "k2", "k3"],
            writers=["w", "r1", "r2"],
            readers=store.config.reader_ids(),
            seed=5,
        )
        handles = run_workload(store, workload)
        assert all(handle.done for handle in handles)
        assert store.verify_atomic()
        # Writes genuinely came from several clients.
        writers_seen = {
            record.client_id
            for history in store.histories().values()
            for record in history
            if record.kind == "write"
        }
        assert len(writers_seen) > 1

    def test_contended_workload_under_jitter(self):
        store = make_store(["k1", "k2"], num_readers=3, topology=jittery())
        workload = contended_writers_workload(
            40,
            ["k1", "k2"],
            writers=["w", "r1", "r2"],
            readers=store.config.reader_ids(),
            seed=11,
            mean_gap=0.3,
        )
        run_workload(store, workload)
        assert store.verify_atomic()


@st.composite
def mwmr_schedules(draw):
    """A short random schedule of two writers and one reader on one key."""
    num_ops = draw(st.integers(min_value=2, max_value=7))
    operations = []
    now = 0.0
    counters = {"w": 0, "r1": 0}
    for _ in range(num_ops):
        now += draw(st.floats(min_value=0.0, max_value=6.0))
        client = draw(st.sampled_from(["w", "r1", "r2"]))
        if client == "r2":
            operations.append(
                ScheduledOperation(at=now, kind="read", client_id="r2", key="k")
            )
        else:
            counters[client] += 1
            operations.append(
                ScheduledOperation(
                    at=now,
                    kind="write",
                    client_id=client,
                    value=f"k:{client}:v{counters[client]}",
                    key="k",
                )
            )
    jitter = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return Workload(operations, description="mwmr random schedule"), jitter, seed


class TestPropertyBased:
    @given(mwmr_schedules())
    @settings(max_examples=40, deadline=None)
    def test_concurrent_writers_always_linearize(self, schedule):
        workload, jitter, seed = schedule
        store = make_store(
            ["k"],
            num_readers=2,
            topology=jittery() if jitter else Topology(),
            seed=seed,
        )
        handles = run_workload(store, workload)
        assert all(handle.done for handle in handles)
        history = store.history("k")
        result = check_atomicity(history, mwmr=True)
        assert result.ok, result.violations
        # Ground truth: the exhaustive linearization search must agree.
        assert cross_validate(history) is not False


class TestAsyncioRuntime:
    def test_concurrent_writers_over_asyncio(self):
        config = SystemConfig.balanced(1, 0, num_readers=2)

        async def scenario():
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config), ["k"], mwmr=True
            ) as store:
                first, second = await asyncio.gather(
                    store.write("k", "k:w:v1", client_id="w"),
                    store.write("k", "k:r1:v1", client_id="r1"),
                )
                read = await store.read("k", "r2")
                return first, second, read, store.histories()

        first, second, read, histories = asyncio.run(scenario())
        assert first.metadata["writer_id"] == "w"
        assert second.metadata["writer_id"] == "r1"
        assert read.value in ("k:w:v1", "k:r1:v1")
        result = check_atomicity(histories["k"], mwmr=True)
        assert result.ok, result.violations

    def test_mwmr_declaration_is_per_key_over_asyncio(self):
        config = SystemConfig.balanced(1, 0, num_readers=2)

        async def scenario():
            async with ShardedAsyncCluster(
                LuckyAtomicProtocol(config), ["s", "m"], mwmr=["m"]
            ) as store:
                assert store.mwmr_keys == ["m"]
                swmr_write = await store.write("s", "v1")
                mwmr_write = await store.write("m", "v2", client_id="r1")
                return swmr_write, mwmr_write

        swmr_write, mwmr_write = asyncio.run(scenario())
        assert swmr_write.rounds == 1 and swmr_write.fast
        assert mwmr_write.rounds == 2


class TestBench:
    def test_mwmr_throughput_run_verifies_and_reports(self):
        store = run(contended_run(2, num_operations=24))
        assert summarize(store.completed_operations()).throughput > 0
        assert store.mwmr_keys == ["k1", "k2"]

    def test_mwmr_sweep_scales_with_shards(self):
        table = mwmr_sweep(shard_counts=(1, 4), num_operations=48)
        throughputs = table.column("throughput")
        assert len(throughputs) == 2
        assert throughputs[1] > throughputs[0]

    def test_swmr_fast_path_unchanged_on_a_mixed_store(self):
        store = run(mixed_store_run())
        assert store.mwmr_keys == ["k2"]
        swmr_write, mwmr_write = store.completed_operations()
        assert swmr_write.rounds == 1 and swmr_write.fast
        assert mwmr_write.rounds == 2
        assert "rounds=1 fast=True" in mwmr_sweep(shard_counts=(1,), num_operations=8).notes[-1]
