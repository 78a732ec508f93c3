"""Unit tests for the sharding layer (mux automata, suite, sim facade)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import summarize
from repro.core.config import SystemConfig
from repro.core.messages import Read
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.reader import LeasedReader
from repro.core.writer import LeasedWriter
from repro.sim.byzantine import ForgeHighTimestampStrategy, MuteStrategy
from repro.sim.failures import FailureSchedule
from repro.store.sharding import (
    RegisterSpec,
    ShardedClient,
    ShardedProtocol,
    ShardedServer,
)
from repro.store.sim import ShardedSimStore
from repro.wire.golden import message_zoo

#: A small keyspace and the capability arguments it can take: all, none, or ids.
KEYS = ["a", "b", "c", "d"]
SELECTION = st.one_of(st.booleans(), st.lists(st.sampled_from(KEYS), unique=True))


@pytest.fixture
def config():
    return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)


@pytest.fixture
def suite(config):
    return ShardedProtocol(LuckyAtomicProtocol(config), ["k1", "k2"])


class TestEpochStamping:
    @pytest.mark.parametrize("message", message_zoo(), ids=lambda m: type(m).__name__)
    def test_with_epoch_equals_dataclasses_replace(self, message):
        # with_epoch() builds the copy positionally from generated per-class
        # code; dataclasses.replace is the reference.
        stamped = message.with_epoch(message.epoch + 7)
        assert stamped == dataclasses.replace(message, epoch=message.epoch + 7)
        assert type(stamped) is type(message)
        assert message.with_epoch(message.epoch) is message


class TestShardedAutomata:
    def test_server_routes_by_register(self, suite):
        server = suite.create_server("s1")
        assert isinstance(server, ShardedServer)
        effects = server.handle_message(
            Read(sender="r1", register_id="k1", read_ts=1, round=1)
        )
        assert len(effects.sends) == 1
        assert effects.sends[0].message.register_id == "k1"
        # The other register is untouched: nobody asked for it, so it is ⊥.
        assert list(server.registers) == ["k1"]

    def test_server_drops_unknown_register(self, suite):
        server = suite.create_server("s1")
        effects = server.handle_message(Read(sender="r1", register_id="nope"))
        assert effects.empty

    def test_client_multiplexes_across_registers(self, suite):
        writer = suite.create_writer()
        assert isinstance(writer, ShardedClient)
        writer.write("k1", "a")
        assert writer.registers["k1"].busy and "k2" not in writer.registers
        writer.write("k2", "b")  # concurrent op on another register is fine
        assert writer.busy

    def test_client_enforces_per_register_well_formedness(self, suite):
        writer = suite.create_writer()
        writer.write("k1", "a")
        with pytest.raises(RuntimeError):
            writer.write("k1", "b")

    def test_client_unknown_register_raises(self, suite):
        writer = suite.create_writer()
        with pytest.raises(KeyError, match="no register"):
            writer.write("ghost", "x")

    def test_timer_delay_forwards_to_inner_clients(self, suite):
        writer = suite.create_writer()
        writer.timer_delay = 42.0
        assert all(
            inner.timer_delay == 42.0 for inner in writer.registers.values()
        )


class TestShardedProtocolValidation:
    def test_rejects_empty_and_duplicate_registers(self, config):
        base = LuckyAtomicProtocol(config)
        # An empty initial keyspace is allowed: the dynamic keyspace grows it
        # at runtime through create_register.
        assert ShardedProtocol(base, []).specs == {}
        with pytest.raises(ValueError, match="duplicate"):
            ShardedProtocol(base, ["k1", "k1"])
        with pytest.raises(ValueError, match="must not contain"):
            ShardedProtocol(base, ["a::b"])

    def test_rejects_byzantine_beyond_bound(self, config):
        base = LuckyAtomicProtocol(config)  # b = 0
        with pytest.raises(ValueError, match="exceed the model bound"):
            ShardedProtocol(
                base, ["k1"], byzantine={"s1": ForgeHighTimestampStrategy}
            )

    def test_byzantine_servers_count_against_t(self):
        # One Byzantine server and two crashed ones are three faulty servers
        # at once, beyond t = 2: the store refuses the deployment at
        # construction rather than hanging its first write.
        base = LuckyAtomicProtocol(SystemConfig(t=2, b=1, fw=1, fr=0))
        with pytest.raises(ValueError, match="exceed the model bound"):
            ShardedSimStore(
                base,
                ["k1"],
                byzantine={"s1": MuteStrategy},
                failures=FailureSchedule.crash_at_start(["s5", "s6"]),
            )

    def test_byzantine_strategies_are_fresh_per_register(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config),
            ["k1", "k2"],
            byzantine={"s1": ForgeHighTimestampStrategy},
        )
        server = suite.create_server("s1")
        strategies = {rid: server.ensure_register(rid).strategy for rid in ("k1", "k2")}
        assert strategies["k1"] is not strategies["k2"]


class TestShardedSimStore:
    def _store(self, keys=("k1", "k2", "k3")):
        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)
        return ShardedSimStore(LuckyAtomicProtocol(config), list(keys))

    def test_the_store_is_a_sim_cluster(self):
        from repro.sim.cluster import SimCluster
        from repro.workload.generator import run_store_workload, run_workload

        store = self._store()
        assert isinstance(store, SimCluster) and store.cluster is store
        assert store.suite.byzantine == {} and store.config is store.suite.config
        # The run loop and the counters are the cluster's, not forwarded.
        for name in ("run", "run_for", "crash", "recover_server", "completed_operations"):
            assert name not in vars(ShardedSimStore)
        assert run_store_workload is run_workload

    def test_write_read_round_trip_per_key(self):
        store = self._store()
        store.write("k1", "a")
        store.write("k2", "b")
        assert store.read("k1").value == "a"
        assert store.read("k2", "r2").value == "b"
        assert store.verify_atomic()

    def test_reads_of_unwritten_key_return_bottom(self):
        from repro.core.types import is_bottom

        store = self._store()
        store.write("k1", "a")
        read = store.read("k2")
        assert is_bottom(read.value)
        assert store.verify_atomic()

    def test_concurrent_writes_across_keys_overlap(self):
        store = self._store()
        h1 = store.start_write("k1", "a")
        h2 = store.start_write("k2", "b")
        h3 = store.start_write("k3", "c")
        store.run(until=lambda: h1.done and h2.done and h3.done)
        # All three were invoked at the same instant — the single writer
        # genuinely multiplexed them instead of queueing.
        assert h1.invoked_at == h2.invoked_at == h3.invoked_at
        assert {h.register_id for h in (h1, h2, h3)} == {"k1", "k2", "k3"}
        assert store.verify_atomic()

    def test_per_key_histories_are_disjoint_and_tagged(self):
        store = self._store(keys=("k1", "k2"))
        store.write("k1", "a")
        store.read("k1")
        store.write("k2", "b")
        histories = store.histories()
        assert set(histories) == {"k1", "k2"}
        assert len(histories["k1"]) == 2 and len(histories["k2"]) == 1
        for key, history in histories.items():
            assert all(r.metadata["register_id"] == key for r in history)

    def test_rejected_invocation_leaves_no_ghost_handle(self):
        """A double-invoke on a busy (client, key) must not register a handle:
        a ghost handle would shadow the real pending one, steal its completion
        and corrupt the per-key history."""
        store = self._store(keys=("k1",))
        first = store.start_write("k1", "a")
        before = list(store.operations)
        with pytest.raises(RuntimeError):
            store.start_write("k1", "b")
        assert store.operations == before
        store.run(until=lambda: first.done)
        assert first.result.value == "a"
        history = store.history("k1")
        assert [record.value for record in history.writes()] == ["a"]
        assert store.verify_atomic()

    def test_unknown_key_invocation_leaves_no_ghost_handle(self):
        store = self._store(keys=("k1",))
        with pytest.raises(KeyError):
            store.start_write("ghost", "x")
        assert store.operations == []
        store.write("k1", "a")  # the store still works normally afterwards
        assert store.verify_atomic()

    def test_plain_cluster_rejects_store_operations(self):
        from repro.sim.cluster import SimCluster

        config = SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=1)
        cluster = SimCluster(LuckyAtomicProtocol(config))
        with pytest.raises(TypeError, match="not sharded"):
            cluster.start("w", "write", "x", register_id="k1")
        assert cluster.operations == []
        # And the converse: a sharded client needs the key.
        store = self._store()
        with pytest.raises(TypeError, match="is sharded"):
            store.start("w", "write", "x")
        assert store.operations == []

    def test_throughput_is_positive_after_operations(self):
        store = self._store()
        store.write("k1", "a")
        assert summarize(store.completed_operations()).throughput > 0


class TestRegisterIdValidation:
    """Malformed ids must fail fast, not as silently misrouted timers."""

    def test_rejects_empty_register_id(self, config):
        base = LuckyAtomicProtocol(config)
        with pytest.raises(ValueError, match="non-empty"):
            ShardedProtocol(base, ["k1", ""])

    def test_rejects_non_string_register_id(self, config):
        base = LuckyAtomicProtocol(config)
        with pytest.raises(ValueError, match="must be a string"):
            ShardedProtocol(base, ["k1", 7])

    def test_rejects_separator_anywhere_in_the_id(self, config):
        base = LuckyAtomicProtocol(config)
        for bad in ("a::b", "::b", "a::", "::"):
            with pytest.raises(ValueError, match="must not contain"):
                ShardedProtocol(base, [bad])

    def test_a_str_subclass_is_a_register_id(self, config):
        class Key(str):
            pass

        suite = ShardedProtocol(LuckyAtomicProtocol(config), [Key("k1"), "k2"])
        assert list(suite.specs) == ["k1", "k2"]

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(
            st.one_of(st.text(alphabet=":ab", max_size=4), st.integers()), unique=True, max_size=5
        )
    )
    def test_the_keyspace_is_checked_as_each_id_would_be(self, ids):
        """The constructor checks the whole keyspace in one pass; what it
        rejects, and the words, are the first failing per-id check's."""
        base = LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2))
        first_error = None
        for register_id in ids:
            try:
                ShardedProtocol._validate_register_id(register_id)
            except ValueError as exc:
                first_error = str(exc)
                break
        if first_error is None:
            assert list(ShardedProtocol(base, ids).specs) == ids
        else:
            with pytest.raises(ValueError) as raised:
                ShardedProtocol(base, ids)
            assert str(raised.value) == first_error


class TestMwmrDeclaration:
    def test_mwmr_true_marks_every_register(self, config):
        suite = ShardedProtocol(LuckyAtomicProtocol(config), ["k1", "k2"], mwmr=True)
        assert suite.keys_with("mwmr") == ["k1", "k2"]

    def test_mwmr_subset_marks_only_named_registers(self, config):
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config), ["k1", "k2"], mwmr=["k2"]
        )
        assert suite.keys_with("mwmr") == ["k2"]
        assert suite.describe()["mwmr_registers"] == ["k2"]

    def test_mwmr_unknown_register_rejected(self, config):
        with pytest.raises(ValueError, match="mwmr ids are not registers"):
            ShardedProtocol(LuckyAtomicProtocol(config), ["k1"], mwmr=["nope"])

    def test_reader_clients_get_composite_automata_on_mwmr_keys(self, config):
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config), ["k1", "k2"], mwmr=["k2"]
        )
        reader = suite.create_reader("r1")
        reader.read("k1")
        assert not hasattr(reader.registers["k1"], "write")
        effects = reader.write("k2", "v")
        assert hasattr(reader.registers["k2"], "write")
        assert effects.sends  # query round went out, tagged with the register
        assert all(send.message.register_id == "k2" for send in effects.sends)

    def test_writing_a_swmr_key_from_a_reader_raises(self, config):
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config), ["k1", "k2"], mwmr=["k2"]
        )
        reader = suite.create_reader("r1")
        with pytest.raises(TypeError, match="single-writer"):
            reader.write("k1", "v")

    def test_reading_a_swmr_key_from_the_writer_raises(self, config):
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config), ["k1", "k2"], mwmr=["k2"]
        )
        writer = suite.create_writer()
        with pytest.raises(TypeError, match="never reads"):
            writer.read("k1")
        assert writer.read("k2").sends  # the MWMR key gives the writer a reader

    def test_mwmr_bare_string_means_one_register(self, config):
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config), ["hot", "cold"], mwmr="hot"
        )
        assert suite.keys_with("mwmr") == ["hot"]


class TestKeyspaceTable:
    """``ShardedProtocol.specs`` is the keyspace: one value per key, no copies."""

    ILLEGAL = [
        ({"writer_leases": True}, "multi-writer"),
        ({"leases": True, "mwmr": True}, "mutually exclusive"),
    ]

    @pytest.mark.parametrize("capabilities, message", ILLEGAL)
    def test_each_composition_rule_is_stated_by_the_spec(self, capabilities, message):
        with pytest.raises(ValueError, match=message):
            RegisterSpec(**capabilities)

    @pytest.mark.parametrize("capabilities, message", ILLEGAL)
    def test_both_entry_points_reject_what_the_spec_rejects(
        self, config, capabilities, message
    ):
        base = LuckyAtomicProtocol(config)
        with pytest.raises(ValueError, match=message):
            ShardedProtocol(base, ["k1", "k2"], **{c: ["k2"] for c in capabilities})
        suite = ShardedProtocol(base, ["k1"])
        with pytest.raises(ValueError, match=message):
            suite.create_register("k2", **capabilities)
        assert list(suite.specs) == ["k1"]  # the rejected key was not admitted

    @pytest.mark.parametrize(
        "argument, label", [("mwmr", "mwmr"), ("leases", "lease"), ("writer_leases", "writer-lease")]
    )
    def test_one_parser_rejects_ids_that_are_not_registers(self, config, argument, label):
        with pytest.raises(ValueError, match=f"{label} ids are not registers"):
            ShardedProtocol(LuckyAtomicProtocol(config), ["k1"], **{argument: ["nope"]})

    def test_constructor_and_create_register_build_the_same_value(self, config):
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config),
            ["plain", "hot"],
            mwmr=["hot"],
            leases=True,  # every key
            writer_leases=True,  # every multi-writer key
        )
        assert suite.specs["plain"] == RegisterSpec(leases=True)
        assert suite.specs["hot"] == RegisterSpec(mwmr=True, leases=True, writer_leases=True)
        suite.create_register("late", mwmr=True, leases=True, writer_leases=True)
        assert suite.specs["late"] is suite.specs["hot"]  # one shared instance
        assert suite.keys_with("writer_leases") == ["hot", "late"]
        assert not suite._evictable("hot") and not suite._evictable("plain")
        reader = suite.create_reader("r1")
        reader.read("late")
        late = reader.registers["late"]
        assert isinstance(late.writer, LeasedWriter) and isinstance(late.reader, LeasedReader)

    @settings(max_examples=300, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=len(KEYS)),
        selectors=st.tuples(*[SELECTION] * 3),
    )
    def test_the_keyspace_reads_as_each_key_would(self, count, selectors):
        """Keys no explicit-id selection names share one spec; the table and
        the first error are still what reading key by key gives."""
        keys = KEYS[:count]
        mwmr, leases, writer_leases = [
            s if isinstance(s, bool) else [k for k in s if k in keys] for s in selectors
        ]

        def chosen(selector, scope):
            return set(scope) if selector is True else set(selector or ())

        mwmr_ids = chosen(mwmr, keys)
        lease_ids = chosen(leases, keys)
        writer_lease_ids = chosen(writer_leases, mwmr_ids)
        expected = {}
        for key in keys:
            try:
                expected[key] = RegisterSpec(
                    mwmr=key in mwmr_ids,
                    leases=key in lease_ids,
                    writer_leases=key in writer_lease_ids,
                )
            except ValueError as exc:
                expected = f"register {key!r}: {exc}"
                break

        def build():
            base = LuckyAtomicProtocol(SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2))
            return ShardedProtocol(
                base, keys, mwmr=mwmr, leases=leases, writer_leases=writer_leases
            )

        if isinstance(expected, str):
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == expected
        else:
            assert list(build().specs.items()) == list(expected.items())

    def test_a_large_keyspace_shares_one_spec_instance(self, config):
        suite = ShardedProtocol(
            LuckyAtomicProtocol(config),
            [f"k{i}" for i in range(4096)],
            mwmr=True,
            leases=True,
            writer_leases=True,
        )
        assert len({id(spec) for spec in suite.specs.values()}) == 1

    def test_building_a_process_costs_nothing_per_key(self, config):
        import time

        def build_seconds(count):
            suite = ShardedProtocol(
                LuckyAtomicProtocol(config),
                [f"key-{i:06d}" for i in range(count)],
                mwmr=True,
                leases=True,
                writer_leases=True,
            )
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                built = [suite.create_server("s1"), suite.create_writer(), suite.create_reader("r1")]
                best = min(best, time.perf_counter() - started)
                assert all(process.registers == {} for process in built)
            return best

        # Both sides are microseconds, hence the generous bound; one automaton
        # per key up front would be 100+ ms per process at 4096 keys.
        assert build_seconds(4096) < 20 * build_seconds(1) + 0.005

    def test_create_and_drop_cost_does_not_grow_with_the_keyspace(self, config):
        import time

        def per_key_seconds(count):
            best = float("inf")
            for _ in range(3):
                suite = ShardedProtocol(LuckyAtomicProtocol(config), [])
                keys = [f"key-{i:06d}" for i in range(count)]
                started = time.perf_counter()
                for key in keys:
                    suite.create_register(key, mwmr=True, leases=True, writer_leases=True)
                for key in keys:
                    suite.drop_register(key)
                best = min(best, (time.perf_counter() - started) / count)
            return best

        # Frozenset rebuilds and list scans made this ~50x; a dict is flat.
        assert per_key_seconds(16_000) < 4 * per_key_seconds(1_000)

    def test_a_dropped_key_leaves_no_trace_on_the_suite(self, config):
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            [f"k{i}" for i in range(4)],
            max_resident=2,
        )
        key = "doomed-register"
        store.create_register(key)
        store.write(key, "v")
        for other in store.keys[:4]:  # push the key out to the eviction stores
            store.write(other, "x")
        assert any(key in spill for spill in store.suite.eviction_stores.values())
        store.drop_register(key)
        for name, value in vars(store.suite).items():
            if name != "eviction_stores":
                assert key not in repr(value), name
        assert not any(key in spill for spill in store.suite.eviction_stores.values())
