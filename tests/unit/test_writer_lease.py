"""Unit tests: writer leases and conditional operations on the sim store.

Covers the writer-lease lifecycle (acquire on a fallback write, 1-round
leased writes, revocation by a competing writer, expiry, epoch fencing of a
recovered granter), the CAS/RMW semantics under and without a lease, the
checker's conditional isolation — including the seeded non-linearizable
regression fixture — the owned-writers workload generator, and the S7 sweep.
"""

import pytest

from repro.bench.sweeps import writer_lease_sweep
from repro.core.config import SystemConfig
from repro.core.messages import WriteAck
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.latency import AsynchronousWindows, FixedDelay
from repro.store.sharding import ShardedProtocol
from repro.store.sim import ShardedSimStore
from repro.verify.atomicity import check_atomicity
from repro.verify.history import History, OperationRecord
from repro.workload.generator import owned_writers_workload, run_store_workload


def build_store(keys=("hot", "cold"), writer_leases=("hot",), **kwargs):
    config = kwargs.pop("config", None) or SystemConfig.balanced(1, 0, num_readers=3)
    kwargs.setdefault("delay_model", FixedDelay(1.0))
    kwargs.setdefault("lease_duration", 60.0)
    return ShardedSimStore(
        LuckyAtomicProtocol(config),
        list(keys),
        mwmr=list(writer_leases),
        writer_leases=list(writer_leases),
        **kwargs,
    )


class TestWriterLeaseLifecycle:
    def test_fallback_write_acquires_then_one_round(self):
        store = build_store()
        first = store.write("hot", "v1")
        assert first.rounds == 2  # TS_QUERY + PW/W, acquisition rides along
        assert "lease" not in first.result.metadata
        leased = store.write("hot", "v2")
        assert leased.rounds == 1  # the SWMR fast-path cost
        assert leased.result.metadata["lease"] is True
        assert store.lease_writes("w") == 1
        assert store.writer_lease_keys == ["hot"]
        assert store.verify_atomic()

    def test_competing_writer_revokes_and_completes(self):
        store = build_store()
        store.write("hot", "v1")
        store.write("hot", "v2")  # leased
        holder = store.cluster.processes["w"].registers["hot"].writer
        assert holder.lease_held
        competitor = store.write("hot", "x1", client_id="r1")
        assert competitor.done and competitor.rounds == 2
        assert not holder.lease_held  # revoked before the competitor's query acks
        assert store.read("hot", "r2").value == "x1"
        assert store.verify_atomic()

    def test_lease_expires_in_virtual_time(self):
        store = build_store()
        store.write("hot", "v1")
        store.write("hot", "v2")
        assert store.cluster.processes["w"].registers["hot"].writer.lease_held
        store.cluster.run_for(200.0)  # > lease_duration, renewal is lazy
        expired = store.write("hot", "v3")
        assert expired.rounds == 2  # fallback (re-acquiring)
        assert store.write("hot", "v4").rounds == 1
        assert store.verify_atomic()
        store.run_until_quiescent()

    def test_sibling_swmr_key_untouched(self):
        store = build_store()
        store.write("hot", "v1")
        write = store.write("cold", "c1")
        assert write.rounds == 1  # the paper's lucky 1-round SWMR write
        assert "lease" not in write.result.metadata
        assert store.lease_writes() == 0
        assert store.verify_atomic()

    def test_epoch_fence_drops_lease_of_recovered_granters(self):
        store = build_store(keys=("hot",), durable=True)
        store.write("hot", "a")
        store.write("hot", "b")
        writer = store.cluster.processes["w"].registers["hot"].writer
        assert writer.lease_held
        store.crash("s1")
        store.cluster.run_for(1.0)
        store.recover_server("s1")
        assert store.incarnation("s1") == 1
        # The holder still holds: s2 and s3 are S - t = 2 clean granters...
        assert writer.lease_held
        writer.handle_message(WriteAck(sender="s1", ts=99, from_writer=True, epoch=1))
        assert writer.lease_held  # s1's grant was already fenced out
        # ... until a second granter's bumped epoch breaks the clean quorum.
        writer.handle_message(WriteAck(sender="s2", ts=99, from_writer=True, epoch=1))
        assert not writer.lease_held
        fallback = store.compare_and_swap("hot", "b", "c")
        assert fallback.rounds == 2  # back to the optimistic query path
        assert store.verify_atomic()

    def test_revoke_naming_the_inflight_renewal_stops_the_holder(self):
        # The schedule that separated the two lease copies: r1 holds lease 1,
        # its lazy renewal (lease 2) rides on a leased write whose replies —
        # the PW acks and the grants — are delayed; meanwhile r2's query makes
        # every server revoke *naming lease 2*, the only id its table keeps.
        # A holder that acks but keeps relying on lease 1 then writes
        # (3, "c", r1) in one round, below r2's completed (3, "x", r2).
        store = build_store(
            keys=("hot",),
            batching=False,
            delay_model=AsynchronousWindows(
                FixedDelay(1.0), windows=((32.0, 33.0, 10.0),)
            ),
        )
        store.write("hot", "a", client_id="r1")
        holder = store.cluster.processes["r1"].registers["hot"].writer
        assert holder.lease_held
        store.run_for(31.0 - store.now)  # past the renew timer (half of 60)
        slow = store.start_write("hot", "b", client_id="r1")  # carries renewal 2
        store.run_for(4.0)
        assert not slow.done  # the servers' replies sit in the slow window
        competitor = store.write("hot", "x", client_id="r2")
        held_after_revoke = holder.lease_held
        store.run_for(10.0)
        late = store.write("hot", "c", client_id="r1")
        result = check_atomicity(store.history("hot"))
        assert result.ok, result.violations  # write-order, before the fix
        assert not held_after_revoke  # dropped with the renewal, before the ack
        assert competitor.result.metadata["ts"] == 3
        assert slow.done and slow.result.metadata["ts"] == 2
        assert late.rounds == 2 and late.result.metadata["ts"] == 4
        store.run_until_quiescent()

    def test_writer_leases_require_mwmr(self):
        config = SystemConfig.balanced(1, 0, num_readers=2)
        with pytest.raises(ValueError, match="multi-writer"):
            ShardedProtocol(
                LuckyAtomicProtocol(config), ["k"], writer_leases=["k"]
            )


class TestConditionalOperations:
    def test_leased_cas_success_is_one_round(self):
        store = build_store()
        store.write("hot", "v1")
        store.write("hot", "v2")
        cas = store.compare_and_swap("hot", "v2", "v3")
        assert cas.result.kind == "write" and cas.rounds == 1
        metadata = cas.result.metadata
        assert metadata["cas"] is True and metadata["lease"] is True
        assert metadata["observed_bottom"] is False
        assert store.read("hot", "r1").value == "v3"
        assert store.verify_atomic()

    def test_leased_cas_failure_is_zero_rounds(self):
        store = build_store()
        store.write("hot", "v1")
        store.write("hot", "v2")
        failed = store.compare_and_swap("hot", "stale", "x")
        assert failed.result.kind == "read" and failed.rounds == 0
        metadata = failed.result.metadata
        assert metadata["cas_failed"] is True and metadata["lease"] is True
        assert metadata["cas_expected"] == "stale"
        assert failed.value == "v2"  # a failed CAS reads the value it lost to
        assert store.read("hot", "r1").value == "v2"  # nothing written
        assert store.verify_atomic()

    def test_unleased_cas_uses_the_query_round(self):
        config = SystemConfig.balanced(1, 0, num_readers=3)
        store = ShardedSimStore(
            LuckyAtomicProtocol(config),
            ["hot"],
            mwmr=["hot"],  # no writer leases: optimistic query-phase CAS
            delay_model=FixedDelay(1.0),
        )
        store.write("hot", "v1")
        cas = store.compare_and_swap("hot", "v1", "v2")
        assert cas.result.kind == "write" and cas.rounds == 2
        assert "lease" not in cas.result.metadata
        failed = store.compare_and_swap("hot", "v1", "x", client_id="r1")
        assert failed.result.kind == "read" and failed.value == "v2"
        assert store.verify_atomic()

    def test_read_modify_write_transforms_current_value(self):
        store = build_store()
        store.write("hot", 10)
        rmw = store.read_modify_write("hot", lambda v: v + 1)
        assert rmw.value == 11 and rmw.result.metadata["rmw"] is True
        leased = store.read_modify_write("hot", lambda v: v * 2)
        assert leased.value == 22 and leased.rounds == 1
        assert store.read("hot", "r1").value == 22
        assert store.verify_atomic()

    def test_cas_rejected_on_swmr_key(self):
        config = SystemConfig.balanced(1, 0, num_readers=2)
        store = ShardedSimStore(
            LuckyAtomicProtocol(config), ["plain"], delay_model=FixedDelay(1.0)
        )
        with pytest.raises(RuntimeError, match="MWMR"):
            store.compare_and_swap("plain", None, "x")

    def test_checker_counts_conditional_outcomes(self):
        store = build_store()
        store.write("hot", "v1")
        store.compare_and_swap("hot", "v1", "v2")
        store.compare_and_swap("hot", "stale", "x")
        store.read_modify_write("hot", lambda v: v + "!")
        result = check_atomicity(store.history("hot"))
        assert result.ok
        assert result.consistency == "mwmr-atomicity+conditional"
        assert result.cas_writes == 2  # the CAS and the RMW
        assert result.cas_failures == 1
        assert "conditional write(s)" in result.summary()


def _record(client, kind, value, invoked, completed, **metadata):
    return OperationRecord(
        client_id=client,
        kind=kind,
        value=value,
        invoked_at=invoked,
        completed_at=completed,
        metadata={"mwmr": True, **metadata},
    )


class TestConditionalOpCheckerRegression:
    """The seeded non-linearizable CAS fixture the checker must reject."""

    def _cas(self, invoked, completed):
        # A CAS claiming it replaced pair (1, "w1") with its own (3, "w2").
        return _record(
            "w2",
            "write",
            "c",
            invoked,
            completed,
            ts=3,
            writer_id="w2",
            cas=True,
            observed_ts=1,
            observed_writer="w1",
            observed_bottom=False,
        )

    def test_rejects_stale_observation_over_a_completed_write(self):
        base = _record("w1", "write", "a", 0.0, 1.0, ts=1, writer_id="w1")
        # This write's pair (2, "w3") lies strictly between the observed
        # pair and the CAS's own — and it completed before the CAS was
        # invoked, so the CAS decided against a value it could not have seen.
        intervening = _record("w3", "write", "b", 2.0, 3.0, ts=2, writer_id="w3")
        result = check_atomicity(
            History([base, intervening, self._cas(invoked=4.0, completed=5.0)])
        )
        assert not result.ok
        assert any(
            violation.property_name == "conditional-isolation"
            for violation in result.violations
        )

    def test_concurrent_intervening_write_is_exempt(self):
        # Same pairs, but the intervening write overlaps the CAS in real
        # time: a lexicographic tie-break may legally order it in between.
        base = _record("w1", "write", "a", 0.0, 1.0, ts=1, writer_id="w1")
        concurrent = _record("w3", "write", "b", 3.5, 6.0, ts=2, writer_id="w3")
        result = check_atomicity(
            History([base, concurrent, self._cas(invoked=4.0, completed=5.0)])
        )
        assert result.ok and result.cas_writes == 1

    def test_check_atomicity_dispatches_on_cas_metadata(self):
        base = _record("w1", "write", "a", 0.0, 1.0, ts=1, writer_id="w1")
        cas = _record(
            "w2",
            "write",
            "b",
            2.0,
            3.0,
            ts=2,
            writer_id="w2",
            cas=True,
            observed_ts=1,
            observed_writer="w1",
            observed_bottom=False,
        )
        result = check_atomicity(History([base, cas]))
        assert isinstance(result.consistency, str)
        assert result.consistency == "mwmr-atomicity+conditional"
        plain = check_atomicity(History([base]))
        assert plain.consistency == "mwmr-atomicity"  # unchanged without CAS


class TestOwnedWritersWorkload:
    def test_owners_dominate_and_rmw_present(self):
        keys = ["k1", "k2", "k3"]
        writers = ["w", "r1", "r2"]
        workload = owned_writers_workload(
            200, keys, writers, readers=["r3"], seed=7
        )
        assert len(workload.operations) == 200
        owners = {key: writers[rank % len(writers)] for rank, key in enumerate(keys)}
        mutations = [op for op in workload.operations if op.kind != "read"]
        owned = sum(1 for op in mutations if op.client_id == owners[op.key])
        assert owned / len(mutations) > 0.8  # steal_fraction is small
        assert any(op.kind == "rmw" for op in mutations)
        values = [op.value for op in mutations]
        assert len(set(values)) == len(values)  # unique installed values

    def test_deterministic_by_seed(self):
        args = (60, ["a", "b"], ["w", "r1"], ["r2"])
        first = owned_writers_workload(*args, seed=3)
        second = owned_writers_workload(*args, seed=3)
        assert first.operations == second.operations
        assert owned_writers_workload(*args, seed=4).operations != first.operations

    def test_runs_on_a_writer_leased_store(self):
        config = SystemConfig.balanced(1, 0, num_readers=3)
        store = build_store(
            keys=("k1", "k2"),
            writer_leases=("k1", "k2"),
            config=config,
            lease_duration=400.0,
        )
        workload = owned_writers_workload(
            80,
            list(store.keys),
            config.client_ids()[:2],
            config.reader_ids(),
            mean_gap=0.2,
            seed=1,
        )
        run_store_workload(store, workload)
        assert store.verify_atomic()
        assert store.lease_writes() > 0
        store.run_until_quiescent()


class TestWriterLeaseSweep:
    def test_s7_sweep_smoke(self):
        table = writer_lease_sweep(num_keys=2, num_operations=40)
        assert table.experiment_id == "S7"
        rows = table.rows
        scenarios = [row["scenario"] for row in rows]
        assert scenarios == ["swmr-1-round", "no-wlease", "wlease"]
        by_name = dict(zip(scenarios, rows))
        assert by_name["swmr-1-round"]["vs_swmr"] == 1.0
        assert by_name["wlease"]["lease_fraction"] > 0
        # Leases close most of the query-round gap on the hot key.
        assert by_name["wlease"]["mean_rounds"] < by_name["no-wlease"]["mean_rounds"]
        assert by_name["wlease"]["vs_swmr"] > by_name["no-wlease"]["vs_swmr"]
