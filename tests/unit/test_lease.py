"""Unit tests for the lease: the shared table and holder under both role
bindings, then each role's own policy (what is withheld, what is skipped)."""

import pytest

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.lease import READ_LEASE, WRITER_LEASE, LeaseHolder
from repro.core.messages import (
    LeaseRenew,
    LeaseRevokeAck,
    PreWrite,
    PreWriteAck,
    Read,
    ReadAck,
    TimestampQuery,
    TimestampQueryAck,
    WriterLeaseRenew,
    WriterLeaseRevoke,
    WriterLeaseRevokeAck,
)
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.reader import LeasedReader
from repro.core.server import StorageServer
from repro.core.types import INITIAL_PAIR, TimestampValue
from repro.core.writer import LeasedWriter
from repro.lease import LeaseServer, WriterLeaseServer
from repro.store.sim import ShardedSimStore
from repro.verify.atomicity import check_atomicity

V1 = TimestampValue(1, "v1")
V2 = TimestampValue(2, "v2")


@pytest.fixture
def config():
    # S=3, S-t=2: the smallest crash-only configuration.
    return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)


POLICY_PARAMS = [
    pytest.param(TimerPolicy.WAIT, id="paper_faithful"),
    pytest.param(TimerPolicy.DEADLINE, id="deadline"),
]
POLICIES = pytest.mark.parametrize("policy", POLICY_PARAMS)


def sends_of(effects, message_type):
    return [s for s in effects.sends if isinstance(s.message, message_type)]


def pair_at(ts):
    return TimestampValue(ts, f"v{ts}")


class ReadBinding:
    """The read role: ``LeaseServer`` grants, a ``LeasedReader`` holds."""

    role = READ_LEASE
    server_class = LeaseServer
    fallback_request = Read  # what a fallback operation's first round sends

    def client(self, config, policy):
        return LeasedReader(
            "c1", config, lease_duration=50.0, timer_delay=5.0, timer_policy=policy
        )

    def fallback(self, client, config, ts):
        """One fast fallback READ returning ``pair_at(ts)``; its first effects.

        The completion comes with the last reply (deadline) or with the timer
        (paper-faithful); a timer reaching a reader that returned is stale.
        """
        effects = client.read()
        pair = pair_at(ts)
        completions = []
        for index in range(1, config.round_quorum + 1):
            completions += client.handle_message(
                ReadAck(
                    sender=f"s{index}", read_ts=client.read_ts, round=1, pw=pair, w=pair, vw=pair
                )
            ).completions
        assert bool(completions) == (client.timer_policy is TimerPolicy.DEADLINE)
        completions += client.on_timer(f"c1/op{client._op_counter}/read-round-1").completions
        assert [c.rounds for c in completions] == [1], "the fallback read should be fast"
        return effects

    def invoke(self, client):
        return client.read()

    def finish(self, client):
        """A lease-served read completes in the invocation itself."""


class WriterBinding:
    """The writer role: ``WriterLeaseServer`` grants, a ``LeasedWriter`` holds."""

    role = WRITER_LEASE
    server_class = WriterLeaseServer
    fallback_request = TimestampQuery

    def client(self, config, policy):
        return LeasedWriter(
            config, lease_duration=50.0, timer_delay=5.0, writer_id="c1", timer_policy=policy
        )

    def fallback(self, client, config, ts):
        """One fallback WRITE (query round, fast PW phase) installing
        ``(ts, "c1")``; returns the effects of its invocation."""
        effects = client.write(f"v{ts}")
        for index in range(1, config.round_quorum + 1):
            client.handle_message(
                TimestampQueryAck(
                    sender=f"s{index}",
                    op_id=client._op_counter,
                    pw=pair_at(ts - 1),
                    w=pair_at(ts - 1),
                )
            )
        assert [c.rounds for c in self._acknowledge(client, config, ts)] == [2]
        return effects

    def _acknowledge(self, client, config, ts):
        completions = []
        for index in range(1, config.fast_write_quorum + 1):
            completions += client.handle_message(
                PreWriteAck(sender=f"s{index}", ts=ts)
            ).completions
        assert bool(completions) == (client.timer_policy is TimerPolicy.DEADLINE)
        return completions + client.on_timer(f"c1/op{client._op_counter}/pw").completions

    def invoke(self, client):
        return client.write("leased")

    def finish(self, client):
        """Acknowledge the 1-round leased write *invoke* left in flight."""
        assert [c.rounds for c in self._acknowledge(client, client.config, client.ts)] == [1]


BINDINGS = [pytest.param(ReadBinding(), id="read"), pytest.param(WriterBinding(), id="writer")]


@pytest.fixture(params=BINDINGS)
def binding(request):
    return request.param


@pytest.fixture
def server(binding, config):
    return binding.server_class(StorageServer("s1", config), lease_duration=50.0)


@pytest.fixture(params=POLICY_PARAMS)
def client(request, binding, config):
    """A lease holder's owner under each round-1 policy: under ``WAIT`` the
    fallback operation returns on its timer, under ``DEADLINE`` on the reply
    that makes it fast — the lease machinery must not care which."""
    return binding.client(config, request.param)


def renew(binding, holder="h1", lease_id=1, duration=50.0):
    return binding.role.renew(sender=holder, lease_id=lease_id, duration=duration)


def grant(binding, server_id, request, ts, **fields):
    return binding.role.grant(
        sender=server_id,
        lease_id=request.lease_id,
        duration=request.duration,
        observed=pair_at(ts),
        **fields,
    )


def acquire(binding, client, config, ts=1, servers=("s1", "s2")):
    """A fallback operation plus a clean grant quorum; returns the request."""
    request = sends_of(binding.fallback(client, config, ts), binding.role.renew)[0].message
    for server_id in servers:
        client.handle_message(grant(binding, server_id, request, ts))
    return request


class TestLeaseTable:
    """The grant table, once per role binding.  ``PreWrite`` from ``w2`` is
    the one input that makes both policies revoke: it advances the stored
    pair (read role) and comes from a writer other than the holder (writer
    role), and either way its acknowledgement is what gets parked."""

    def test_grants_with_observed_pair(self, binding, server):
        server.handle_message(PreWrite(sender="w2", ts=1, pw=V1, w=INITIAL_PAIR))
        effects = server.handle_message(renew(binding, lease_id=7))
        (granted,) = sends_of(effects, binding.role.grant)
        assert granted.destination == "h1"
        assert granted.message.lease_id == 7
        assert granted.message.observed == V1
        assert [t.timer_id for t in effects.timers] == [
            f"{binding.role.timer_prefix}/expire/h1/7"
        ]

    def test_zero_duration_request_is_ignored(self, binding, server):
        assert server.handle_message(renew(binding, duration=0.0)).empty

    def test_oversized_duration_request_is_rejected(self, binding, server):
        # Granting beyond the configured bound would outlive the recovery
        # grace window and the documented stall bound; clamping instead would
        # expire the server's window before the holder's own timer.  Reject.
        effects = server.handle_message(
            renew(binding, duration=server.table.lease_duration + 1)
        )
        assert effects.empty
        assert server.describe()[binding.role.describe_key]["holders"] == []

    def test_revocation_parks_the_ack_until_the_holder_confirms(self, binding, server):
        server.handle_message(renew(binding))
        effects = server.handle_message(PreWrite(sender="w2", ts=1, pw=V1))
        assert [(s.destination, type(s.message)) for s in effects.sends] == [
            ("h1", binding.role.revoke)
        ]
        release = server.handle_message(
            binding.role.revoke_ack(sender="h1", lease_id=1)
        )
        assert [(s.destination, type(s.message)) for s in release.sends] == [
            ("w2", PreWriteAck)
        ]
        assert server.describe()[binding.role.describe_key]["revocations"] == 1

    def test_expiry_releases_without_revoke_ack(self, binding, server):
        server.handle_message(renew(binding, lease_id=3))
        server.handle_message(PreWrite(sender="w2", ts=1, pw=V1))
        release = server.on_timer(f"{binding.role.timer_prefix}/expire/h1/3")
        assert [s.destination for s in release.sends] == ["w2"]

    def test_stale_or_malformed_expiry_timer_is_ignored(self, binding, server):
        server.handle_message(renew(binding, lease_id=1))
        server.handle_message(renew(binding, lease_id=2))
        prefix = binding.role.timer_prefix
        # The first lease's timer fires after the renewal replaced it.
        assert server.on_timer(f"{prefix}/expire/h1/1").empty
        assert server.on_timer(f"{prefix}/expire/h1/not-a-number").empty
        assert server.describe()[binding.role.describe_key]["holders"] == ["h1"]

    def test_no_grants_while_revoking(self, binding, server):
        server.handle_message(renew(binding))
        server.handle_message(PreWrite(sender="w2", ts=1, pw=V1))
        assert server.handle_message(renew(binding, holder="h2")).empty
        assert server.handle_message(renew(binding, holder="h1", lease_id=2)).empty

    def test_recovery_grace_withholds_everything(self, binding, server):
        server.notify_recovered()
        assert server.in_grace
        grace_timer = f"{binding.role.timer_prefix}/grace"
        effects = server.handle_message(PreWrite(sender="w2", ts=1, pw=V1))
        # Silence: the ack is parked until the grace window closes, and the
        # first input of any kind arms the grace timer — once.
        assert not effects.sends
        assert [t.timer_id for t in effects.timers] == [grace_timer]
        assert server.handle_message(renew(binding)).empty
        release = server.on_timer(grace_timer)
        assert not server.in_grace
        assert [s.destination for s in release.sends] == ["w2"]
        assert sends_of(server.handle_message(renew(binding)), binding.role.grant)

    def test_inner_timer_cancels_survive_withholding(self, binding, config):
        # Copy-drift resolved: the read wrapper used to drop the wrapped
        # automaton's cancels while it withheld the sends.
        class Cancelling(StorageServer):
            def handle_message(self, message):
                effects = super().handle_message(message)
                effects.cancel_timer("inner/t")
                return effects

        server = binding.server_class(Cancelling("s1", config), lease_duration=50.0)
        server.handle_message(renew(binding))
        effects = server.handle_message(PreWrite(sender="w2", ts=1, pw=V1))
        assert not sends_of(effects, PreWriteAck)
        assert effects.cancels == ["inner/t"]


class TestLeaseServer:
    """The read role's withhold policy."""

    @pytest.fixture
    def server(self, config):
        return LeaseServer(StorageServer("s1", config), lease_duration=50.0)

    def test_non_advancing_write_is_not_withheld(self, server):
        server.handle_message(PreWrite(sender="w", ts=2, pw=V2))
        server.handle_message(LeaseRenew(sender="r1", lease_id=1, duration=50.0))
        # A stale PW does not advance pw/w/vw, so nothing needs revoking.
        effects = server.handle_message(PreWrite(sender="w", ts=1, pw=V1))
        assert len(effects.sends) == 1
        assert effects.sends[0].destination == "w"

    def test_reads_are_withheld_while_revoking(self, server):
        server.handle_message(LeaseRenew(sender="r1", lease_id=1, duration=50.0))
        server.handle_message(PreWrite(sender="w", ts=1, pw=V1))
        # Another reader's READ must not observe the advanced state while the
        # revocation is in flight (it could complete a fast read the lease
        # holder has not linearized against).
        effects = server.handle_message(Read(sender="r2", read_ts=1, round=1))
        assert not sends_of(effects, ReadAck)
        release = server.handle_message(LeaseRevokeAck(sender="r1", lease_id=1))
        assert {s.destination for s in release.sends} == {"w", "r2"}


class TestWriterLeaseServer:
    """The writer role's withhold policy."""

    @pytest.fixture
    def server(self, config):
        server = WriterLeaseServer(StorageServer("s1", config), lease_duration=50.0)
        server.handle_message(WriterLeaseRenew(sender="w1", lease_id=1, duration=50.0))
        return server

    def test_holder_and_reader_traffic_passes(self, server):
        ack = server.handle_message(PreWrite(sender="w1", ts=1, pw=V1))
        assert sends_of(ack, PreWriteAck)
        assert sends_of(server.handle_message(Read(sender="r2", read_ts=1, round=1)), ReadAck)
        assert not server.describe()["writer_leases"]["revoking"]

    def test_competing_query_is_parked_and_rehandled_after_release(self, server):
        effects = server.handle_message(TimestampQuery(sender="w2", op_id=5))
        assert [type(s.message) for s in effects.sends] == [WriterLeaseRevoke]
        assert server.describe()["writer_leases"]["parked"] == 1
        # The holder completes one more write before it hears the revoke ...
        server.handle_message(PreWrite(sender="w1", ts=1, pw=V1))
        release = server.handle_message(WriterLeaseRevokeAck(sender="w1", lease_id=1))
        # ... and the parked query's reply, computed now, reflects it.
        (reply,) = sends_of(release, TimestampQueryAck)
        assert reply.destination == "w2" and reply.message.pw == V1

    def test_competing_lease_request_evicts_the_single_holder(self, server):
        effects = server.handle_message(
            WriterLeaseRenew(sender="w2", lease_id=1, duration=50.0)
        )
        assert [(s.destination, type(s.message)) for s in effects.sends] == [
            ("w1", WriterLeaseRevoke)
        ]
        assert server.describe()["writer_leases"]["holders"] == ["w1"]


class TestLeaseHolder:
    """The holder, once per role binding, driven through its owner automaton."""

    def test_clean_grant_quorum_activates_lease(self, binding, client, config):
        acquire(binding, client, config)
        assert client.lease_held
        effects = binding.invoke(client)
        assert not sends_of(effects, binding.fallback_request)

    def test_activation_waits_for_the_riding_operation(self, binding, client, config):
        request = sends_of(binding.invoke(client), binding.role.renew)[0].message
        for server_id in ("s1", "s2", "s3"):
            client.handle_message(grant(binding, server_id, request, 0))
        assert not client.lease_held  # nothing cached to vouch for yet

    def test_dirty_grants_do_not_count(self, binding, client, config):
        request = sends_of(binding.fallback(client, config, 1), binding.role.renew)[0].message
        # Both grants carry a pair newer than the cached one: the granting
        # servers saw a newer write first, so they can't vouch.
        for server_id in ("s1", "s2"):
            client.handle_message(grant(binding, server_id, request, 2))
        assert not client.lease_held

    def test_revoke_drops_lease_and_acks(self, binding, client, config):
        request = acquire(binding, client, config)
        effects = client.handle_message(
            binding.role.revoke(sender="s1", lease_id=request.lease_id)
        )
        assert not client.lease_held
        (ack,) = sends_of(effects, binding.role.revoke_ack)
        assert ack.destination == "s1" and ack.message.lease_id == request.lease_id
        # Both timers of the dead lease are disarmed.
        prefix = f"c1/{binding.role.timer_prefix}{request.lease_id}"
        assert effects.cancels == [f"{prefix}/expire", f"{prefix}/renew"]

    def test_stale_revoke_still_acked_but_harmless(self, binding, client, config):
        request = acquire(binding, client, config)
        effects = client.handle_message(
            binding.role.revoke(sender="s1", lease_id=request.lease_id - 1)
        )
        assert client.lease_held
        assert sends_of(effects, binding.role.revoke_ack)

    def test_expiry_timer_drops_lease(self, binding, client, config):
        request = acquire(binding, client, config)
        stem = f"c1/{binding.role.timer_prefix}"
        client.on_timer(f"{stem}{request.lease_id + 1}/expire")  # not this lease
        client.on_timer(f"{stem}garbage/expire")  # malformed: ignored, no raise
        assert client.lease_held
        client.on_timer(f"{stem}{request.lease_id}/expire")
        assert not client.lease_held
        # The next operation falls back to the protocol (and re-acquires).
        effects = binding.invoke(client)
        assert sends_of(effects, binding.fallback_request)
        assert sends_of(effects, binding.role.renew)

    def test_epoch_fence_drops_recovered_granter(self, binding, client, config):
        acquire(binding, client, config)
        assert client.lease_held
        # Any message from a later incarnation of a granter voids its grant;
        # the quorum breaks (2 of 3 were counted) and the lease dies.
        client.handle_message(
            ReadAck(sender="s1", read_ts=99, round=1, pw=V1, w=V1, epoch=1)
        )
        assert not client.lease_held

    def test_grant_of_a_dead_incarnation_is_refused(self, binding, client, config):
        # Copy-drift resolved: both roles used to record a grant sent before
        # a crash and delivered after the recovery was seen (stamped with the
        # old epoch in one copy, the new one in the other) and count it.
        request = sends_of(binding.fallback(client, config, 1), binding.role.renew)[0].message
        client.handle_message(
            ReadAck(sender="s1", read_ts=99, round=1, pw=V1, w=V1, epoch=1)
        )
        client.handle_message(grant(binding, "s1", request, 1, epoch=0))
        client.handle_message(grant(binding, "s2", request, 1))
        assert not client.lease_held
        client.handle_message(grant(binding, "s1", request, 1, epoch=1))
        assert client.lease_held

    def test_revoke_of_inflight_renewal_drops_active_lease(self, binding, client, config):
        # Servers keep one lease per holder, so a renewal supersedes the
        # active lease in their tables: after a renewal is broadcast, a
        # revoke naming the renewal's id releases the parked acks
        # server-side.  The holder must therefore stop relying on the
        # superseded lease too — a reader would serve stale reads after the
        # write completed, a writer would write below a competitor's pair.
        request = acquire(binding, client, config)
        client.on_timer(f"c1/{binding.role.timer_prefix}{request.lease_id}/renew")
        renewal = sends_of(binding.invoke(client), binding.role.renew)[0].message
        assert renewal.lease_id == request.lease_id + 1
        assert client.lease_held
        client.handle_message(binding.role.revoke(sender="s1", lease_id=renewal.lease_id))
        assert not client.lease_held
        binding.finish(client)
        assert sends_of(binding.invoke(client), binding.fallback_request)

    def test_renew_due_piggybacks_on_next_leased_operation(self, binding, client, config):
        request = acquire(binding, client, config)
        client.on_timer(f"c1/{binding.role.timer_prefix}{request.lease_id}/renew")
        effects = binding.invoke(client)
        assert not sends_of(effects, binding.fallback_request)  # still under the lease
        renews = sends_of(effects, binding.role.renew)
        assert len(renews) == config.num_servers
        assert renews[0].message.lease_id == request.lease_id + 1
        binding.finish(client)
        assert not sends_of(binding.invoke(client), binding.role.renew)  # asked once

    def test_renewal_supersedes_the_held_lease(self, binding, client, config):
        request = acquire(binding, client, config)
        client.on_timer(f"c1/{binding.role.timer_prefix}{request.lease_id}/renew")
        renewal = sends_of(binding.invoke(client), binding.role.renew)[0].message
        binding.finish(client)
        client.handle_message(grant(binding, "s1", renewal, 1))
        effects = client.handle_message(grant(binding, "s2", renewal, 1))
        assert client.lease.held.lease_id == renewal.lease_id
        old = f"c1/{binding.role.timer_prefix}{request.lease_id}"
        assert effects.cancels == [f"{old}/expire", f"{old}/renew"]
        # The superseded lease's expiry, had it still fired, is stale.
        client.on_timer(f"{old}/expire")
        assert client.lease_held

    def test_fallback_does_not_supersede_inflight_acquisition(self, binding, client, config):
        # Regression: a caller that re-invokes the moment its operation
        # returned — before any grant was handled — used to start a fresh
        # acquisition and discard the one whose grants were in the mailbox;
        # in a closed loop the lease then never activated.
        request = sends_of(binding.fallback(client, config, 1), binding.role.renew)[0].message
        second = binding.invoke(client)
        assert sends_of(second, binding.fallback_request)
        assert not sends_of(second, binding.role.renew)
        for server_id in ("s1", "s2", "s3"):
            client.handle_message(grant(binding, server_id, request, 1))
        # The grants of the first operation's acquisition activate the lease
        # while the second is still in flight, and the third grant (past the
        # S - t quorum) is kept: one more granter the lease may lose.
        assert client.lease_held
        assert len(client.lease.held.grants) == 3

    def test_inflight_acquisition_cache_follows_later_fallbacks(self, binding, client, config):
        # Grants that observed ts 2 are dirty against the pair the first
        # operation returned; a later fallback returning ts 2 makes them clean.
        request = sends_of(binding.fallback(client, config, 1), binding.role.renew)[0].message
        for server_id in ("s1", "s2"):
            client.handle_message(grant(binding, server_id, request, 2))
        assert not client.lease_held
        assert not sends_of(binding.fallback(client, config, 2), binding.role.renew)
        assert client.lease_held
        assert client.lease.held.cached.ts == 2

    def test_invalid_duration_rejected(self, binding, config):
        with pytest.raises(ValueError):
            LeaseHolder(binding.role, "c1", config, lease_duration=0.0)


class TestLeasedReader:
    """What the read lease lets a reader skip: the whole protocol."""

    @POLICIES
    def test_leased_read_is_served_locally_in_zero_rounds(self, config, policy):
        binding = ReadBinding()
        reader = binding.client(config, policy)
        acquire(binding, reader, config)
        effects = reader.read()
        (completion,) = effects.completions
        assert completion.rounds == 0 and completion.fast
        assert completion.value == "v1"
        assert completion.metadata["lease"] is True
        assert reader.lease_reads == 1 and not effects.sends


class TestLeasedWriter:
    """What the writer lease lets a writer skip: the query round."""

    @POLICIES
    def test_leased_write_skips_the_query_round(self, config, policy):
        binding = WriterBinding()
        writer = binding.client(config, policy)
        acquire(binding, writer, config)
        effects = writer.write("x")
        (pre_write, *_) = sends_of(effects, PreWrite)
        assert pre_write.message.pw == TimestampValue(2, "x", "c1")
        assert not sends_of(effects, TimestampQuery)
        binding.finish(writer)
        assert writer.lease_writes == 1
        assert writer.lease.held.cached == TimestampValue(2, "x", "c1")

    @POLICIES
    def test_leased_cas_mismatch_is_decided_locally(self, config, policy):
        binding = WriterBinding()
        writer = binding.client(config, policy)
        acquire(binding, writer, config)
        effects = writer.compare_and_swap("stale", "x")
        (completion,) = effects.completions
        assert completion.rounds == 0 and completion.kind == "read"
        assert completion.value == "v1" and completion.metadata["cas_failed"] is True
        assert not effects.sends and writer.lease_conditionals == 1


def leased_sim_store(config, policy, lease_duration):
    """One leased key, unbatched: every message is its own delivery."""
    base = LuckyAtomicProtocol(config, timer_policy=policy)
    return ShardedSimStore(
        base, ["k"], leases=["k"], lease_duration=lease_duration, batching=False
    )


def acquire_by_reading(store, policy, value):
    """Closed-loop fallback reads until the lease holds.

    Paper-faithful, the grants are handled while the first read sits out its
    timer.  Under the deadline it returns first: the caller's next read is
    already in flight when the grants land, so it is the third that is served
    from the lease — and only because the second did not supersede the first's
    acquisition.
    """
    fallbacks = 1 if policy is TimerPolicy.WAIT else 2
    for _ in range(fallbacks):
        read = store.read("k", "r1")
        assert read.value == value and read.rounds == 1
    return fallbacks


class TestLeasedProtocolEndToEnd:
    @POLICIES
    def test_lease_lifecycle_on_the_simulator(self, config, policy):
        store = leased_sim_store(config, policy, lease_duration=50.0)
        store.write("k", "v1")
        acquire_by_reading(store, policy, "v1")
        leased = store.read("k", "r1")
        assert leased.rounds == 0 and leased.result.metadata["lease"] is True
        # A write revokes before its acknowledgements complete ...
        store.write("k", "v2")
        # ... so the next read falls back and returns the new value.
        acquire_by_reading(store, policy, "v2")
        again = store.read("k", "r1")
        assert again.value == "v2" and again.rounds == 0
        result = check_atomicity(store.history())
        assert result.ok
        assert result.lease_reads == 2
        assert "lease-served" in result.summary()
        store.run_until_quiescent()  # lease timers drain; no livelock

    @POLICIES
    def test_lease_expires_in_virtual_time(self, config, policy):
        store = leased_sim_store(config, policy, lease_duration=20.0)
        store.write("k", "v1")
        acquire_by_reading(store, policy, "v1")
        assert store.read("k", "r1").rounds == 0
        store.run_for(25.0)  # outlive the lease without any revocation
        expired = store.read("k", "r1")
        assert expired.rounds >= 1  # the lease lapsed, the read went remote
        assert expired.value == "v1"
        assert check_atomicity(store.history()).ok
