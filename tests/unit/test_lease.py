"""Unit tests for the read-lease roles: LeaseServer and LeasedReader."""

import pytest

from repro.core.automaton import TimerPolicy
from repro.core.config import SystemConfig
from repro.core.messages import (
    LeaseGrant,
    LeaseRenew,
    LeaseRevoke,
    LeaseRevokeAck,
    PreWrite,
    PreWriteAck,
    Read,
    ReadAck,
)
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.reader import LeasedReader
from repro.core.server import StorageServer
from repro.core.types import INITIAL_PAIR, TimestampValue
from repro.lease import LeasedLuckyProtocol, LeaseServer
from repro.sim.cluster import SimCluster
from repro.sim.latency import FixedDelay
from repro.verify.atomicity import check_atomicity

V1 = TimestampValue(1, "v1")
V2 = TimestampValue(2, "v2")


@pytest.fixture
def config():
    # S=3, S-t=2: the smallest crash-only configuration.
    return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)


@pytest.fixture
def server(config):
    return LeaseServer(StorageServer("s1", config), lease_duration=50.0)


POLICY_PARAMS = [
    pytest.param(TimerPolicy.WAIT, id="paper_faithful"),
    pytest.param(TimerPolicy.DEADLINE, id="deadline"),
]
POLICIES = pytest.mark.parametrize("policy", POLICY_PARAMS)


@pytest.fixture(params=POLICY_PARAMS)
def reader(request, config):
    """A leased reader under each round-1 policy: under ``WAIT`` the fallback
    read returns on its timer, under ``DEADLINE`` on the reply that makes it
    fast — the lease machinery must not care which."""
    return LeasedReader(
        "r1", config, lease_duration=50.0, timer_delay=5.0, timer_policy=request.param
    )


def sends_of(effects, message_type):
    return [s for s in effects.sends if isinstance(s.message, message_type)]


def fallback_read(reader, config, pair=V1):
    """Drive *reader* through one fast fallback read; returns its effects.

    The completion comes with the last reply (deadline) or with the timer
    (paper-faithful); a timer reaching a reader that already returned is stale.
    """
    effects = reader.read()
    completions = []
    for index in range(1, config.round_quorum + 1):
        completions += reader.handle_message(
            ReadAck(
                sender=f"s{index}",
                read_ts=reader.read_ts,
                round=1,
                pw=pair,
                w=pair,
                vw=pair,
            )
        ).completions
    assert bool(completions) == (reader.timer_policy is TimerPolicy.DEADLINE)
    completions += reader.on_timer(f"r1/op{reader._op_counter}/read-round-1").completions
    assert len(completions) == 1, "the fallback read should complete fast"
    assert completions[0].rounds == 1
    return effects


def grant_reader(reader, config, pair=V1, servers=None):
    """Drive *reader* through a fallback read and a full clean grant quorum."""
    renew = sends_of(fallback_read(reader, config, pair), LeaseRenew)[0].message
    for server_id in servers or [f"s{i}" for i in range(1, config.round_quorum + 1)]:
        reader.handle_message(
            LeaseGrant(
                sender=server_id,
                lease_id=renew.lease_id,
                duration=renew.duration,
                observed=pair,
            )
        )
    return renew


class TestLeaseServer:
    def test_grants_with_observed_pair(self, server):
        server.handle_message(PreWrite(sender="w", ts=1, pw=V1, w=INITIAL_PAIR))
        effects = server.handle_message(
            LeaseRenew(sender="r1", lease_id=7, duration=50.0)
        )
        grants = sends_of(effects, LeaseGrant)
        assert len(grants) == 1
        grant = grants[0].message
        assert grant.lease_id == 7
        assert grant.observed == V1
        assert len(effects.timers) == 1  # the expiry timer

    def test_zero_duration_request_is_ignored(self, server):
        effects = server.handle_message(
            LeaseRenew(sender="r1", lease_id=1, duration=0.0)
        )
        assert effects.empty

    def test_oversized_duration_request_is_rejected(self, server):
        # Granting beyond the configured bound would outlive the recovery
        # grace window and the documented stall bound; clamping instead would
        # expire the server's window before the holder's own timer.  Reject.
        effects = server.handle_message(
            LeaseRenew(sender="r1", lease_id=1, duration=server.lease_duration + 1)
        )
        assert effects.empty
        assert server.describe()["leases"]["holders"] == []

    def test_write_withholds_ack_and_revokes(self, server):
        server.handle_message(LeaseRenew(sender="r1", lease_id=1, duration=50.0))
        effects = server.handle_message(PreWrite(sender="w", ts=1, pw=V1))
        # The PW ack is parked; only the revoke leaves.
        assert not sends_of(effects, PreWriteAck)
        revokes = sends_of(effects, LeaseRevoke)
        assert [s.destination for s in revokes] == ["r1"]
        assert all(isinstance(s.message, LeaseRevoke) for s in effects.sends)
        # The holder's confirmation releases the withheld acknowledgement.
        release = server.handle_message(LeaseRevokeAck(sender="r1", lease_id=1))
        assert len(release.sends) == 1
        assert release.sends[0].destination == "w"

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

    def test_expiry_releases_without_revoke_ack(self, server):
        server.handle_message(LeaseRenew(sender="r1", lease_id=3, duration=50.0))
        server.handle_message(PreWrite(sender="w", ts=1, pw=V1))
        release = server.on_timer("lease/expire/r1/3")
        assert len(release.sends) == 1
        assert release.sends[0].destination == "w"

    def test_stale_expiry_timer_is_ignored(self, server):
        server.handle_message(LeaseRenew(sender="r1", lease_id=1, duration=50.0))
        server.handle_message(LeaseRenew(sender="r1", lease_id=2, duration=50.0))
        # The first lease's timer fires after the renewal replaced it.
        assert server.on_timer("lease/expire/r1/1").empty
        assert server.describe()["leases"]["holders"] == ["r1"]

    def test_no_grants_while_revoking(self, server):
        server.handle_message(LeaseRenew(sender="r1", lease_id=1, duration=50.0))
        server.handle_message(PreWrite(sender="w", ts=1, pw=V1))
        effects = server.handle_message(
            LeaseRenew(sender="r2", lease_id=1, duration=50.0)
        )
        assert effects.empty

    def test_recovery_grace_withholds_everything(self, server):
        server.notify_recovered()
        assert server.in_grace
        effects = server.handle_message(Read(sender="r2", read_ts=1, round=1))
        # Silence: even the READ ack is parked until the grace window closes,
        # and the first input arms the grace timer.
        assert not effects.sends
        assert any(t.timer_id == "lease/grace" for t in effects.timers)
        assert server.handle_message(
            LeaseRenew(sender="r1", lease_id=1, duration=50.0)
        ).empty
        release = server.on_timer("lease/grace")
        assert not server.in_grace
        assert [s.destination for s in release.sends] == ["r2"]


class TestLeasedReader:
    def test_clean_grant_quorum_activates_lease(self, reader, config):
        grant_reader(reader, config)
        assert reader.lease_held
        effects = reader.read()
        assert len(effects.completions) == 1
        completion = effects.completions[0]
        assert completion.rounds == 0 and completion.fast
        assert completion.value == "v1"
        assert completion.metadata["lease"] is True
        assert reader.lease_reads == 1

    def test_dirty_grants_do_not_count(self, reader, config):
        renew = sends_of(fallback_read(reader, config), LeaseRenew)[0].message
        # Both grants carry a pair newer than the cached selection: the
        # granting servers saw a newer write first, so they can't vouch.
        for server_id in ("s1", "s2"):
            reader.handle_message(
                LeaseGrant(
                    sender=server_id,
                    lease_id=renew.lease_id,
                    duration=renew.duration,
                    observed=V2,
                )
            )
        assert not reader.lease_held

    def test_revoke_drops_lease_and_acks(self, reader, config):
        renew = grant_reader(reader, config)
        effects = reader.handle_message(
            LeaseRevoke(sender="s1", lease_id=renew.lease_id)
        )
        assert not reader.lease_held
        acks = sends_of(effects, LeaseRevokeAck)
        assert [s.destination for s in acks] == ["s1"]
        assert acks[0].message.lease_id == renew.lease_id

    def test_stale_revoke_still_acked_but_harmless(self, reader, config):
        renew = grant_reader(reader, config)
        effects = reader.handle_message(
            LeaseRevoke(sender="s1", lease_id=renew.lease_id - 1)
        )
        assert reader.lease_held
        assert sends_of(effects, LeaseRevokeAck)

    def test_expiry_timer_drops_lease(self, reader, config):
        renew = grant_reader(reader, config)
        reader.on_timer(f"r1/lease{renew.lease_id}/expire")
        assert not reader.lease_held
        # The next read falls back to the protocol (and re-acquires).
        effects = reader.read()
        assert sends_of(effects, Read)
        assert sends_of(effects, LeaseRenew)

    def test_epoch_fence_drops_recovered_granter(self, reader, config):
        renew = grant_reader(reader, config)
        assert reader.lease_held
        # Any message from a later incarnation of a granter voids its grant;
        # the quorum breaks (2 of 3 were counted) and the lease dies.
        reader.handle_message(
            ReadAck(sender="s1", read_ts=99, round=1, pw=V1, w=V1, epoch=1)
        )
        assert not reader.lease_held

    def test_revoke_of_inflight_renewal_drops_active_lease(self, reader, config):
        # Servers keep one lease per holder, so a renewal supersedes the
        # active lease in their tables: after a renewal is broadcast, a
        # revoke naming the renewal's id releases the write's withheld acks
        # server-side.  The holder must therefore stop serving the superseded
        # lease too — keeping it active would serve stale reads after the
        # write completed.
        renew = grant_reader(reader, config)
        reader.on_timer(f"r1/lease{renew.lease_id}/renew")
        effects = reader.read()  # served locally, piggybacks LeaseRenew(id+1)
        renewal = sends_of(effects, LeaseRenew)[0].message
        assert renewal.lease_id == renew.lease_id + 1
        assert reader.lease_held
        reader.handle_message(LeaseRevoke(sender="s1", lease_id=renewal.lease_id))
        assert not reader.lease_held
        assert sends_of(reader.read(), Read)  # falls back to the protocol

    def test_renew_due_piggybacks_on_next_lease_read(self, reader, config):
        renew = grant_reader(reader, config)
        reader.on_timer(f"r1/lease{renew.lease_id}/renew")
        effects = reader.read()
        assert len(effects.completions) == 1  # still served locally
        renews = sends_of(effects, LeaseRenew)
        assert len(renews) == config.num_servers
        assert renews[0].message.lease_id == renew.lease_id + 1

    def test_fallback_read_does_not_supersede_inflight_acquisition(self, reader, config):
        # Regression: a caller that re-invokes the moment its read returned —
        # before any LeaseGrant was handled — used to start a fresh
        # acquisition and discard the one whose grants were in the mailbox;
        # in a closed loop the lease then never activated.
        first = fallback_read(reader, config)
        renew = sends_of(first, LeaseRenew)[0].message
        second = reader.read()
        assert sends_of(second, Read) and not sends_of(second, LeaseRenew)
        for server_id in ("s1", "s2", "s3"):
            reader.handle_message(
                LeaseGrant(
                    sender=server_id,
                    lease_id=renew.lease_id,
                    duration=renew.duration,
                    observed=V1,
                )
            )
        # The grants of the first read's acquisition activate the lease while
        # the second read is still in flight, and the third grant (past the
        # S - t quorum) is kept: one more granter the lease may lose.
        assert reader.lease_held
        assert len(reader._lease.grants) == 3

    def test_inflight_acquisition_cache_follows_later_fallback_reads(self, reader, config):
        # Grants that observed V2 are dirty against the V1 the first read
        # returned; a later fallback read returning V2 makes them clean.
        renew = sends_of(fallback_read(reader, config, V1), LeaseRenew)[0].message
        for server_id in ("s1", "s2"):
            reader.handle_message(
                LeaseGrant(
                    sender=server_id,
                    lease_id=renew.lease_id,
                    duration=renew.duration,
                    observed=V2,
                )
            )
        assert not reader.lease_held
        assert not sends_of(fallback_read(reader, config, V2), LeaseRenew)
        assert reader.lease_held
        assert reader.read().completions[0].value == "v2"

    def test_invalid_parameters_rejected(self, config):
        with pytest.raises(ValueError):
            LeasedReader("r1", config, lease_duration=0.0)
        with pytest.raises(ValueError):
            LeasedReader("r1", config, renew_fraction=1.5)


def leased_sim_cluster(config, policy, lease_duration):
    base = LuckyAtomicProtocol(config, timer_policy=policy)
    suite = LeasedLuckyProtocol(base, lease_duration=lease_duration)
    return SimCluster(suite, delay_model=FixedDelay(1.0))


def acquire_by_reading(cluster, policy, value):
    """Closed-loop fallback reads until the lease holds.

    Paper-faithful, the grants are handled while the first read sits out its
    timer.  Under the deadline it returns first: the caller's next read is
    already in flight when the grants land, so it is the third that is served
    from the lease — and only because the second did not supersede the first's
    acquisition.
    """
    fallbacks = 1 if policy is TimerPolicy.WAIT else 2
    for _ in range(fallbacks):
        read = cluster.read("r1")
        assert read.value == value and read.rounds == 1
    return fallbacks


class TestLeasedProtocolEndToEnd:
    @POLICIES
    def test_lease_lifecycle_on_the_simulator(self, config, policy):
        cluster = leased_sim_cluster(config, policy, lease_duration=50.0)
        cluster.write("v1")
        acquire_by_reading(cluster, policy, "v1")
        leased = cluster.read("r1")
        assert leased.rounds == 0 and leased.result.metadata["lease"] is True
        # A write revokes before its acknowledgements complete ...
        cluster.write("v2")
        # ... so the next read falls back and returns the new value.
        acquire_by_reading(cluster, policy, "v2")
        again = cluster.read("r1")
        assert again.value == "v2" and again.rounds == 0
        result = check_atomicity(cluster.history())
        assert result.ok
        assert result.lease_reads == 2
        assert "lease-served" in result.summary()
        cluster.run_until_quiescent()  # lease timers drain; no livelock

    @POLICIES
    def test_lease_expires_in_virtual_time(self, config, policy):
        cluster = leased_sim_cluster(config, policy, lease_duration=20.0)
        cluster.write("v1")
        acquire_by_reading(cluster, policy, "v1")
        assert cluster.read("r1").rounds == 0
        cluster.run_for(25.0)  # outlive the lease without any revocation
        expired = cluster.read("r1")
        assert expired.rounds >= 1  # the lease lapsed, the read went remote
        assert expired.value == "v1"
        assert check_atomicity(cluster.history()).ok
