"""Small scope, exhaustively: the deadline round 1 refines the paper's.

For ``(t, b)`` in ``{(1, 0), (1, 1), (2, 1)}`` every state a register can be in
after a WRITE (fast, slow, or cut short), every reply an honest server or one
of the ``sim/byzantine.py`` strategies produces from it, and every arrival
order of those replies is fed to a ``DEADLINE`` and a ``WAIT`` automaton side
by side (:mod:`repro.verify.refinement`).  Whenever the deadline automaton
returns on a prefix, the paper-faithful one fed the same prefix and then its
timer must emit the identical completion; on every other prefix both must
agree from the expiry on.  The last class shows the check has teeth: widening
the early condition makes it fail.
"""

import collections
import itertools
from dataclasses import replace

import pytest

from repro.core.automaton import Effects
from repro.core.config import SystemConfig, frontier_threshold_pairs
from repro.core.messages import PreWrite, Read, ReadAck, TimestampQueryAck, Write
from repro.core.reader import AtomicReader
from repro.core.server import StorageServer
from repro.core.types import INITIAL_PAIR, TimestampValue
from repro.core.writer import AtomicWriter
from repro.sim.byzantine import STRATEGIES, MaliciousServer, make_strategy
from repro.variants.regular import RegularReader, RegularWriter
from repro.variants.two_round import TwoRoundReader
from repro.verify.refinement import check_round_one_refinement

SCOPES = [(1, 0), (1, 1), (2, 1)]

CONFIGS = [
    pytest.param(
        SystemConfig(t=t, b=b, fw=fw, fr=fr, num_readers=1),
        id=f"t{t}b{b}fw{fw}fr{fr}",
    )
    for t, b in SCOPES
    for fw, fr in frontier_threshold_pairs(t, b)
]

C1 = TimestampValue(1, "v1")
C2 = TimestampValue(2, "v2")


# --------------------------------------------------------------------------- #
# Register states, built by the real server automaton
# --------------------------------------------------------------------------- #


def _servers(config):
    return [StorageServer(server_id, config) for server_id in config.server_ids()]


def _pre_write(servers, pair, previous=INITIAL_PAIR):
    for server in servers:
        server.handle_message(PreWrite(sender="w", ts=pair.ts, pw=pair, w=previous))


def _write_rounds(servers, pair, rounds):
    for round_number in rounds:
        for server in servers:
            server.handle_message(Write(sender="w", round=round_number, ts=pair.ts, pair=pair))


def register_states(config):
    """``(label, servers)`` for every shape the last WRITE can have left."""
    size, quorum = config.num_servers, config.round_quorum
    yield "unwritten", _servers(config)

    servers = _servers(config)
    _pre_write(servers[: config.fast_write_quorum], C1)
    yield "fast write reached S-fw", servers

    servers = _servers(config)
    _pre_write(servers, C1)
    _write_rounds(servers[:quorum], C1, (2, 3))
    yield "slow write: W rounds at S-t", servers

    servers = _servers(config)
    _pre_write(servers, C1)
    _write_rounds(servers[:quorum], C1, (2,))
    yield "slow write cut after round 2", servers

    for reached in sorted({1, config.b + 1, quorum, size - 1} - {0, size}):
        servers = _servers(config)
        _pre_write(servers, C1)
        _write_rounds(servers, C1, (2, 3))
        _pre_write(servers[:reached], C2, previous=C1)
        yield f"next PW reached {reached}", servers


def read_acks(servers, byzantine=None):
    """Each server's reply to the round-1 READ; *byzantine* is ``(index, name)``."""
    acks = []
    for index, server in enumerate(servers):
        if byzantine is not None and byzantine[0] == index:
            server = MaliciousServer(server, make_strategy(byzantine[1]))
        reply = server.handle_message(Read(sender="r1", read_ts=1, round=1))
        acks.extend(send.message for send in reply.sends)
    return acks


def byzantine_choices(config):
    """Honest, plus every strategy of ``sim/byzantine.py`` at every position."""
    yield None
    if config.b:
        yield from itertools.product(range(config.num_servers), sorted(STRATEGIES))


# --------------------------------------------------------------------------- #
# READ
# --------------------------------------------------------------------------- #


def _read(reader):
    return reader.read()


def assert_reader_refines(reader_class, config):
    """Walk every register state x Byzantine choice; returns the totals of
    pending reply sets and early returns seen."""
    pending = early = 0
    walked = set()
    for label, servers in register_states(config):
        for byzantine in byzantine_choices(config):
            acks = read_acks(servers, byzantine)
            # Many choices coincide (a strategy that stays silent is a server
            # that never answers, i.e. a prefix; replacing either of two
            # servers with equal state is the same scenario): walk each
            # multiset of reply contents once.
            contents = frozenset(
                collections.Counter(replace(ack, sender="") for ack in acks).items()
            )
            if contents in walked:
                continue
            walked.add(contents)
            report = check_round_one_refinement(
                lambda policy: reader_class("r1", config, timer_policy=policy),
                _read,
                acks,
            )
            assert report.ok, f"{label}, byzantine={byzantine}: {report.violations[0]}"
            pending += report.pending_sets
            early += report.early_returns
    return pending, early


class TestReaderRefinement:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_atomic_reader(self, config):
        pending, early = assert_reader_refines(AtomicReader, config)
        # The walk is not vacuous: it saw early returns, and reply sets on
        # which only the deadline decides.
        assert early > 0 and pending > 0

    def test_regular_reader(self):
        pending, early = assert_reader_refines(RegularReader, SystemConfig.regular(2, 1, 1))
        assert early > 0 and pending > 0

    def test_two_round_reader(self):
        config = SystemConfig.two_round_write(2, 1, 1, num_readers=1)
        pending, early = assert_reader_refines(TwoRoundReader, config)
        assert early > 0 and pending > 0


# --------------------------------------------------------------------------- #
# WRITE
# --------------------------------------------------------------------------- #


def pre_write_acks(config, announced):
    """PW_ACKs of a WRITE while reader ``r1``'s slow READ has announced itself
    (its round-2 READ reached the first *announced* servers)."""
    servers = _servers(config)
    for server in servers[:announced]:
        server.handle_message(Read(sender="r1", read_ts=1, round=2))
    acks = []
    for server in servers:
        reply = server.handle_message(PreWrite(sender="w", ts=1, pw=C1, w=INITIAL_PAIR))
        acks.extend(send.message for send in reply.sends)
    return acks


def _write(writer):
    return writer.write("v1")


def _mwmr_write(writer):
    """Drive the query phase through; the PW phase is the timed round."""
    writer.write("v1")
    effects = Effects()
    for server_id in writer.config.server_ids()[: writer.config.round_quorum]:
        effects = writer.handle_message(
            TimestampQueryAck(sender=server_id, op_id=1, pw=INITIAL_PAIR, w=INITIAL_PAIR)
        )
    return effects


def assert_writer_refines(make_writer, invoke, config):
    pending = early = 0
    for announced in sorted({0, config.b, config.b + 1, config.num_servers}):
        report = check_round_one_refinement(make_writer, invoke, pre_write_acks(config, announced))
        assert report.ok, f"announced at {announced}: {report.violations[0]}"
        pending += report.pending_sets
        early += report.early_returns
    return pending, early


class TestWriterRefinement:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_swmr_writer(self, config):
        pending, early = assert_writer_refines(
            lambda policy: AtomicWriter(config, timer_policy=policy), _write, config
        )
        assert early > 0 and pending > 0

    @pytest.mark.parametrize("config", CONFIGS)
    def test_mwmr_writer(self, config):
        pending, early = assert_writer_refines(
            lambda policy: AtomicWriter(
                config, writer_id="r1", mwmr=True, timer_policy=policy
            ),
            _mwmr_write,
            config,
        )
        assert early > 0 and pending > 0

    def test_regular_writer(self):
        config = SystemConfig.regular(2, 1, 1)
        pending, early = assert_writer_refines(
            lambda policy: RegularWriter(config, timer_policy=policy), _write, config
        )
        assert early > 0 and pending > 0

    def test_writer_without_a_fast_path_never_returns_early(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        pending, early = assert_writer_refines(
            lambda policy: AtomicWriter(
                config, enable_fast_path=False, timer_policy=policy
            ),
            _write,
            config,
        )
        assert early == 0 < pending


# --------------------------------------------------------------------------- #
# The check has teeth
# --------------------------------------------------------------------------- #


class EagerReader(AtomicReader):
    """Widened on purpose: returns on ``C != ∅`` without ``fast(csel)``."""

    def _fast_predicate(self, selected):
        if self._attempt is not None and not self._attempt.timer_expired:
            return True
        return super()._fast_predicate(selected)


class EagerWriter(AtomicWriter):
    """Widened on purpose: returns on ``S - t`` acks, not ``S - fw``."""

    def _maybe_finish_pw_phase(self):
        attempt = self._attempt
        if not attempt.timer_expired and len(attempt.pw_acks) >= self.config.round_quorum:
            return self._complete(fast=True)
        return super()._maybe_finish_pw_phase()


class TestWidenedChecksAreCaught:
    def test_read_returning_on_nonempty_c_without_fast(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        servers = _servers(config)
        _pre_write(servers[: config.round_quorum], C1)  # safe, never fastpw
        report = check_round_one_refinement(
            lambda policy: EagerReader("r1", config, timer_policy=policy),
            _read,
            read_acks(servers),
        )
        assert not report.ok
        assert "WAIT at expiry" in str(report.violations[0])

    def test_write_returning_on_s_minus_t_acks(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=1)
        report = check_round_one_refinement(
            lambda policy: EagerWriter(config, timer_policy=policy),
            _write,
            pre_write_acks(config, announced=0),
        )
        assert not report.ok

    def test_forged_fast_looking_reply_is_not_followed(self):
        # One forged reply claiming <10^9, FORGED> in pw, w and vw must never
        # be what an early return hands out (b + 1 confirmations are needed).
        config = SystemConfig(t=1, b=1, fw=0, fr=0, num_readers=1)
        servers = _servers(config)
        _pre_write(servers, C1)
        _write_rounds(servers, C1, (2, 3))
        acks = read_acks(servers, byzantine=(0, "forge-high-timestamp"))
        assert any(isinstance(a, ReadAck) and a.pw.val == "FORGED" for a in acks)
        report = check_round_one_refinement(
            lambda policy: AtomicReader("r1", config, timer_policy=policy), _read, acks
        )
        assert report.ok and report.early_returns > 0
