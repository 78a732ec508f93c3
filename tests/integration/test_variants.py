"""Integration tests for the protocol variants (Appendices A, C, D; Section 5)."""

import pytest

from repro.core.config import ConfigurationError, SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.core.types import TimestampValue
from repro.sim.cluster import DROP, SimCluster
from repro.sim.failures import FailureSchedule
from repro.sim.latency import FixedDelay
from repro.variants.regular import MaliciousWritebackReader, RegularStorageProtocol
from repro.variants.trading import (
    TradingReadsProtocol,
    TradingWritesProtocol,
    consecutive_lucky_read_sequences,
    max_slow_reads_per_sequence,
)
from repro.variants.two_round import TwoRoundWriteProtocol
from repro.verify.atomicity import check_atomicity
from repro.verify.regularity import check_regularity


def build(suite, **kwargs):
    kwargs.setdefault("delay_model", FixedDelay(1.0))
    return SimCluster(suite, **kwargs)


class TestTwoRoundWriteVariant:
    def test_server_count_requirement_enforced(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=1, enforce_tradeoff=False)
        with pytest.raises(ConfigurationError):
            TwoRoundWriteProtocol(config)  # missing the min(b, fr) extra server

    @pytest.mark.parametrize("t,b,fr", [(1, 0, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2)])
    def test_writes_take_exactly_two_rounds(self, t, b, fr):
        cluster = build(TwoRoundWriteProtocol.for_parameters(t, b, fr))
        for index in range(4):
            handle = cluster.write(f"v{index}")
            assert handle.rounds == 2
            cluster.run_for(5.0)
        assert check_atomicity(cluster.history()).ok

    @pytest.mark.parametrize("t,b,fr", [(2, 1, 1), (2, 1, 2), (3, 1, 2)])
    def test_lucky_reads_fast_despite_fr_failures(self, t, b, fr):
        suite = TwoRoundWriteProtocol.for_parameters(t, b, fr)
        failures = FailureSchedule.crash_servers_at_start(
            fr, list(reversed(suite.config.server_ids()))
        )
        cluster = build(TwoRoundWriteProtocol.for_parameters(t, b, fr), failures=failures)
        cluster.write("value")
        cluster.run_for(5.0)
        read = cluster.read("r1")
        assert read.fast and read.value == "value"
        assert check_atomicity(cluster.history()).ok

    def test_contention_still_atomic(self):
        cluster = build(TwoRoundWriteProtocol.for_parameters(2, 1, 1))
        cluster.write("v0")
        write = cluster.start_write("v1")
        read = cluster.start_read("r1")
        cluster.run(until=lambda: write.done and read.done)
        assert read.value in ("v0", "v1")
        assert check_atomicity(cluster.history()).ok

    def test_freezing_travels_in_w_round(self):
        # The writer sends freeze directives inside the round-2 W message; a
        # reader announced via a round-2 READ must eventually be served.
        suite = TwoRoundWriteProtocol.for_parameters(1, 1, 1)
        cluster = build(TwoRoundWriteProtocol.for_parameters(1, 1, 1))
        cluster.write("seed")
        cluster.run_for(5.0)
        # Announce a slow read directly on the servers, then run two writes and
        # check the servers' frozen slots were populated through the W round.
        from repro.core.messages import Read

        for server_id in suite.config.server_ids():
            cluster.server(server_id)
        for server_id in cluster.config.server_ids():
            cluster.processes[server_id].handle_message(
                Read(sender="r1", read_ts=5, round=2)
            )
        cluster.write("w1")
        cluster.run_for(5.0)
        cluster.write("w2")
        cluster.run_for(5.0)
        frozen_ts = [
            cluster.server(server_id).frozen["r1"].read_ts
            for server_id in cluster.config.server_ids()
        ]
        assert max(frozen_ts) == 5


class TestRegularVariant:
    def test_fast_writes_despite_t_minus_b_failures(self):
        suite = RegularStorageProtocol.for_parameters(t=2, b=1)
        failures = FailureSchedule.crash_servers_at_start(
            1, list(reversed(suite.config.server_ids()))
        )
        cluster = build(RegularStorageProtocol.for_parameters(t=2, b=1), failures=failures)
        assert cluster.write("value").fast

    def test_fast_reads_despite_t_failures(self):
        suite = RegularStorageProtocol.for_parameters(t=2, b=1)
        cluster = build(RegularStorageProtocol.for_parameters(t=2, b=1))
        cluster.write("value")
        cluster.run_for(5.0)
        for server_id in list(reversed(suite.config.server_ids()))[: suite.config.t]:
            cluster.crash(server_id)
        read = cluster.read("r1")
        assert read.fast and read.value == "value"

    def test_slow_writes_take_two_rounds_only(self):
        suite = RegularStorageProtocol.for_parameters(t=2, b=1)
        failures = FailureSchedule.crash_servers_at_start(
            2, list(reversed(suite.config.server_ids()))
        )
        cluster = build(RegularStorageProtocol.for_parameters(t=2, b=1), failures=failures)
        handle = cluster.write("value")
        assert not handle.fast
        assert handle.rounds == 2

    @pytest.mark.parametrize("failures", [0, 2])
    def test_malicious_reader_cannot_poison_the_store(self, failures):
        suite = RegularStorageProtocol.for_parameters(t=2, b=1)
        cluster = build(
            suite,
            failures=FailureSchedule.crash_servers_at_start(
                failures, list(reversed(suite.config.server_ids()))
            ),
        )
        cluster.write("genuine")
        cluster.run_for(5.0)
        attacker = MaliciousWritebackReader("r-mal", suite.config)
        cluster.inject("r-mal", attacker.read())
        cluster.run_for(5.0)
        read = cluster.read("r1")
        assert read.value == "genuine"
        assert read.fast  # fr = t in the regular variant
        assert check_regularity(cluster.history()).ok

    def test_atomic_store_is_vulnerable_to_malicious_reader(self):
        # The contrast the paper draws in Section 5: with write-backs enabled
        # (atomic algorithm), a malicious reader can plant a never-written
        # value that honest readers then return.
        config = SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)
        cluster = build(LuckyAtomicProtocol(config))
        cluster.write("genuine")
        cluster.run_for(5.0)
        attacker = MaliciousWritebackReader(
            "r-mal", config, forged_pair=TimestampValue(99, "POISON")
        )
        cluster.inject("r-mal", attacker.read())
        cluster.run_for(5.0)
        read = cluster.read("r1")
        assert read.value == "POISON"
        assert not check_atomicity(cluster.history()).ok

    def test_regularity_holds_under_contention(self):
        cluster = build(RegularStorageProtocol.for_parameters(t=2, b=1))
        cluster.write("v0")
        write = cluster.start_write("v1")
        read = cluster.start_read("r1")
        cluster.run(until=lambda: write.done and read.done)
        assert read.value in ("v0", "v1")
        assert check_regularity(cluster.history()).ok


class TestTradingReads:
    def test_one_slow_read_finishes_the_fast_write(self):
        t, b = 2, 0
        config = SystemConfig.trading_reads(t, b, num_readers=2)
        server_ids = config.server_ids()
        missed = set(server_ids[-(t - b):])

        def drop_to_missed(source, destination, message, now):
            if source == config.writer_id and destination in missed:
                return DROP
            return None

        cluster = SimCluster(
            TradingReadsProtocol(config),
            delay_model=FixedDelay(1.0),
            message_filter=drop_to_missed,
        )
        write = cluster.write("value")
        assert write.fast
        cluster.message_filter = None
        for server_id in server_ids[:t]:
            cluster.crash(server_id)
        reads = []
        for index in range(5):
            reads.append(cluster.read(config.reader_ids()[index % 2]))
            cluster.run_for(10.0)
        slow = [handle for handle in reads if not handle.fast]
        assert len(slow) == 1
        assert reads[0] in slow  # the first read pays the price
        assert all(handle.value == "value" for handle in reads)
        history = cluster.history()
        assert max_slow_reads_per_sequence(history) <= 1
        assert check_atomicity(history).ok

    def test_sequences_are_split_by_writes(self):
        config = SystemConfig.trading_reads(2, 1, num_readers=2)
        cluster = build(TradingReadsProtocol(config))
        for sequence in range(3):
            cluster.write(f"v{sequence}")
            cluster.run_for(10.0)
            for index in range(3):
                cluster.read(config.reader_ids()[index % 2])
                cluster.run_for(10.0)
        sequences = consecutive_lucky_read_sequences(cluster.history())
        assert len(sequences) == 3
        assert all(sequence.length == 3 for sequence in sequences)


class TestTradingWrites:
    def test_writes_are_never_fast(self):
        suite = TradingWritesProtocol.for_parameters(t=2, b=1)
        cluster = build(suite)
        handle = cluster.write("value")
        assert not handle.fast and handle.rounds == 3

    def test_lucky_reads_fast_despite_t_failures(self):
        suite = TradingWritesProtocol.for_parameters(t=2, b=1)
        cluster = build(TradingWritesProtocol.for_parameters(t=2, b=1))
        cluster.write("value")
        cluster.run_for(5.0)
        for server_id in list(reversed(suite.config.server_ids()))[: suite.config.t]:
            cluster.crash(server_id)
        read = cluster.read("r1")
        assert read.fast and read.value == "value"
        assert check_atomicity(cluster.history()).ok
