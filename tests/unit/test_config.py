"""Unit tests for repro.core.config."""

import pytest

from repro.core.config import (
    ConfigurationError,
    SystemConfig,
    feasible_threshold_pairs,
    frontier_threshold_pairs,
)
from repro.core.server import StorageServer


class TestServerCount:
    @pytest.mark.parametrize(
        "t,b,expected",
        [(0, 0, 1), (1, 0, 3), (1, 1, 4), (2, 1, 6), (2, 2, 7), (3, 1, 8), (4, 2, 11)],
    )
    def test_optimal_resilience_formula(self, t, b, expected):
        config = SystemConfig(t=t, b=b, fw=0, fr=0)
        assert config.num_servers == expected

    def test_extra_servers_are_added_on_top(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=0, extra_servers=1)
        assert config.num_servers == 7
        assert config.num_servers - config.extra_servers == 2 * config.t + config.b + 1


class TestValidation:
    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(t=-1, b=0)

    def test_b_larger_than_t_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(t=1, b=2)

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(t=2, b=0, fw=-1)
        with pytest.raises(ConfigurationError):
            SystemConfig(t=2, b=0, fr=-1)

    def test_thresholds_above_t_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(t=2, b=0, fw=3, enforce_tradeoff=False)

    def test_tradeoff_bound_enforced_by_default(self):
        # Proposition 2: fw + fr <= t - b.
        with pytest.raises(ConfigurationError):
            SystemConfig(t=2, b=1, fw=1, fr=1)

    def test_tradeoff_bound_can_be_disabled_for_variants(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=2, enforce_tradeoff=False)
        assert config.fw + config.fr > config.t - config.b

    def test_frontier_configuration_accepted(self):
        config = SystemConfig(t=3, b=1, fw=1, fr=1)
        assert config.fw + config.fr == config.t - config.b

    def test_zero_readers_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(t=1, b=0, num_readers=0)


class TestQuorums:
    def test_round_quorum_is_s_minus_t(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0)
        assert config.round_quorum == config.num_servers - 2

    def test_fast_write_quorum_is_s_minus_fw(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0)
        assert config.fast_write_quorum == config.num_servers - 1

    def test_fast_read_pw_quorum(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=1)
        assert config.fast_read_pw_quorum == 2 * 1 + 2 + 1

    def test_safe_and_fastvw_quorum_is_b_plus_one(self):
        config = SystemConfig(t=3, b=2, fw=0, fr=0)
        assert config.safe_quorum == 3
        assert config.fast_read_vw_quorum == 3

    def test_invalid_quorums(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=0)
        assert config.invalid_w_quorum == config.num_servers - config.t
        assert config.invalid_pw_quorum == config.num_servers - config.b - config.t

    def test_freeze_quorum_is_b_plus_one(self):
        assert SystemConfig(t=2, b=2).freeze_quorum == 3


class TestIdentifiers:
    def test_server_ids_are_s1_to_sS(self):
        config = SystemConfig(t=1, b=0)
        assert config.server_ids() == ["s1", "s2", "s3"]

    def test_reader_ids_and_writer(self):
        config = SystemConfig(t=1, b=0, num_readers=3)
        assert config.reader_ids() == ["r1", "r2", "r3"]
        assert config.writer_id == "w"
        assert config.client_ids() == ["w", "r1", "r2", "r3"]

    def test_every_server_register_keys_its_tables_by_one_set_of_strings(self):
        config = SystemConfig(t=2, b=1, num_readers=3)
        first = StorageServer("s1", config, register_id="a")
        second = StorageServer("s2", SystemConfig(t=2, b=1, num_readers=3), register_id="b")
        for a, b in zip(first.read_ts, second.read_ts, strict=True):
            assert a is b
        for a, b in zip(first.frozen, first.read_ts, strict=True):
            assert a is b
        assert all(a is b for a, b in zip(config.server_ids(), config.server_ids()))


class TestFactories:
    def test_balanced_splits_the_budget(self):
        config = SystemConfig.balanced(t=4, b=1)
        assert config.fw + config.fr == 3
        assert config.fw >= config.fr

    def test_balanced_is_valid_even_when_budget_zero(self):
        config = SystemConfig.balanced(t=2, b=2)
        assert config.fw == 0 and config.fr == 0

    def test_trading_reads_sets_fw_and_fr(self):
        config = SystemConfig.trading_reads(t=3, b=1)
        assert config.fw == 2
        assert config.fr == 3
        assert not config.enforce_tradeoff

    def test_two_round_write_adds_min_b_fr_servers(self):
        config = SystemConfig.two_round_write(t=2, b=1, fr=2)
        assert config.extra_servers == 1
        assert config.num_servers == 7

    def test_two_round_write_rejects_bad_fr(self):
        with pytest.raises(ConfigurationError):
            SystemConfig.two_round_write(t=2, b=1, fr=3)

    def test_regular_uses_maximal_thresholds(self):
        config = SystemConfig.regular(t=3, b=2)
        assert config.fw == 1
        assert config.fr == 3

    def test_crash_only_has_no_byzantine(self):
        config = SystemConfig.crash_only(t=2)
        assert config.b == 0
        assert config.num_servers == 5


class TestThresholdEnumeration:
    def test_feasible_pairs_respect_bound(self):
        for fw, fr in feasible_threshold_pairs(4, 1):
            assert fw + fr <= 3

    def test_frontier_pairs_sum_to_budget(self):
        pairs = frontier_threshold_pairs(4, 1)
        assert all(fw + fr == 3 for fw, fr in pairs)
        assert len(pairs) == 4

    def test_zero_budget_has_single_pair(self):
        assert frontier_threshold_pairs(2, 2) == [(0, 0)]
