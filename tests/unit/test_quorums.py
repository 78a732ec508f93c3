"""Unit tests for repro.core.quorums."""

import pytest

from repro.core.config import SystemConfig, frontier_threshold_pairs
from repro.core.quorums import (
    certificates,
    explain,
    fast_write_visibility,
    lucky_read_fastpw_guarantee,
    lucky_read_fastvw_guarantee,
    overlap,
    read_read_lock_guarantee,
    required_servers_for_two_round_write,
    slow_write_visibility,
)


class TestOverlap:
    def test_disjoint_sets_have_zero_overlap(self):
        assert overlap(2, 3, 10) == 0

    def test_pigeonhole_overlap(self):
        assert overlap(6, 7, 10) == 3

    def test_full_overlap(self):
        assert overlap(10, 10, 10) == 10


class TestVisibility:
    def test_fast_write_visibility_meets_fastpw_quorum_on_frontier(self):
        for t in range(1, 5):
            for b in range(0, t + 1):
                for fw, fr in frontier_threshold_pairs(t, b):
                    config = SystemConfig(t=t, b=b, fw=fw, fr=fr)
                    assert fast_write_visibility(config) >= config.fast_read_pw_quorum

    def test_slow_write_visibility_meets_fastvw_quorum_on_frontier(self):
        for t in range(1, 5):
            for b in range(0, t + 1):
                for fw, fr in frontier_threshold_pairs(t, b):
                    config = SystemConfig(t=t, b=b, fw=fw, fr=fr)
                    assert slow_write_visibility(config) >= config.fast_read_vw_quorum

    def test_visibility_fails_beyond_the_bound(self):
        # One step beyond the frontier the fastpw guarantee breaks: this is the
        # quantitative content of Proposition 2.
        config = SystemConfig(t=2, b=1, fw=1, fr=1, enforce_tradeoff=False)
        assert fast_write_visibility(config) < config.fast_read_pw_quorum


class TestCertificates:
    def test_all_certificates_hold_for_valid_config(self):
        config = SystemConfig(t=3, b=1, fw=1, fr=1)
        for certificate in certificates(config):
            assert certificate.holds

    def test_fastpw_certificate_description_mentions_quorum(self):
        config = SystemConfig(t=2, b=1, fw=1, fr=0)
        certificate = lucky_read_fastpw_guarantee(config)
        assert "fastpw" in certificate.description

    def test_fastvw_certificate_counts_final_round_witnesses(self):
        config = SystemConfig(t=2, b=1, fw=0, fr=1)
        certificate = lucky_read_fastvw_guarantee(config)
        assert certificate.intersection == config.num_servers - config.t - config.fr

    def test_read_read_lock_outvotes_byzantine(self):
        for t in range(1, 5):
            for b in range(0, t + 1):
                config = SystemConfig(t=t, b=b)
                assert read_read_lock_guarantee(config).intersection >= b + 1


class TestTwoRoundBound:
    @pytest.mark.parametrize(
        "t,b,fr,expected",
        [(2, 1, 0, 6), (2, 1, 1, 7), (2, 1, 2, 7), (3, 2, 1, 10), (3, 2, 2, 11), (1, 0, 1, 3)],
    )
    def test_required_servers_formula(self, t, b, fr, expected):
        assert required_servers_for_two_round_write(t, b, fr) == expected


class TestExplain:
    def test_explain_mentions_every_quorum(self):
        text = explain(SystemConfig(t=2, b=1, fw=1, fr=0))
        for fragment in ("round quorum", "fast write quorum", "fastpw", "invalidpw"):
            assert fragment in text

    def test_explain_reports_certificate_status(self):
        text = explain(SystemConfig(t=2, b=1, fw=1, fr=0))
        assert "[holds]" in text
