"""Quorum-intersection arithmetic used by the correctness arguments.

The paper's proofs (Lemmas 5-8 and the Appendix C counterparts) repeatedly rely
on counting arguments of the form "a set of X non-malicious servers intersects
any set of Y responders in at least one non-malicious server".  This module
makes that arithmetic explicit so tests (including property-based tests) can
assert the inequalities symbolically for every admissible configuration, and so
the benchmark reports can explain *why* a configuration admits a fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .config import SystemConfig


@dataclass(frozen=True)
class QuorumCertificate:
    """A human-readable record of one quorum-intersection fact."""

    name: str
    left: int
    right: int
    total: int
    intersection: int
    description: str

    @property
    def holds(self) -> bool:
        """Whether the two sets are guaranteed to intersect as claimed."""
        return self.intersection >= 1


def overlap(left: int, right: int, total: int) -> int:
    """Guaranteed overlap of any two sets of sizes *left* and *right* out of *total*."""
    return max(0, left + right - total)


def fast_write_visibility(config: SystemConfig) -> int:
    """Correct servers guaranteed to hold a fast WRITE's value afterwards.

    A fast WRITE stores its pair in the ``pw`` field of at least ``S - fw``
    servers, of which at most ``t`` may be faulty overall; with at most ``fr``
    actual failures during a following lucky READ, at least
    ``S - fw - fr`` correct servers report it (Theorem 4's first case).
    """
    return config.num_servers - config.fw - config.fr


def slow_write_visibility(config: SystemConfig) -> int:
    """Correct servers guaranteed to report a slow WRITE's ``vw`` to a lucky READ."""
    return config.num_servers - config.t - config.fr


def lucky_read_fastpw_guarantee(config: SystemConfig) -> QuorumCertificate:
    """Certificate that a lucky READ after a fast WRITE satisfies ``fastpw``."""
    visible = fast_write_visibility(config)
    return QuorumCertificate(
        name="fastpw-after-fast-write",
        left=config.num_servers - config.fw,
        right=config.num_servers - config.fr,
        total=config.num_servers,
        intersection=visible,
        description=(
            "A fast WRITE reaches S-fw servers; a lucky READ with <= fr failures "
            "hears from all correct servers, so at least S-fw-fr >= 2b+t+1 of them "
            "report the pre-written pair, satisfying fastpw (Fig. 2, line 5)."
        ),
    )


def lucky_read_fastvw_guarantee(config: SystemConfig) -> QuorumCertificate:
    """Certificate that a lucky READ after a slow WRITE satisfies ``fastvw``."""
    visible = slow_write_visibility(config)
    return QuorumCertificate(
        name="fastvw-after-slow-write",
        left=config.num_servers - config.t,
        right=config.num_servers - config.fr,
        total=config.num_servers,
        intersection=visible,
        description=(
            "A slow WRITE reaches S-t servers in its final round; a lucky READ with "
            "<= fr failures hears from at least S-t-fr >= b+1 of them, satisfying "
            "fastvw (Fig. 2, line 6)."
        ),
    )


def read_read_lock_guarantee(config: SystemConfig) -> QuorumCertificate:
    """Certificate behind Lemma 8: a fast READ leaves enough witnesses behind."""
    witnesses = config.fast_read_pw_quorum  # 2b + t + 1
    responders = config.round_quorum  # S - t
    inter = overlap(witnesses, responders, config.num_servers)
    return QuorumCertificate(
        name="fast-read-witness-lock",
        left=witnesses,
        right=responders,
        total=config.num_servers,
        intersection=inter,
        description=(
            "If a fast READ saw 2b+t+1 matching pw replies, any later READ that "
            "hears from S-t servers intersects those witnesses in at least b+1 "
            "servers, outvoting the b possibly-malicious ones (Lemma 8, case 1a)."
        ),
    )


def required_servers_for_two_round_write(t: int, b: int, fr: int) -> int:
    """Appendix C bound: ``S >= 2t + b + min(b, fr) + 1`` (Proposition 5)."""
    return 2 * t + b + min(b, fr) + 1


def certificates(config: SystemConfig) -> List[QuorumCertificate]:
    """All quorum certificates relevant to *config*, for reports and tests."""
    return [
        lucky_read_fastpw_guarantee(config),
        lucky_read_fastvw_guarantee(config),
        read_read_lock_guarantee(config),
    ]


def explain(config: SystemConfig) -> str:
    """A multi-line human-readable explanation of the configuration's quorums."""
    lines = [
        f"S = {config.num_servers} servers, t = {config.t}, b = {config.b}, "
        f"fw = {config.fw}, fr = {config.fr}",
        f"round quorum (S - t)           = {config.round_quorum}",
        f"fast write quorum (S - fw)     = {config.fast_write_quorum}",
        f"fastpw quorum (2b + t + 1)     = {config.fast_read_pw_quorum}",
        f"fastvw / safe quorum (b + 1)   = {config.fast_read_vw_quorum}",
        f"invalidw quorum (S - t)        = {config.invalid_w_quorum}",
        f"invalidpw quorum (S - b - t)   = {config.invalid_pw_quorum}",
    ]
    for cert in certificates(config):
        status = "holds" if cert.holds else "DOES NOT HOLD"
        lines.append(f"[{status}] {cert.name}: intersection >= {cert.intersection}")
    return "\n".join(lines)
