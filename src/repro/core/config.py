"""System configuration and resilience arithmetic.

The paper's model (Section 2) fixes the number of servers to the optimal
resilience bound ``S = 2t + b + 1`` where at most ``t`` servers may fail and at
most ``b <= t`` of those may be malicious.  The headline result constrains the
fast-path thresholds: every lucky WRITE can be fast despite ``fw`` failures and
every lucky READ fast despite ``fr`` failures iff ``fw + fr <= t - b``
(Propositions 1 and 2).

:class:`SystemConfig` captures those parameters, validates them, and exposes
the quorum sizes used by the algorithms so that the protocol code reads like
the pseudocode (``S - t``, ``S - fw``, ``2b + t + 1`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple


class ConfigurationError(ValueError):
    """Raised when a configuration violates the paper's model constraints."""


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of one storage deployment.

    Parameters
    ----------
    t:
        Maximum number of faulty servers tolerated in any run.
    b:
        Maximum number of *malicious* (Byzantine) servers among the ``t``.
    fw:
        Number of actual failures despite which every lucky WRITE must be fast.
    fr:
        Number of actual failures despite which every lucky READ must be fast.
    num_readers:
        Number of reader clients provisioned (the SWMR model has one writer).
    extra_servers:
        Additional servers beyond optimal resilience (used by the Appendix C
        variant which requires ``S = 2t + b + min(b, fr) + 1``).
    enforce_tradeoff:
        When ``True`` (default) the constructor rejects ``fw + fr > t - b``,
        i.e. configurations the paper proves impossible for an *atomic* store
        in which every lucky operation is fast.  Variants that legitimately
        exceed the bound (Appendix A trading-reads mode, Appendix D regular
        store) construct their configs with ``enforce_tradeoff=False``.
    """

    t: int
    b: int
    fw: int = 0
    fr: int = 0
    num_readers: int = 2
    extra_servers: int = 0
    enforce_tradeoff: bool = True

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ConfigurationError("t must be non-negative")
        if self.b < 0 or self.b > self.t:
            raise ConfigurationError("b must satisfy 0 <= b <= t")
        if self.fw < 0 or self.fr < 0:
            raise ConfigurationError("fw and fr must be non-negative")
        if self.fw > self.t or self.fr > self.t:
            raise ConfigurationError(
                "fw and fr cannot exceed t (at most t servers fail in any run)"
            )
        if self.num_readers < 1:
            raise ConfigurationError("at least one reader is required")
        if self.extra_servers < 0:
            raise ConfigurationError("extra_servers must be non-negative")
        if self.enforce_tradeoff and self.fw + self.fr > self.t - self.b:
            raise ConfigurationError(
                f"fw + fr = {self.fw + self.fr} exceeds t - b = {self.t - self.b}; "
                "Proposition 2 proves no optimally resilient atomic storage can "
                "make every lucky operation fast beyond that bound"
            )

    # ------------------------------------------------------------------ sizes
    @property
    def num_servers(self) -> int:
        """Total number of servers ``S`` (optimal resilience + extras)."""
        return 2 * self.t + self.b + 1 + self.extra_servers

    # ---------------------------------------------------------------- quorums
    @property
    def round_quorum(self) -> int:
        """``S - t``: replies awaited by every client round (Figs. 1-2)."""
        return self.num_servers - self.t

    @property
    def fast_write_quorum(self) -> int:
        """``S - fw``: PW_ACKs needed for the one-round WRITE fast path."""
        return self.num_servers - self.fw

    @property
    def fast_read_pw_quorum(self) -> int:
        """``2b + t + 1``: matching ``pw`` replies for ``fastpw`` (Fig. 2 l.5)."""
        return 2 * self.b + self.t + 1

    @property
    def fast_read_vw_quorum(self) -> int:
        """``b + 1``: matching ``vw`` replies for ``fastvw`` (Fig. 2 l.6)."""
        return self.b + 1

    @property
    def safe_quorum(self) -> int:
        """``b + 1``: replies needed for ``safe``/``safeFrozen`` (Fig. 2 l.3-4)."""
        return self.b + 1

    @property
    def invalid_w_quorum(self) -> int:
        """``S - t``: replies needed for ``invalidw`` (Fig. 2 line 8)."""
        return self.num_servers - self.t

    @property
    def invalid_pw_quorum(self) -> int:
        """``S - b - t``: replies needed for ``invalidpw`` (Fig. 2 line 9)."""
        return self.num_servers - self.b - self.t

    @property
    def freeze_quorum(self) -> int:
        """``b + 1``: newread reports needed before the writer freezes."""
        return self.b + 1

    # ----------------------------------------------------------------- naming
    def server_ids(self) -> List[str]:
        """Identifiers of all servers, ``s1 .. sS``."""
        return list(_numbered_ids("s", self.num_servers))

    def reader_ids(self) -> List[str]:
        """Identifiers of all readers, ``r1 .. rR``."""
        return list(_numbered_ids("r", self.num_readers))

    @property
    def writer_id(self) -> str:
        """Identifier of the single writer."""
        return "w"

    def client_ids(self) -> List[str]:
        """The writer followed by every reader."""
        return [self.writer_id] + self.reader_ids()

    # --------------------------------------------------------------- variants
    @classmethod
    def balanced(cls, t: int, b: int, num_readers: int = 2) -> "SystemConfig":
        """A configuration on the feasible frontier with ``fw + fr = t - b``.

        The write threshold gets the ceiling half of the budget, mirroring the
        paper's emphasis on fast writes.
        """
        budget = t - b
        fw = (budget + 1) // 2
        fr = budget - fw
        return cls(t=t, b=b, fw=fw, fr=fr, num_readers=num_readers)

    @classmethod
    def trading_reads(cls, t: int, b: int, num_readers: int = 2) -> "SystemConfig":
        """Appendix A mode: ``fw = t - b`` and ``fr = t``.

        The threshold sum exceeds ``t - b`` which is only admissible because at
        most one lucky READ per consecutive-lucky-read sequence may be slow
        (Proposition 3); hence ``enforce_tradeoff`` is disabled.
        """
        return cls(
            t=t,
            b=b,
            fw=t - b,
            fr=t,
            num_readers=num_readers,
            enforce_tradeoff=False,
        )

    @classmethod
    def two_round_write(cls, t: int, b: int, fr: int, num_readers: int = 2) -> "SystemConfig":
        """Appendix C mode: ``S = 2t + b + min(b, fr) + 1`` and 2-round writes."""
        if fr < 0 or fr > t:
            raise ConfigurationError("fr must satisfy 0 <= fr <= t")
        return cls(
            t=t,
            b=b,
            fw=0,
            fr=fr,
            num_readers=num_readers,
            extra_servers=min(b, fr),
            enforce_tradeoff=False,
        )

    @classmethod
    def regular(cls, t: int, b: int, num_readers: int = 2) -> "SystemConfig":
        """Appendix D mode: regular semantics, ``fw = t - b`` and ``fr = t``."""
        return cls(
            t=t,
            b=b,
            fw=t - b,
            fr=t,
            num_readers=num_readers,
            enforce_tradeoff=False,
        )

    @classmethod
    def crash_only(cls, t: int, num_readers: int = 2) -> "SystemConfig":
        """A crash-only configuration (``b = 0``) for the ABD baseline."""
        return cls(t=t, b=0, fw=0, fr=0, num_readers=num_readers, enforce_tradeoff=False)


def feasible_threshold_pairs(t: int, b: int) -> List[Tuple[int, int]]:
    """All ``(fw, fr)`` pairs on or below the feasible frontier ``fw+fr <= t-b``."""
    pairs = []
    for fw in range(0, t - b + 1):
        for fr in range(0, t - b - fw + 1):
            pairs.append((fw, fr))
    return pairs


def frontier_threshold_pairs(t: int, b: int) -> List[Tuple[int, int]]:
    """The ``(fw, fr)`` pairs exactly on the frontier ``fw + fr = t - b``."""
    return [(fw, t - b - fw) for fw in range(0, t - b + 1)]


@lru_cache(maxsize=None)
def _numbered_ids(prefix: str, count: int) -> Tuple[str, ...]:
    """``prefix1 .. prefixN``, formatted once per count: every server register
    keys its per-reader tables by these very strings, and every broadcast
    walks them, so neither formats its own copies."""
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))
