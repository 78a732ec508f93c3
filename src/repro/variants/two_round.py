"""The two-round-write variant (Appendix C, Figures 6-8).

Appendix C asks how many servers are needed for an atomic storage whose WRITEs
*always* complete in at most two round-trips while every lucky READ stays fast
despite ``fr`` failures.  The answer (Propositions 5 and 6) is

``S >= 2t + b + min(b, fr) + 1``

— that is, ``min(b, fr)`` servers beyond optimal resilience.  The matching
algorithm differs from the core one as follows:

* the W phase is a single round and no round-1 timer is used by the writer
  (WRITEs are two rounds, never one);
* the writer ships freeze directives inside that W round instead of the next
  PW message;
* servers have no ``vw`` register;
* the reader's ``fast`` predicate becomes ``|{i : w_i = c}| >= S - t - fr`` and
  the write-back follows the two-round W pattern.
"""

from __future__ import annotations

from ..core.automaton import TimerPolicy
from ..core.config import ConfigurationError, SystemConfig
from ..core.messages import Write
from ..core.protocol import ProtocolSuite
from ..core.quorums import required_servers_for_two_round_write
from ..core.reader import AtomicReader
from ..core.server import StorageServer
from ..core.types import TimestampValue
from ..core.writer import AtomicWriter


class TwoRoundServer(StorageServer):
    """Server of the Appendix C variant (Figure 8)."""

    def _apply_write_freeze(self, message: Write) -> None:
        # Fig. 8, lines 13-14: only the writer's W messages carry directives.
        if message.sender == self.config.writer_id and message.frozen:
            self._apply_freeze_directives(message.frozen)


class TwoRoundWriter(AtomicWriter):
    """Writer of the Appendix C variant (Figure 6): always exactly two rounds."""

    FINAL_W_ROUND = 2
    FREEZE_CHANNEL = "w"

    def __init__(
        self, config: SystemConfig, timer_delay: float = 10.0, register_id: str = ""
    ) -> None:
        super().__init__(
            config,
            timer_delay=timer_delay,
            enable_fast_path=False,
            timer_policy=TimerPolicy.NONE,
            register_id=register_id,
        )


class TwoRoundReader(AtomicReader):
    """Reader of the Appendix C variant (Figure 7)."""

    WRITEBACK_ROUNDS = 2

    def _fast_predicate(self, selected: TimestampValue) -> bool:
        """Fig. 7, line 5: ``fast(c) ::= |{i : w_i = c}| >= S - t - fr``."""
        quorum = self.config.num_servers - self.config.t - self.config.fr
        return self.views.count_w(selected) >= quorum


class TwoRoundWriteProtocol(ProtocolSuite):
    """Protocol suite for the Appendix C algorithm."""

    name = "two-round-write"
    consistency = "atomic"

    def __init__(
        self,
        config: SystemConfig,
        timer_delay: float = 10.0,
        timer_policy: TimerPolicy = TimerPolicy.DEADLINE,
    ) -> None:
        required = required_servers_for_two_round_write(config.t, config.b, config.fr)
        if config.num_servers < required:
            raise ConfigurationError(
                f"the two-round-write algorithm needs S >= 2t + b + min(b, fr) + 1 = "
                f"{required} servers but the configuration provides {config.num_servers} "
                "(Proposition 5)"
            )
        super().__init__(config, timer_delay=timer_delay, timer_policy=timer_policy)

    @classmethod
    def for_parameters(
        cls, t: int, b: int, fr: int, num_readers: int = 2, timer_delay: float = 10.0
    ) -> "TwoRoundWriteProtocol":
        """Build the suite with exactly the required number of servers."""
        config = SystemConfig.two_round_write(t, b, fr, num_readers=num_readers)
        return cls(config, timer_delay=timer_delay)

    def create_server(self, server_id: str, *, register_id: str = "") -> TwoRoundServer:
        return TwoRoundServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> TwoRoundWriter:
        return TwoRoundWriter(self.config, timer_delay=self.timer_delay, register_id=register_id)

    def create_reader(self, reader_id: str, *, register_id: str = "") -> TwoRoundReader:
        return TwoRoundReader(
            reader_id,
            self.config,
            timer_delay=self.timer_delay,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )
