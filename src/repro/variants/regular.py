"""The regular storage variant (Appendix D of the paper).

Trading atomicity for *regularity* buys two things (Proposition 7):

* tolerance of arbitrarily many **malicious readers** — readers never modify
  server state through write-backs (there are none) and only influence servers
  through the per-reader freezing slots, which cannot affect other readers;
* maximal fast-path thresholds — every lucky WRITE is fast despite up to
  ``fw = t - b`` failures and every lucky READ is fast despite ``fr = t``.

The modifications with respect to the core algorithm are exactly the ones
listed in Appendix D.2: the W phase is a single round, readers never write
back, and servers ignore write-back messages sent by readers.
"""

from __future__ import annotations

from typing import Optional

from ..core.automaton import ClientAutomaton, Effects, OperationComplete
from ..core.config import SystemConfig
from ..core.messages import Write
from ..core.protocol import ProtocolSuite
from ..core.reader import AtomicReader
from ..core.server import StorageServer
from ..core.types import TimestampValue
from ..core.writer import AtomicWriter


class RegularServer(StorageServer):
    """Server of the regular variant: write-backs from readers are ignored."""

    def _on_write(self, message: Write) -> Effects:
        if message.sender != self.config.writer_id:
            # Appendix D.2 (3): servers ignore every WB message sent by a
            # reader.  Not even an acknowledgement is produced, so a malicious
            # reader cannot influence any other client's view.
            return Effects()
        return super()._on_write(message)


class RegularWriter(AtomicWriter):
    """Writer of the regular variant: the W phase is a single round."""

    FINAL_W_ROUND = 2


class RegularReader(AtomicReader):
    """Reader of the regular variant: never writes back the returned value."""

    DO_WRITEBACK = False


class MaliciousWritebackReader(ClientAutomaton):
    """A malicious reader that write-backs a value that was never written.

    Used by tests and the E8 benchmark: against the *atomic* core algorithm
    this reader can plant a forged value at enough servers for a later honest
    reader to return it (the malicious-readers problem discussed in Section 5);
    against the regular variant its write-backs are simply ignored.
    """

    def __init__(
        self,
        reader_id: str,
        config: SystemConfig,
        forged_pair: Optional[TimestampValue] = None,
        timer_delay: float = 10.0,
        register_id: str = "",
    ) -> None:
        super().__init__(reader_id, timer_delay=timer_delay, register_id=register_id)
        self.config = config
        self.forged_pair = forged_pair or TimestampValue(10**6, "POISON")

    def read(self) -> Effects:
        """Instead of reading, inject the forged pair via write-back rounds."""
        self._operation_started()
        op_id = self._next_op_id()
        effects = Effects()
        for round_number in (1, 2, 3):
            effects.broadcast(
                self.config.server_ids(),
                Write(
                    sender=self.process_id,
                    register_id=self.register_id,
                    round=round_number,
                    ts=op_id,
                    pair=self.forged_pair,
                    from_writer=False,
                ),
            )
        self._operation_finished()
        effects.complete(
            OperationComplete(
                op_id=op_id,
                kind="read",
                value=self.forged_pair.val,
                rounds=1,
                fast=True,
                register_id=self.register_id,
                details={"malicious": True},
            )
        )
        return effects


class RegularStorageProtocol(ProtocolSuite):
    """Protocol suite for the Appendix D regular storage."""

    name = "lucky-regular"
    consistency = "regular"

    @classmethod
    def for_parameters(cls, t: int, b: int, num_readers: int = 2, timer_delay: float = 10.0):
        """Build the suite with the Appendix D thresholds ``fw = t-b``, ``fr = t``."""
        return cls(SystemConfig.regular(t, b, num_readers=num_readers), timer_delay=timer_delay)

    def create_server(self, server_id: str, *, register_id: str = "") -> RegularServer:
        return RegularServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> RegularWriter:
        return RegularWriter(
            self.config,
            timer_delay=self.timer_delay,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )

    def create_reader(self, reader_id: str, *, register_id: str = "") -> RegularReader:
        return RegularReader(
            reader_id,
            self.config,
            timer_delay=self.timer_delay,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )
