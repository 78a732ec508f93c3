"""Deliberately over-eager protocols used to *demonstrate* the upper bound.

Proposition 2 proves that no optimally resilient atomic storage can make every
lucky operation fast beyond ``fw + fr <= t - b``.  The intuition stated in
Section 4 is that "malicious servers may change their state to an arbitrary
one [and] impose on readers a value that was never written, in case the fast
operations skip too many servers".

:class:`NaiveFastProtocol` is the protocol a designer might write when ignoring
that bound: ABD without its write-back, run with Byzantine servers — one-round
writes that stop at ``S - t`` acknowledgements and one-round reads that return
the highest timestamp reported by *any* server among ``S - t`` replies, i.e.
fast operations that effectively claim ``fw = fr = t``.  The E4 benchmark and
the adversarial test suite run it against the forged-state adversary of run
``r5`` in the proof and show the atomicity checker catching the violation,
while the paper's algorithm under the very same adversary stays correct.

**Never use this protocol as a storage implementation.**  It exists only to
make the impossibility result observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..baselines.abd import ABDReader, ABDServer, ABDWriter
from ..core.automaton import Automaton, Effects
from ..core.messages import BaselineQuery, BaselineQueryReply, Message
from ..core.protocol import ProtocolSuite
from ..core.types import TimestampValue


class NaiveReader(ABDReader):
    """One-round reads returning the highest timestamp among ``S - t`` replies.

    ABD's reader without its write-back round, and with no ``b + 1``
    confirmation or validation either: a single malicious server can impose
    an arbitrary value, which is precisely the failure mode the upper-bound
    proof exploits.
    """

    WRITEBACK = False


class NaiveFastProtocol(ProtocolSuite):
    """The over-eager protocol: every operation fast, no safeguards.

    ABD's servers and writer (one store round that stops at ``S - t``
    acknowledgements) with :class:`NaiveReader`; unlike
    :class:`~repro.baselines.abd.ABDProtocol` it accepts ``b > 0``.  Exists
    solely so benchmarks and tests can exhibit the atomicity violation
    predicted by Proposition 2.
    """

    name = "naive-fast (UNSAFE)"
    consistency = "none"

    def create_server(self, server_id: str, *, register_id: str = "") -> ABDServer:
        return ABDServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> ABDWriter:
        return ABDWriter(self.config, timer_delay=self.timer_delay, register_id=register_id)

    def create_reader(self, reader_id: str, *, register_id: str = "") -> NaiveReader:
        return NaiveReader(
            reader_id, self.config, timer_delay=self.timer_delay, register_id=register_id
        )


@dataclass
class ForgeQueryReplyStrategy:
    """A Byzantine strategy for query/store protocols (naive and ABD).

    Replies to :class:`BaselineQuery` messages with a forged, never-written
    pair carrying an enormous timestamp; everything else is answered honestly.
    Compatible with :class:`repro.sim.byzantine.MaliciousServer`.
    """

    name = "forge-query-reply"
    forged_pair: TimestampValue = field(
        default_factory=lambda: TimestampValue(10**9, "NEVER-WRITTEN")
    )

    def respond(self, inner: Automaton, message: Message) -> Optional[Effects]:
        if not isinstance(message, BaselineQuery):
            return None
        effects = Effects()
        effects.send(
            message.sender,
            BaselineQueryReply(
                sender=inner.process_id,
                register_id=inner.register_id,
                op_id=message.op_id,
                pair=self.forged_pair,
            ),
        )
        return effects

    def describe(self) -> dict:
        return {"strategy": self.name, "forged_pair": repr(self.forged_pair)}
