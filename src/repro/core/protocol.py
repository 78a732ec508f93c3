"""Protocol suites: factories bundling the writer, reader and server automata.

A :class:`ProtocolSuite` is the unit the simulation cluster and the asyncio
runtime consume: given a :class:`~repro.core.config.SystemConfig` it creates
one automaton per role.  The core algorithm's suite is
:class:`LuckyAtomicProtocol`; the Appendix C/D variants and the baselines
provide their own suites with the same interface, which is what lets the
benchmark harness compare protocols apples-to-apples.

What a client of one register must be able to do is a :class:`RegisterSpec`,
and :meth:`ProtocolSuite.create_client` is the one place that turns a spec
into a client automaton.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict

from .automaton import Automaton, ClientAutomaton, TimerPolicy
from .config import SystemConfig
from .mwmr import MultiWriterClient
from .reader import AtomicReader, LeasedReader
from .server import StorageServer
from .writer import AtomicWriter


@dataclass(frozen=True, slots=True)
class RegisterSpec:
    """One key's capabilities, as a value: what every per-key factory reads.

    The two composition rules are checked here and nowhere else, so a spec
    that exists is legal (there are five).
    """

    mwmr: bool = False
    leases: bool = False
    writer_leases: bool = False

    def __post_init__(self) -> None:
        if self.writer_leases and not self.mwmr:
            raise ValueError(
                "writer leases only make sense on multi-writer keys (a SWMR "
                "writer already owns its timestamps); declare the key mwmr too"
            )
        if self.leases and self.mwmr and not self.writer_leases:
            raise ValueError(
                "read leases and mwmr are mutually exclusive per key unless "
                "the key also has writer leases"
            )

    @property
    def pinned(self) -> bool:
        """Leased registers are never evicted: their grant/withhold state is
        volatile and an eviction would silently forget outstanding leases."""
        return self.leases or self.writer_leases


class ProtocolSuite:
    """Factory for the three roles of a storage protocol."""

    #: Human-readable protocol name used in benchmark reports.
    name = "abstract"

    #: Consistency level the protocol claims ("atomic", "regular", "safe").
    consistency = "atomic"

    def __init__(
        self,
        config: SystemConfig,
        timer_delay: float = 10.0,
        timer_policy: TimerPolicy = TimerPolicy.DEADLINE,
    ) -> None:
        self.config = config
        self.timer_delay = timer_delay
        #: What the round-1 timer means for every client this suite creates
        #: that arms one (see :class:`~repro.core.automaton.TimerPolicy`).
        self.timer_policy = timer_policy

    # -- factories -----------------------------------------------------------
    # ``register_id`` is the register the automaton is born for (see
    # :class:`~repro.core.automaton.Automaton`); ``""`` is the paper's one.
    def create_server(self, server_id: str, *, register_id: str = "") -> Automaton:
        raise NotImplementedError

    def create_writer(self, *, register_id: str = "") -> ClientAutomaton:
        raise NotImplementedError

    def create_reader(self, reader_id: str, *, register_id: str = "") -> ClientAutomaton:
        raise NotImplementedError

    def create_client(
        self,
        client_id: str,
        spec: RegisterSpec,
        lease_duration: float,
        *,
        register_id: str = "",
    ) -> ClientAutomaton:
        """The client *client_id* runs on a register with capabilities *spec*.

        A plain spec, or a leased one at the config's writer (revocation is
        server-side, so the writer is untouched), is the paper's writer or a
        reader.  Anything else needs a client this suite does not have;
        :class:`LuckyAtomicProtocol` builds the multi-writer and leased ones,
        each lease lasting *lease_duration*.
        """
        is_writer = client_id == self.config.writer_id
        if spec.mwmr or (spec.leases and not is_writer):
            capabilities = "+".join(f.name for f in fields(spec) if getattr(spec, f.name))
            raise NotImplementedError(
                f"protocol {self.name!r} does not support {capabilities} registers"
            )
        if is_writer:
            return self.create_writer(register_id=register_id)
        return self.create_reader(client_id, register_id=register_id)

    # -- convenience ----------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "consistency": self.consistency,
            "servers": self.config.num_servers,
            "t": self.config.t,
            "b": self.config.b,
            "fw": self.config.fw,
            "fr": self.config.fr,
        }


class LuckyAtomicProtocol(ProtocolSuite):
    """The paper's core algorithm (Section 3, Figures 1-3).

    Optimally resilient (``S = 2t + b + 1``) SWMR atomic storage in which every
    lucky WRITE is fast despite ``fw`` failures and every lucky READ is fast
    despite ``fr`` failures, provided ``fw + fr <= t - b``.
    """

    name = "lucky-atomic"
    consistency = "atomic"

    def __init__(
        self,
        config: SystemConfig,
        timer_delay: float = 10.0,
        count_unresponsive: bool = False,
        timer_policy: TimerPolicy = TimerPolicy.DEADLINE,
    ) -> None:
        super().__init__(config, timer_delay=timer_delay, timer_policy=timer_policy)
        self.count_unresponsive = count_unresponsive

    def create_server(self, server_id: str, *, register_id: str = "") -> StorageServer:
        return StorageServer(server_id, self.config, register_id)

    def create_writer(self, *, register_id: str = "") -> AtomicWriter:
        return AtomicWriter(
            self.config,
            timer_delay=self.timer_delay,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )

    def create_reader(self, reader_id: str, *, register_id: str = "") -> AtomicReader:
        return AtomicReader(
            reader_id,
            self.config,
            timer_delay=self.timer_delay,
            count_unresponsive=self.count_unresponsive,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )

    def create_client(
        self,
        client_id: str,
        spec: RegisterSpec,
        lease_duration: float,
        *,
        register_id: str = "",
    ) -> ClientAutomaton:
        """On a multi-writer key every client reads and writes, holding
        writer (and read) leases if the key has them; on a leased SWMR key
        every reader is a :class:`LeasedReader`."""
        common: Dict[str, Any] = dict(
            timer_delay=self.timer_delay,
            count_unresponsive=self.count_unresponsive,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )
        if spec.mwmr:
            return MultiWriterClient(
                client_id,
                self.config,
                writer_lease_duration=lease_duration if spec.writer_leases else None,
                read_lease_duration=lease_duration if spec.leases else None,
                **common,
            )
        if spec.leases and client_id != self.config.writer_id:
            return LeasedReader(client_id, self.config, lease_duration=lease_duration, **common)
        return super().create_client(client_id, spec, lease_duration, register_id=register_id)
