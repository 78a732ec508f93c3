"""Protocol suites: factories bundling the writer, reader and server automata.

A :class:`ProtocolSuite` is the unit the simulation cluster and the asyncio
runtime consume: given a :class:`~repro.core.config.SystemConfig` it creates
one automaton per role.  The core algorithm's suite is
:class:`LuckyAtomicProtocol`; the Appendix C/D variants and the baselines
provide their own suites with the same interface, which is what lets the
benchmark harness compare protocols apples-to-apples.
"""

from __future__ import annotations

from typing import Any, Dict

from .automaton import Automaton, ClientAutomaton, TimerPolicy
from .config import SystemConfig
from .reader import AtomicReader
from .server import StorageServer
from .writer import AtomicWriter


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

    def create_mwmr_client(self, client_id: str, *, register_id: str = "") -> ClientAutomaton:
        """A read-*and*-write client for one multi-writer register.

        Only protocols whose writer supports the MWMR query phase provide
        this; the sharded store calls it for every client of a register
        declared ``mwmr``.
        """
        raise NotImplementedError(
            f"protocol {self.name!r} does not support multi-writer registers"
        )

    def create_leased_reader(
        self, reader_id: str, lease_duration: float, *, register_id: str = ""
    ) -> ClientAutomaton:
        """A reader serving zero-round reads from a quorum read lease.

        Only protocols whose reader understands the lease handshake provide
        this; the sharded store calls it for every reader of a register
        declared ``leases`` (see :mod:`repro.lease`).
        """
        raise NotImplementedError(
            f"protocol {self.name!r} does not support read leases"
        )

    def create_leased_mwmr_client(
        self,
        client_id: str,
        writer_lease_duration: float,
        read_lease_duration: float | None = None,
        *,
        register_id: str = "",
    ) -> ClientAutomaton:
        """An MWMR client whose writer role holds per-register writer leases.

        While the lease is active the client writes in one round (no
        timestamp-query phase) and decides CAS/RMW operations locally; the
        sharded store calls this for every client of a register declared
        ``writer_leases`` (see :mod:`repro.lease`).
        """
        raise NotImplementedError(
            f"protocol {self.name!r} does not support writer leases"
        )

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

    def create_mwmr_client(self, client_id: str, *, register_id: str = "") -> "MultiWriterClient":
        from .mwmr import MultiWriterClient

        return MultiWriterClient(
            client_id,
            self.config,
            timer_delay=self.timer_delay,
            count_unresponsive=self.count_unresponsive,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )

    def create_leased_reader(
        self, reader_id: str, lease_duration: float, *, register_id: str = ""
    ) -> "LeasedReader":
        from .reader import LeasedReader

        return LeasedReader(
            reader_id,
            self.config,
            lease_duration=lease_duration,
            timer_delay=self.timer_delay,
            count_unresponsive=self.count_unresponsive,
            timer_policy=self.timer_policy,
            register_id=register_id,
        )

    def create_leased_mwmr_client(
        self,
        client_id: str,
        writer_lease_duration: float,
        read_lease_duration: float | None = None,
        *,
        register_id: str = "",
    ) -> "MultiWriterClient":
        from .mwmr import MultiWriterClient

        return MultiWriterClient(
            client_id,
            self.config,
            timer_delay=self.timer_delay,
            count_unresponsive=self.count_unresponsive,
            timer_policy=self.timer_policy,
            writer_lease_duration=writer_lease_duration,
            read_lease_duration=read_lease_duration,
            register_id=register_id,
        )
