"""Sharding automata: route protocol messages to per-register instances.

A *shard* (register) is one complete instance of a base protocol — writer
state, per-reader state and per-server state — identified by a ``register_id``
string.  The classes here multiplex N such instances over one fleet of
*physical* processes:

* :class:`ShardedServer` hosts one inner server automaton per register and
  routes each incoming message by its ``register_id`` tag;
* :class:`ShardedClient` hosts one inner client automaton per register and
  lifts the one-outstanding-operation-per-client limit *across* registers
  (well-formedness is still enforced per register, which is all the paper's
  proofs need);
* :class:`ShardedProtocol` is a :class:`~repro.core.protocol.ProtocolSuite`
  building the sharded deployment out of any base suite, so the simulator and
  the asyncio runtime can drive it exactly like a single-register deployment.

Routing is purely syntactic, and one-way.  An inner automaton is *born
addressed*: the suite's factory hands it its ``register_id``, so every
message it builds already carries the register, every timer id it arms
already starts with ``"<register>::"`` and every completion already names the
register in ``metadata["register_id"]`` (which the hosting cluster resolves
the pending operation by).  A router therefore only looks an input up —
a message by its ``register_id``, a timer by the part of its id before the
separator — and returns the inner automaton's effects as they are; nothing on
the way out is copied.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Union

from ..core.automaton import TIMER_SEPARATOR, Automaton, ClientAutomaton, Effects
from ..core.protocol import ProtocolSuite
from ..lease.server import LeaseServer, WriterLeaseServer
from ..persist.durable import notify_recovered
from ..sim.byzantine import ByzantineStrategy, MaliciousServer, check_byzantine_servers
from .keyspace import (
    RegisterEvictionStore,
    export_register_state,
    restore_register_state,
)

#: A factory materializing the automaton for a register on demand, or ``None``
#: when the register does not (or no longer does) exist in the suite.
RegisterFactory = Callable[[str], Optional[Automaton]]


class _RegisterRouter:
    """Shared routing behaviour of sharded processes.

    ``self.registers`` (register id → inner automaton) starts empty and grows
    by **admission** only: ``factory`` builds the automaton of a register the
    suite knows the first time something asks for it.  Inputs for unknown
    registers are dropped (an honest process never sends them; a malicious
    one gains nothing, since clients ignore replies addressed to a register
    they have no pending operation on).  A message its automaton forgot to
    address is one of them, and its operation would hang: analyzer rule RP10
    holds every message construction in the automata to a ``register_id=``.

    ``batching`` marks the process as a participant in the message-batching
    layer: the hosting runtime (simulator or asyncio node) then buffers the
    sends this process emits and flushes everything travelling to the same
    destination as one :class:`~repro.core.messages.Batch` envelope per flush
    boundary (end of the current virtual-time instant / event-loop tick, or —
    under backpressure — the moment the outgoing line frees up).  Inbound
    batches are unwrapped by the runtime before reaching the router, so the
    per-register automata never see the envelope.
    """

    sharded = True
    #: Set by :class:`ShardedProtocol`; runtimes read it via ``getattr`` with a
    #: ``False`` default, so plain single-register automata are never batched.
    batching = False
    registers: Dict[str, Automaton]
    #: The one way a register comes to exist here.  Servers admit on message
    #: arrival (a cold key faults in); clients admit only at invocation time,
    #: so unsolicited replies for registers they never touched stay dropped.
    factory: RegisterFactory
    #: Memory bound: with ``max_resident`` set (servers only), admitting a
    #: register past the bound evicts the least-recently-used evictable one
    #: into ``eviction_store``; a later message faults it back in.  ``None``
    #: never evicts.
    max_resident: Optional[int] = None
    eviction_store: Optional[RegisterEvictionStore] = None
    #: Predicate excluding registers from eviction (leased registers hold
    #: volatile grant state an eviction would forget, so suites pin them).
    evictable: Optional[Callable[[str], bool]] = None
    #: Whether a message for a non-resident register triggers admission.
    admit_on_message = False
    #: Called with the id of every register admitted (a wrapper that tracks
    #: per-register change, :class:`~repro.persist.durable.DurableServer`,
    #: learns here of a register that became resident without a message).
    on_admission: Optional[Callable[[str], None]] = None
    #: Whether this process is a recovered incarnation (see
    #: :meth:`notify_recovered`).
    recovered = False
    evictions = 0
    rehydrations = 0

    def handle_message(self, message) -> Effects:
        inner = self.registers.get(message.register_id)
        if inner is None:
            if not self.admit_on_message:
                return Effects()
            inner = self.ensure_register(message.register_id)
            if inner is None:
                return Effects()
        elif self.max_resident is not None:
            self._touch(message.register_id)
        return inner.handle_message(message)

    # ---------------------------------------------------- dynamic admission
    def ensure_register(self, register_id: str) -> Optional[Automaton]:
        """The automaton for *register_id*, faulting it in if necessary.

        A non-resident register is materialized through the suite's factory
        (``None`` when the suite does not know the id — e.g. it was dropped)
        and, if it was evicted earlier, rehydrated from the eviction store
        before use.  Admission past ``max_resident`` evicts the coldest
        evictable resident register.
        """
        inner = self.registers.get(register_id)
        if inner is not None:
            if self.max_resident is not None:
                self._touch(register_id)
            return inner
        inner = self.factory(register_id)
        if inner is None:
            return None
        if self.eviction_store is not None:
            state = self.eviction_store.load(register_id)
            if state is not None:
                restore_register_state(inner, state)
                self.rehydrations += 1
        if self.recovered:
            notify_recovered(inner)
        self.registers[register_id] = inner
        if self.on_admission is not None:
            self.on_admission(register_id)
        self._evict_over_bound()
        return inner

    def notify_recovered(self) -> None:
        """This process is a recovered incarnation, for as long as it lives.

        Recovery admits only what the snapshot and the WAL name, so a register
        whose sole pre-crash state was volatile (a lease granted, nothing
        written) is admitted later, by its first message — and must enter the
        same post-recovery grace as the registers recovery did admit: every
        admission of this incarnation is told it is recovered.
        """
        self.recovered = True

    def _touch(self, register_id: str) -> None:
        """Move *register_id* to the MRU end (dict insertion order is the LRU)."""
        self.registers[register_id] = self.registers.pop(register_id)

    def _evict_over_bound(self) -> None:
        while (
            self.max_resident is not None
            and self.eviction_store is not None
            and len(self.registers) > self.max_resident
        ):
            victim = next(
                (
                    register_id
                    for register_id in self.registers
                    if self.evictable is None or self.evictable(register_id)
                ),
                None,
            )
            if victim is None:  # everything resident is pinned
                return
            self.evict_register(victim)

    def evict_register(self, register_id: str) -> bool:
        """Spill *register_id*'s state to the eviction store and drop it."""
        inner = self.registers.get(register_id)
        if inner is None or self.eviction_store is None:
            return False
        self.eviction_store.save(register_id, export_register_state(inner))
        del self.registers[register_id]
        self.evictions += 1
        return True

    def discard_register(self, register_id: str) -> None:
        """Forget *register_id* entirely (dropped keyspace entry, not eviction)."""
        self.registers.pop(register_id, None)
        if self.eviction_store is not None:
            self.eviction_store.discard(register_id)

    def timer_register(self, timer_id: str) -> str:
        """The register a namespaced *timer_id* belongs to (the automata build
        the namespace with :func:`~repro.core.automaton.timer_namespace`;
        this is the one place that parses it)."""
        return timer_id.partition(TIMER_SEPARATOR)[0]

    def on_timer(self, timer_id: str) -> Effects:
        # The inner automaton armed the whole id, so it gets the whole id.
        inner = self.registers.get(self.timer_register(timer_id))
        if inner is None:
            return Effects()
        return inner.on_timer(timer_id)

    def describe(self) -> dict:
        return {
            "process_id": self.process_id,
            "registers": {
                register_id: inner.describe()
                for register_id, inner in self.registers.items()
            },
        }


class ShardedServer(_RegisterRouter, Automaton):
    """One physical server hosting per-register server automata.

    A **dynamic keyspace** host: a message for a register it does not hold
    faults it in through *factory* (admission), and with *max_resident* +
    *eviction_store* set the resident table is LRU-bounded, spilling cold
    registers as encoded snapshots and rehydrating them on access.
    """

    admit_on_message = True

    def __init__(
        self,
        server_id: str,
        factory: RegisterFactory,
        max_resident: Optional[int] = None,
        eviction_store: Optional[RegisterEvictionStore] = None,
        evictable: Optional[Callable[[str], bool]] = None,
    ) -> None:
        super().__init__(server_id)
        if max_resident is not None:
            if max_resident < 1:
                raise ValueError("max_resident must be at least 1")
            if eviction_store is None:
                raise ValueError(
                    "a bounded register table needs an eviction store: "
                    "evicting without one would lose acknowledged state"
                )
        self.registers = {}
        self.factory = factory
        self.max_resident = max_resident
        self.eviction_store = eviction_store
        self.evictable = evictable


class ShardedClient(_RegisterRouter, ClientAutomaton):
    """One physical client hosting per-register client automata.

    The client may have one outstanding operation *per register* concurrently;
    each inner automaton still enforces the paper's per-register
    well-formedness (at most one outstanding operation on its register).

    An invocation on a register the client has no automaton for materializes
    one through *factory* (inheriting the client's timer delay).  Client
    tables are never evicted — a client automaton holds in-flight operation
    state and is tiny compared to a server's per-register storage.
    """

    def __init__(self, process_id: str, factory: RegisterFactory) -> None:
        self.registers: Dict[str, ClientAutomaton] = {}  # the delay setter walks it
        self.factory = factory
        super().__init__(process_id)

    # -------------------------------------------------------------- timer delay
    @property
    def timer_delay(self) -> float:
        """The delay every register runs under (assignment broadcasts it)."""
        return self._timer_delay

    @timer_delay.setter
    def timer_delay(self, value: float) -> None:
        self._timer_delay = value
        for inner in self.registers.values():
            inner.timer_delay = value

    # ------------------------------------------------------------------- state
    def _register(self, register_id: str) -> ClientAutomaton:
        inner = self.registers.get(register_id)
        if inner is None:
            created = self.factory(register_id)
            if isinstance(created, ClientAutomaton):
                created.timer_delay = self._timer_delay
                self.registers[register_id] = created
                inner = created
        if inner is None:
            raise KeyError(
                f"client {self.process_id} has no register {register_id!r}; "
                f"known registers: {sorted(self.registers)}"
            )
        return inner

    @property
    def busy(self) -> bool:
        """Whether any register has an outstanding operation."""
        return any(inner.busy for inner in self.registers.values())

    # -------------------------------------------------------------- invocation
    _NEEDS_MWMR = "conditional operations need a multi-writer client (declare the register mwmr)"

    def _invoke(self, register_id: str, method: str, missing: str, *args) -> Effects:
        """Call *method* of the register's inner automaton; returns its
        effects.  *missing* says why a client without the method has none."""
        invoke = getattr(self._register(register_id), method, None)
        if invoke is None:
            raise TypeError(
                f"client {self.process_id} has no {method} on register "
                f"{register_id!r}: {missing}"
            )
        return invoke(*args)

    def write(self, register_id: str, value) -> Effects:
        """Invoke ``WRITE(value)`` on *register_id*; returns its effects."""
        return self._invoke(
            register_id,
            "write",
            "the register is single-writer (declare it mwmr to let every "
            "client write it)",
            value,
        )

    def read(self, register_id: str) -> Effects:
        """Invoke ``READ()`` on *register_id*; returns its effects."""
        return self._invoke(
            register_id,
            "read",
            "in the SWMR model the writer never reads (declare the register "
            "mwmr to give every client both roles)",
        )

    def compare_and_swap(self, register_id: str, expected, new) -> Effects:
        """Invoke ``CAS(expected, new)`` on *register_id*; returns its effects."""
        return self._invoke(register_id, "compare_and_swap", self._NEEDS_MWMR, expected, new)

    def read_modify_write(self, register_id: str, fn) -> Effects:
        """Invoke ``RMW(fn)`` on *register_id*; returns its effects."""
        return self._invoke(register_id, "read_modify_write", self._NEEDS_MWMR, fn)


#: A factory producing a fresh strategy instance; strategies are stateful, so
#: each register of a malicious server gets its own.
StrategyFactory = Callable[[], ByzantineStrategy]


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


# One shared instance per legal combination, however large the keyspace.
_shared_spec = functools.cache(RegisterSpec)


def _spec_for(register_id: str, mwmr: bool, leases: bool, writer_leases: bool) -> RegisterSpec:
    try:
        return _shared_spec(mwmr, leases, writer_leases)
    except ValueError as exc:
        raise ValueError(f"register {register_id!r}: {exc}") from None


def _selected_ids(
    label: str,
    selector: Union[bool, str, Sequence[str]],
    register_ids: FrozenSet[str],
    everything: FrozenSet[str],
) -> FrozenSet[str]:
    """The register ids a ``True | False | id | ids`` capability argument names.

    ``True`` selects *everything* (what "all keys" means for the capability);
    explicit ids must be among *register_ids*.
    """
    if selector is True:
        return everything
    if selector is False:
        return frozenset()
    if isinstance(selector, str):
        # A bare string is one register id, not a sequence of
        # single-character ids (an easy typo for mwmr=["hot"]).
        selector = [selector]
    selected = frozenset(selector)
    unknown = selected - register_ids
    if unknown:
        raise ValueError(f"{label} ids are not registers: {sorted(unknown)}")
    return selected


def _keyspace(
    register_ids: Sequence[str],
    mwmr_ids: FrozenSet[str],
    lease_ids: FrozenSet[str],
    writer_lease_ids: FrozenSet[str],
) -> Dict[str, RegisterSpec]:
    """The spec of every register, in *register_ids* order.

    A selection that names every key or none is the same for all of them, so
    the keys no explicit-id selection names share one spec; only the named
    keys are looked up one by one.  An illegal combination is worded by the
    per-key build, which names the first register in order that has it.
    """
    count = len(register_ids)
    selections = (mwmr_ids, lease_ids, writer_lease_ids)
    named = frozenset().union(*(ids for ids in selections if len(ids) < count))
    try:
        specs = dict.fromkeys(
            register_ids, _shared_spec(*(len(ids) == count for ids in selections))
        )
        for register_id in named:
            specs[register_id] = _shared_spec(*(register_id in ids for ids in selections))
        return specs
    except ValueError:
        return {
            register_id: _spec_for(register_id, *(register_id in ids for ids in selections))
            for register_id in register_ids
        }


class ShardedProtocol(ProtocolSuite):
    """Suite multiplexing *base* over the registers *register_ids*.

    ``byzantine`` optionally maps server ids to strategy factories: the named
    servers then behave maliciously on *every* register (a faulty machine is
    faulty for all the shards it hosts — the fault-containment property is
    that it still cannot affect more than ``b`` servers of any shard's quorum
    system, so each register retains the paper's guarantees).

    ``batching`` (default on) marks every process of the deployment for the
    message-batching layer: co-flushed messages to the same destination travel
    as one :class:`~repro.core.messages.Batch` envelope.  Batching is purely a
    transport optimisation — a Byzantine server still forges *per-register*
    replies inside the envelope, and the receiving router drops anything
    addressed to a register it does not know, so a malicious batch cannot leak
    across co-batched registers.

    ``mwmr`` lifts the single-writer restriction *key by key*: pass ``True``
    to make every register multi-writer, or a collection of register ids to
    make just those MWMR.  On an MWMR register every client of the deployment
    (the config's writer and all its readers) hosts a
    :class:`~repro.core.mwmr.MultiWriterClient` — it can both read and write,
    a WRITE runs the ``(ts, writer_id)`` query-then-write protocol, and
    concurrent writers order their pairs lexicographically.  SWMR registers
    are untouched: their lone writer keeps the paper's one-round lucky WRITE.

    ``leases`` enables **read leases** key by key (``True`` for all keys, or a
    collection of register ids): the named registers' server automata are
    wrapped in a :class:`~repro.lease.server.LeaseServer` and their readers
    become :class:`~repro.core.reader.LeasedReader` instances serving
    contention-free reads locally in zero rounds (``lease_duration`` sets the
    validity window in protocol time units).  A write to a leased register
    revokes outstanding leases before its acknowledgements complete, so
    atomicity is untouched; sibling registers pay nothing.  Read leases and
    ``mwmr`` are mutually exclusive per key *unless* the key also has writer
    leases — hot multi-writer keys want *writer* leases, and once those are on
    the two lease layers compose (the server stack withholds a leased write's
    acknowledgement until conflicting read leases are revoked).

    ``writer_leases`` enables **writer leases** key by key (``True`` for all
    MWMR keys, or a collection of register ids — each must also be ``mwmr``):
    the named registers' server automata gain a
    :class:`~repro.lease.server.WriterLeaseServer` and every client becomes a
    :class:`~repro.core.mwmr.MultiWriterClient` with a
    :class:`~repro.core.writer.LeasedWriter` role, writing in one round (and
    deciding CAS/RMW locally) while its lease holds.
    """

    def __init__(
        self,
        base: ProtocolSuite,
        register_ids: Sequence[str],
        byzantine: Optional[Dict[str, StrategyFactory]] = None,
        batching: bool = True,
        mwmr: Union[bool, Sequence[str]] = (),
        leases: Union[bool, Sequence[str]] = (),
        lease_duration: float = 60.0,
        writer_leases: Union[bool, Sequence[str]] = (),
        max_resident: Optional[int] = None,
    ) -> None:
        super().__init__(base.config, timer_delay=base.timer_delay, timer_policy=base.timer_policy)
        # An empty initial keyspace is fine: create_register grows it at
        # runtime, and declared keys are built no earlier than created ones.
        every_id = frozenset(register_ids)
        if len(every_id) != len(register_ids):
            raise ValueError(f"duplicate register ids: {list(register_ids)}")
        # One pass over the whole keyspace; the per-id check only words the
        # error (and admits a str subclass the pass does not know).
        if not (
            set(map(type, register_ids)) <= {str}
            and "" not in every_id
            and TIMER_SEPARATOR not in "\n".join(register_ids)
        ):
            for register_id in register_ids:
                self._validate_register_id(register_id)
        self.base = base
        #: Memory bound on each server's resident register table (``None`` =
        #: never evict: every register a server was ever asked about stays).
        #: Each server gets a persistent :class:`RegisterEvictionStore`
        #: (surviving crash/recovery rebuilds of the automaton) to spill cold
        #: registers into.
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        self.max_resident = max_resident
        self.eviction_stores: Dict[str, RegisterEvictionStore] = {}
        mwmr_ids = _selected_ids("mwmr", mwmr, every_id, every_id)
        lease_ids = _selected_ids("lease", leases, every_id, every_id)
        # For the writer lease "all keys" means all multi-writer keys.
        writer_lease_ids = _selected_ids("writer-lease", writer_leases, every_id, mwmr_ids)
        #: The keyspace: every live register and its capabilities, in creation
        #: order.  Membership, order and capabilities have no other copy, so
        #: create_register/drop_register and lazy admission are O(1) even
        #: with a six-figure keyspace.
        self.specs: Dict[str, RegisterSpec] = _keyspace(
            register_ids, mwmr_ids, lease_ids, writer_lease_ids
        )
        if lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        self.lease_duration = lease_duration
        self.name = f"sharded-{base.name}"
        self.consistency = base.consistency
        self.batching = bool(batching)
        self.byzantine = dict(byzantine or {})
        check_byzantine_servers(self.byzantine, self.config)

    # ---------------------------------------------------------- id validation
    @staticmethod
    def _validate_register_id(register_id: str) -> None:
        """Reject ids that cannot round-trip through the routing layer.

        A malformed id would otherwise surface only when a timer fires, as a
        silently misrouted (dropped) timer — the router cuts a timer id at
        the first separator, so an id containing it can never round-trip, and
        the empty id is the single register, whose timers carry no namespace.
        """
        if not isinstance(register_id, str):
            raise ValueError(
                f"register id {register_id!r} must be a string, "
                f"not {type(register_id).__name__}"
            )
        if not register_id:
            raise ValueError("register ids must be non-empty strings")
        if TIMER_SEPARATOR in register_id:
            raise ValueError(
                f"register id {register_id!r} must not contain {TIMER_SEPARATOR!r}"
            )

    # ----------------------------------------------------------- dynamic keys
    def keys_with(self, capability: str) -> List[str]:
        """The sorted keys whose spec has *capability* (a
        :class:`RegisterSpec` field name) — a derived view for reports, not
        for per-key decisions (those read ``specs[key]``)."""
        return sorted(key for key, spec in self.specs.items() if getattr(spec, capability))

    def create_register(
        self,
        register_id: str,
        mwmr: bool = False,
        leases: bool = False,
        writer_leases: bool = False,
    ) -> None:
        """Add *register_id* to the keyspace at runtime.

        A membership change and nothing else, exactly like a key declared at
        construction: a register exists once it is in ``specs``, its automata
        exist once something asked for them — a client builds its own at first
        invocation, a server when the first message arrives (the lazy
        ``StorageServer._ensure_reader`` admission pattern, lifted to whole
        registers).  Capability combinations obey the same rules as at
        construction time.
        """
        self._validate_register_id(register_id)
        if register_id in self.specs:
            raise ValueError(f"register {register_id!r} already exists")
        self.specs[register_id] = _spec_for(register_id, mwmr, leases, writer_leases)

    def drop_register(self, register_id: str) -> None:
        """Remove *register_id* from the keyspace.

        After the drop the admission factories return ``None`` for the id, so
        messages still in flight for it are dropped exactly like any
        unknown-register message.  The hosting store additionally discards
        resident automata from live processes; this suite-level method only
        owns membership and the spilled eviction state.
        """
        if register_id not in self.specs:
            raise KeyError(f"register {register_id!r} does not exist")
        del self.specs[register_id]
        for store in self.eviction_stores.values():
            store.discard(register_id)

    def _evictable(self, register_id: str) -> bool:
        spec = self.specs.get(register_id)
        return spec is None or not spec.pinned

    # -------------------------------------------------------------- factories
    def _create_register_server(self, server_id: str, register_id: str) -> Automaton:
        spec = self.specs[register_id]
        strategy_factory = self.byzantine.get(server_id)
        server = self.base.create_server(server_id, register_id=register_id)
        if spec.writer_leases:
            # Innermost lease wrapper: the holder's 1-round PW passes
            # through here into the read-lease layer, whose withholding
            # discipline therefore still applies to leased writes.
            server = WriterLeaseServer(server, lease_duration=self.lease_duration)
        if spec.leases:
            server = LeaseServer(server, lease_duration=self.lease_duration)
        if strategy_factory is not None:
            # The malicious wrapper goes outside the lease layer: a faulty
            # machine does not honour the withholding contract, which is
            # exactly what the b-bounded quorum arithmetic tolerates.
            server = MaliciousServer(server, strategy_factory())  # type: ignore[arg-type]
        return server

    def _admit_server_register(self, server_id: str, register_id: str) -> Optional[Automaton]:
        """Admission factory for servers: fresh automaton, or ``None`` if the
        id is not (or no longer) part of the keyspace."""
        if register_id not in self.specs:
            return None
        return self._create_register_server(server_id, register_id)

    def _admit_client_register(
        self, client_id: str, register_id: str
    ) -> Optional[ClientAutomaton]:
        if register_id not in self.specs:
            return None
        return self._create_client_register(register_id, client_id)

    def _create_client_register(self, register_id: str, client_id: str) -> ClientAutomaton:
        spec = self.specs[register_id]
        if spec.writer_leases:
            return self.base.create_leased_mwmr_client(
                client_id,
                writer_lease_duration=self.lease_duration,
                read_lease_duration=self.lease_duration if spec.leases else None,
                register_id=register_id,
            )
        if spec.mwmr:
            return self.base.create_mwmr_client(client_id, register_id=register_id)
        if client_id == self.config.writer_id:
            return self.base.create_writer(register_id=register_id)
        if spec.leases:
            return self.base.create_leased_reader(
                client_id, lease_duration=self.lease_duration, register_id=register_id
            )
        return self.base.create_reader(client_id, register_id=register_id)

    def create_server(self, server_id: str) -> ShardedServer:
        eviction_store = None
        if self.max_resident is not None:
            # One spill store per server id, *owned by the suite*: a crashed
            # server's recovery rebuilds the automaton but keeps the store, so
            # registers evicted before the crash rehydrate after it.
            eviction_store = self.eviction_stores.setdefault(
                server_id, RegisterEvictionStore()
            )
        sharded = ShardedServer(
            server_id,
            factory=functools.partial(self._admit_server_register, server_id),
            max_resident=self.max_resident,
            eviction_store=eviction_store,
            evictable=self._evictable,
        )
        sharded.batching = self.batching
        return sharded

    def _create_client(self, client_id: str) -> ShardedClient:
        client = ShardedClient(
            client_id, factory=functools.partial(self._admit_client_register, client_id)
        )
        client.timer_delay = self.timer_delay
        client.batching = self.batching
        return client

    def create_writer(self) -> ShardedClient:
        return self._create_client(self.config.writer_id)

    def create_reader(self, reader_id: str) -> ShardedClient:
        return self._create_client(reader_id)

    def describe(self) -> dict:
        info = super().describe()
        info["registers"] = len(self.specs)
        info["base"] = self.base.name
        info["batching"] = self.batching
        info["mwmr_registers"] = self.keys_with("mwmr")
        info["leased_registers"] = self.keys_with("leases")
        info["writer_leased_registers"] = self.keys_with("writer_leases")
        info["max_resident"] = self.max_resident
        return info
