"""The store surface: one key-value façade over both runtimes.

:class:`StoreSurface` is everything a sharded store offers that does not
depend on *how* time passes: the keyspace (which keys exist, with which
capabilities), creating and dropping keys at runtime, the eviction counters,
per-key histories and their atomicity verdicts.
:class:`~repro.store.sim.ShardedSimStore` (a
:class:`~repro.sim.cluster.SimCluster`, virtual time) and
:class:`~repro.runtime.cluster.ShardedAsyncCluster` (an
:class:`~repro.runtime.cluster.AsyncCluster`) inherit it beside their
cluster class and add only the keyed verbs — ``start_*`` and blocking calls
there, awaitables here.

A runtime supplies ``self.suite`` (its
:class:`~repro.store.sharding.ShardedProtocol`) and two hooks:

* :meth:`StoreSurface._hosts` — the
  :class:`~repro.core.host.ProcessHost` of every live process;
* :meth:`StoreSurface._operations` — the
  :class:`~repro.core.host.OperationHandle` of every operation invoked so
  far, open ones included, its key in ``register_id``.

The façade has no constructor: a subclass (or a subclass of a subclass) that
never calls one is still a complete store.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.host import OperationHandle, ProcessHost
from ..verify.atomicity import CheckResult, check_atomicity
from ..verify.history import History, OperationRecord
from .sharding import ShardedProtocol


def find_router(automaton: Any) -> Any:
    """The register router inside *automaton*'s wrapper stack (or ``None``).

    Servers may be wrapped (``DurableServer`` and friends expose ``inner``);
    clients are routers directly.  Anything without a register table — e.g.
    a bare automaton — yields ``None``.
    """
    while not hasattr(automaton, "discard_register") and hasattr(automaton, "inner"):
        automaton = automaton.inner
    return automaton if hasattr(automaton, "discard_register") else None


class StoreSurface:
    """Keyspace, dynamic keys, eviction counters, histories and verdicts."""

    suite: ShardedProtocol
    # The hooks, declared like ``suite``: a base class of the runtime may be
    # what defines one (``AsyncCluster._operations``).
    _hosts: Callable[[], Iterable[ProcessHost]]
    _operations: Callable[[], Iterable[OperationHandle]]

    def _routers(self) -> List[Any]:
        routers = (find_router(host.automaton) for host in self._hosts())
        return [router for router in routers if router is not None]

    # --------------------------------------------------------------- keyspace
    @property
    def keys(self) -> List[str]:
        """The live keys, in creation order."""
        return list(self.suite.specs)

    @property
    def mwmr_keys(self) -> List[str]:
        """The keys declared multi-writer (every client may write them)."""
        return self.suite.keys_with("mwmr")

    @property
    def leased_keys(self) -> List[str]:
        """The keys with read leases (zero-round contention-free reads)."""
        return self.suite.keys_with("leases")

    @property
    def writer_lease_keys(self) -> List[str]:
        """The keys with writer leases (one-round writes, local CAS)."""
        return self.suite.keys_with("writer_leases")

    def create_register(
        self,
        key: str,
        mwmr: bool = False,
        leases: bool = False,
        writer_leases: bool = False,
    ) -> None:
        """Add *key* to the live keyspace without restarting any process.

        The same membership change as declaring the key at construction: no
        process builds anything until the key is touched — a client its
        automaton at its first invocation, a server when the first message
        arrives.  Under a ``max_resident`` bound admission may evict the
        coldest resident register to the eviction store.
        """
        self.suite.create_register(key, mwmr=mwmr, leases=leases, writer_leases=writer_leases)

    def drop_register(self, key: str) -> None:
        """Remove *key* from the live keyspace and every process.

        Resident automata are discarded (not spilled) and spilled state is
        deleted; in-flight messages for the key then drop like any
        unknown-register message.  The key's recorded operations are archived
        under ``key#N`` (N = how many times the key has been dropped): they
        stay checkable as their own history, and a later ``create_register``
        of the same name starts a genuinely fresh register whose reads of
        bottom must not be judged against the dead incarnation's writes.
        """
        self.suite.drop_register(key)
        for router in self._routers():
            router.discard_register(key)
        # Created on first use: the façade has no constructor to create it in.
        drop_counts: Dict[str, int] = vars(self).setdefault("_drop_counts", {})
        drop_counts[key] = drop_counts.get(key, 0) + 1
        archived = f"{key}#{drop_counts[key]}"
        for operation in self._operations():
            if operation.register_id == key:
                operation.register_id = archived

    @property
    def evictions(self) -> int:
        """Registers spilled to eviction stores across every process."""
        return sum(router.evictions for router in self._routers())

    @property
    def rehydrations(self) -> int:
        """Registers faulted back in from eviction stores across every process."""
        return sum(router.rehydrations for router in self._routers())

    # -------------------------------------------------------------- histories
    def history(self, key: Optional[str] = None) -> History:
        """The history of one register (feedable to any single-key checker),
        or with no *key* every operation of every register."""
        operations = self._operations()
        if key is not None:
            operations = [op for op in operations if op.register_id == key]
        return History([operation.to_record() for operation in operations])

    def histories(self) -> Dict[str, History]:
        """Per-key histories, sorted by key: every live key — one nobody
        touched yet has an empty history — and every ``key#N`` archive of a
        dropped incarnation, so operations on registers dropped since remain
        checkable."""
        by_key: Dict[str, List[OperationRecord]] = {key: [] for key in self.suite.specs}
        for operation in self._operations():
            by_key.setdefault(operation.register_id, []).append(operation.to_record())
        return {key: History(by_key[key]) for key in sorted(by_key)}

    def check_atomicity(self) -> Dict[str, CheckResult]:
        """Run the atomicity checker on every per-key history.

        A live key's writes are keyed the way its spec says: invocation rank on
        an SWMR key, stamped ``(ts, writer_id)`` pairs on an MWMR one.  An
        archive ``key#N`` has no spec left, so the checker detects it from the
        stamps the records still carry.
        """
        specs = self.suite.specs
        return {
            key: check_atomicity(history, mwmr=specs[key].mwmr if key in specs else None)
            for key, history in self.histories().items()
        }

    def verify_atomic(self) -> bool:
        """Whether every per-key history is atomic; raises with details if not."""
        for key, result in self.check_atomicity().items():
            if not result.ok:
                details = "\n".join(str(v) for v in result.violations)
                raise AssertionError(f"register {key!r} violates atomicity:\n{details}")
        return True
