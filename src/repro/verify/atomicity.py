"""The atomicity checker (Section 2.2 of the paper), one for every register.

A partial run of one register satisfies atomicity iff:

1. **No creation** — if a READ returns ``x`` then ``x`` was written by some
   WRITE (or is the initial value ⊥).
2. **Read/write ordering** — if a complete READ succeeds the complete WRITE
   ``wr_k`` (``k >= 1``) then it returns ``val_l`` with ``l >= k``.
3. **No reading from the future** — if a READ returns ``val_k`` (``k >= 1``)
   then ``wr_k`` precedes it or is concurrent with it.
4. **Read hierarchy** — if READ ``rd_1`` returns ``val_k`` and READ ``rd_2``
   succeeds ``rd_1`` and returns ``val_l``, then ``l >= k``.

All four are statements about *which write a read returned*, so the checker
gives every write a **key** and decides everything else by comparing keys.
How keys are derived is the only thing that differs between a single-writer
and a multi-writer register (and the only thing ``mwmr=`` selects):

- single-writer — the write's invocation rank ``(k, "")``: one writer issues
  them all, so invocation order is the order of the values;
- multi-writer — the lexicographic ``(ts, writer_id)`` pair the MWMR protocol
  stamped into the write's completion metadata.  Writer overlap across
  distinct clients is legal there (each client must still be well-formed),
  and three more statements become checkable: **write-order** (a WRITE
  invoked after another completed carries a higher pair), **pair-reuse** /
  **pair-mismatch** (a pair names one write, and a READ reports the pair of
  the write whose value it returns), and **conditional-isolation** for CAS /
  RMW (see :class:`AtomicityChecker`).

The ⊥ value has the key ``(0, "")``, below every write.  When two WRITEs wrote
the same value a READ of it is attributed to the whole range of their keys and
every comparison uses the most permissive end (with a warning), so benchmark
workloads write unique values.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from ..core.types import is_bottom
from .history import (
    BOTTOM_PAIR,
    History,
    OperationRecord,
    Pair,
    observed_pair,
    reported_pair,
    written_pair,
)


@dataclass(frozen=True)
class Violation:
    """One violated atomicity (or regularity) property."""

    property_name: str
    description: str
    operations: Tuple[OperationRecord, ...]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        ops = "; ".join(repr(op) for op in self.operations)
        return f"[{self.property_name}] {self.description} ({ops})"


@dataclass
class CheckResult:
    """Outcome of a consistency check.

    ``lease_reads`` counts the checked reads that were served locally from a
    read lease (zero rounds, ``metadata["lease"]``).  They are *not* checked
    differently — a lease-served read enters the same four properties and the
    same linearization as a protocol read, which is exactly the claim the
    lease machinery has to uphold — but the count makes a vacuous pass
    visible: a "lease workload" whose histories contain no lease reads
    verified nothing about leases.
    """

    consistency: str
    violations: List[Violation] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    checked_reads: int = 0
    checked_writes: int = 0
    lease_reads: int = 0
    #: Completed conditional writes (successful CAS / RMW) checked for
    #: conditional isolation, and failed CAS attempts that linearised as
    #: reads.  Like ``lease_reads`` they make vacuous passes visible: a "CAS
    #: workload" whose histories contain no conditional metadata verified
    #: nothing about conditionals.
    cas_writes: int = 0
    cas_failures: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if not self.ok:
            details = "\n".join(str(violation) for violation in self.violations)
            raise AssertionError(f"{self.consistency} violated:\n{details}")

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        leased = f", {self.lease_reads} lease-served" if self.lease_reads else ""
        conditional = (
            f", {self.cas_writes} conditional write(s), "
            f"{self.cas_failures} failed CAS"
            if self.cas_writes or self.cas_failures
            else ""
        )
        return (
            f"{self.consistency}: {status} "
            f"({self.checked_reads} reads{leased}, "
            f"{self.checked_writes} writes checked{conditional})"
        )


@dataclass(slots=True)
class _WritesOfValue:
    """The writes of one value: their key range and earliest invocation."""

    lo: Optional[Pair]
    hi: Optional[Pair]
    invoked_at: float
    #: Position of the only write of the value; ``None`` once a second wrote it.
    sole: Optional[int]


def _value_id(value: Any) -> Any:
    """A dict key with ``==`` semantics (``repr`` for unhashable values)."""
    try:
        hash(value)
    except TypeError:
        return ("unhashable", repr(value))
    return value


class AtomicityChecker:
    """Checks every register of a :class:`History`, one sort and one sweep each.

    Per register: key the writes (module docstring), resolve every complete
    READ to the ``[lo, hi]`` keys of the writes of its value, then walk the
    invocations and completions in time order.  A completion raises one of two
    running maxima — the highest completed write key, the highest completed
    read ``lo`` — and an invocation is compared against them:

    - **read-after-write** — a READ's ``hi`` is not below the highest write
      key completed before it was invoked;
    - **read-hierarchy** — nor below the highest ``lo`` a READ completed
      before it returned (``read_hierarchy=False`` drops this comparison,
      which is regularity);
    - **write-order** — a keyed WRITE is above the highest write key completed
      before it was invoked (vacuous for invocation ranks);
    - **no-creation**, **no-future-read**, **pair-reuse**, **pair-mismatch**
      are lookups in the value and key indexes.

    Each violation is reported once, on the operation that offends, with the
    maximum it fell below as the witness.

    A multi-writer WRITE without a stamp — an open write, whose completion
    never ran, or a hand-built record — takes the pair the READs of its value
    report; READs of a value nobody can key are left out of the order
    properties, with a warning.

    A successful compare-and-swap (or read-modify-write) claims more than a
    plain write: the value it replaced is the one it *observed*, stamped as
    ``observed_ts`` / ``observed_writer`` / ``observed_bottom``:

    - **conditional-isolation** — no WRITE whose pair lies strictly between
      the observed pair and the conditional's own *completed before the
      conditional was invoked*.  Such a write was unmissable in real time, so
      the conditional decided against a stale value.  Writes *concurrent*
      with the conditional are exempt: a competitor's parked write may land
      between the two pairs, which is atomic as a register and not as a CAS
      object (``docs/protocol.md``, "Real-time caveat"; pinned by the strict
      xfail in ``tests/unit/test_linearizability.py``).

    Failed CAS attempts complete as reads (``cas_failed`` metadata) and take
    part in the read properties — a failed CAS must linearise exactly like a
    read of the value it lost to.

    >>> from repro.verify.history import History, OperationRecord
    >>> write = OperationRecord(
    ...     client_id="w1", kind="write", value="a", invoked_at=0.0,
    ...     completed_at=1.0, metadata={"ts": 1, "writer_id": "w1", "mwmr": True},
    ... )
    >>> cas = OperationRecord(
    ...     client_id="w2", kind="write", value="b", invoked_at=2.0,
    ...     completed_at=3.0,
    ...     metadata={"ts": 2, "writer_id": "w2", "mwmr": True, "cas": True,
    ...               "observed_ts": 1, "observed_writer": "w1",
    ...               "observed_bottom": False},
    ... )
    >>> result = AtomicityChecker().check(History([write, cas]))
    >>> result.ok, result.cas_writes, result.consistency
    (True, 1, 'mwmr-atomicity+conditional')
    """

    def __init__(self, mwmr: Optional[bool] = None, read_hierarchy: bool = True) -> None:
        #: How keys are derived: stamped pairs, invocation ranks, or (``None``)
        #: stamped pairs on the registers whose writes carry ``mwmr: True``.
        self.mwmr = mwmr
        self.read_hierarchy = read_hierarchy

    def check(self, history: History) -> CheckResult:
        """Check *history*, register by register.

        Atomicity is a per-register property — every register's writers count
        timestamps independently, and a single writer legitimately overlaps
        its own writes to different keys — so the history is split on the
        ``register_id`` metadata, and violations and warnings name their
        register.
        """
        result = CheckResult(consistency="atomicity")
        multi_writer = bool(self.mwmr)
        registers = sorted(history.by_register().items(), key=lambda item: str(item[0]))
        for register_id, records in registers:
            stamped = records.is_mwmr() if self.mwmr is None else self.mwmr
            multi_writer = multi_writer or stamped
            self._check_register(register_id, records, stamped, result)
        if not self.read_hierarchy:
            result.consistency = "regularity"
        elif multi_writer:
            conditional = result.cas_writes or result.cas_failures
            result.consistency = "mwmr-atomicity" + ("+conditional" if conditional else "")
        return result

    def _check_register(
        self, register_id: Any, history: History, stamped: bool, result: CheckResult
    ) -> None:
        prefix = "" if register_id is None else f"register {register_id!r}: "

        def flag(name: str, description: str, *operations: OperationRecord) -> None:
            result.violations.append(Violation(name, prefix + description, operations))

        def show(key: Pair) -> str:
            return f"pair {key}" if stamped else f"val_{key[0]}"

        ordered = sorted(history.records, key=attrgetter("invoked_at"))
        writes = [op for op in ordered if op.kind == "write"]
        reads = [op for op in ordered if op.kind == "read" and op.complete]
        result.checked_writes += len(writes)
        result.checked_reads += len(reads)

        # ---------------------------------------------------- key the writes
        keys: List[Optional[Pair]] = []
        by_value: Dict[Any, _WritesOfValue] = {}
        duplicates = False
        for position, write in enumerate(writes):
            key = written_pair(write) if stamped else (position + 1, "")
            keys.append(key)
            conditional = write.metadata.get("cas") or write.metadata.get("rmw")
            if stamped and conditional and write.complete:
                result.cas_writes += 1
            if is_bottom(write.value):
                continue
            value = _value_id(write.value)
            same = by_value.get(value)
            if same is None:
                by_value[value] = _WritesOfValue(key, key, write.invoked_at, position)
                continue
            duplicates = True
            same.sole = None
            if key is not None:
                same.lo = key if same.lo is None else min(same.lo, key)
                same.hi = key if same.hi is None else max(same.hi, key)

        # -------------------------------------------------- resolve the reads
        #: ``(operation, lo, hi)``; a write's ``lo`` and ``hi`` are its key.
        keyed: List[Tuple[OperationRecord, Pair, Pair]] = []
        unkeyed_reads = 0
        for read in reads:
            if read.metadata.get("lease"):
                result.lease_reads += 1
            if stamped and read.metadata.get("cas_failed"):
                result.cas_failures += 1
            if is_bottom(read.value):
                keyed.append((read, BOTTOM_PAIR, BOTTOM_PAIR))
                continue
            same = by_value.get(_value_id(read.value))
            if same is None:
                flag(
                    "no-creation",
                    f"READ returned {read.value!r} which was never written and is not ⊥",
                    read,
                )
                continue
            if read.end_time < same.invoked_at:
                flag(
                    "no-future-read",
                    f"READ returned {read.value!r} although every WRITE of that "
                    "value was invoked only after the READ completed",
                    read,
                )
            reported = reported_pair(read) if stamped else None
            if reported is not None and same.sole is not None:
                if same.hi is None:
                    keys[same.sole] = same.lo = same.hi = reported
                elif reported != same.hi:
                    # The read and the write disagree about the value's
                    # timestamp, which only forged server state can produce.
                    flag(
                        "pair-mismatch",
                        f"READ returned {read.value!r} with pair {reported} but "
                        f"its WRITE carried pair {same.hi}",
                        writes[same.sole],
                        read,
                    )
            if same.lo is None or same.hi is None:
                unkeyed_reads += 1
            else:
                keyed.append((read, same.lo, same.hi))

        unkeyed_writes = 0
        for write, key in zip(writes, keys, strict=True):
            if key is not None:
                keyed.append((write, key, key))
            elif write.complete:
                unkeyed_writes += 1

        # ------------------------------------------------------------ warnings
        def warn(message: str) -> None:
            result.warnings.append(prefix + message)

        if duplicates:
            warn("history contains duplicate written values; value-to-write mapping is ambiguous")
        if stamped and not history.clients_are_well_formed():
            warn("a single client's writes overlap; per-client well-formedness broken")
        if not stamped and not history.writer_is_well_formed():
            warn("writer operations overlap; SWMR well-formedness broken")
        if unkeyed_writes:
            warn(
                f"{unkeyed_writes} complete write(s) lack (ts, writer_id) metadata; "
                "order-based properties are checked on the remainder only"
            )
        if unkeyed_reads:
            warn(
                f"{unkeyed_reads} read(s) returned the value of a write nobody "
                "stamped or reported a pair for; they are left out of the order properties"
            )

        # --------------------------------------------------------------- sweep
        # At equal times the invocation sorts first: precedence is strict.
        events = sorted(
            [(op.invoked_at, False, n) for n, (op, _, _) in enumerate(keyed)]
            + [(op.end_time, True, n) for n, (op, _, _) in enumerate(keyed) if op.complete]
        )
        first_with: Dict[Pair, OperationRecord] = {}
        completed_keys: List[Pair] = []  # sorted; multi-writer registers only
        top_write: Optional[Tuple[Pair, OperationRecord]] = None
        top_read: Optional[Tuple[Pair, OperationRecord]] = None
        for _, completes, n in events:
            op, lo, hi = keyed[n]
            if completes:
                if op.kind == "read":
                    if top_read is None or lo > top_read[0]:
                        top_read = (lo, op)
                else:
                    if top_write is None or hi > top_write[0]:
                        top_write = (hi, op)
                    if stamped:
                        insort(completed_keys, hi)
            elif op.kind == "read":
                if top_write is not None and hi < top_write[0]:
                    flag(
                        "read-after-write",
                        f"READ returned {show(hi)} ({op.value!r}) although the WRITE of "
                        f"{show(top_write[0])} ({top_write[1].value!r}) completed before it",
                        top_write[1],
                        op,
                    )
                if self.read_hierarchy and top_read is not None and hi < top_read[0]:
                    flag(
                        "read-hierarchy",
                        f"READ returned {show(hi)} ({op.value!r}) although a preceding "
                        f"READ already returned {show(top_read[0])} ({top_read[1].value!r})",
                        top_read[1],
                        op,
                    )
            else:
                first = first_with.setdefault(hi, op)
                if first is not op:
                    flag(
                        "pair-reuse",
                        f"two WRITEs carry the same (ts, writer_id) pair {hi}",
                        first,
                        op,
                    )
                if top_write is not None and hi <= top_write[0]:
                    flag(
                        "write-order",
                        f"WRITE with {show(hi)} was invoked after a WRITE with "
                        f"{show(top_write[0])} completed but does not dominate it",
                        top_write[1],
                        op,
                    )
                observed = observed_pair(op) if stamped and op.complete else None
                if observed is not None:
                    at = bisect_right(completed_keys, observed)
                    if at < len(completed_keys) and completed_keys[at] < hi:
                        between = first_with[completed_keys[at]]
                        flag(
                            "conditional-isolation",
                            f"conditional WRITE with pair {hi} observed pair {observed}, but "
                            f"the WRITE with pair {completed_keys[at]} ({between.value!r}) "
                            "completed before the conditional was invoked",
                            between,
                            op,
                        )


def check_atomicity(history: History, mwmr: Optional[bool] = None) -> CheckResult:
    """Check *history* for atomicity.

    ``mwmr`` says how the writes are keyed: ``True`` by their stamped
    ``(ts, writer_id)`` pairs, ``False`` by invocation rank, and the default
    ``None`` per register, by whether its writes carry the ``mwmr: True`` a
    multi-writer client stamps.  ``consistency`` names what was checked:
    ``atomicity``, ``mwmr-atomicity``, or ``mwmr-atomicity+conditional`` when a
    multi-writer register held CAS / RMW outcomes.

    >>> from repro.verify.history import History, OperationRecord
    >>> write = OperationRecord(
    ...     client_id="w", kind="write", value="a",
    ...     invoked_at=0.0, completed_at=1.0,
    ... )
    >>> read = OperationRecord(
    ...     client_id="r1", kind="read", value="a",
    ...     invoked_at=2.0, completed_at=3.0,
    ... )
    >>> check_atomicity(History([write, read])).ok
    True
    """
    return AtomicityChecker(mwmr).check(history)
