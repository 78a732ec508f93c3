"""Crash-failure injection for the simulator.

The paper's model distinguishes crash-faulty processes (they stop taking steps
at some point in the run) from malicious ones (see :mod:`repro.sim.byzantine`).
A :class:`FailureSchedule` assigns crash times to processes; the cluster checks
it before delivering any event and simply drops events addressed to a crashed
process.  Messages the process sent *before* crashing are unaffected, matching
the model in Section 2.1.

:class:`CrashRecoverySchedule` goes beyond the paper: servers crash *and
recover* (on a durable cluster, by replaying their write-ahead log — see
:mod:`repro.persist`), so the model bound ``t`` applies to servers down
*simultaneously* rather than to the total number of crashes over the run.

:class:`NetworkSchedule` covers the *network-side* faults the topology layer
(:mod:`repro.sim.topology`) routes through its links: time-windowed
**partitions** between zone sets (messages crossing the cut are dropped) and
**gray failures** (a process whose links all go slow-but-alive).  Both are
pure functions of virtual time, so runs stay deterministic and replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple


@dataclass
class FailureSchedule:
    """Crash times per process id (virtual time); absent means never crashes."""

    crash_times: Dict[str, float] = field(default_factory=dict)

    # ----------------------------------------------------------------- build
    @classmethod
    def none(cls) -> "FailureSchedule":
        """No process ever crashes."""
        return cls()

    @classmethod
    def crash_at_start(cls, process_ids: Iterable[str]) -> "FailureSchedule":
        """The given processes crash at the very beginning of the run."""
        return cls({process_id: 0.0 for process_id in process_ids})

    @classmethod
    def crash_servers_at_start(cls, count: int, server_ids: List[str]) -> "FailureSchedule":
        """Crash the first *count* servers of *server_ids* at time zero."""
        if count > len(server_ids):
            raise ValueError("cannot crash more servers than exist")
        return cls.crash_at_start(server_ids[:count])

    # ------------------------------------------------------------- mutation
    def crash(self, process_id: str, at: float = 0.0) -> "FailureSchedule":
        """Schedule *process_id* to crash at time *at* (returns ``self``)."""
        existing = self.crash_times.get(process_id, math.inf)
        self.crash_times[process_id] = min(existing, at)
        return self

    # -------------------------------------------------------------- queries
    def is_crashed(self, process_id: str, now: float) -> bool:
        """Whether *process_id* has crashed by virtual time *now*."""
        crash_time = self.crash_times.get(process_id)
        return crash_time is not None and now >= crash_time

    def crashed_by(self, now: float) -> List[str]:
        """All processes crashed by *now*."""
        return [pid for pid, at in self.crash_times.items() if now >= at]

    def crash_count(self, process_ids: Iterable[str], now: float = math.inf) -> int:
        """How many of *process_ids* crash by *now*."""
        return sum(1 for pid in process_ids if self.is_crashed(pid, now))

    def permanently_crashed(self) -> Set[str]:
        """Processes that crash and never recover under this schedule."""
        return set(self.crash_times)

    def mark_recovered(self, process_id: str, at: float) -> bool:
        """Close *process_id*'s open crash window at *at*; ``False`` if the
        schedule cannot express recovery (the base schedule's crashes are
        final — use a :class:`CrashRecoverySchedule` for recoverable crashes).
        """
        return False

    def recovery_events(self) -> List["RecoveryEvent"]:
        """Scheduled recoveries (none: the base schedule's crashes are final)."""
        return []

    def max_simultaneous_faulty(
        self, server_ids: Iterable[str], always_faulty: Iterable[str] = ()
    ) -> int:
        """The peak number of *server_ids* faulty at any one instant.

        *always_faulty* names servers faulty for the whole run (Byzantine
        ones).  Without recovery every crash is permanent, so the peak is just
        the union's size; :class:`CrashRecoverySchedule` overrides this with a
        sweep over its crash/recovery windows.
        """
        servers = set(server_ids)
        return len((set(self.crash_times) & servers) | (set(always_faulty) & servers))

    def validate(self, server_ids: List[str], t: int) -> None:
        """Assert the schedule respects the model's bound of ``t`` faulty servers."""
        crashed_servers = [pid for pid in self.crash_times if pid in set(server_ids)]
        if len(crashed_servers) > t:
            raise ValueError(
                f"failure schedule crashes {len(crashed_servers)} servers "
                f"but the model tolerates at most t = {t}"
            )


@dataclass(frozen=True)
class RecoveryEvent:
    """One scheduled recovery: *process_id* rejoins at *at* from its WAL.

    ``lose_tail`` models a torn WAL tail: that many of the records appended
    last had not reached their fsync when the crash hit, so recovery replays
    the log without them.  Under the write-ahead discipline an acknowledgement
    never leaves before its records' fsync (both the file WAL and the sim
    append before effects are released), so a faithful crash loses *nothing*
    acknowledged — ``lose_tail > 0`` deliberately models a deployment that
    defers fsync (``WriteAheadLog(fsync=False)``) or a disk that lies about
    it.  In that regime the stale-epoch fence is a *mitigation*, not a
    guarantee: an ack is rejected once the *receiver* has seen a later
    incarnation of its sender, but one delivered before that (before the
    crash, while the sender was down, or after it recovered but ahead of any
    message of the new incarnation) has been quorum-counted and cannot be
    un-counted.  No atomicity claim is made for schedules that lose
    acknowledged records this way.
    """

    process_id: str
    at: float
    lose_tail: int = 0


@dataclass(frozen=True)
class CrashWindow:
    """One outage of a process: down from *start* until *recover_at*.

    ``recover_at`` is exclusive (the process is alive again at that instant)
    and ``math.inf`` means the crash is permanent.
    """

    start: float
    recover_at: float = math.inf
    lose_tail: int = 0

    def covers(self, now: float) -> bool:
        return self.start <= now < self.recover_at


@dataclass
class CrashRecoverySchedule(FailureSchedule):
    """Crash *and recovery* times per process.

    Each process may go through any number of crash/recover windows.  Between
    windows the process is up and — when the hosting cluster runs durable
    servers — rejoins with its write-ahead-logged state, so the *total* number
    of distinct crashes over a run may exceed the resilience bound ``t``; what
    the model (and :meth:`validate`) bounds is how many servers are down
    *simultaneously*::

        schedule = (
            CrashRecoverySchedule()
            .crash("s1", at=10.0, recover_at=20.0)
            .crash("s2", at=30.0, recover_at=40.0, lose_tail=2)
            .crash("s3", at=50.0)          # permanent, like the base schedule
        )

    The inherited ``crash_times`` mapping keeps the *first* crash time of each
    process, so code that only understands the base schedule (traces, quick
    queries) still sees something sensible.
    """

    windows: Dict[str, List[CrashWindow]] = field(default_factory=dict)

    # ------------------------------------------------------------- mutation
    def crash(
        self,
        process_id: str,
        at: float = 0.0,
        recover_at: float = math.inf,
        lose_tail: int = 0,
    ) -> "CrashRecoverySchedule":
        """Schedule an outage of *process_id* over ``[at, recover_at)``."""
        if recover_at <= at:
            raise ValueError(
                f"recovery at {recover_at} must come strictly after the crash at {at}"
            )
        if lose_tail < 0:
            raise ValueError("lose_tail must be non-negative")
        window = CrashWindow(start=at, recover_at=recover_at, lose_tail=lose_tail)
        existing = self.windows.setdefault(process_id, [])
        for other in existing:
            if window.start < other.recover_at and other.start < window.recover_at:
                raise ValueError(
                    f"overlapping crash windows for {process_id!r}: "
                    f"{other} and {window}"
                )
        existing.append(window)
        existing.sort(key=lambda w: w.start)
        first = self.crash_times.get(process_id, math.inf)
        self.crash_times[process_id] = min(first, at)
        return self

    # -------------------------------------------------------------- queries
    def is_crashed(self, process_id: str, now: float) -> bool:
        return any(window.covers(now) for window in self.windows.get(process_id, ()))

    def crashed_by(self, now: float) -> List[str]:
        return [pid for pid in self.windows if self.is_crashed(pid, now)]

    def permanently_crashed(self) -> Set[str]:
        return {
            pid
            for pid, windows in self.windows.items()
            if windows and windows[-1].recover_at == math.inf
        }

    def recovery_events(self) -> List[RecoveryEvent]:
        events = [
            RecoveryEvent(
                process_id=pid, at=window.recover_at, lose_tail=window.lose_tail
            )
            for pid, windows in self.windows.items()
            for window in windows
            if window.recover_at != math.inf
        ]
        return sorted(events, key=lambda event: (event.at, event.process_id))

    def mark_recovered(self, process_id: str, at: float) -> bool:
        """Close the window covering *at* so *process_id* is alive from *at* on.

        Used by manual (non-scheduled) recovery: ``cluster.crash("s1")``
        followed by ``cluster.recover_server("s1")`` must actually end the
        outage, or the schedule would keep dropping the recovered server's
        messages forever.
        """
        windows = self.windows.get(process_id, [])
        for index, window in enumerate(windows):
            if window.covers(at):
                if at > window.start:
                    windows[index] = CrashWindow(
                        start=window.start, recover_at=at, lose_tail=window.lose_tail
                    )
                else:  # recovered at the crash instant: the outage never was
                    del windows[index]
                return True
        return True  # nothing to close: the process is already up at *at*

    def total_crashes(self, process_ids: Iterable[str]) -> int:
        """Total number of distinct crash events scheduled for *process_ids*."""
        ids = set(process_ids)
        return sum(len(windows) for pid, windows in self.windows.items() if pid in ids)

    def max_simultaneous_faulty(
        self, server_ids: Iterable[str], always_faulty: Iterable[str] = ()
    ) -> int:
        servers = set(server_ids)
        always = set(always_faulty) & servers
        peak = len(always)
        probes: List[Tuple[float, str]] = [
            (window.start, pid)
            for pid, windows in self.windows.items()
            if pid in servers
            for window in windows
        ]
        for at, _ in probes:
            down = {
                pid
                for pid, windows in self.windows.items()
                if pid in servers and any(w.covers(at) for w in windows)
            }
            peak = max(peak, len(down | always))
        return peak

    def validate(self, server_ids: List[str], t: int) -> None:
        """Bound the *simultaneous* outages by ``t`` (total crashes may exceed it)."""
        peak = self.max_simultaneous_faulty(server_ids)
        if peak > t:
            raise ValueError(
                f"failure schedule has {peak} servers down simultaneously "
                f"but the model tolerates at most t = {t}"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """One network partition: zones in *side_a* cannot reach zones in *side_b*.

    The cut is symmetric and lasts over ``[start, end)`` (``math.inf`` means
    the partition never heals).  Zones absent from both sides can still reach
    everyone — the cut severs exactly the pairs crossing it.
    """

    start: float
    side_a: frozenset
    side_b: frozenset
    end: float = math.inf

    def severs(self, zone_a: str, zone_b: str, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        return (zone_a in self.side_a and zone_b in self.side_b) or (
            zone_a in self.side_b and zone_b in self.side_a
        )


@dataclass(frozen=True)
class GrayWindow:
    """One gray failure: every link of *process_id* slows by *extra_delay*.

    The process stays correct — it takes steps, its messages are delivered —
    but over ``[start, end)`` everything it sends or receives arrives
    *extra_delay* later, typically past the peers' round-1 timers.  This is
    the slow-but-alive server the paper's unlucky executions come from.
    """

    process_id: str
    extra_delay: float
    start: float = 0.0
    end: float = math.inf

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass
class NetworkSchedule:
    """Time-windowed network faults consulted by the topology on every send."""

    partitions: Tuple[PartitionWindow, ...] = ()
    gray: Tuple[GrayWindow, ...] = ()

    def __post_init__(self) -> None:
        for window in self.partitions:
            if window.end <= window.start:
                raise ValueError(f"partition window {window} must end after it starts")
            if window.side_a & window.side_b:
                raise ValueError(f"partition window {window} puts a zone on both sides")
        for window in self.gray:
            if window.end <= window.start:
                raise ValueError(f"gray window {window} must end after it starts")
            if window.extra_delay < 0:
                raise ValueError("gray extra_delay must be non-negative")

    # ------------------------------------------------------------- builders
    def partition(
        self,
        side_a: Iterable[str],
        side_b: Iterable[str],
        start: float = 0.0,
        end: float = math.inf,
    ) -> "NetworkSchedule":
        """Add a partition window between the two zone sets (returns ``self``)."""
        window = PartitionWindow(
            start=start, end=end, side_a=frozenset(side_a), side_b=frozenset(side_b)
        )
        self.partitions = (*self.partitions, window)
        self.__post_init__()
        return self

    def gray_failure(
        self,
        process_id: str,
        extra_delay: float,
        start: float = 0.0,
        end: float = math.inf,
    ) -> "NetworkSchedule":
        """Add a gray-failure window for *process_id* (returns ``self``)."""
        window = GrayWindow(
            process_id=process_id, extra_delay=extra_delay, start=start, end=end
        )
        self.gray = (*self.gray, window)
        self.__post_init__()
        return self

    # -------------------------------------------------------------- queries
    def severed(self, zone_a: str, zone_b: str, now: float) -> bool:
        """Whether any partition window cuts *zone_a* from *zone_b* at *now*."""
        return any(w.severs(zone_a, zone_b, now) for w in self.partitions)

    def gray_extra(self, process_id: str, now: float) -> float:
        """Total gray-failure delay on *process_id*'s links at *now*."""
        return sum(
            w.extra_delay for w in self.gray if w.process_id == process_id and w.covers(now)
        )
