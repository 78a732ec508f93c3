"""Crash-failure injection for the simulator.

The paper's model distinguishes crash-faulty processes (they stop taking steps
at some point in the run) from malicious ones (see :mod:`repro.sim.byzantine`).
A :class:`FailureSchedule` holds one list of crash windows per process; the
cluster checks it before delivering any event and simply drops events
addressed to a process inside one.  Messages the process sent *before*
crashing are unaffected, matching the model in Section 2.1.

A window either lasts for the rest of the run (the paper's crash) or ends in a
recovery: on a durable cluster the server rejoins by replaying its write-ahead
log (see :mod:`repro.persist`), so the model bound ``t`` applies to servers
down *simultaneously* rather than to the total number of crashes over the run.

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


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """One outage of a process: down from *start* until *recover_at*.

    ``recover_at`` is exclusive (the process is alive again at that instant)
    and ``math.inf`` means the crash is permanent.

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

    start: float
    recover_at: float = math.inf
    lose_tail: int = 0

    def covers(self, now: float) -> bool:
        return self.start <= now < self.recover_at


@dataclass
class FailureSchedule:
    """Crash windows per process id (virtual time); absent means never crashes.

    Each process may go through any number of disjoint windows::

        schedule = (
            FailureSchedule()
            .crash("s1", at=10.0, recover_at=20.0)
            .crash("s2", at=30.0, recover_at=40.0, lose_tail=2)
            .crash("s3", at=50.0)          # permanent
        )
    """

    windows: Dict[str, List[CrashWindow]] = field(default_factory=dict)

    # ----------------------------------------------------------------- build
    @classmethod
    def none(cls) -> "FailureSchedule":
        """No process ever crashes."""
        return cls()

    @classmethod
    def crash_at_start(cls, process_ids: Iterable[str]) -> "FailureSchedule":
        """The given processes crash at the very beginning of the run."""
        schedule = cls()
        for process_id in process_ids:
            schedule.crash(process_id)
        return schedule

    @classmethod
    def crash_servers_at_start(cls, count: int, server_ids: List[str]) -> "FailureSchedule":
        """Crash the first *count* servers of *server_ids* at time zero."""
        if count > len(server_ids):
            raise ValueError("cannot crash more servers than exist")
        return cls.crash_at_start(server_ids[:count])

    # ------------------------------------------------------------- mutation
    def crash(
        self,
        process_id: str,
        at: float = 0.0,
        recover_at: float = math.inf,
        lose_tail: int = 0,
    ) -> "FailureSchedule":
        """Schedule an outage of *process_id* over ``[at, recover_at)``.

        Crashing a process that is already down for good keeps the earlier
        start; any other overlap between two windows is an error.
        """
        if recover_at <= at:
            raise ValueError(
                f"recovery at {recover_at} must come strictly after the crash at {at}"
            )
        if lose_tail < 0:
            raise ValueError("lose_tail must be non-negative")
        others = self.windows.get(process_id, [])
        if recover_at == math.inf and others and others[-1].recover_at == math.inf:
            at = min(at, others[-1].start)
            others = others[:-1]
        window = CrashWindow(start=at, recover_at=recover_at, lose_tail=lose_tail)
        for other in others:
            if window.start < other.recover_at and other.start < window.recover_at:
                raise ValueError(
                    f"overlapping crash windows for {process_id!r}: {other} and {window}"
                )
        self.windows[process_id] = sorted([*others, window], key=lambda w: w.start)
        return self

    def mark_recovered(self, process_id: str, at: float) -> None:
        """Close the window covering *at* so *process_id* is alive from *at* on.

        Used by manual (non-scheduled) recovery: ``cluster.crash("s1")``
        followed by ``cluster.recover_server("s1")`` must actually end the
        outage, or the schedule would keep dropping the recovered server's
        messages forever.  A process already up at *at* is left as it is.
        """
        windows = self.windows.get(process_id, [])
        for index, window in enumerate(windows):
            if window.covers(at):
                if at > window.start:
                    windows[index] = CrashWindow(window.start, at, window.lose_tail)
                else:  # recovered at the crash instant: the outage never was
                    del windows[index]
                return

    # -------------------------------------------------------------- queries
    def is_crashed(self, process_id: str, now: float) -> bool:
        """Whether *process_id* is inside one of its crash windows at *now*."""
        windows = self.windows.get(process_id)
        return bool(windows) and any(window.covers(now) for window in windows)

    def permanently_crashed(self) -> Set[str]:
        """Processes that crash and never recover under this schedule."""
        return {
            pid
            for pid, windows in self.windows.items()
            if windows and windows[-1].recover_at == math.inf
        }

    def recovery_events(self) -> List[Tuple[str, CrashWindow]]:
        """Every window that ends in a recovery, ordered by recovery time."""
        events = [
            (pid, window)
            for pid, windows in self.windows.items()
            for window in windows
            if window.recover_at != math.inf
        ]
        return sorted(events, key=lambda event: (event[1].recover_at, event[0]))

    def total_crashes(self, process_ids: Iterable[str]) -> int:
        """Total number of distinct crash events scheduled for *process_ids*."""
        ids = set(process_ids)
        return sum(len(windows) for pid, windows in self.windows.items() if pid in ids)

    def max_simultaneous_faulty(
        self, server_ids: Iterable[str], always_faulty: Iterable[str] = ()
    ) -> int:
        """The peak number of *server_ids* faulty at any one instant.

        *always_faulty* names servers faulty for the whole run (Byzantine
        ones).  The peak is reached at the start of some crash window, so
        probing each start is a complete sweep.
        """
        servers = set(server_ids)
        always = set(always_faulty) & servers
        peak = len(always)
        starts = [
            window.start
            for pid, windows in self.windows.items()
            if pid in servers
            for window in windows
        ]
        for at in starts:
            down = {pid for pid in servers if self.is_crashed(pid, at)}
            peak = max(peak, len(down | always))
        return peak


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
