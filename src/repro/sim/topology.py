"""The simulator's network model: zones, links and time-windowed faults.

The paper's lucky 1-round guarantee holds while every message an operation
exchanges arrives within a bound the client knows.  A :class:`Topology`
states that bound and every way a run can break it:

* processes are assigned to named **zones**;
* each zone pair has a **link** with latency / jitter / bandwidth metrics
  (:class:`LinkMetrics`), so the synchrony bound — and therefore each
  client's round-1 timer and safe lease duration — is a property of the
  links that client actually uses;
* its **faults** are the partition and gray-failure windows of a
  :class:`~repro.sim.failures.NetworkSchedule` (a fault that starts now is a
  window starting at the current instant), plus per-process clock skew
  (:meth:`Topology.set_skew`).

:meth:`Topology.delay` is the only place a delay is drawn: it decides the
partition first, so nothing can sample a link past a severed cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .failures import NetworkSchedule

#: Profile names accepted by :meth:`Topology.profile` (and ``--topology``).
PROFILE_NAMES = ("lan", "datacenter", "wan-3dc", "geo-5dc")


@dataclass(frozen=True)
class LinkMetrics:
    """Delivery metrics of one zone-to-zone link.

    ``latency`` is the one-way base latency, ``jitter`` a uniform extra in
    ``[0, jitter]``, and ``bandwidth`` (bytes per time unit, ``None`` =
    infinite) adds ``size / bandwidth`` transfer time for framed payloads.
    """

    latency: float = 1.0
    jitter: float = 0.0
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("link latency and jitter must be non-negative")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive (or None for infinite)")

    def bound(self) -> float:
        """Synchrony bound of this link for control-sized messages.

        Payload transfer time is *not* included (it depends on frame size);
        the client timer margin is expected to absorb it.
        """
        return self.latency + self.jitter


#: ``FixedDelay(d)`` is the constant link ``LinkMetrics(latency=d)``, kept for
#: the ``delay_model=`` callers in ``benchmarks/e2e``.
FixedDelay = LinkMetrics


class Topology:
    """Zones, links, and the network faults every frame routes through.

    The cluster asks :meth:`delay` for each transmitted frame — ``None``
    means the frame is dropped by an active partition — and
    :meth:`suggested_timer_for` for each client's round-1 timer, which is
    derived from the bounds of the links that client actually uses, so
    clients in different zones arm different timers.
    """

    def __init__(
        self,
        zones: Optional[Dict[str, Iterable[str]]] = None,
        intra: Optional[LinkMetrics] = None,
        inter: Optional[LinkMetrics] = None,
        links: Optional[Dict[Tuple[str, str], LinkMetrics]] = None,
        schedule: Optional[NetworkSchedule] = None,
        name: str = "custom",
    ) -> None:
        self.name = name
        self.intra = intra or LinkMetrics(latency=1.0)
        self.inter = inter or self.intra
        self.links: Dict[Tuple[str, str], LinkMetrics] = dict(links or {})
        self.schedule = schedule or NetworkSchedule()
        self._zone_of: Dict[str, str] = {}
        self._zone_names: List[str] = []
        for zone, processes in (zones or {}).items():
            for process_id in processes:
                self.assign(process_id, zone)
            if zone not in self._zone_names:  # empty zones still exist
                self._zone_names.append(zone)
        self._skew: Dict[str, float] = {}
        self.partition_drops = 0

    # ------------------------------------------------------------ zone layout
    @property
    def zone_names(self) -> List[str]:
        return list(self._zone_names) or ["z0"]

    def assign(self, process_id: str, zone: str) -> None:
        """Place *process_id* in *zone* (creating the zone on first use)."""
        self._zone_of[process_id] = zone
        if zone not in self._zone_names:
            self._zone_names.append(zone)

    def zone_of(self, process_id: str) -> str:
        """The zone of *process_id*; unassigned processes share the first zone."""
        zone = self._zone_of.get(process_id)
        if zone is None:
            return self._zone_names[0] if self._zone_names else "z0"
        return zone

    def processes_in(self, zone: str) -> List[str]:
        return [pid for pid, z in self._zone_of.items() if z == zone]

    def set_link(self, zone_a: str, zone_b: str, metrics: LinkMetrics) -> None:
        """Set the (symmetric) link metrics between two zones."""
        self.links[(zone_a, zone_b)] = metrics

    def link(self, source: str, destination: str) -> LinkMetrics:
        """The link metrics covering messages from *source* to *destination*."""
        return self._zone_link(self.zone_of(source), self.zone_of(destination))

    def _zone_link(self, zone_a: str, zone_b: str) -> LinkMetrics:
        if zone_a == zone_b:
            return self.links.get((zone_a, zone_a), self.intra)
        explicit = self.links.get((zone_a, zone_b)) or self.links.get((zone_b, zone_a))
        return explicit or self.inter

    # ------------------------------------------------------------ clock skew
    def set_skew(self, process_id: str, rate: float) -> None:
        """Scale *process_id*'s timer durations by *rate* (clock skew).

        ``rate > 1``: a slow clock — timers fire late, so the process waits
        longer than the nominal duration (extra slack).  ``rate < 1``: a
        fast clock — round-1 timers fire *before* the synchrony bound is up
        (missed fast paths) and leases expire early at the holder (safe, but
        zero-round reads are lost sooner).
        """
        if rate <= 0:
            raise ValueError("clock skew rate must be positive")
        self._skew[process_id] = rate

    def timer_scale(self, process_id: str) -> float:
        return self._skew.get(process_id, 1.0)

    # ----------------------------------------------------------- delay routing
    def delay(
        self,
        source: str,
        destination: str,
        now: float,
        rng: random.Random,
        size: int = 0,
    ) -> Optional[float]:
        """Delivery delay for a frame, or ``None`` if a partition drops it.

        A delivered frame on a jittered link draws exactly one
        ``rng.uniform(0, jitter)``; a severed frame draws nothing.
        """
        zone_a = self.zone_of(source)
        zone_b = self.zone_of(destination)
        schedule = self.schedule
        if zone_a != zone_b and schedule.partitions and schedule.severed(zone_a, zone_b, now):
            self.partition_drops += 1
            return None
        link = self._zone_link(zone_a, zone_b)
        extra = rng.uniform(0.0, link.jitter) if link.jitter else 0.0
        transfer = size / link.bandwidth if link.bandwidth else 0.0
        delay = link.latency + extra + transfer
        if schedule.gray:
            delay += schedule.gray_extra(source, now) + schedule.gray_extra(destination, now)
        return delay

    # ------------------------------------------------------------------ bounds
    def bound(self, source: str, destination: str) -> float:
        """Nominal synchrony bound of the source→destination link.

        Faults (partitions, gray failures) are deliberately *not* included:
        the bound is what a client may safely assume about the network when
        it is well-behaved — the schedule's windows exist precisely to
        violate that assumption and make the run unlucky.
        """
        return self.link(source, destination).bound()

    def round_trip_bound(self, process_id: str, peers: Iterable[str]) -> float:
        """Worst round trip from *process_id* to any of *peers* and back."""
        return max(
            (self.bound(process_id, peer) + self.bound(peer, process_id) for peer in peers),
            default=0.0,
        )

    def suggested_timer_for(
        self, process_id: str, peers: Iterable[str], margin: float = 0.5
    ) -> float:
        """Round-1 timer for *process_id* talking to *peers*: one round trip
        over the process's own links plus *margin*."""
        return self.round_trip_bound(process_id, peers) + margin

    # --------------------------------------------------------------- reporting
    def describe(self) -> str:
        """One-line summary used by benches and traces."""
        zones = ", ".join(
            f"{zone}({len(self.processes_in(zone))})" for zone in self.zone_names
        )
        return f"{self.name}: zones [{zones}]"

    # ---------------------------------------------------------------- builders
    @classmethod
    def profile(
        cls,
        name: str,
        server_ids: Iterable[str] = (),
        client_ids: Iterable[str] = (),
        schedule: Optional[NetworkSchedule] = None,
    ) -> "Topology":
        """A prebuilt topology profile with processes spread across its zones.

        Servers and clients are each placed round-robin over the profile's
        zones, so every multi-zone profile gives each zone a local quorum
        member and local clients (clients in different zones then see — and
        arm — different round-trip bounds).
        """
        if name not in PROFILE_NAMES:
            raise ValueError(f"unknown topology profile {name!r}; pick one of {PROFILE_NAMES}")
        if name == "lan":
            zone_names = ["lan"]
            intra = LinkMetrics(latency=1.0)
            inter = intra
            links: Dict[Tuple[str, str], LinkMetrics] = {}
        elif name == "datacenter":
            zone_names = ["rack1", "rack2", "rack3"]
            intra = LinkMetrics(latency=0.5, jitter=0.1)
            inter = LinkMetrics(latency=2.0, jitter=0.3, bandwidth=1_000_000.0)
            links = {}
        elif name == "wan-3dc":
            zone_names = ["dc1", "dc2", "dc3"]
            intra = LinkMetrics(latency=1.0, jitter=0.1)
            inter = LinkMetrics(latency=20.0, jitter=2.0, bandwidth=100_000.0)
            links = {}
        else:  # geo-5dc
            zone_names = ["us-east", "us-west", "eu", "ap", "sa"]
            intra = LinkMetrics(latency=1.0, jitter=0.1)
            inter = LinkMetrics(latency=60.0, jitter=6.0, bandwidth=50_000.0)
            links = {
                ("us-east", "us-west"): LinkMetrics(35.0, 3.0, 100_000.0),
                ("us-east", "eu"): LinkMetrics(40.0, 4.0, 100_000.0),
                ("us-east", "sa"): LinkMetrics(55.0, 5.0, 50_000.0),
                ("us-west", "ap"): LinkMetrics(50.0, 5.0, 50_000.0),
                ("eu", "ap"): LinkMetrics(80.0, 8.0, 50_000.0),
            }
        topology = cls(
            zones={zone: [] for zone in zone_names},
            intra=intra,
            inter=inter,
            links=links,
            schedule=schedule,
            name=name,
        )
        for index, server_id in enumerate(server_ids):
            topology.assign(server_id, zone_names[index % len(zone_names)])
        for index, client_id in enumerate(client_ids):
            topology.assign(client_id, zone_names[index % len(zone_names)])
        return topology
