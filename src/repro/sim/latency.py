"""Message-delay models for the discrete-event simulator.

The paper's notion of a *synchronous* operation (Section 2.3) is that every
message exchanged during the operation between the client and any server is
delivered within a bound known to the client.  Delay models therefore expose
:meth:`DelayModel.bound` — the per-link truth: an upper bound on the delay of
messages from one named process to another, or ``None`` when that link is
unbounded.  This is what :class:`repro.sim.topology.Topology` routes through,
so clients in different zones can arm different round-1 timers.

Models with no bound at all (heavy-tailed tails, slow links, asynchronous
windows) produce the paper's worst-case conditions: operations still
terminate (wait-freedom only needs ``S - t`` replies) but are not guaranteed
to be fast.  Their suggested timer falls back to ``unbounded_fallback``
(configurable per model instance); the hosting cluster warns once when the
fallback is actually used so runs stop silently inheriting an arbitrary
timer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

#: Default client timer for models without a synchronous bound.  Generous on
#: purpose: with an unbounded model the timer only affects performance
#: (fast-path eligibility), never safety.
DEFAULT_UNBOUNDED_TIMER = 50.0


class DelayModel:
    """Base class: per-message delay sampling.

    .. note::
       Outside this module and :mod:`repro.sim.topology`, never call
       :meth:`sample` directly — route delay lookups through the cluster's
       :class:`~repro.sim.topology.Topology` so partitions, gray failures and
       zone link metrics apply (enforced by analyzer rule RP08).
    """

    #: Timer used by :meth:`suggested_timer` when the model has no bound.
    #: Plain class attribute so every subclass (dataclass or not) can override
    #: it per instance: ``model.unbounded_fallback = 20.0``.
    unbounded_fallback: float = DEFAULT_UNBOUNDED_TIMER

    def sample(self, source: str, destination: str, now: float, rng: random.Random) -> float:
        """Return the network delay for a message sent now from source to destination."""
        raise NotImplementedError

    def _global_bound(self) -> Optional[float]:
        """Max delay over every link, or ``None`` if unbounded."""
        return None

    def bound(self, source: str, destination: str) -> Optional[float]:
        """Upper bound on the delay from *source* to *destination*.

        Models whose links differ override this to report the true bound of
        each link, so per-process timers and lease durations can be derived
        from the links a client actually uses.
        """
        return self._global_bound()

    def suggested_timer(self, margin: float = 0.5) -> float:
        """A client timer covering one round-trip under this model.

        Falls back to :attr:`unbounded_fallback` when the model is unbounded;
        the timer then only affects performance, never safety.
        """
        bound = self._global_bound()
        if bound is None:
            return self.unbounded_fallback
        return 2.0 * bound + margin


@dataclass
class FixedDelay(DelayModel):
    """Every message takes exactly *delay* time units."""

    delay: float = 1.0

    def sample(self, source: str, destination: str, now: float, rng: random.Random) -> float:
        return self.delay

    def _global_bound(self) -> Optional[float]:
        return self.delay


@dataclass
class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` (a bounded, jittery network)."""

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("UniformDelay requires 0 <= low <= high")

    def sample(self, source: str, destination: str, now: float, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def _global_bound(self) -> Optional[float]:
        return self.high


@dataclass
class LogNormalDelay(DelayModel):
    """Heavy-tailed delays typical of wide-area networks (unbounded)."""

    median: float = 1.0
    sigma: float = 0.5
    unbounded_fallback: float = DEFAULT_UNBOUNDED_TIMER

    def sample(self, source: str, destination: str, now: float, rng: random.Random) -> float:
        import math

        return self.median * math.exp(rng.gauss(0.0, self.sigma))


@dataclass
class PerLinkDelay(DelayModel):
    """A base model with per-link overrides (e.g. one distant replica).

    ``overrides`` maps ``(source, destination)`` pairs to a dedicated model.
    :meth:`bound` reports the bound of the model actually covering a link;
    :meth:`suggested_timer` covers the slowest one (the maximum of all
    involved bounds, or the fallback if any override is unbounded).
    """

    base: DelayModel = field(default_factory=FixedDelay)
    overrides: Dict[Tuple[str, str], DelayModel] = field(default_factory=dict)

    def sample(self, source: str, destination: str, now: float, rng: random.Random) -> float:
        model = self.overrides.get((source, destination), self.base)
        return model.sample(source, destination, now, rng)

    def _global_bound(self) -> Optional[float]:
        bounds = [self.base._global_bound()]
        bounds.extend(model._global_bound() for model in self.overrides.values())
        if any(bound is None for bound in bounds):
            return None
        return max(bounds)  # type: ignore[arg-type]

    def bound(self, source: str, destination: str) -> Optional[float]:
        model = self.overrides.get((source, destination), self.base)
        return model.bound(source, destination)


@dataclass
class SlowProcessDelay(DelayModel):
    """Messages to or from the given processes incur an extra delay.

    Used to make executions *unlucky without failures*: the slow processes are
    correct but their replies arrive after the client's timer, so fast-path
    conditions may not be met.  :meth:`bound` tells the truth per link:
    untouched links keep the base bound, and a slow link is bounded by
    ``base + extra_delay`` — slow, not asynchronous.
    """

    base: DelayModel = field(default_factory=FixedDelay)
    slow_processes: Set[str] = field(default_factory=set)
    extra_delay: float = 100.0

    def sample(self, source: str, destination: str, now: float, rng: random.Random) -> float:
        delay = self.base.sample(source, destination, now, rng)
        if source in self.slow_processes or destination in self.slow_processes:
            delay += self.extra_delay
        return delay

    def _global_bound(self) -> Optional[float]:
        return None

    def bound(self, source: str, destination: str) -> Optional[float]:
        base = self.base.bound(source, destination)
        if source in self.slow_processes or destination in self.slow_processes:
            if base is None:
                return None
            return base + self.extra_delay
        return base

    def suggested_timer(self, margin: float = 0.5) -> float:
        # Clients keep the timer they would use on the base network: that is
        # the whole point — the slow links make the run asynchronous from the
        # clients' perspective.
        return self.base.suggested_timer(margin)


@dataclass
class AsynchronousWindows(DelayModel):
    """The network is synchronous except during configured time windows.

    During a window ``(start, end, extra)`` every message sent in the window
    suffers *extra* additional delay.  This reproduces the paper's "bad periods
    are rare" motivation: operations invoked outside the windows are lucky.
    """

    base: DelayModel = field(default_factory=FixedDelay)
    windows: Tuple[Tuple[float, float, float], ...] = ()

    def sample(self, source: str, destination: str, now: float, rng: random.Random) -> float:
        delay = self.base.sample(source, destination, now, rng)
        for start, end, extra in self.windows:
            if start <= now < end:
                delay += extra
        return delay

    def _global_bound(self) -> Optional[float]:
        # Bounded overall, but the bound only matters for timers: clients use
        # the base bound and are simply unlucky inside a window.
        return self.base._global_bound()

    def bound(self, source: str, destination: str) -> Optional[float]:
        return self.base.bound(source, destination)

    def suggested_timer(self, margin: float = 0.5) -> float:
        return self.base.suggested_timer(margin)
