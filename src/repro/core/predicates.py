"""Reader-side predicates of Figure 2 (lines 1-10).

The reader collects, for every server that responded in the current READ, the
latest copy of that server's ``pw``, ``w``, ``vw`` and ``frozen_rj`` variables.
This module houses that view table plus the predicates evaluated over it:

``readLive``, ``readFrozen``, ``safe``, ``safeFrozen``, ``fastpw``, ``fastvw``,
``fast``, ``invalidw``, ``invalidpw`` and ``highCand``.

Domain of evaluation
--------------------
The paper's pseudocode initialises the view of *every* server to ``<ts0, ⊥>``
(Fig. 2, line 13).  Taken literally this would let servers that never responded
count towards the ``invalidw`` / ``invalidpw`` thresholds.  The correctness
proofs, however, always argue about servers that *responded* with low values,
so this implementation evaluates every predicate only over servers from which a
``READ_ACK`` has been received in the current operation.  The alternative
(literal) reading can be enabled with ``count_unresponsive=True`` purely so the
ablation benchmark can contrast the two; the library default is the safe one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .config import SystemConfig
from .messages import ReadAck
from .types import INITIAL_FROZEN, INITIAL_PAIR, FrozenEntry, TimestampValue


@dataclass
class ServerView:
    """The reader's latest knowledge about a single server."""

    round: int = 0
    pw: TimestampValue = INITIAL_PAIR
    w: TimestampValue = INITIAL_PAIR
    vw: TimestampValue = INITIAL_PAIR
    frozen: FrozenEntry = INITIAL_FROZEN
    responded: bool = False

    def read_live(self, pair: TimestampValue) -> bool:
        """``readLive(c, i)``: *pair* is this server's ``pw`` or ``w``."""
        return self.pw == pair or self.w == pair

    def read_frozen(self, pair: TimestampValue, read_ts: int) -> bool:
        """``readFrozen(c, i)``: *pair* is frozen for the current READ."""
        return self.frozen.pair == pair and self.frozen.read_ts == read_ts

    def live_pairs(self) -> Tuple[TimestampValue, ...]:
        """The pairs visible through ``readLive`` on this server."""
        if self.pw == self.w:
            return (self.pw,)
        return (self.pw, self.w)


class ViewTable:
    """Per-server views collected during one READ operation (Fig. 2, l. 23-25)."""

    def __init__(self, config: SystemConfig, count_unresponsive: bool = False) -> None:
        self._config = config
        self._count_unresponsive = count_unresponsive
        self._views: Dict[str, ServerView] = {
            server_id: ServerView() for server_id in config.server_ids()
        }

    # ------------------------------------------------------------------ state
    def reset(self) -> None:
        """Forget everything (start of a new READ, Fig. 2 line 13)."""
        for view in self._views.values():
            view.round = 0
            view.pw = INITIAL_PAIR
            view.w = INITIAL_PAIR
            view.vw = INITIAL_PAIR
            view.frozen = INITIAL_FROZEN
            view.responded = False

    def record_ack(self, ack: ReadAck) -> bool:
        """Incorporate a READ_ACK; returns ``True`` if the view changed.

        Only acknowledgements carrying a strictly higher round number than the
        stored one replace the view (Fig. 2, line 24).
        """
        view = self._views.get(ack.sender)
        if view is None:
            return False
        if ack.round <= view.round and view.responded:
            return False
        view.round = ack.round
        view.pw = ack.pw
        view.w = ack.w
        view.vw = ack.vw
        view.frozen = ack.frozen
        view.responded = True
        return True

    # -------------------------------------------------------------- accessors
    @property
    def config(self) -> SystemConfig:
        return self._config

    def view(self, server_id: str) -> ServerView:
        return self._views[server_id]

    def responders(self) -> List[str]:
        """Servers that responded in the current READ."""
        return [sid for sid, view in self._views.items() if view.responded]

    def response_count(self) -> int:
        return sum(1 for view in self._views.values() if view.responded)

    def _domain(self) -> Iterable[ServerView]:
        if self._count_unresponsive:
            return self._views.values()
        return (view for view in self._views.values() if view.responded)

    # ------------------------------------------------------------- predicates
    def safe(self, pair: TimestampValue) -> bool:
        """``safe(c)``: at least ``b + 1`` servers report *pair* live."""
        count = sum(1 for view in self._domain() if view.read_live(pair))
        return count >= self._config.safe_quorum

    def safe_frozen(self, pair: TimestampValue, read_ts: int) -> bool:
        """``safeFrozen(c)``: ``b + 1`` servers froze *pair* for this READ."""
        count = sum(1 for view in self._domain() if view.read_frozen(pair, read_ts))
        return count >= self._config.safe_quorum

    def fast_pw(self, pair: TimestampValue) -> bool:
        """``fastpw(c)``: ``2b + t + 1`` servers report *pair* in ``pw``."""
        count = sum(1 for view in self._domain() if view.pw == pair)
        return count >= self._config.fast_read_pw_quorum

    def fast_vw(self, pair: TimestampValue) -> bool:
        """``fastvw(c)``: ``b + 1`` servers report *pair* in ``vw``."""
        count = sum(1 for view in self._domain() if view.vw == pair)
        return count >= self._config.fast_read_vw_quorum

    def fast(self, pair: TimestampValue) -> bool:
        """``fast(c) = fastpw(c) or fastvw(c)`` (Fig. 2, line 7)."""
        return self.fast_pw(pair) or self.fast_vw(pair)

    # ---------------------------------------------------------------- counts
    def count_w(self, pair: TimestampValue) -> int:
        """Number of responders whose ``w`` equals *pair*."""
        return sum(1 for view in self._domain() if view.w == pair)

    def count_fresher_only(self, pair: TimestampValue) -> int:
        """Number of responders whose every live pair is fresher than *pair*.

        The freshest-looking of the pairs they report is a competitor no
        responder of this kind helps to invalidate, so ``highCand(pair)`` needs
        ``S - t`` responders *besides* them: a one-pass necessary condition
        for *pair* to be selected, cheap enough to test before ``select()``.
        """
        key = pair.order_key
        return sum(
            1
            for view in self._domain()
            if view.pw.order_key > key and view.w.order_key > key
        )

    def _older_or_conflicting(self, candidate: TimestampValue, other: TimestampValue) -> bool:
        """Whether *other* is strictly older than, or conflicts with, *candidate*.

        "Older" is by the lexicographic ``(ts, writer_id)`` pair, so the
        predicates order multi-writer pairs exactly as the servers do.
        """
        return other.order_key < candidate.order_key or (
            other.order_key == candidate.order_key and other.val != candidate.val
        )

    def invalid_w(self, pair: TimestampValue) -> bool:
        """``invalidw(c)``: ``S - t`` servers only report older/conflicting live pairs."""
        count = 0
        for view in self._domain():
            if any(
                self._older_or_conflicting(pair, other) for other in view.live_pairs()
            ):
                count += 1
        return count >= self._config.invalid_w_quorum

    def invalid_pw(self, pair: TimestampValue) -> bool:
        """``invalidpw(c)``: ``S - b - t`` servers report older/conflicting ``pw``."""
        count = 0
        for view in self._domain():
            if self._older_or_conflicting(pair, view.pw):
                count += 1
        return count >= self._config.invalid_pw_quorum

    def high_cand(self, pair: TimestampValue) -> bool:
        """``highCand(c)``: every live pair at or above *pair* is invalidated."""
        for competitor in self.live_candidates():
            if competitor == pair:
                continue
            if competitor.order_key < pair.order_key:
                continue
            if not (self.invalid_w(competitor) and self.invalid_pw(competitor)):
                return False
        return True

    # ------------------------------------------------------------- candidates
    def live_candidates(self) -> List[TimestampValue]:
        """Every distinct pair visible through ``readLive`` on some responder."""
        seen: Set[TimestampValue] = set()
        ordered: List[TimestampValue] = []
        for view in self._domain():
            for pair in view.live_pairs():
                if pair not in seen:
                    seen.add(pair)
                    ordered.append(pair)
        return ordered

    def frozen_candidates(self, read_ts: int) -> List[TimestampValue]:
        """Every distinct pair frozen for the current READ on some responder."""
        seen: Set[TimestampValue] = set()
        ordered: List[TimestampValue] = []
        for view in self._domain():
            if view.frozen.read_ts == read_ts:
                pair = view.frozen.pair
                if pair not in seen:
                    seen.add(pair)
                    ordered.append(pair)
        return ordered

    def selectable(self, read_ts: int) -> List[TimestampValue]:
        """The candidate set ``C`` of Fig. 2, line 18."""
        selected: List[TimestampValue] = []
        for pair in self.live_candidates():
            if self.safe(pair) and self.high_cand(pair):
                selected.append(pair)
        for pair in self.frozen_candidates(read_ts):
            if pair not in selected and self.safe_frozen(pair, read_ts):
                selected.append(pair)
        return selected

    def select(self, read_ts: int) -> Optional[TimestampValue]:
        """``csel``: the highest-timestamp element of ``C`` (Fig. 2, line 20).

        Ties between distinct values carrying the same timestamp are broken
        deterministically by the representation of the value; the situation can
        only arise through malicious servers and never with ``b + 1`` honest
        confirmations, so the tie-break has no bearing on correctness.
        """
        candidates = self.selectable(read_ts)
        if not candidates:
            return None
        return max(candidates, key=lambda pair: (*pair.order_key, repr(pair.val)))
