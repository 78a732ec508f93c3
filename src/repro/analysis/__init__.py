"""Protocol-aware static analysis for the repository's own discipline rules.

Every hard bug in this repo's history was a *statically detectable* discipline
violation: a message type silently dropped by a dispatch chain, a stale pickle
import after the wire codec landed, an un-scoped timer id, an acknowledgement
leaving before the WAL reached its durability point.  This package checks
those disciplines mechanically — an AST-based lint engine with a registry of
repo-specific rules, per-line suppression comments and text/JSON reporters,
exposed as ``lucky-storage analyze``.

Rules (see :mod:`repro.analysis.rules`):

========  ==================================================================
RP01      dispatch-exhaustiveness: every wire message type is handled or
          explicitly ignored by each automaton's ``handle_message`` chain
RP02      wire-registry consistency: every message class has a unique,
          never-reused tag; every wire-crossing dataclass is registered
RP03      no-pickle: nothing imports pickle, no file is exempt
RP04      sim-determinism: no wall clocks or unseeded randomness in the
          deterministic protocol/simulation layers
RP05      fsync-before-ack: durable wrappers append to the WAL before the
          acknowledgements that report the change are returned
RP06      timer-id scoping: timer identifiers carry op/round context
RP07      hot-loop slots: dataclasses in the hot modules (messages, value
          pairs, sim events) declare ``slots=True``
RP09      deadline-timer cancel: a method completing an operation in a class
          that arms a round timer also cancels it
RP10      born-addressed: an automaton stamps ``register_id=`` on every
          message it builds
========  ==================================================================

A finding on line *n* is silenced by appending ``# repro: ignore[RP04]``
(comma-separate several ids) to that line.  Suppressions are deliberate,
reviewable artefacts — exactly like the rule declarations the rules check.
"""

from .engine import AnalysisEngine, AnalysisReport
from .findings import Finding
from .registry import all_rules, get_rule
from .reporters import render_json, render_text

__all__ = [
    "AnalysisEngine",
    "AnalysisReport",
    "Finding",
    "all_rules",
    "get_rule",
    "render_json",
    "render_text",
]
