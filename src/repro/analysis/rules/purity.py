"""RP03/RP04 — import hygiene for the deterministic core.

RP03 (no-pickle): the versioned binary codec replaced pickle on every wire
and durability surface, and the last readers of pickle frames (the
WAL/snapshot legacy-dialect sniffers) are gone.  No file is exempt: any
import is a regression waiting to deserialize attacker-controlled bytes.

RP04 (sim-determinism): the protocol, simulator, store and lease layers run
under a discrete-event scheduler whose whole value is replayable executions.
``time.time()``, ``datetime.now()`` and unseeded module-level ``random``
break replay in ways that only surface as flaky failures.  Virtual time
comes from the scheduler; randomness from a seeded ``random.Random``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..astutils import dotted_name
from ..findings import Finding
from ..protocol import DETERMINISM_SCOPES
from ..registry import Rule, SourceFile, register

_WALL_CLOCK_MODULES = {"time", "datetime"}


@register
class NoPickle(Rule):
    rule_id = "RP03"
    title = "no-pickle"
    rationale = (
        "pickle deserialization executes arbitrary code and its frames are "
        "not versioned; the binary wire codec is the only serialization "
        "surface.  No file may import it."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "pickle":
                        yield self.finding(file, node, "pickle import")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "pickle":
                    yield self.finding(file, node, "pickle import")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in ("importlib.import_module", "import_module"):
                    if (
                        node.args
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value == "pickle"
                    ):
                        yield self.finding(file, node, "dynamic pickle import")


def _in_determinism_scope(file: SourceFile) -> bool:
    return any(segment in DETERMINISM_SCOPES for segment in file.path_segments()[:-1])


@register
class SimDeterminism(Rule):
    rule_id = "RP04"
    title = "sim-determinism"
    rationale = (
        "core/, sim/, store/ and lease/ run under the deterministic "
        "scheduler; wall clocks and unseeded randomness make executions "
        "unreplayable.  Use virtual time and seeded random.Random."
    )

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if not _in_determinism_scope(file):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _WALL_CLOCK_MODULES:
                        findings.append(
                            self.finding(
                                file,
                                node,
                                f"wall-clock module {root!r} imported in a "
                                "deterministic layer; use virtual time",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _WALL_CLOCK_MODULES:
                    findings.append(
                        self.finding(
                            file,
                            node,
                            f"wall-clock module {root!r} imported in a "
                            "deterministic layer; use virtual time",
                        )
                    )
                elif root == "random":
                    unseeded = [
                        alias.name
                        for alias in node.names
                        if alias.name != "Random"
                    ]
                    if unseeded:
                        findings.append(
                            self.finding(
                                file,
                                node,
                                "unseeded random import "
                                f"({', '.join(unseeded)}); use a seeded "
                                "random.Random instance",
                            )
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name is not None
                    and name.startswith("random.")
                    and name != "random.Random"
                ):
                    findings.append(
                        self.finding(
                            file,
                            node,
                            f"module-level {name}() shares global unseeded "
                            "state; use a seeded random.Random instance",
                        )
                    )
        return findings
