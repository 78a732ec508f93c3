"""Regularity (Appendix D of the paper).

Regularity keeps atomicity's properties 1-3 but drops the *read hierarchy*
property (4): two non-overlapping READs may be ordered inconsistently with
respect to concurrent WRITEs.  The Appendix D variant trades atomicity for
regularity in exchange for tolerating malicious readers and for raising the
fast-path thresholds to ``fw = t - b`` and ``fr = t``.
"""

from __future__ import annotations

from .atomicity import AtomicityChecker, CheckResult
from .history import History


def check_regularity(history: History) -> CheckResult:
    """The atomicity sweep without its read-hierarchy comparison."""
    return AtomicityChecker(read_hierarchy=False).check(history)
