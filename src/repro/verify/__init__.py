"""Operation histories and what checks them.

One :class:`AtomicityChecker` (:func:`check_atomicity`; :func:`check_regularity`
is the same sweep minus read hierarchy) decides Section 2.2's properties per
register for single-writer, multi-writer and conditional-write histories alike;
:func:`is_linearizable` is the exhaustive search it is held to on small ones.
"""

from .atomicity import (
    AtomicityChecker,
    CheckResult,
    ScenarioCheckResult,
    Violation,
    check_atomicity,
    check_atomicity_under_scenario,
)
from .history import History, OperationRecord
from .linearizability import (
    HistoryTooLarge,
    cross_validate,
    cross_validate_registers,
    is_linearizable,
)
from .regularity import check_regularity

__all__ = [
    "AtomicityChecker",
    "CheckResult",
    "ScenarioCheckResult",
    "Violation",
    "check_atomicity",
    "check_atomicity_under_scenario",
    "History",
    "OperationRecord",
    "HistoryTooLarge",
    "cross_validate",
    "cross_validate_registers",
    "is_linearizable",
    "check_regularity",
]
