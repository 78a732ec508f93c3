"""Per-line suppression comments: ``# repro: ignore[RP04]``.

A finding is suppressed when the physical line it points at carries a
``repro: ignore[...]`` comment naming the finding's rule id (several ids may
be comma-separated).  Suppressions are scoped to one line on purpose: a
blanket opt-out would defeat the point of rules that exist to make silent
exceptions *visible*.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet

#: ``# repro: ignore[RP01]`` / ``# repro: ignore[RP03, RP04]``
_SUPPRESSION = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_\-,\s]+)\]")


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number → rule ids suppressed on that line."""
    suppressed: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "repro:" not in text:
            continue
        match = _SUPPRESSION.search(text)
        if match is None:
            continue
        ids = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if ids:
            suppressed[lineno] = ids
    return suppressed
