"""The repo-specific rule set.  Importing this package registers every rule."""

from . import (  # noqa: F401
    addressing,
    dispatch,
    durability,
    performance,
    purity,
    timers,
    wire,
)

__all__ = [
    "addressing",
    "dispatch",
    "durability",
    "performance",
    "purity",
    "timers",
    "wire",
]
