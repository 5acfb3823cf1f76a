"""Rendering helpers for experiment reports."""

from repro.reporting.tables import (
    ascii_table,
    comparison_table,
    multipath_table,
    replay_table,
    whatif_table,
)

__all__ = [
    "ascii_table",
    "comparison_table",
    "multipath_table",
    "replay_table",
    "whatif_table",
]
