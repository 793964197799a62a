"""Table rendering of experiment results (the "figures" of this repo).

The original paper presents its evaluation as scatter/bar charts; in an
offline, dependency-free reproduction we print the underlying series as
Markdown tables (``repro experiment``, ``docs/REPRODUCTION.md``) so they can
be compared to the paper's figures directly (who wins, by what factor, how
costs correlate with measured effort).
"""

from __future__ import annotations

from typing import Dict, Sequence


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render dictionaries as a Markdown table (cells must not hold ``|``)."""
    if not rows:
        return "(no rows)"
    lines = ["| " + " | ".join(columns) + " |", "|" + " --- |" * len(columns)]
    for row in rows:
        cells = (_format_value(row.get(column)) for column in columns)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _format_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)
