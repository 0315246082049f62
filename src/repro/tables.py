"""Plain-text table rendering for experiment, report, trace and bench output.

A leaf module: it imports nothing from :mod:`repro`, so a CLI verb that only
prints a table does not load the experiment harness, networkx or numpy.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table"]


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{int(value)}"
        return f"{value:.3f}"
    return str(value)


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table with a title rule."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    out = [title, "=" * len(title)]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out) + "\n"
