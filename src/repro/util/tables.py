"""Plain-text table rendering for the experiment harness.

Every figure/table regenerator prints its rows through :func:`format_table`
so bench output reads like the paper's tables.
"""

from __future__ import annotations

from collections.abc import Sequence


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        """Left-justify ``cells`` to the column widths, two spaces apart."""
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_line(list(headers)))
    lines.append(fmt_line(["-" * w for w in widths]))
    lines.extend(fmt_line(row) for row in str_rows)
    return "\n".join(lines)
