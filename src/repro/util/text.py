"""Plain-text rendering of report tables."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned plain-text table (the benches print paper series).

    Floats are formatted with *float_format*; all other values with ``str``.
    Column widths adapt to the longest cell.  Returns the table as a single
    string without a trailing newline.
    """
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for idx, cell in enumerate(row):
            if idx < len(widths):
                widths[idx] = max(widths[idx], len(cell))
            else:
                widths.append(len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(cells))

    lines = [fmt_line(list(headers)), fmt_line(["-" * w for w in widths])]
    lines.extend(fmt_line(row) for row in rendered_rows)
    return "\n".join(lines)
