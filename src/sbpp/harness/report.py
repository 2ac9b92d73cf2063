"""Experiment report plumbing: aligned text tables and CSV emission."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class ExperimentReport:
    """Named list of (metric, value) rows plus the parameters that produced
    them.  Deterministic given the experiment seed."""

    name: str
    parameters: dict[str, object] = field(default_factory=dict)
    rows: list[tuple[str, object]] = field(default_factory=list)

    def add(self, metric: str, value: object) -> None:
        self.rows.append((metric, value))

    def render(self) -> str:
        lines = [f"== {self.name} =="]
        if self.parameters:
            params = ", ".join(f"{k}={_fmt(v)}" for k, v in self.parameters.items())
            lines.append(f"   parameters: {params}")
        if self.rows:
            width = max(len(m) for m, _ in self.rows)
            for metric, value in self.rows:
                lines.append(f"   {metric.ljust(width)}  {_fmt(value)}")
        return "\n".join(lines)

    def write_csv(self, outdir: str | Path) -> Path:
        rows = [[metric, _fmt(value)] for metric, value in self.rows]
        return write_csv(outdir, self.name, [["metric", "value"], *rows])


def write_csv(outdir: str | Path, name: str, rows: list[list[str]]) -> Path:
    """Write ``rows`` (header first) to ``outdir/name.csv``; the path written."""
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{name}.csv"
    with target.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return target


def render_grid(
    title: str,
    col_headers: list[str],
    row_headers: list[str],
    cell: "callable",
) -> str:
    """Aligned grid; `cell(row, col)` supplies each entry as a string.  Each
    column is wider than every header and entry, so entries never touch."""
    rows = [[cell(r, c) for c in col_headers] for r in row_headers]
    col_w = 1 + max(3, *map(len, col_headers), *(len(x) for row in rows for x in row))
    row_w = max(len(h) for h in row_headers) + 1
    lines = [title, " " * row_w + "".join(h.rjust(col_w) for h in col_headers)]
    for r, entries in zip(row_headers, rows):
        lines.append(r.ljust(row_w) + "".join(x.rjust(col_w) for x in entries))
    return "\n".join(lines)
