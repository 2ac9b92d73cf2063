"""Experiment report plumbing: a study's metrics, rendered as an aligned
text table or written as CSV.

A report keeps every metric's raw value, so `report[metric]` reads the
number the study computed.  A metric may carry the number of decimals it
is shown with; only `render` and `write_csv` round to it."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path


def _fmt(value: object, digits: int | None = None) -> str:
    if digits is not None:
        value = round(value, digits)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class ExperimentReport:
    """Named metrics in the order they were added, plus the parameters that
    produced them.  Deterministic given the experiment seed."""

    name: str
    parameters: dict[str, object] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)
    digits: dict[str, int] = field(default_factory=dict)

    def add(self, metric: str, value: object, digits: int | None = None) -> None:
        """Append ``metric``, shown rounded to ``digits`` decimals if given."""
        if metric in self.values:
            raise ValueError(f"{self.name} names {metric!r} twice")
        self.values[metric] = value
        if digits is not None:
            self.digits[metric] = digits

    def __getitem__(self, metric: str) -> object:
        return self.values[metric]

    def _shown(self) -> list[tuple[str, str]]:
        return [(metric, _fmt(value, self.digits.get(metric))) for metric, value in self.values.items()]

    def render(self) -> str:
        lines = [f"== {self.name} =="]
        if self.parameters:
            params = ", ".join(f"{k}={_fmt(v)}" for k, v in self.parameters.items())
            lines.append(f"   parameters: {params}")
        rows = self._shown()
        if rows:
            width = max(len(m) for m, _ in rows)
            lines += [f"   {metric.ljust(width)}  {shown}" for metric, shown in rows]
        return "\n".join(lines)

    def write_csv(self, outdir: str | Path) -> Path:
        return write_csv(outdir, self.name, [["metric", "value"], *self._shown()])


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
