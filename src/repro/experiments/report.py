"""Result containers for reproduced tables and figures.

Every experiment module returns either a :class:`FigureResult` (one or
more x/y series, mirroring a paper figure) or a :class:`TableResult`
(named scalar rows, mirroring a paper table).  Both render to plain text
so the benchmark harness and CLI can print the same rows/series the paper
reports without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class Series:
    """One labelled curve of a figure."""

    label: str
    x: List[float]
    y: List[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("series x and y must have the same length")

    def y_at(self, x_value: float) -> float:
        """The y value at *x_value* (exact match required)."""
        for x, y in zip(self.x, self.y):
            if x == x_value:
                return y
        raise KeyError(f"x value {x_value} not present in series {self.label!r}")


@dataclass
class FigureResult:
    """A reproduced figure: several series over a shared x axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def add_series(self, label: str, x: Sequence[float], y: Sequence[float]) -> Series:
        series = Series(label=label, x=list(x), y=list(y))
        self.series.append(series)
        return series

    def labels(self) -> List[str]:
        return [series.label for series in self.series]

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.figure_id}")

    def to_text(self, float_format: str = "{:.3f}") -> str:
        """Render as an aligned text table: one row per x value."""
        lines = [f"{self.figure_id}: {self.title}"]
        if self.notes:
            lines.append(f"  note: {self.notes}")
        header = [self.x_label] + self.labels()
        lines.append("  " + " | ".join(f"{h:>24}" for h in header))
        all_x: List[float] = sorted({x for series in self.series for x in series.x})
        for x in all_x:
            row = [float_format.format(x)]
            for series in self.series:
                try:
                    row.append(float_format.format(series.y_at(x)))
                except KeyError:
                    row.append("-")
            lines.append("  " + " | ".join(f"{value:>24}" for value in row))
        return "\n".join(lines)


@dataclass
class TableResult:
    """A reproduced table: named rows with scalar values."""

    table_id: str
    title: str
    rows: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    notes: str = ""

    def add_row(self, name: str, value: float, unit: str = "") -> None:
        self.rows[name] = value
        if unit:
            self.units[name] = unit

    def get(self, name: str) -> float:
        return self.rows[name]

    def to_text(self, float_format: str = "{:.3f}") -> str:
        lines = [f"{self.table_id}: {self.title}"]
        if self.notes:
            lines.append(f"  note: {self.notes}")
        width = max((len(name) for name in self.rows), default=10)
        for name, value in self.rows.items():
            unit = self.units.get(name, "")
            lines.append(f"  {name:<{width}}  {float_format.format(value)} {unit}".rstrip())
        return "\n".join(lines)


def percentage_improvement(better: float, worse: float) -> float:
    """``(worse - better) / worse`` as a percentage (for lower-is-better metrics)."""
    if worse == 0:
        return 0.0
    return 100.0 * (worse - better) / worse
