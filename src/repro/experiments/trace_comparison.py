"""Trace-driven protocol comparison under increasing load (Figures 4-7).

RAPID is compared against MaxProp, Spray and Wait and Random on the
DieselNet traces while the per-destination packet generation rate grows.
Each figure sets RAPID's routing metric to the quantity on the y axis:

* Figure 4 — average delay (metric: average delay);
* Figure 5 — delivery rate (same runs as Figure 4);
* Figure 6 — maximum delay (metric: max delay);
* Figure 7 — fraction delivered within the deadline (metric: deadline).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import units
from .config import TraceExperimentConfig, standard_protocols
from .report import FigureResult
from .runner import TraceRunner, sweep

DEFAULT_LOADS: Sequence[float] = (2.0, 4.0, 8.0, 12.0)


def _load_sweep_figure(
    figure_id: str,
    title: str,
    y_label: str,
    rapid_metric: str,
    result_metric: str,
    loads: Sequence[float],
    config: Optional[TraceExperimentConfig],
    runner: Optional[TraceRunner],
    to_minutes: bool,
) -> FigureResult:
    runner = runner or TraceRunner(config)
    specs = standard_protocols(metric=rapid_metric)
    series = sweep(runner, specs, loads, result_metric)
    figure = FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="Packets generated per hour per destination",
        y_label=y_label,
    )
    for spec in specs:
        values = series[spec.label]
        if to_minutes:
            values = [v / units.MINUTE for v in values]
        figure.add_series(spec.label, list(loads), values)
    return figure


def run_figure4(
    loads: Sequence[float] = DEFAULT_LOADS,
    config: Optional[TraceExperimentConfig] = None,
    runner: Optional[TraceRunner] = None,
) -> FigureResult:
    """Figure 4: average delay of delivered packets vs load."""
    return _load_sweep_figure(
        "Figure 4",
        "Trace-driven average delay vs load",
        "Average delay (min)",
        rapid_metric="average_delay",
        result_metric="average_delay",
        loads=loads,
        config=config,
        runner=runner,
        to_minutes=True,
    )


def run_figure5(
    loads: Sequence[float] = DEFAULT_LOADS,
    config: Optional[TraceExperimentConfig] = None,
    runner: Optional[TraceRunner] = None,
) -> FigureResult:
    """Figure 5: delivery rate vs load (RAPID metric: average delay)."""
    return _load_sweep_figure(
        "Figure 5",
        "Trace-driven delivery rate vs load",
        "Fraction of packets delivered",
        rapid_metric="average_delay",
        result_metric="delivery_rate",
        loads=loads,
        config=config,
        runner=runner,
        to_minutes=False,
    )


def run_figure6(
    loads: Sequence[float] = DEFAULT_LOADS,
    config: Optional[TraceExperimentConfig] = None,
    runner: Optional[TraceRunner] = None,
) -> FigureResult:
    """Figure 6: maximum delay vs load (RAPID metric: max delay)."""
    return _load_sweep_figure(
        "Figure 6",
        "Trace-driven maximum delay vs load",
        "Max delay (min)",
        rapid_metric="max_delay",
        result_metric="max_delay",
        loads=loads,
        config=config,
        runner=runner,
        to_minutes=True,
    )


def run_figure7(
    loads: Sequence[float] = DEFAULT_LOADS,
    config: Optional[TraceExperimentConfig] = None,
    runner: Optional[TraceRunner] = None,
) -> FigureResult:
    """Figure 7: fraction delivered within the deadline vs load."""
    return _load_sweep_figure(
        "Figure 7",
        "Trace-driven delivery within deadline vs load",
        "Fraction delivered within deadline",
        rapid_metric="deadline",
        result_metric="deadline_success_rate",
        loads=loads,
        config=config,
        runner=runner,
        to_minutes=False,
    )
