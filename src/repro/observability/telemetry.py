"""Sweep telemetry: per-cell wall time, cache traffic, worker utilization.

A 1k-cell sweep that takes an hour deserves a better answer to "where
did the hour go?" than a single total.  :class:`SweepTelemetry` collects
one :class:`CellTelemetry` record per cell — its spec label, whether the
result cache served it, and the wall seconds the executing worker spent
on it — and aggregates them into a machine-readable report: executed vs
cached counts, wall-time distribution over executed cells, the slowest
cells by label, cache hit/miss/corruption-heal counters, worker
utilization (busy worker-seconds over the workers × engine-wall budget),
and — on the failure-resilient path — an explicit failed-cells section
(label, attempts, last error per cell that exhausted its retries).

:class:`ObservabilityOptions` is the plain-data request object the
engine, executor and worker share: it names what to collect for every
cell (lifecycle trace, metrics interval) and serializes to a dictionary
so it can cross the multiprocessing boundary next to the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["CellTelemetry", "ObservabilityOptions", "SweepTelemetry"]

#: Schema version of the sweep report (bump on shape changes).
#: Version 2 added the failed-cells section (``cells_failed``,
#: ``failed_cells``) of the failure-resilient execution path.
SWEEP_REPORT_VERSION = 2


@dataclass(frozen=True)
class ObservabilityOptions:
    """What to collect for every simulation cell of a run.

    ``trace`` requests lifecycle events (collected in memory per cell
    and streamed to the engine's trace output in cell order);
    ``decisions`` requests the protocol decision audit
    (:class:`~repro.observability.decisions.DecisionRecorder`, streamed
    the same way to its own output); ``metrics_interval`` attaches a
    sampled :class:`~repro.observability.metrics.MetricsRegistry` to
    every result.  The default (all off) is the zero-overhead path.
    """

    trace: bool = False
    metrics_interval: Optional[float] = None
    decisions: bool = False

    def __post_init__(self) -> None:
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")

    @property
    def enabled(self) -> bool:
        """Whether any per-cell collection is requested at all."""
        return self.trace or self.decisions or self.metrics_interval is not None

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form (crosses the worker process boundary)."""
        return {
            "trace": self.trace,
            "metrics_interval": self.metrics_interval,
            "decisions": self.decisions,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ObservabilityOptions":
        """Rebuild options from their :meth:`to_dict` form."""
        return cls(
            trace=bool(data.get("trace", False)),
            metrics_interval=data.get("metrics_interval"),  # type: ignore[arg-type]
            decisions=bool(data.get("decisions", False)),
        )


@dataclass
class CellTelemetry:
    """Accounting of one cell: who ran it, from where, for how long."""

    index: int
    label: str
    cached: bool
    wall_s: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-compatible view (one row of the sweep report)."""
        return {
            "index": self.index,
            "label": self.label,
            "cached": self.cached,
            "wall_s": self.wall_s,
        }


class SweepTelemetry:
    """Aggregates per-cell accounting of one engine run into a report."""

    #: How many of the slowest cells the report lists individually.
    SLOWEST = 10

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self.cells: List[CellTelemetry] = []
        self.failures: List[Dict[str, object]] = []
        self.engine_wall_s = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_cell(self, index: int, label: str, wall_s: float, cached: bool) -> None:
        """Record one finished cell (``cached=True``: served by the cache)."""
        self.cells.append(
            CellTelemetry(index=index, label=label, cached=cached, wall_s=float(wall_s))
        )

    def record_failure(
        self, index: int, label: str, attempts: int, error: str
    ) -> None:
        """Record one cell that exhausted its retry budget."""
        self.failures.append(
            {
                "index": int(index),
                "label": label,
                "attempts": int(attempts),
                "error": str(error),
            }
        )

    def add_engine_wall(self, seconds: float) -> None:
        """Charge *seconds* of engine wall time (one ``run_cells`` batch)."""
        self.engine_wall_s += float(seconds)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def executed(self) -> List[CellTelemetry]:
        """The cells a worker actually ran (cache hits excluded)."""
        return [cell for cell in self.cells if not cell.cached]

    @property
    def cache_hits(self) -> int:
        """How many recorded cells the result cache served."""
        return sum(1 for cell in self.cells if cell.cached)

    def worker_utilization(self) -> Optional[float]:
        """Busy worker-seconds over the workers × wall budget (0..1).

        ``None`` when no engine wall time was charged (nothing ran).
        """
        if self.engine_wall_s <= 0:
            return None
        busy = sum(cell.wall_s for cell in self.executed)
        return min(1.0, busy / (self.workers * self.engine_wall_s))

    def report(
        self,
        cache_stats: Optional[Dict[str, object]] = None,
        engine_stats: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """The machine-readable sweep report (JSON-compatible)."""
        executed = self.executed
        walls = sorted(cell.wall_s for cell in executed)
        slowest = sorted(executed, key=lambda cell: (-cell.wall_s, cell.index))
        payload: Dict[str, object] = {
            "version": SWEEP_REPORT_VERSION,
            "workers": self.workers,
            "cells_total": len(self.cells),
            "cells_executed": len(executed),
            "cache_hits": self.cache_hits,
            "engine_wall_s": self.engine_wall_s,
            "cell_wall_s": {
                "sum": sum(walls),
                "mean": (sum(walls) / len(walls)) if walls else 0.0,
                "max": walls[-1] if walls else 0.0,
                "min": walls[0] if walls else 0.0,
            },
            "worker_utilization": self.worker_utilization(),
            "slowest_cells": [cell.as_dict() for cell in slowest[: self.SLOWEST]],
            "cells": [cell.as_dict() for cell in self.cells],
            "cells_failed": len(self.failures),
            "failed_cells": [dict(failure) for failure in self.failures],
        }
        if cache_stats is not None:
            payload["cache"] = dict(cache_stats)
        if engine_stats is not None:
            payload["engine"] = dict(engine_stats)
        return payload
