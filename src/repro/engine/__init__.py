"""The parallel experiment engine.

The paper's evaluation is a large grid of (protocol x load x day/seed)
simulation cells.  This package turns that grid into infrastructure:

* :mod:`~repro.engine.spec` — :class:`ScenarioSpec` names one cell as
  plain data; :class:`ScenarioGrid` expands protocols x loads x runs;
* :mod:`~repro.engine.executor` — :class:`Executor` runs cells in the
  calling process or on one persistent worker pool, in deterministic
  order;
* :mod:`~repro.engine.cache` — :class:`ResultCache` persists per-cell
  results under a content address so re-runs are free;
* :mod:`~repro.engine.aggregator` — :class:`Aggregator` reduces cell
  results back into the metric series the figures plot.

:class:`ExperimentEngine` composes cache and executor: look up every
cell, execute only the misses, fill the cache, return results in cell
order.  The experiment runners (:mod:`repro.experiments.runner`), the CLI
and the benchmark harness all submit their cells through an engine; a
module-level default engine (serial, uncached) keeps the zero-config
path identical to the pre-engine behaviour.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Union

from ..dtn.results import SimulationResult
from ..observability import ObservabilityOptions, SweepTelemetry
from .aggregator import Aggregator, group_results
from .cache import CacheStats, ResultCache
from .executor import Executor, ProgressCallback, default_workers
from .manifest import SweepManifest
from .resilient import CellFailure
from .spec import ScenarioGrid, ScenarioSpec, canonical_json, config_key

__all__ = [
    "Aggregator",
    "CacheStats",
    "CellFailure",
    "EngineStats",
    "ExperimentEngine",
    "Executor",
    "ObservabilityOptions",
    "ProgressCallback",
    "ResultCache",
    "ScenarioGrid",
    "ScenarioSpec",
    "SweepManifest",
    "SweepTelemetry",
    "canonical_json",
    "config_key",
    "default_workers",
    "get_default_engine",
    "group_results",
    "set_default_engine",
    "use_engine",
]


@dataclass
class EngineStats:
    """Cumulative accounting of one engine instance."""

    cells_total: int = 0
    cells_executed: int = 0
    cache_hits: int = 0
    cells_failed: int = 0
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        """JSON-compatible view of the counters (used by benchmarks)."""
        return {
            "cells_total": self.cells_total,
            "cells_executed": self.cells_executed,
            "cache_hits": self.cache_hits,
            "cells_failed": self.cells_failed,
            "wall_time_s": self.wall_time_s,
        }

    def snapshot(self) -> "EngineStats":
        """An immutable copy of the counters at this instant."""
        return EngineStats(
            cells_total=self.cells_total,
            cells_executed=self.cells_executed,
            cache_hits=self.cache_hits,
            cells_failed=self.cells_failed,
            wall_time_s=self.wall_time_s,
        )

    def since(self, earlier: "EngineStats") -> "EngineStats":
        """The delta between this snapshot and an *earlier* one."""
        return EngineStats(
            cells_total=self.cells_total - earlier.cells_total,
            cells_executed=self.cells_executed - earlier.cells_executed,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cells_failed=self.cells_failed - earlier.cells_failed,
            wall_time_s=self.wall_time_s - earlier.wall_time_s,
        )


class ExperimentEngine:
    """Cache-aware cell execution: the front door of the engine package.

    Args:
        workers: Worker processes for cache misses (``1`` = serial).
        cache_dir: Directory of the on-disk result cache; ``None``
            disables caching.
        use_cache: Master switch; with ``False`` the cache is neither
            read nor written even when *cache_dir* is set.
        progress: Optional callback invoked after every finished cell
            with ``(completed, total, spec)`` (cache hits included).

    Standing observability configuration — :attr:`observability`,
    :attr:`telemetry` and :attr:`trace_writer` — applies to every
    :meth:`run_cells` batch that does not pass its own.  The CLI sets
    these once per command so runners and exhibits need no signature
    changes to be observed.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        progress: Optional[ProgressCallback] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.executor = executor or Executor(workers=workers)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if (cache_dir is not None and use_cache) else None
        )
        self.progress = progress
        self.stats = EngineStats()
        #: Standing per-cell collection request (see :meth:`run_cells`).
        self.observability: Optional[ObservabilityOptions] = None
        #: Standing sweep-telemetry collector (see :meth:`run_cells`).
        self.telemetry: Optional[SweepTelemetry] = None
        #: Standing trace-line consumer (see :meth:`run_cells`).
        self.trace_writer: Optional[Callable[[str], None]] = None
        #: Standing decision-line consumer (see :meth:`run_cells`).
        self.decisions_writer: Optional[Callable[[str], None]] = None
        #: Standing sweep manifest; completed/failed cells are marked on
        #: it as they settle (the ``--resume`` ledger).
        self.manifest: Optional[SweepManifest] = None
        #: Cells of the most recent :meth:`run_cells` batch that
        #: exhausted their retries (indices refer to that batch).
        self.last_failures: List[CellFailure] = []

    @property
    def workers(self) -> int:
        """Worker-process count of the underlying executor."""
        return self.executor.workers

    def close(self) -> None:
        """Release the executor's worker pool (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_cells(
        self,
        cells: Sequence[ScenarioSpec],
        observability: Optional[ObservabilityOptions] = None,
        telemetry: Optional[SweepTelemetry] = None,
        trace_writer: Optional[Callable[[str], None]] = None,
        decisions_writer: Optional[Callable[[str], None]] = None,
    ) -> List[SimulationResult]:
        """Run *cells* (serving cache hits) and return ordered results.

        Args:
            observability: Per-cell collection request (trace, metrics,
                decision audit).  When it asks for anything, cache
                *reads* are bypassed so every cell re-executes and
                produces its trace/metrics/decisions — a warm cache
                therefore yields byte-identical traces to a cold one.
                Cache writes still happen (instrumented blocks are
                stripped by :meth:`ResultCache.put`).
            telemetry: Sweep-telemetry collector; receives one record per
                cell (cache hits included) and this batch's wall time.
            trace_writer: Called once per trace line, in cell submission
                order — the streaming end of ``--trace-out``.
            decisions_writer: Called once per decision-audit line, in
                cell submission order — the streaming end of
                ``--decisions-out``.
        """
        cells = list(cells)
        started = time.perf_counter()
        self.stats.cells_total += len(cells)
        self.last_failures = []
        observability = observability or self.observability or ObservabilityOptions()
        telemetry = telemetry if telemetry is not None else self.telemetry
        trace_writer = trace_writer if trace_writer is not None else self.trace_writer
        decisions_writer = (
            decisions_writer if decisions_writer is not None else self.decisions_writer
        )
        results: List[Optional[SimulationResult]] = [None] * len(cells)
        miss_indices: List[int] = []
        done = 0
        if self.cache is not None and not observability.enabled:
            for index, spec in enumerate(cells):
                cached = self.cache.get(spec)
                if cached is not None:
                    results[index] = cached
                    self.stats.cache_hits += 1
                    done += 1
                    if telemetry is not None:
                        telemetry.record_cell(index, spec.label, 0.0, cached=True)
                    if self.manifest is not None:
                        self.manifest.mark_completed(spec.cache_key())
                    if self.progress is not None:
                        self.progress(done, len(cells), spec)
                else:
                    miss_indices.append(index)
        else:
            # Tracing/metrics requested: serving results from the cache
            # would skip the simulation that produces them, making warm
            # and cold runs diverge — so every cell re-executes.
            miss_indices = list(range(len(cells)))

        if miss_indices:
            def _on_progress(completed: int, total: int, spec: ScenarioSpec) -> None:
                self.progress(done + completed, len(cells), spec)

            outcomes, failures = self.executor.run(
                [cells[i] for i in miss_indices],
                observability,
                progress=_on_progress if self.progress else None,
            )
            for index, outcome in zip(miss_indices, outcomes):
                if outcome is None:  # exhausted its retries
                    continue
                self.stats.cells_executed += 1
                results[index] = outcome.result
                if telemetry is not None:
                    telemetry.record_cell(
                        index, cells[index].label, outcome.wall_s, cached=False
                    )
                if trace_writer is not None:
                    for line in outcome.trace:
                        trace_writer(line)
                if decisions_writer is not None:
                    for line in outcome.decisions:
                        decisions_writer(line)
                if self.cache is not None:
                    self.cache.put(cells[index], outcome.result)
                if self.manifest is not None:
                    self.manifest.mark_completed(cells[index].cache_key())
            self._record_failures(failures, miss_indices, cells, telemetry)

        batch_wall = time.perf_counter() - started
        self.stats.wall_time_s += batch_wall
        if telemetry is not None:
            telemetry.add_engine_wall(batch_wall)
        # Failed cells (resilient path only) are dropped from the ordered
        # output; their batch indices are in :attr:`last_failures` so
        # aggregating callers can drop the matching cells too.
        return [r for r in results if r is not None]

    def _record_failures(
        self,
        failures: Sequence[CellFailure],
        miss_indices: Sequence[int],
        cells: Sequence[ScenarioSpec],
        telemetry: Optional[SweepTelemetry],
    ) -> None:
        """Map executor failures back to batch indices and account them."""
        for failure in failures:
            batch_index = miss_indices[failure.index]
            spec = cells[batch_index]
            self.last_failures.append(
                CellFailure(
                    index=batch_index,
                    label=failure.label,
                    attempts=failure.attempts,
                    error=failure.error,
                )
            )
            self.stats.cells_failed += 1
            if telemetry is not None:
                telemetry.record_failure(
                    batch_index, spec.label, failure.attempts, failure.error
                )
            if self.manifest is not None:
                self.manifest.mark_failed(spec.cache_key(), failure.error)

    def run_grid(self, grid: ScenarioGrid) -> List[SimulationResult]:
        """Expand *grid* and run its cells."""
        return self.run_cells(grid.cells())

    def sweep_series(self, grid: ScenarioGrid, metric_name: str) -> dict:
        """Run *grid* and reduce it to ``{label: [metric at each load]}``."""
        cells = grid.cells()
        results = self.run_cells(cells)
        return Aggregator(metric_name).series(
            cells,
            results,
            labels=[p.label for p in grid.protocols],
            x_values=list(grid.loads),
        )


# ----------------------------------------------------------------------
# Default engine
# ----------------------------------------------------------------------
_default_engine: Optional[ExperimentEngine] = None


def get_default_engine() -> ExperimentEngine:
    """The engine used when a runner is not given one explicitly.

    Defaults to a serial, uncached engine, which reproduces the
    pre-engine execution behaviour exactly.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine(workers=1)
    return _default_engine


def set_default_engine(engine: Optional[ExperimentEngine]) -> None:
    """Replace the process-wide default engine (``None`` resets it)."""
    global _default_engine
    _default_engine = engine


@contextlib.contextmanager
def use_engine(engine: ExperimentEngine) -> Iterator[ExperimentEngine]:
    """Temporarily install *engine* as the default (restores on exit)."""
    previous = _default_engine
    set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)
