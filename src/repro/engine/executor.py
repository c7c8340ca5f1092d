"""The cell executor: one ``run`` over the calling process or one pool.

The executor is deliberately dumb: it takes a list of cells and returns
their outcomes *in the same order*.  Caching, aggregation and progress
accounting live above it (:class:`repro.engine.ExperimentEngine`), input
reconstruction lives below it (:mod:`repro.engine.worker`).

Dispatch rule: with one worker and neither retries nor a per-cell
timeout, cells run in the calling process through
:func:`~repro.engine.worker.observe_cell`, in submission order, with no
dictionary round trip.  Every other configuration ships ``{"spec",
"observability"}`` dictionaries to
:func:`~repro.engine.worker.execute_cell` on one
:class:`~repro.engine.resilient.ResilientPool`, heaviest ``load`` first
(a cell's cost grows with its offered load, and sweeps submit loads in
ascending order, so submission order would start the costliest cells
last and leave a worker idle at the end of each batch); each result comes
back as a small header plus its raw record-column bytes, which the
parent wraps without copying or decoding.  The pool is created on
the first batch and *reused* across batches, so exhibits that submit
many small batches (e.g. a buffer sweep looping over ``run_protocol``)
pay worker start-up once and keep the workers' memoized inputs warm.
Call :meth:`Executor.close` (or use the executor as a context manager)
to release the workers.

Failure policy: with neither retries nor a timeout (the default), a
failing cell raises out of :meth:`Executor.run` with its original
exception type, wherever it ran.  With either set, a cell that exhausts
its attempts becomes a :class:`~repro.engine.resilient.CellFailure` and
the rest of the batch completes.

Determinism: every cell carries its own seeds inside the spec, and
workers rebuild inputs from those seeds, so the result of a cell does not
depend on which process executes it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, WorkerError
from ..observability import ObservabilityOptions
from .resilient import CellFailure, ResilientPool
from .spec import ScenarioSpec
from .worker import CellOutcome, execute_cell, observe_cell

#: Progress callbacks receive ``(completed_cells, total_cells, spec)``.
ProgressCallback = Callable[[int, int, ScenarioSpec], None]


def default_workers() -> int:
    """A sensible worker count for this host (capped to keep spawn cheap)."""
    return max(1, min(os.cpu_count() or 1, 8))


class Executor:
    """Runs scenario cells in the calling process or on a worker pool.

    Args:
        workers: Number of worker processes; ``1`` runs cells in the
            calling process unless *retries* or *cell_timeout* is set.
        retries: Extra attempts per cell after the first; a non-zero
            value makes exhausted cells :class:`CellFailure` reports
            instead of exceptions (see :mod:`repro.engine.resilient`).
        cell_timeout: Per-attempt deadline in seconds; setting it also
            selects failure reports, and a worker process even when
            *workers* is ``1`` (only a separate process can be stopped).
        backoff_base: Base of the deterministic retry backoff
            (``backoff_base * 2**(attempt-1)`` seconds).
    """

    def __init__(
        self,
        workers: int = 1,
        retries: int = 0,
        cell_timeout: Optional[float] = None,
        backoff_base: float = 0.5,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if retries < 0:
            raise ConfigurationError("retries must not be negative")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive")
        self.workers = workers
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.backoff_base = backoff_base
        self._pool: Optional[ResilientPool] = None

    @property
    def resilient(self) -> bool:
        """Whether exhausted cells become failure reports, not exceptions."""
        return self.retries > 0 or self.cell_timeout is not None

    @property
    def in_process(self) -> bool:
        """Whether cells run in the calling process rather than the pool."""
        return self.workers == 1 and not self.resilient

    def run(
        self,
        cells: Sequence[ScenarioSpec],
        observability: Optional[ObservabilityOptions] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[List[Optional[CellOutcome]], List[CellFailure]]:
        """Execute *cells*; return ``(outcomes, failures)``.

        Outcomes keep submission order.  Under the resilient policy a
        cell that exhausted its retries holds ``None`` there and one
        :class:`CellFailure` in the failure list; otherwise the failure
        list is always empty.  *progress* names the cell that just
        settled.  Results are byte-identical whichever way cells run.
        """
        cells = list(cells)
        observability = observability or ObservabilityOptions()
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        failures: List[CellFailure] = []
        with contextlib.closing(self._settle(cells, observability)) as settled:
            for done, (index, outcome, failure) in enumerate(settled, 1):
                if failure is None:
                    outcomes[index] = outcome
                elif self.resilient:
                    failures.append(failure)
                elif failure.cause is not None:
                    raise failure.cause
                else:
                    raise WorkerError(f"cell {failure.label}: {failure.error}")
                if progress is not None:
                    progress(done, len(cells), cells[index])
        failures.sort(key=lambda failure: failure.index)
        return outcomes, failures

    def _settle(
        self, cells: List[ScenarioSpec], observability: ObservabilityOptions
    ) -> Iterator[Tuple[int, Optional[CellOutcome], Optional[CellFailure]]]:
        """Yield ``(index, outcome, failure)`` as each of *cells* settles."""
        if self.in_process:
            for index, spec in enumerate(cells):
                yield index, observe_cell(spec, observability), None
            return
        if self._pool is None:
            self._pool = ResilientPool(
                execute_cell,
                workers=self.workers,
                retries=self.retries,
                cell_timeout=self.cell_timeout,
                backoff_base=self.backoff_base,
            )
        # Heaviest load first (see the dispatch rule above); the sort is
        # stable, so equal loads keep their submission order.
        order = sorted(range(len(cells)), key=lambda index: -cells[index].load)
        options = observability.to_dict()
        with contextlib.closing(
            self._pool.imap_unordered(
                [{"spec": cells[i].to_dict(), "observability": options} for i in order],
                labels=[cells[i].label for i in order],
            )
        ) as settled:
            for position, value, failure in settled:
                index = order[position]
                if failure is not None:
                    failure = dataclasses.replace(failure, index=index)
                outcome = None if value is None else CellOutcome.from_dict(value)
                yield index, outcome, failure

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (a later run transparently respawns it)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
