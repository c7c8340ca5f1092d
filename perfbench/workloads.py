"""The three benchmark workloads, driven through the library's public API.

Each workload is split the way a user experiences it:

* ``prepare(seed, scratch)`` is the set-up a user pays before the first
  engine call — building the experiment configuration and the engine;
* ``run(prepared)`` is the workload body: every engine call, up to and
  including closing the engine.

``run`` returns an :class:`Outcome` that lists every cell request of the
body with its result, in submission order, plus the exhibit series.  The
engine used is :class:`RecordingEngine`, an :class:`ExperimentEngine`
whose only addition is remembering what each ``run_cells`` batch
returned, so the benchmark can check every cell after the timed region.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro import units
from repro.dtn.results import SimulationResult
from repro.engine import ExperimentEngine, ScenarioGrid, ScenarioSpec
from repro.engine import worker as cell_worker
from repro.experiments.config import (
    ProtocolSpec,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
    standard_protocols,
)
from repro.experiments.runner import TraceRunner
from repro.experiments.trace_comparison import (
    DEFAULT_LOADS,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
)

TRACE_EXHIBITS = "trace-exhibits"
STORAGE_PRESSURE = "storage-pressure"
LONGHAUL_STREAMING = "longhaul-streaming"

#: Seed of each workload's configuration: its mobility, its traffic and
#: its protocol randomness all derive from it.  It is also the benchmark
#: seed used when none is given.
DEFAULT_SEEDS: Dict[str, int] = {
    TRACE_EXHIBITS: 7,
    STORAGE_PRESSURE: 11,
    LONGHAUL_STREAMING: 3,
}

#: Seeds kept out of development: a later performance claim is verified
#: on these after it was tuned on others.
HELD_OUT_SEEDS: Tuple[int, ...] = (1009, 2027, 3041)

#: Largest relative change of the offered load that a seed draws.
LOAD_JITTER = 0.02


def load_scale(name: str, seed: int) -> float:
    """Factor the benchmark seed applies to workload *name*'s offered load.

    The seed draws the traffic, not the topology: every packet's creation
    time (and, on the synthetic workloads, the whole arrival stream)
    changes with the offered load, while the meeting schedule stays that
    of the configuration seed.  On these small configurations the
    topology alone moves a workload's cost by a factor of two or more
    from seed to seed, which would swamp any regression the benchmark
    exists to catch; a load within +-2% of nominal keeps the work per run
    steady.  The default seed draws exactly the nominal load.
    """
    if seed == DEFAULT_SEEDS[name]:
        return 1.0
    return 1.0 + LOAD_JITTER * (2.0 * random.Random(seed).random() - 1.0)


#: Worker processes of the parallel workload: one process drives, at most
#: two simulate.
TRACE_WORKERS = 2


class RecordingEngine(ExperimentEngine):
    """An engine that keeps every batch's cells and results in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batches: List[Tuple[List[ScenarioSpec], List[SimulationResult]]] = []

    def run_cells(self, cells, *args, **kwargs) -> List[SimulationResult]:
        cells = list(cells)
        results = super().run_cells(cells, *args, **kwargs)
        self.batches.append((cells, results))
        return results


@dataclass
class Prepared:
    """What set-up hands to the body: the engine and how to drive it."""

    engine: RecordingEngine
    body: Callable[[RecordingEngine], Dict[str, object]]


@dataclass
class Outcome:
    """What one execution of a workload body produced."""

    #: ``(spec, result)`` per cell request, cache hits included.
    cells: List[Tuple[ScenarioSpec, SimulationResult]]
    #: Exhibit or sweep series by name (plain JSON data).
    series: Dict[str, object]
    cells_executed: int
    cache_hits: int
    #: Cells the engine executed, keyed by cache address (no duplicates).
    executed: Dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def packets_created(self) -> int:
        """Packets created across the executed cells."""
        return sum(result.num_packets for result in self.executed.values())


def _figure_series(figure) -> Dict[str, object]:
    return {
        "figure": figure.figure_id,
        "series": [
            {"label": s.label, "x": list(s.x), "y": list(s.y)} for s in figure.series
        ],
    }


# ----------------------------------------------------------------------
# trace-exhibits: Figures 4-7 through one parallel, cached engine
# ----------------------------------------------------------------------
def _trace_exhibits(seed: int, scratch: Path) -> Prepared:
    config = TraceExperimentConfig.ci_scale(seed=DEFAULT_SEEDS[TRACE_EXHIBITS])
    scale = load_scale(TRACE_EXHIBITS, seed)
    loads = [load * scale for load in DEFAULT_LOADS]
    cache_dir = scratch / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    engine = RecordingEngine(workers=TRACE_WORKERS, cache_dir=cache_dir)

    def body(engine: RecordingEngine) -> Dict[str, object]:
        runner = TraceRunner(config, engine=engine)
        figures = [
            run(loads=loads, runner=runner)
            for run in (run_figure4, run_figure5, run_figure6, run_figure7)
        ]
        return {f.figure_id: _figure_series(f) for f in figures}

    return Prepared(engine=engine, body=body)


# ----------------------------------------------------------------------
# storage-pressure: the four protocols with 10 KB buffers, serial
# ----------------------------------------------------------------------
STORAGE_BUFFER = 10 * units.KB
STORAGE_LOAD = 5.0


def _storage_pressure(seed: int, scratch: Path) -> Prepared:
    config = SyntheticExperimentConfig.ci_scale(
        "powerlaw", seed=DEFAULT_SEEDS[STORAGE_PRESSURE]
    )
    grid = ScenarioGrid(
        config=config,
        protocols=standard_protocols(),
        loads=[STORAGE_LOAD * load_scale(STORAGE_PRESSURE, seed)],
        buffer_capacity=STORAGE_BUFFER,
    )
    engine = RecordingEngine(workers=1)

    def body(engine: RecordingEngine) -> Dict[str, object]:
        return {"average_delay": engine.sweep_series(grid, "average_delay")}

    return Prepared(engine=engine, body=body)


# ----------------------------------------------------------------------
# longhaul-streaming: one 8-hour Spray and Wait cell, streaming results
# ----------------------------------------------------------------------
LONGHAUL_LOAD = 1.0


def longhaul_config(seed: int) -> SyntheticExperimentConfig:
    """The long-horizon synthetic cell (exponential mobility, 10 nodes)."""
    return SyntheticExperimentConfig(
        num_nodes=10,
        mean_inter_meeting=60.0,
        transfer_opportunity=60 * units.KB,
        duration=8 * units.HOUR,
        buffer_capacity=200 * units.KB,
        mobility="exponential",
        num_runs=1,
        seed=seed,
        result_mode="streaming",
    )


def _longhaul_streaming(seed: int, scratch: Path) -> Prepared:
    grid = ScenarioGrid(
        config=longhaul_config(DEFAULT_SEEDS[LONGHAUL_STREAMING]),
        protocols=[ProtocolSpec("Spray and Wait", "spray-and-wait")],
        loads=[LONGHAUL_LOAD * load_scale(LONGHAUL_STREAMING, seed)],
    )
    engine = RecordingEngine(workers=1)

    def body(engine: RecordingEngine) -> Dict[str, object]:
        return {"delivery_rate": engine.sweep_series(grid, "delivery_rate")}

    return Prepared(engine=engine, body=body)


#: Cell requests one body makes (counted as failed when a body aborts):
#: 4 figures x 4 protocols x 4 loads x 3 days; 4 protocols x 2 runs; 1.
EXPECTED_CELLS: Dict[str, int] = {
    TRACE_EXHIBITS: 192,
    STORAGE_PRESSURE: 8,
    LONGHAUL_STREAMING: 1,
}

WORKLOADS: Dict[str, Callable[[int, Path], Prepared]] = {
    TRACE_EXHIBITS: _trace_exhibits,
    STORAGE_PRESSURE: _storage_pressure,
    LONGHAUL_STREAMING: _longhaul_streaming,
}


def prepare(name: str, seed: int, scratch: Path) -> Prepared:
    """Set-up: build the configuration and the engine of workload *name*.

    Inputs memoized by earlier repetitions in this process are dropped,
    so every repetition generates its own schedules and workloads.
    """
    cell_worker.clear_input_caches()
    return WORKLOADS[name](seed, scratch)


def run(prepared: Prepared) -> Outcome:
    """The workload body: every engine call, then closing the engine."""
    engine = prepared.engine
    try:
        series = prepared.body(engine)
    finally:
        engine.close()
    cells: List[Tuple[ScenarioSpec, SimulationResult]] = []
    executed: Dict[str, SimulationResult] = {}
    for batch_cells, batch_results in engine.batches:
        # The engine runs without retries, so a failing cell raises out of
        # the body instead of leaving a gap here.
        for spec, result in zip(batch_cells, batch_results, strict=True):
            cells.append((spec, result))
            executed.setdefault(spec.cache_key(), result)
    return Outcome(
        cells=cells,
        series=series,
        cells_executed=engine.stats.cells_executed,
        cache_hits=engine.stats.cache_hits,
        executed=executed,
    )
