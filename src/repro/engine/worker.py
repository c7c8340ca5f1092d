"""Cell execution: rebuild inputs from a spec and run the simulator.

This module is the *only* place that turns a :class:`ScenarioSpec` into
simulator inputs.  Every cell goes through :func:`observe_cell`: the
executor calls it in-process when it runs cells in the calling process,
and its worker pool ships ``{"spec", "observability"}`` dictionaries to
:func:`execute_cell` (a top-level function, so it is importable by
worker processes under any start method), which wraps it.

Schedules and workloads are derived purely from the configuration seeds,
which gives two properties the engine depends on:

* **fair comparison** — every protocol cell at the same (config, load,
  run index) rebuilds the *same* meetings and the *same* packets, the
  paper's methodology (Section 6.1), without sharing live objects;
* **reproducibility** — a cell produces bit-identical results no matter
  which process (or how many workers) executes it.

Rebuilt inputs are memoized per process keyed by the canonical
configuration, so a worker that executes many cells of one grid pays
generation cost once per (config, load) — the same economy the in-process
runners had before the engine existed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..dtn.packet import Packet
from ..dtn.results import RESULT_MODE_RECORDS, SimulationResult
from ..dtn.simulator import run_simulation
from ..faults import build_fault_model
from ..observability import MemorySink, ObservabilityOptions
from ..mobility.exponential import ExponentialMobility
from ..mobility.powerlaw import PowerLawMobility
from ..mobility.schedule import MeetingSchedule
from ..mobility.spatial import SPATIAL_MODELS, build_spatial_model
from ..traces.dieselnet import DayTrace, DieselNetTraceGenerator
from ..workloads import build_traffic_model
from .spec import FAMILY_TRACE, ScenarioSpec, config_key

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from ..experiments.config import SyntheticExperimentConfig, TraceExperimentConfig

#: How many distinct configurations to memoize per process before the
#: input caches are reset.  Grids use one configuration, so this only
#: guards long-lived workers that serve many unrelated grids.
_MAX_CACHED_CONFIGS = 8
#: Upper bound on memoized workloads per process; one entry holds the
#: packet list of one (config, run/day, load) cell.
_MAX_WORKLOAD_ENTRIES = 4096

_DAY_CACHE: Dict[str, List[DayTrace]] = {}
_TRACE_WORKLOAD_CACHE: Dict[Tuple[str, int, float, str], List[Packet]] = {}
_SCHEDULE_CACHE: Dict[Tuple[str, int, str], MeetingSchedule] = {}
_SYNTH_WORKLOAD_CACHE: Dict[Tuple[str, int, float, str], List[Packet]] = {}


def clear_input_caches() -> None:
    """Drop all per-process memoized inputs (mainly for tests)."""
    _DAY_CACHE.clear()
    _TRACE_WORKLOAD_CACHE.clear()
    _SCHEDULE_CACHE.clear()
    _SYNTH_WORKLOAD_CACHE.clear()


def _trim_caches() -> None:
    if (
        len(_DAY_CACHE) > _MAX_CACHED_CONFIGS
        or len(_SCHEDULE_CACHE) > _MAX_CACHED_CONFIGS * 64
        or len(_TRACE_WORKLOAD_CACHE) > _MAX_WORKLOAD_ENTRIES
        or len(_SYNTH_WORKLOAD_CACHE) > _MAX_WORKLOAD_ENTRIES
    ):
        clear_input_caches()


# ----------------------------------------------------------------------
# Trace-driven inputs (DieselNet day traces)
# ----------------------------------------------------------------------
def day_traces(config: TraceExperimentConfig) -> List[DayTrace]:
    """All day traces of *config*, memoized per process.

    Days are generated together because the trace generator consumes one
    RNG stream across days: day *k* is only reproducible after days
    ``0..k-1`` have been drawn.
    """
    key = config_key(config)
    if key not in _DAY_CACHE:
        _trim_caches()
        generator = DieselNetTraceGenerator(
            parameters=config.trace_parameters, seed=config.seed
        )
        _DAY_CACHE[key] = generator.generate_days(config.num_days)
    return _DAY_CACHE[key]


def trace_workload(
    config: TraceExperimentConfig,
    day_index: int,
    load_packets_per_hour: float,
    workload_name: Optional[str] = None,
) -> List[Packet]:
    """The packet workload of one day at one load (same for every protocol).

    Args:
        config: The trace experiment configuration.
        day_index: Operating-day index (offsets the workload seed).
        load_packets_per_hour: Mean per source-destination-pair rate.
        workload_name: Optional override of ``config.workload.model`` —
            the engine-level handle behind the grid's workload axis.
            The seed derivation is shared by every model, and the
            default ``uniform`` model reproduces the historic draw
            order byte for byte.
    """
    resolved = workload_name if workload_name is not None else config.workload.model
    key = (config_key(config), day_index, load_packets_per_hour, resolved)
    if key not in _TRACE_WORKLOAD_CACHE:
        _trim_caches()
        day = day_traces(config)[day_index]
        workload = build_traffic_model(
            config.workload,
            packets_per_hour=load_packets_per_hour,
            packet_size=config.packet_size,
            deadline=config.deadline,
            seed=config.seed * 1000 + day_index,
            model=resolved,
        )
        nodes = day.buses_on_road if len(day.buses_on_road) >= 2 else day.schedule.nodes
        _TRACE_WORKLOAD_CACHE[key] = workload.generate(nodes, day.schedule.duration)
    return _TRACE_WORKLOAD_CACHE[key]


# ----------------------------------------------------------------------
# Synthetic-mobility inputs (exponential / power-law)
# ----------------------------------------------------------------------
def synthetic_schedule(
    config: SyntheticExperimentConfig,
    run_index: int,
    mobility_name: Optional[str] = None,
) -> MeetingSchedule:
    """The meeting schedule of one random run, memoized per process.

    Args:
        config: The synthetic experiment configuration.
        run_index: The random-run index (offsets the schedule seed).
        mobility_name: Optional override of ``config.mobility`` — the
            engine-level handle behind the grid's mobility axis.  The
            seed derivation is shared by all models, so the historic
            exponential/power-law draw order is untouched.
    """
    resolved = mobility_name if mobility_name is not None else config.mobility
    key = (config_key(config), run_index, resolved)
    if key not in _SCHEDULE_CACHE:
        _trim_caches()
        seed = config.seed * 100 + run_index
        if resolved == "powerlaw":
            mobility = PowerLawMobility(
                num_nodes=config.num_nodes,
                mean_inter_meeting=config.mean_inter_meeting,
                transfer_opportunity=config.transfer_opportunity,
                seed=seed,
            )
        elif resolved == "exponential":
            mobility = ExponentialMobility(
                num_nodes=config.num_nodes,
                mean_inter_meeting=config.mean_inter_meeting,
                transfer_opportunity=config.transfer_opportunity,
                seed=seed,
            )
        elif resolved in SPATIAL_MODELS:
            mobility = build_spatial_model(
                resolved,
                num_nodes=config.num_nodes,
                params=config.spatial,
                seed=seed,
            )
        else:
            raise ValueError(f"unknown mobility model {resolved!r}")
        _SCHEDULE_CACHE[key] = mobility.generate(config.duration)
    return _SCHEDULE_CACHE[key]


def synthetic_workload(
    config: SyntheticExperimentConfig,
    run_index: int,
    packets_per_interval: float,
    workload_name: Optional[str] = None,
) -> List[Packet]:
    """The packet workload of one random run at one load.

    ``workload_name`` overrides ``config.workload.model`` exactly as in
    :func:`trace_workload`; the historic seed derivation is shared by
    every model.
    """
    resolved = workload_name if workload_name is not None else config.workload.model
    key = (config_key(config), run_index, packets_per_interval, resolved)
    if key not in _SYNTH_WORKLOAD_CACHE:
        _trim_caches()
        generator = build_traffic_model(
            config.workload,
            packets_per_hour=config.load_to_packets_per_hour(packets_per_interval),
            packet_size=config.packet_size,
            deadline=config.deadline,
            seed=config.seed * 977 + run_index * 31 + int(packets_per_interval * 101),
            model=resolved,
        )
        _SYNTH_WORKLOAD_CACHE[key] = generator.generate(
            list(range(config.num_nodes)), config.duration
        )
    return _SYNTH_WORKLOAD_CACHE[key]


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def run_cell(
    spec: ScenarioSpec, extra_options: Optional[Dict[str, object]] = None
) -> SimulationResult:
    """Run one cell in the current process and return the live result.

    ``extra_options`` lets :func:`observe_cell` inject per-run simulator
    options (a trace sink, a metrics interval) without them becoming part
    of the cell's identity.
    """
    config = spec.experiment_config()
    protocol = spec.protocol_spec()
    is_rapid = protocol.registry_name.startswith("rapid")

    extra: Dict[str, object] = {}
    if spec.metadata_fraction_cap is not None:
        extra["metadata_fraction_cap"] = spec.metadata_fraction_cap

    if spec.family == FAMILY_TRACE:
        day = day_traces(config)[spec.run_index]
        schedule = day.schedule
        packets = trace_workload(config, spec.run_index, spec.load, spec.workload)
        if is_rapid:
            # RAPID plans against the end of the operating day: expected
            # delay reductions beyond it cannot materialise (each day is
            # a separate experiment in the evaluation).
            extra["planning_horizon"] = day.schedule.duration
            extra["metadata_byte_scale"] = config.metadata_byte_scale
    else:
        schedule = synthetic_schedule(config, spec.run_index, spec.mobility)
        packets = synthetic_workload(config, spec.run_index, spec.load, spec.workload)
        if is_rapid:
            extra["planning_horizon"] = config.duration

    factory = protocol.factory(**extra)
    buffer_capacity = (
        config.buffer_capacity if spec.buffer_capacity is None else spec.buffer_capacity
    )
    # The default instantaneous model passes no options at all, keeping
    # the zero-config simulator path (and its output) byte-identical to
    # the pre-contact-layer engine.
    contact_model = spec.resolved_contact_model()
    options: Dict[str, object] = {}
    if contact_model != "instantaneous":
        options["contact_model"] = contact_model
        if getattr(config, "contact_resume", False):
            options["contact_resume"] = True
        if spec.contact_options:
            options.update(spec.contact_options)
    # Fault injection is opt-in per spec: the fault-free path leaves the
    # options dict untouched so its output stays byte-identical to the
    # pre-fault engine.
    fault_name = spec.resolved_faults()
    if fault_name is not None:
        fault_params = config.faults
        options["fault_model"] = build_fault_model(
            fault_params,
            seed=config.seed * 6361 + spec.run_index * 17 + fault_params.seed_offset,
            model=fault_name,
        )
    # Streaming results are opt-in per spec the same way: the default
    # records path leaves the options dict untouched so its output stays
    # byte-identical to the pre-streaming engine.
    result_mode = spec.resolved_result_mode()
    if result_mode != RESULT_MODE_RECORDS:
        options["result_mode"] = result_mode
    if extra_options:
        options.update(extra_options)
    return run_simulation(
        schedule=schedule,
        packets=packets,
        protocol_factory=factory,
        buffer_capacity=buffer_capacity,
        seed=config.seed + spec.run_index,
        noise=spec.deployment_noise(),
        options=options or None,
    )


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell: its result plus what was collected about the run.

    ``wall_s`` is the wall time the cell took in the process that ran
    it; ``trace`` and ``decisions`` hold the cell's canonical JSONL trace
    and decision-audit lines (empty unless requested).  Trace events
    carry simulated time only, so the lines are byte-identical no matter
    which process executes the cell; wall seconds are telemetry *about*
    the run and never enter the result.
    """

    result: SimulationResult
    wall_s: float
    trace: List[str]
    decisions: List[str]

    def to_dict(self) -> Dict[str, object]:
        """The form that crosses the worker process boundary.

        The result travels as :meth:`SimulationResult.to_wire` — a small
        header plus the raw bytes of its record columns — so the pipe
        carries no per-record objects and the parent decodes nothing
        until a caller asks for records.
        """
        return {
            "result": self.result.to_wire(),
            "wall_s": self.wall_s,
            "trace": self.trace,
            "decisions": self.decisions,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellOutcome":
        """Rebuild an outcome from its :meth:`to_dict` form.

        The result's columns are views of the received bytes (no copy).
        """
        return cls(
            result=SimulationResult.from_wire(data["result"]),
            wall_s=data["wall_s"],
            trace=data["trace"],
            decisions=data["decisions"],
        )


def observe_cell(spec: ScenarioSpec, observability: ObservabilityOptions) -> CellOutcome:
    """Run one cell in the current process, collecting what was asked for.

    With observability off no option reaches the simulator, so the result
    is the one :func:`run_cell` alone returns.
    """
    sink = MemorySink() if observability.trace else None
    decision_sink = MemorySink() if observability.decisions else None
    extra: Dict[str, object] = {}
    if sink is not None:
        extra["trace_sink"] = sink
    if decision_sink is not None:
        extra["decision_sink"] = decision_sink
    if observability.metrics_interval is not None:
        extra["metrics_interval"] = observability.metrics_interval
    started = time.perf_counter()
    result = run_cell(spec, extra_options=extra or None)
    return CellOutcome(
        result=result,
        wall_s=time.perf_counter() - started,
        trace=sink.lines() if sink is not None else [],
        decisions=decision_sink.lines() if decision_sink is not None else [],
    )


def execute_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker-process entry point: ``{"spec", "observability"}`` in.

    Returns :meth:`CellOutcome.to_dict` — ``{"result", "wall_s", "trace",
    "decisions"}``, where ``result`` is ``{"header", "columns"}``
    (:meth:`SimulationResult.to_wire`): the header the result cache also
    stores, plus the packed column bytes.  Plain data rather than live
    objects crosses the process boundary, so the transport exercises the
    same encoding the result cache relies on.
    """
    spec = ScenarioSpec.from_dict(payload["spec"])
    observability = ObservabilityOptions.from_dict(payload["observability"])
    return observe_cell(spec, observability).to_dict()
