"""Which public entry points of each layer the traced run wraps.

Layers are named after ``src/repro`` modules.  :func:`install` patches
one timing wrapper onto every class that defines a layer's entry point
(see :mod:`perfbench.spans`); :func:`layer_metrics` turns the recorded
spans, counters, profiler phases and sweep telemetry into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.control import ControlChannel
from repro.core.metadata import MetadataStore
from repro.core.rapid import RapidProtocol
from repro.dtn.buffer import NodeBuffer
from repro.dtn.results import SimulationResult
from repro.dtn.simulator import Simulator
from repro.engine import ResultCache, SweepTelemetry
from repro.engine.spec import canonical_json
from repro.mobility.base import MobilityModel
from repro.routing import base as routing_base
from repro.traces.dieselnet import DieselNetTraceGenerator
from repro.workloads.base import TrafficModel

from .spans import Patcher, Recorder, defining_classes, median, percentile, timed, timed_generator

MB = 1024.0 * 1024.0

#: Profiler phases of ``SimulationResult.timings`` reported per layer.
PHASES = (
    "packet_creation",
    "control_exchange",
    "direct_delivery",
    "replication",
    "contact_session",
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.control.exchange_s": "s",
    "core.control.exchange_calls": "count",
    "core.metadata.entries_changed_since_s": "s",
    "core.metadata.entries_changed_since_calls": "count",
    "core.rapid.replication_candidates_s": "s",
    "core.rapid.candidates_yielded": "count",
    "dtn.buffer.bytes_ahead_batch_s": "s",
    "dtn.buffer.bytes_ahead_batch_calls": "count",
    "routing.make_room_s": "s",
    "routing.make_room_calls": "count",
    "routing.make_room.admit_ratio": "ratio",
    "core.rapid.choose_eviction_victim_s": "s",
    "core.rapid.choose_eviction_victim_calls": "count",
    "routing.replication_candidates_s": "s",
    "routing.replication_candidates_calls": "count",
    "dtn.run_simulation_s": "s",
    "dtn.run_simulation_calls": "count",
    **{f"dtn.phase.{phase}_s": "s" for phase in PHASES},
    "dtn.candidates_pulled": "count",
    "dtn.packets_created": "count",
    "dtn.rss_growth_mb": "MB",
    "dtn.results.to_dict_s": "s",
    "dtn.results.from_dict_s": "s",
    "dtn.results.payload_bytes": "bytes",
    "engine.cache.get_s": "s",
    "engine.cache.get_calls": "count",
    "engine.cache.hits": "count",
    "engine.cache.put_s": "s",
    "engine.cache.put_calls": "count",
    "engine.cache.bytes": "bytes",
    "engine.cells_executed": "count",
    "engine.cell_s.p50": "s",
    "engine.cell_s.p85": "s",
    "engine.worker_utilization": "ratio",
    "traces.generate_s": "s",
    "traces.meetings": "count",
    "mobility.generate_s": "s",
    "mobility.meetings": "count",
    "workloads.generate_s": "s",
    "workloads.packets": "count",
    "trace.overhead_s": "s",
}

#: Counts that must repeat exactly whenever the same inputs run again.
EXACT_COUNTS: Tuple[str, ...] = tuple(
    name
    for name in PER_LAYER_UNITS
    if name.endswith("_calls")
    or name
    in (
        "engine.cache.hits",
        "engine.cells_executed",
        "dtn.packets_created",
        "dtn.candidates_pulled",
        "traces.meetings",
        "mobility.meetings",
        "workloads.packets",
        "dtn.results.payload_bytes",
    )
)

#: Counts that depend on how a worker pool shares cells out: inputs are
#: memoized per process, so how often a worker generates a day trace or
#: a workload depends on which cells it happened to receive.
POOL_DEPENDENT_COUNTS = frozenset({"traces.meetings", "mobility.meetings", "workloads.packets"})


# ----------------------------------------------------------------------
# Resident memory of this process (Linux /proc)
# ----------------------------------------------------------------------
def _status_kb(field: str) -> Optional[int]:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _simulation_wrapper(recorder: Recorder, fn):
    """Span + cell id + RSS growth around one ``Simulator.run``."""

    name = "dtn.run_simulation"

    def run(self, *args, **kwargs):
        recorder.cells_run += 1
        recorder.cell = f"{os.getpid()}:{recorder.cells_run}"
        recorder.counts["dtn.run_simulation_calls"] += 1
        # The simulator's inputs (schedule, packets) exist by now: growth
        # from here is what simulating costs in memory.
        _reset_peak_rss()
        rss_start = _status_kb("VmRSS:")
        token = recorder.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            peak = _status_kb("VmHWM:")
            if rss_start is not None and peak is not None:
                recorder.gauge_max("dtn.rss_growth_mb", (peak - rss_start) * 1024 / MB)
            recorder.cell = ""
            recorder.close(name, token)
            recorder.settle()

    run.__wrapped__ = fn
    run.__name__ = getattr(fn, "__name__", "run")
    run.__qualname__ = getattr(fn, "__qualname__", "run")
    return run


# ----------------------------------------------------------------------
# Observers: count what an outermost call produced
# ----------------------------------------------------------------------
def _count_admitted(recorder: Recorder, args: tuple, value) -> None:
    if value:
        recorder.counts["routing.make_room.admitted"] += 1


def _count_cache_hit(recorder: Recorder, args: tuple, value) -> None:
    if value is not None:
        recorder.counts["engine.cache.hits"] += 1


def _count_cache_bytes(recorder: Recorder, args: tuple, value) -> None:
    recorder.counts["engine.cache.bytes"] += os.path.getsize(value)


def _count_payload(recorder: Recorder, args: tuple, value) -> None:
    payload = {key: item for key, item in value.items() if key != "timings"}
    recorder.counts["dtn.results.payload_bytes"] += len(canonical_json(payload).encode())


def _count_days(recorder: Recorder, args: tuple, value) -> None:
    recorder.counts["traces.meetings"] += sum(day.num_meetings for day in value)


def _count_meetings(recorder: Recorder, args: tuple, value) -> None:
    recorder.counts["mobility.meetings"] += len(value)


def _count_packets(recorder: Recorder, args: tuple, value) -> None:
    recorder.counts["workloads.packets"] += len(value)


_ACTIVE: List[Recorder] = []
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    for recorder in _ACTIVE:
        recorder.reset_in_child()


def activate(recorder: Optional[Recorder]) -> None:
    """Make *recorder* the one forked workers start afresh (``None``: none).

    A worker forked while tracing inherits the parent's memory, spans
    included; the fork hook empties the child's copy so no span is
    reported twice.
    """
    global _FORK_HOOK_REGISTERED
    if not _FORK_HOOK_REGISTERED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOK_REGISTERED = True
    _ACTIVE[:] = [recorder] if recorder is not None else []


def _concrete(classes: Iterable[type], attribute: str) -> List[type]:
    return [
        cls
        for cls in classes
        if not getattr(cls.__dict__[attribute], "__isabstractmethod__", False)
    ]


def install(recorder: Recorder, patcher: Patcher, full: bool = True) -> None:
    """Patch the layer wrappers onto their classes.

    With ``full=False`` only the simulation boundary is wrapped (one span
    per cell, for its RSS growth), which costs microseconds per cell.
    """
    patcher.replace(Simulator, "run", lambda fn: _simulation_wrapper(recorder, fn))
    if not full:
        return

    def span(name: str, calls: Optional[str] = None, observe=None, observe_in_span=False):
        return lambda fn: timed(
            recorder, name, fn, observe=observe, calls=calls, observe_in_span=observe_in_span
        )

    for cls in _concrete(defining_classes(ControlChannel, "exchange"), "exchange"):
        patcher.replace(
            cls, "exchange", span("core.control.exchange", "core.control.exchange_calls")
        )
    patcher.replace(
        MetadataStore,
        "entries_changed_since",
        span("core.metadata.entries_changed_since", "core.metadata.entries_changed_since_calls"),
    )
    patcher.replace(
        NodeBuffer,
        "bytes_ahead_batch",
        span("dtn.buffer.bytes_ahead_batch", "dtn.buffer.bytes_ahead_batch_calls"),
    )
    for cls in defining_classes(RapidProtocol, "replication_candidates"):
        patcher.replace(
            cls,
            "replication_candidates",
            lambda fn: timed_generator(
                recorder,
                "core.rapid.replication_candidates",
                fn,
                calls="core.rapid.replication_candidates_calls",
                yielded="core.rapid.candidates_yielded",
            ),
        )
    for cls in defining_classes(RapidProtocol, "choose_eviction_victim"):
        patcher.replace(
            cls,
            "choose_eviction_victim",
            span("core.rapid.choose_eviction_victim", "core.rapid.choose_eviction_victim_calls"),
        )
    base = routing_base.RoutingProtocol
    for cls in defining_classes(base, "make_room"):
        patcher.replace(
            cls,
            "make_room",
            span("routing.make_room", "routing.make_room_calls", _count_admitted),
        )
    for cls in _concrete(
        defining_classes(base, "replication_candidates", exclude=(RapidProtocol,)),
        "replication_candidates",
    ):
        patcher.replace(
            cls,
            "replication_candidates",
            lambda fn: timed_generator(
                recorder,
                "routing.replication_candidates",
                fn,
                calls="routing.replication_candidates_calls",
            ),
        )
    patcher.replace(
        SimulationResult,
        "to_dict",
        span("dtn.results.to_dict", "dtn.results.to_dict_calls", _count_payload, True),
    )
    patcher.replace(
        SimulationResult,
        "from_dict",
        span("dtn.results.from_dict", "dtn.results.from_dict_calls"),
    )
    patcher.replace(
        ResultCache, "get", span("engine.cache.get", "engine.cache.get_calls", _count_cache_hit)
    )
    patcher.replace(
        ResultCache, "put", span("engine.cache.put", "engine.cache.put_calls", _count_cache_bytes, True)
    )
    patcher.replace(
        DieselNetTraceGenerator,
        "generate_days",
        span("traces.generate", "traces.generate_calls", _count_days),
    )
    for cls in _concrete(defining_classes(MobilityModel, "generate"), "generate"):
        patcher.replace(
            cls, "generate", span("mobility.generate", "mobility.generate_calls", _count_meetings)
        )
    for cls in defining_classes(TrafficModel, "generate"):
        patcher.replace(
            cls, "generate", span("workloads.generate", "workloads.generate_calls", _count_packets)
        )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _phase_totals(results: Sequence[SimulationResult]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for result in results:
        for key, value in result.timings.items():
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def cell_walls(
    telemetry: Optional[SweepTelemetry], spans: Sequence[Tuple[int, Tuple]], workers: int,
    wall_s: float,
) -> Tuple[List[float], float]:
    """Per-cell wall seconds and worker utilization of one traced body.

    A worker pool reports both through :class:`SweepTelemetry`.  A serial
    engine is not given one: its observed path would serialise every
    result to a dictionary and back, work the untraced serial path never
    does.  There, a cell's wall is its ``dtn.run_simulation`` span, and
    utilization is simulation time over the body's wall time.
    """
    if telemetry is not None:
        walls = [cell.wall_s for cell in telemetry.executed]
        return walls, telemetry.worker_utilization() or 0.0
    walls = [
        end - start
        for _, (span_id, name, start, end, parent, cell) in spans
        if name == "dtn.run_simulation"
    ]
    return walls, min(1.0, sum(walls) / (workers * wall_s)) if wall_s > 0 else 0.0


def layer_metrics(
    self_s: Dict[str, float],
    counts: Dict[str, int],
    gauges: Dict[str, float],
    executed: Sequence[SimulationResult],
    packets_created: int,
    cells_executed: int,
    cell_walls: Sequence[float],
    utilization: float,
    overhead_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    A layer that did no work reports 0 time and 0 calls.  The admit ratio
    of a layer that was never called is 0; the 85th percentile of cell
    time is 0 unless at least ten executed cells lie beyond it (see
    :func:`perfbench.spans.percentile`).  The median is reported whatever
    the sample size.
    """
    phases = _phase_totals(executed)
    make_room_calls = counts.get("routing.make_room_calls", 0)
    values: Dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if name.endswith("_s") and name[:-2] in self_s:
            values[name] = self_s[name[:-2]]
        elif name.startswith("dtn.phase."):
            values[name] = phases.get(f"phase_{name[len('dtn.phase.'):-2]}_s", 0.0)
        elif name in counts:
            values[name] = counts[name]
        elif name.endswith("_s"):
            values[name] = 0.0
        else:
            values[name] = 0
    values["routing.make_room.admit_ratio"] = (
        counts.get("routing.make_room.admitted", 0) / make_room_calls if make_room_calls else 0.0
    )
    values["dtn.candidates_pulled"] = int(phases.get("calls_candidates_pulled", 0))
    values["dtn.packets_created"] = packets_created
    values["dtn.rss_growth_mb"] = gauges.get("dtn.rss_growth_mb", 0.0)
    values["engine.cells_executed"] = cells_executed
    values["engine.cell_s.p50"] = median(cell_walls) if cell_walls else 0.0
    values["engine.cell_s.p85"] = percentile(cell_walls, 0.85) or 0.0
    values["engine.worker_utilization"] = utilization
    values["trace.overhead_s"] = overhead_s
    return values
