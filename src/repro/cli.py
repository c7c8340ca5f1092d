"""Command-line interface.

``repro-dtn`` (or ``python -m repro``) exposes the experiment harness:

* ``repro-dtn list`` — list reproducible exhibits (tables/figures);
* ``repro-dtn run figure4 --scale ci`` — run one exhibit and print its
  rows/series; ``--workers 4`` fans the simulation cells out over worker
  processes, ``--cache-dir .repro-cache`` serves repeat cells from the
  on-disk result cache (``--no-cache`` bypasses it);
* ``repro-dtn sweep --family trace --protocols rapid,random --loads 2,6``
  — run an ad-hoc protocol/load grid through the engine and print the
  metric series; ``--mobility waypoint,grid`` additionally sweeps the
  synthetic mobility axis (``--arena``/``--radio-range`` tune the
  spatial models' geometry) and ``--workload poisson,bursty,zipf``
  sweeps the traffic workload axis (``--zipf-alpha``/``--burstiness``
  tune the skew and burst shape);
* ``repro-dtn protocols`` — list registered routing protocols;
* ``repro-dtn quicksim --protocol rapid --nodes 10`` — run a single ad-hoc
  simulation as one synthetic engine cell (exponential mobility by
  default; ``--mobility`` selects any model, including the spatial ones,
  ``--workload`` any traffic model and ``--contact-model`` any contact
  semantics) and print the summary;
* ``repro-dtn inspect trace.jsonl --packet 3`` — replay a lifecycle
  trace written by ``--trace-out`` into an overview, one packet's
  timeline, a per-packet table or a per-node summary; ``--why ID``
  reconstructs one packet's causal chain (replication tree, winning
  path, latency decomposition) and ``--funnel`` the trace-wide
  delivery funnel;
* ``repro-dtn report --out report.html`` — render telemetry, traces
  and benchmark records into one self-contained static HTML file.

Observability flags shared by ``run``/``sweep``/``quicksim``:
``--trace-out FILE`` streams every cell's lifecycle events as canonical
JSONL (byte-identical across ``--workers`` counts and cache states),
``--decisions-out FILE`` streams the protocol decision audit (every
replication ranking and eviction choice) the same way,
``--metrics-interval SECONDS`` attaches sampled time-series metrics to
every result, ``--progress`` prints a live cell counter, and (engine
commands only) ``--telemetry-out FILE`` writes the machine-readable
sweep report: per-cell wall times, cache traffic, worker utilization.
A ``.gz`` suffix on any trace/decisions path gzips transparently.

The full reference, generated from these parsers, lives in
``docs/reference/cli.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import units
from .profiling import ENV_PROFILE
from .dtn.results import RESULT_MODES
from .exceptions import ReproError
from .engine import (
    ExperimentEngine,
    Executor,
    ObservabilityOptions,
    ScenarioSpec,
    SweepManifest,
    SweepTelemetry,
    use_engine,
)
from .faults import FAULT_MODEL_NAMES, FaultParameters
from .observability import (
    DECISION_EVENT_NAMES,
    open_trace_output,
    schema_header,
    validate_writable,
)
from .experiments import (
    EXPERIMENT_INDEX,
    FigureResult,
    ProtocolSpec,
    SyntheticExperimentConfig,
    SyntheticRunner,
    TraceExperimentConfig,
    TraceRunner,
    sweep,
    sweep_cells,
)
from .exceptions import ConfigurationError
from .mobility import MOBILITY_MODEL_NAMES
from .mobility.spatial import SPATIAL_MODELS
from .routing.registry import available_protocols
from .workloads import WORKLOAD_MODEL_NAMES

_TRACE_EXHIBITS = {
    "table3", "figure3", "figure4", "figure5", "figure6", "figure7",
    "figure8", "figure9", "figure10", "figure11", "figure12", "figure13",
    "figure14", "figure15",
}


def _add_contact_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--contact-model",
        choices=("instantaneous", "durational", "interruptible"),
        default=None,
        help="contact model for every simulation cell: instantaneous "
        "(paper default: all bytes at one instant), durational (bytes "
        "stream across the contact window) or interruptible (windows may "
        "be cut short; partial transfers are rolled back)",
    )
    parser.add_argument(
        "--contact-resume",
        action="store_true",
        help="with --contact-model interruptible: resume cut transfers on "
        "the next contact of the same pair instead of discarding the "
        "partial bytes",
    )


def _add_mobility_arguments(parser: argparse.ArgumentParser, multi: bool = False) -> None:
    """Add the synthetic-mobility axis flags (``--mobility`` et al.)."""
    if multi:
        parser.add_argument(
            "--mobility",
            default=None,
            metavar="MODELS",
            help="comma-separated mobility models for synthetic cells "
            f"({', '.join(MOBILITY_MODEL_NAMES)}); more than one model "
            "sweeps the mobility axis",
        )
    else:
        parser.add_argument(
            "--mobility",
            choices=MOBILITY_MODEL_NAMES,
            default=None,
            help="mobility model for synthetic cells: an inter-meeting "
            "sampler (powerlaw, exponential) or a position-based spatial "
            "model (waypoint, walk, grid)",
        )
    parser.add_argument(
        "--arena",
        type=float,
        default=None,
        metavar="METRES",
        help="side of the square arena for spatial mobility models",
    )
    parser.add_argument(
        "--radio-range",
        type=float,
        default=None,
        metavar="METRES",
        help="radio range of the spatial contact extraction",
    )


def _add_workload_arguments(parser: argparse.ArgumentParser, multi: bool = False) -> None:
    """Add the traffic-workload axis flags (``--workload`` et al.)."""
    if multi:
        parser.add_argument(
            "--workload",
            default=None,
            metavar="MODELS",
            help="comma-separated traffic workload models "
            f"({', '.join(WORKLOAD_MODEL_NAMES)}); more than one model "
            "sweeps the workload axis",
        )
    else:
        parser.add_argument(
            "--workload",
            choices=WORKLOAD_MODEL_NAMES,
            default=None,
            help="traffic workload model: uniform (paper default, per-pair "
            "Poisson), poisson (aggregate per-source arrivals), bursty "
            "(ON/OFF MMPP), zipf / hotspot (skewed destination popularity) "
            "or diurnal (day/night rate profile)",
        )
    parser.add_argument(
        "--zipf-alpha",
        type=float,
        default=None,
        metavar="ALPHA",
        help="skew exponent of the zipf destination popularity",
    )
    parser.add_argument(
        "--burstiness",
        type=float,
        default=None,
        metavar="RATIO",
        help="peak-to-mean rate ratio of the bursty workload model",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser, multi: bool = False) -> None:
    if multi:
        parser.add_argument(
            "--fault-model",
            default=None,
            metavar="NAMES",
            help="comma-separated fault-injection models "
            f"({', '.join(FAULT_MODEL_NAMES)}); more than one name "
            "sweeps the faults axis",
        )
    else:
        parser.add_argument(
            "--fault-model",
            default=None,
            choices=sorted(FAULT_MODEL_NAMES),
            help="inject deterministic faults from this model into every cell",
        )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="P",
        help="fault probability of the selected --fault-model "
        "(per node for crash/churn, per contact for contact/metadata; "
        "default 0.2)",
    )


def _add_result_mode_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--result-mode",
        choices=RESULT_MODES,
        default=None,
        help="result collection mode for every simulation cell: records "
        "(paper default; per-packet records retained, byte-identical to "
        "prior releases) or streaming (bounded-memory summaries: exact "
        "counters, delay quantile sketch, windowed delivery-rate series; "
        "for long-horizon runs)",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for simulation cells (1 = serial)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a crashed/failed/timed-out cell up to N more times "
        "with deterministic backoff; a cell past the budget is reported "
        "as failed and the sweep continues (selects the failure-"
        "resilient dispatch path)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline of one cell attempt; a worker past it "
        "is killed and the cell retried (selects the failure-resilient "
        "dispatch path)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk result cache (enables caching)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even when --cache-dir is set",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase wall times and call counters in every "
        "freshly executed simulation cell (SimulationResult.timings; "
        "never persisted to the result cache)",
    )
    _add_observability_arguments(parser)
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE",
        help="write the machine-readable sweep-telemetry report (per-cell "
        "wall times, cache hit/miss counters, worker utilization) to FILE "
        "as JSON",
    )


def _add_observability_arguments(
    parser: argparse.ArgumentParser, include_progress: bool = True
) -> None:
    """Add the per-cell observability flags shared with ``quicksim``."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write every simulation cell's lifecycle events (packet "
        "created/replicated/delivered/evicted/expired, contact open/close, "
        "transfer start/interrupt/resume, ack propagation) to FILE as "
        "canonical JSONL; bytes are identical for any --workers count and "
        "any cache state (replay with 'repro-dtn inspect'); a .gz suffix "
        "gzips transparently",
    )
    parser.add_argument(
        "--decisions-out",
        default=None,
        metavar="FILE",
        help="write the protocol decision audit (every replication "
        "ranking with per-candidate scores and every eviction choice "
        "with candidates, scores, victim and reason) to FILE as canonical "
        "JSONL; same determinism and .gz handling as --trace-out",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sample time-series metrics (per-node buffer occupancy, "
        "in-flight replicas, delivery rate, channel utilization, RAPID "
        "utility distribution) every SECONDS of simulated time and attach "
        "them to each result (never persisted to the result cache)",
    )
    if include_progress:
        parser.add_argument(
            "--progress",
            action="store_true",
            help="print a live progress line (completed/total cells) to stderr",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dtn",
        description="Reproduction harness for 'DTN Routing as a Resource Allocation Problem'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible tables and figures")
    subparsers.add_parser("protocols", help="list registered routing protocols")

    run_parser = subparsers.add_parser("run", help="run one exhibit and print its data")
    run_parser.add_argument("exhibit", choices=sorted(EXPERIMENT_INDEX), help="exhibit id, e.g. figure4")
    run_parser.add_argument(
        "--scale",
        choices=("ci", "paper"),
        default="ci",
        help="ci = reduced scale (fast); paper = full Table 4 scale (slow)",
    )
    run_parser.add_argument("--seed", type=int, default=7, help="random seed")
    _add_contact_model_argument(run_parser)
    _add_mobility_arguments(run_parser)
    _add_workload_arguments(run_parser)
    _add_fault_arguments(run_parser)
    _add_result_mode_argument(run_parser)
    _add_engine_arguments(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run an ad-hoc protocol/load grid through the engine"
    )
    sweep_parser.add_argument(
        "--family",
        choices=("trace", "synthetic"),
        default="trace",
        help="experiment family: DieselNet day traces or synthetic mobility",
    )
    sweep_parser.add_argument(
        "--protocols",
        default="rapid,maxprop,spray-and-wait,random",
        help="comma-separated protocol registry names",
    )
    sweep_parser.add_argument(
        "--loads",
        default="2,4,8",
        help="comma-separated loads (packets/hour/destination for trace; "
        "packets/interval/destination for synthetic)",
    )
    sweep_parser.add_argument(
        "--metric",
        default="average_delay",
        help="metric to average per sweep point (see repro.analysis.metrics)",
    )
    sweep_parser.add_argument(
        "--scale",
        choices=("ci", "paper"),
        default="ci",
        help="ci = reduced scale (fast); paper = full Table 4 scale (slow)",
    )
    sweep_parser.add_argument("--seed", type=int, default=7, help="random seed")
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep: validate the sweep manifest in "
        "--cache-dir against this grid, serve completed cells from the "
        "result cache, and execute only the remainder (output is byte-"
        "identical to an uninterrupted run)",
    )
    sweep_parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="render the sweep into one self-contained static HTML report "
        "(metric series, sweep telemetry, and — when --trace-out is also "
        "set — the delivery funnel of the trace); the file embeds every "
        "style and chart inline and references no external assets",
    )
    _add_contact_model_argument(sweep_parser)
    _add_mobility_arguments(sweep_parser, multi=True)
    _add_workload_arguments(sweep_parser, multi=True)
    _add_fault_arguments(sweep_parser, multi=True)
    _add_result_mode_argument(sweep_parser)
    _add_engine_arguments(sweep_parser)

    sim_parser = subparsers.add_parser(
        "quicksim",
        help="run one ad-hoc simulation",
        description="Run one ad-hoc simulation as one synthetic engine cell: "
        "the flags become a synthetic experiment config (one run, no packet "
        "deadline) whose run 0 the engine executes in-process, so the cell "
        "derives its inputs like every engine cell: schedule seed SEED*100, "
        "traffic seed SEED*977 + int(L*101) for L packets per "
        f"{SyntheticExperimentConfig.packet_interval:g} s interval, "
        "fault seed SEED*6361 + the model's offset, simulator seed SEED; "
        "RAPID plans against a horizon of --duration.",
    )
    sim_parser.add_argument("--protocol", default="rapid", help="protocol registry name")
    sim_parser.add_argument("--nodes", type=int, default=10, help="number of nodes")
    sim_parser.add_argument("--duration", type=float, default=600.0, help="duration in seconds")
    sim_parser.add_argument(
        "--mean-meeting",
        type=float,
        default=None,
        help="mean inter-meeting time (s) for the sampler models "
        "(exponential, powerlaw); default 60",
    )
    _add_mobility_arguments(sim_parser)
    _add_workload_arguments(sim_parser)
    _add_contact_model_argument(sim_parser)
    _add_fault_arguments(sim_parser)
    _add_result_mode_argument(sim_parser)
    sim_parser.add_argument("--load", type=float, default=30.0, help="packets per hour per destination")
    sim_parser.add_argument("--buffer-kb", type=float, default=100.0, help="buffer capacity in KB")
    sim_parser.add_argument("--seed", type=int, default=1, help="random seed")
    sim_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-time and call-count breakdown",
    )
    _add_observability_arguments(sim_parser, include_progress=False)

    inspect_parser = subparsers.add_parser(
        "inspect", help="replay a JSONL lifecycle trace written by --trace-out"
    )
    inspect_parser.add_argument(
        "trace", help="path to a trace file written by --trace-out"
    )
    inspect_parser.add_argument(
        "--packet",
        type=int,
        default=None,
        metavar="ID",
        help="print one packet's full chronological timeline",
    )
    inspect_parser.add_argument(
        "--node",
        type=int,
        default=None,
        metavar="ID",
        help="print one node's traffic summary",
    )
    inspect_parser.add_argument(
        "--packets",
        action="store_true",
        help="print the per-packet summary table (created/delivered/delay/"
        "hops/replicas/evictions)",
    )
    inspect_parser.add_argument(
        "--nodes",
        action="store_true",
        help="print the per-node traffic summary (contacts/sent/received/"
        "delivered/evictions/acks)",
    )
    inspect_parser.add_argument(
        "--outages",
        action="store_true",
        help="replay the fault-injected outages: every node down/up window "
        "in chronological order with wiped replicas and per-node downtime",
    )
    inspect_parser.add_argument(
        "--why",
        type=int,
        default=None,
        metavar="ID",
        help="reconstruct one packet's causal chain: replication tree, "
        "the winning delivery path walked back from the destination, and "
        "a per-hop latency decomposition (waiting for a contact vs "
        "queueing vs transfer); undelivered packets get their terminal "
        "state (expired / evicted everywhere / still in flight)",
    )
    inspect_parser.add_argument(
        "--funnel",
        action="store_true",
        help="print the trace-wide delivery funnel: every created packet "
        "classified as delivered, expired, refused, evicted everywhere "
        "or in flight (mutually exclusive, so the counts conserve), with "
        "back-references to the evicting events",
    )
    inspect_parser.add_argument(
        "--decisions",
        default=None,
        metavar="FILE",
        help="decision-audit file written by --decisions-out; --why "
        "cross-references it to show the rankings and eviction choices "
        "that touched the packet",
    )
    inspect_parser.add_argument(
        "--limit",
        type=int,
        default=40,
        metavar="N",
        help="maximum rows of the per-packet table",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="render telemetry, traces and benchmark records into one "
        "self-contained static HTML file",
    )
    report_parser.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="path of the HTML report to write",
    )
    report_parser.add_argument(
        "--title",
        default="repro-dtn report",
        help="report title",
    )
    report_parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="sweep-telemetry JSON written by --telemetry-out",
    )
    report_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="lifecycle trace written by --trace-out (rendered as the "
        "delivery funnel)",
    )
    report_parser.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help="directory holding BENCH_*.json benchmark records "
        "(e.g. benchmarks/results)",
    )

    return parser


@contextlib.contextmanager
def _profile_scope(enabled: bool):
    """Set ``REPRO_PROFILE`` for the duration of one command.

    The environment variable (not a live object) carries the request so
    multiprocessing workers inherit it; every freshly executed cell then
    records its per-phase timings into ``SimulationResult.timings``.
    Scoping the mutation keeps library callers that invoke :func:`main`
    repeatedly from leaking profiling into later, unflagged invocations.
    """
    if not enabled:
        yield
        return
    previous = os.environ.get(ENV_PROFILE)
    os.environ[ENV_PROFILE] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_PROFILE, None)
        else:
            os.environ[ENV_PROFILE] = previous


class _ProgressPrinter:
    """Live ``completed/total cells`` line on one terminal row (stderr)."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._last_len = 0

    def __call__(self, completed: int, total: int, spec) -> None:
        line = f"[progress] {completed}/{total} cells  {spec.label}"
        padding = " " * max(0, self._last_len - len(line))
        self.stream.write("\r" + line + padding)
        self._last_len = len(line)
        if completed >= total:
            self.stream.write("\n")
            self._last_len = 0
        self.stream.flush()


def _engine_from_args(args: argparse.Namespace) -> ExperimentEngine:
    progress = _ProgressPrinter() if getattr(args, "progress", False) else None
    executor = Executor(
        workers=args.workers,
        retries=getattr(args, "retries", 0) or 0,
        cell_timeout=getattr(args, "cell_timeout", None),
    )
    return ExperimentEngine(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=progress,
        executor=executor,
    )


def _observability_from_args(args: argparse.Namespace) -> ObservabilityOptions:
    """The per-cell collection request of this invocation (may be off)."""
    try:
        return ObservabilityOptions(
            trace=getattr(args, "trace_out", None) is not None,
            metrics_interval=getattr(args, "metrics_interval", None),
            decisions=getattr(args, "decisions_out", None) is not None,
        )
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


@contextlib.contextmanager
def _observability_scope(args: argparse.Namespace, engine: ExperimentEngine):
    """Configure the engine's observability for one command.

    Installs the standing trace writer / metrics request / telemetry
    collector on *engine*, streams trace lines to ``--trace-out`` while
    cells run, and writes the ``--telemetry-out`` report (including the
    result cache's hit/miss/corruption-heal counters) when the command
    body finishes.
    """
    observability = _observability_from_args(args)
    trace_out = getattr(args, "trace_out", None)
    decisions_out = getattr(args, "decisions_out", None)
    telemetry_out = getattr(args, "telemetry_out", None)
    # Fail fast on unwritable destinations: a bad --trace-out or
    # --telemetry-out should be reported before the simulation runs, not
    # after hours of it.
    if trace_out is not None:
        validate_writable(trace_out, what="trace output")
    if decisions_out is not None:
        validate_writable(decisions_out, what="decisions output")
    if telemetry_out is not None:
        validate_writable(telemetry_out, what="telemetry output")
    telemetry = (
        SweepTelemetry(workers=engine.workers) if telemetry_out is not None else None
    )
    # The schema header carries provenance the events alone cannot: what
    # result mode the run used (inspect degrades gracefully on streaming
    # runs) and which event vocabulary the file speaks.
    result_mode = getattr(args, "result_mode", None)

    class _LineWriter:
        """Lazy line writer: header + events, plain or gzip by suffix."""

        def __init__(self, path: str, header: dict) -> None:
            self.path = path
            self.header = header
            self.handle = None

        def __call__(self, line: str) -> None:
            if self.handle is None:
                self.handle = open_trace_output(self.path)
                self.handle.write(json.dumps(self.header, sort_keys=True,
                                             separators=(",", ":")))
                self.handle.write("\n")
            self.handle.write(line)
            self.handle.write("\n")

        def close(self, what: str) -> None:
            if self.handle is not None:
                self.handle.close()
                print(f"[{what}] wrote {self.path}", file=sys.stderr)

    trace_writer = (
        _LineWriter(trace_out, schema_header(result_mode=result_mode))
        if trace_out is not None
        else None
    )
    decisions_writer = (
        _LineWriter(
            decisions_out,
            schema_header(
                events=DECISION_EVENT_NAMES,
                kind="decisions",
                result_mode=result_mode,
            ),
        )
        if decisions_out is not None
        else None
    )
    if observability.enabled:
        engine.observability = observability
    if trace_writer is not None:
        engine.trace_writer = trace_writer
    if decisions_writer is not None:
        engine.decisions_writer = decisions_writer
    if telemetry is not None:
        engine.telemetry = telemetry
    try:
        yield
    finally:
        if trace_writer is not None:
            trace_writer.close("trace")
        if decisions_writer is not None:
            decisions_writer.close("decisions")
        if telemetry is not None:
            report = telemetry.report(
                cache_stats=(
                    engine.cache.stats.as_dict() if engine.cache is not None else None
                ),
                engine_stats=engine.stats.as_dict(),
            )
            with open(telemetry_out, "w", encoding="utf-8") as out:
                json.dump(report, out, indent=2, sort_keys=True)
                out.write("\n")
            print(f"[telemetry] wrote {telemetry_out}", file=sys.stderr)


def _config_from_args(family: str, scale: str, seed: int):
    """The experiment configuration of a family at a scale."""
    config_cls = TraceExperimentConfig if family == "trace" else SyntheticExperimentConfig
    return config_cls.paper_scale(seed=seed) if scale == "paper" else config_cls.ci_scale(seed=seed)


def _parse_names(value: Optional[str], known: Sequence[str], noun: str) -> List[str]:
    """Parse and validate a comma-separated list of registered names.

    *noun* names the registry in the error message (``mobility model``,
    ``workload model``, ``fault model``).
    """
    names = [name.strip() for name in (value or "").split(",") if name.strip()]
    for name in names:
        if name not in known:
            raise ConfigurationError(
                f"unknown {noun} {name!r}; expected one of {', '.join(known)}"
            )
    return names


def _fault_params_from_args(args: argparse.Namespace, base: FaultParameters):
    """Apply ``--fault-rate`` to *base* fault parameters.

    The rate only means anything when a fault model is selected, so
    misuse is rejected instead of silently ignored (mirroring the
    workload and spatial knobs).
    """
    from dataclasses import replace

    fault_rate = getattr(args, "fault_rate", None)
    if fault_rate is None:
        return base
    if not _parse_names(getattr(args, "fault_model", None), FAULT_MODEL_NAMES, "fault model"):
        raise ConfigurationError(
            "--fault-rate applies only with --fault-model; select a model "
            f"({', '.join(FAULT_MODEL_NAMES)})"
        )
    try:
        return replace(base, rate=fault_rate)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _workload_params_from_args(args: argparse.Namespace, base):
    """Apply ``--zipf-alpha``/``--burstiness`` to *base* workload params.

    The knobs only mean anything when the matching model is in play, so
    misuse is rejected instead of silently ignored (mirroring the
    spatial geometry flags).
    """
    from dataclasses import replace

    zipf_alpha = getattr(args, "zipf_alpha", None)
    burstiness = getattr(args, "burstiness", None)
    if zipf_alpha is None and burstiness is None:
        return base
    effective = (
        _parse_names(getattr(args, "workload", None), WORKLOAD_MODEL_NAMES, "workload model")
        or [base.model]
    )
    try:
        if zipf_alpha is not None:
            if "zipf" not in effective:
                raise ConfigurationError(
                    "--zipf-alpha applies only to the zipf workload model; "
                    "select it with --workload zipf"
                )
            base = replace(base, zipf_alpha=zipf_alpha)
        if burstiness is not None:
            if "bursty" not in effective:
                raise ConfigurationError(
                    "--burstiness applies only to the bursty workload model; "
                    "select it with --workload bursty"
                )
            base = replace(base, burstiness=burstiness)
    except ValueError as exc:
        # Out-of-range values (burstiness <= 1, negative alpha) are bad
        # user input, not internal failures: report, don't traceback.
        raise ConfigurationError(str(exc)) from exc
    return base


def _resolve_single_config(args: argparse.Namespace, config):
    """:func:`_resolve_config` plus one ``--workload``/``--fault-model``.

    ``run`` and ``quicksim`` apply the single named model to every cell
    (specs resolve the model from the config when no axis is set);
    ``sweep`` reads the same flags as comma-separated axes instead.
    """
    if args.workload:
        config = config.with_workload(config.workload.with_model(args.workload))
    if args.fault_model:
        config = config.with_faults(config.faults.with_model(args.fault_model))
    return _resolve_config(args, config)


def _resolve_config(args: argparse.Namespace, config):
    """Apply the parsed CLI arguments to the base experiment *config*."""
    from dataclasses import replace

    if args.contact_model is not None:
        config = config.with_contact_model(args.contact_model)
    if getattr(args, "contact_resume", False):
        config = replace(config, contact_resume=True)
    workload_params = _workload_params_from_args(args, config.workload)
    if workload_params is not config.workload:
        config = config.with_workload(workload_params)
    fault_params = _fault_params_from_args(args, config.faults)
    if fault_params is not config.faults:
        config = config.with_faults(fault_params)
    result_mode = getattr(args, "result_mode", None)
    if result_mode is not None:
        config = config.with_result_mode(result_mode)
    mobility = getattr(args, "mobility", None)
    arena = getattr(args, "arena", None)
    radio_range = getattr(args, "radio_range", None)
    if isinstance(config, TraceExperimentConfig):
        if mobility or arena is not None or radio_range is not None:
            raise ConfigurationError(
                "--mobility/--arena/--radio-range apply only to synthetic "
                "experiments; trace cells replay the DieselNet day traces"
            )
        return config
    if arena is not None or radio_range is not None:
        # Geometry flags only mean anything when a spatial model is in
        # play; reject the misuse instead of silently ignoring it.
        effective = (
            _parse_names(mobility, MOBILITY_MODEL_NAMES, "mobility model")
            or [config.mobility]
        )
        if not any(name in SPATIAL_MODELS for name in effective):
            raise ConfigurationError(
                "--arena/--radio-range apply only to the spatial mobility "
                f"models ({', '.join(SPATIAL_MODELS)}); select one with "
                "--mobility"
            )
    spatial = config.spatial
    if arena is not None:
        spatial = spatial.with_arena(arena)
    if radio_range is not None:
        spatial = spatial.with_radio_range(radio_range)
    if spatial is not config.spatial:
        config = config.with_spatial(spatial)
    return config


def _print_engine_stats(engine: ExperimentEngine) -> None:
    stats = engine.stats
    failed = f", failed: {stats.cells_failed}" if stats.cells_failed else ""
    print(
        f"[engine] cells: {stats.cells_total} "
        f"(executed: {stats.cells_executed}, cache hits: {stats.cache_hits}"
        f"{failed}) "
        f"workers: {engine.workers} wall: {stats.wall_time_s:.2f}s",
        file=sys.stderr,
    )
    if engine.cache is not None:
        cache = engine.cache.stats
        print(
            f"[cache] hits: {cache.hits} misses: {cache.misses} "
            f"stores: {cache.stores} corrupt healed: {cache.corrupt_entries}",
            file=sys.stderr,
        )


def _command_list() -> int:
    print("Reproducible exhibits:")
    for name in sorted(EXPERIMENT_INDEX):
        print(f"  {name}")
    return 0


def _command_protocols() -> int:
    print("Registered protocols:")
    for name in available_protocols():
        print(f"  {name}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    runner_fn = EXPERIMENT_INDEX[args.exhibit]
    family = "trace" if args.exhibit in _TRACE_EXHIBITS else "synthetic"
    config = _resolve_single_config(args, _config_from_args(family, args.scale, args.seed))
    kwargs = {"config": config}
    if family == "synthetic" and args.mobility:
        # Synthetic exhibits pin the mobility the paper's figure used;
        # pass an explicit runner so --mobility genuinely replaces it
        # instead of being silently forced back.
        kwargs["runner"] = SyntheticRunner(config.with_mobility(args.mobility))
    engine = _engine_from_args(args)
    with _profile_scope(args.profile), engine, use_engine(engine), _observability_scope(
        args, engine
    ):
        result = runner_fn(**kwargs)
    print(result.to_text())
    _print_engine_stats(engine)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from .analysis.metrics import METRICS

    protocol_names = [name.strip() for name in args.protocols.split(",") if name.strip()]
    try:
        loads = [float(value) for value in args.loads.split(",") if value.strip()]
    except ValueError:
        print(f"error: --loads must be comma-separated numbers, got {args.loads!r}", file=sys.stderr)
        return 2
    if not protocol_names or not loads:
        print("error: sweep needs at least one protocol and one load", file=sys.stderr)
        return 2
    if args.metric not in METRICS:
        print(
            f"error: unknown metric {args.metric!r}; available: {', '.join(sorted(METRICS))}",
            file=sys.stderr,
        )
        return 2
    # RAPID routes by one of three utility metrics; when the swept metric
    # is one of them the curves use it (as the paper's figures do), any
    # other measured metric falls back to delay-routed RAPID.
    rapid_metric = args.metric if args.metric in ("average_delay", "max_delay", "deadline") else "average_delay"
    specs = []
    for name in protocol_names:
        options = {"metric": rapid_metric} if name.startswith("rapid") else {}
        specs.append(ProtocolSpec(label=name, registry_name=name, options=options))

    engine = _engine_from_args(args)
    config = _resolve_config(args, _config_from_args(args.family, args.scale, args.seed))
    if args.family == "trace":
        runner = TraceRunner(config, engine=engine)
        x_label = "Packets generated per hour per destination"
    else:
        runner = SyntheticRunner(config, engine=engine)
        x_label = f"Packets per {config.packet_interval:g}s per destination"

    # The mobility, workload and fault axes: each named model becomes one
    # pass of the sweep, implemented as per-cell overrides so the engine
    # caches every (mobility, workload, fault, protocol, load, run) cell
    # independently.
    mobilities = _parse_names(args.mobility, MOBILITY_MODEL_NAMES, "mobility model") or [None]
    workload_models = (
        _parse_names(args.workload, WORKLOAD_MODEL_NAMES, "workload model") or [None]
    )
    fault_models = _parse_names(args.fault_model, FAULT_MODEL_NAMES, "fault model") or [None]
    passes = [
        (mobility, workload, fault)
        for mobility in mobilities
        for workload in workload_models
        for fault in fault_models
    ]

    def pass_kwargs(mobility, workload, fault) -> dict:
        run_kwargs = {}
        if mobility is not None:
            run_kwargs["mobility"] = mobility
        if workload is not None:
            run_kwargs["workload"] = workload
        if fault is not None:
            run_kwargs["faults"] = fault
        return run_kwargs

    # The full cell list is known before anything runs, which is what
    # makes --resume safe: the manifest's sweep key is validated against
    # exactly the cells this invocation would submit.
    pass_cells = [
        sweep_cells(runner, specs, loads, **pass_kwargs(*combo)) for combo in passes
    ]
    all_cells = [cell for cells in pass_cells for cell in cells]

    manifest = None
    if args.resume and args.cache_dir is None:
        raise ConfigurationError(
            "--resume requires --cache-dir (the manifest and the completed "
            "cells' results live there)"
        )
    if args.resume and args.no_cache:
        raise ConfigurationError(
            "--resume needs the result cache; drop --no-cache"
        )
    if args.cache_dir is not None and not args.no_cache:
        sweep_key = SweepManifest.sweep_key_for(all_cells)
        manifest_path = Path(args.cache_dir) / f"sweep-{sweep_key[:16]}.manifest.json"
        if args.resume:
            manifest = SweepManifest.load(manifest_path)
            if not manifest.matches(all_cells):
                raise ConfigurationError(
                    f"sweep manifest {manifest_path} describes a different "
                    "sweep (grid, configuration or schema changed); re-run "
                    "without --resume"
                )
            print(
                f"[resume] {manifest.completed_count}/{len(all_cells)} cells "
                "already completed",
                file=sys.stderr,
            )
        else:
            manifest = SweepManifest.for_cells(manifest_path, all_cells)
        engine.manifest = manifest

    figure = FigureResult(
        figure_id="Sweep",
        title=f"{args.family} sweep: {args.metric}",
        x_label=x_label,
        y_label=args.metric,
    )
    if args.report is not None:
        validate_writable(args.report, what="report output")
        # The HTML report wants per-cell telemetry even when no
        # --telemetry-out file was asked for; a standing collector set
        # before the scope is kept unless the scope installs its own.
        if engine.telemetry is None and args.telemetry_out is None:
            engine.telemetry = SweepTelemetry(workers=engine.workers)
    report_series: dict = {}
    results = []
    failures = []
    try:
        with _profile_scope(args.profile), engine, _observability_scope(args, engine):
            for (mobility, workload, fault), cells in zip(passes, pass_cells):
                series, pass_results = sweep(
                    runner,
                    specs,
                    loads,
                    args.metric,
                    return_results=True,
                    cells=cells,
                    **pass_kwargs(mobility, workload, fault),
                )
                results.extend(pass_results)
                failures.extend(engine.last_failures)
                tags = [
                    tag
                    for tag, swept in (
                        (mobility, len(mobilities) > 1),
                        (workload, len(workload_models) > 1),
                        (fault, len(fault_models) > 1),
                    )
                    if swept
                ]
                suffix = f" [{'/'.join(tags)}]" if tags else ""
                for spec in specs:
                    figure.add_series(spec.label + suffix, loads, series[spec.label])
                    report_series[spec.label + suffix] = (
                        list(loads),
                        list(series[spec.label]),
                    )
    finally:
        # Written even when interrupted: the manifest is exactly what a
        # later --resume needs to pick the sweep back up.
        if manifest is not None:
            manifest.write()
            print(f"[manifest] wrote {manifest.path}", file=sys.stderr)
    print(figure.to_text())
    if any(fault is not None for fault in fault_models):
        print(
            f"[faults] node outages: {sum(r.node_outages for r in results)} "
            f"downtime: {sum(r.node_downtime_s for r in results):.0f}s "
            f"replicas lost: {sum(r.replicas_lost_to_crashes for r in results)} "
            f"contacts missed down: {sum(r.contacts_missed_down for r in results)} "
            f"no-shows: {sum(r.contact_no_shows for r in results)} "
            f"transfers killed: {sum(r.transfers_killed for r in results)} "
            f"control lost: {sum(r.control_exchanges_lost for r in results)}",
            file=sys.stderr,
        )
    if failures:
        print(
            f"[failed] {len(failures)} cells exhausted their retries:",
            file=sys.stderr,
        )
        for failure in failures:
            print(
                f"  {failure.label} (attempts: {failure.attempts}): "
                f"{failure.error}",
                file=sys.stderr,
            )
    if config.contact_model != "instantaneous":
        # Interruption accounting summed over every cell of the sweep, so
        # durational/interruptible runs surface their contact-layer cost.
        print(
            f"[contact] model: {config.contact_model} "
            f"(resume: {'on' if config.contact_resume else 'off'}) "
            f"contacts interrupted: {sum(r.contacts_interrupted for r in results)} "
            f"transfers interrupted: {sum(r.transfers_interrupted for r in results)} "
            f"transfers resumed: {sum(r.transfers_resumed for r in results)} "
            f"partial bytes wasted: {sum(r.partial_bytes_wasted for r in results):.0f}",
            file=sys.stderr,
        )
    _print_engine_stats(engine)
    if args.report is not None:
        from .observability.forensics import delivery_funnel
        from .observability.inspect import load_trace
        from .observability.report import render_report, write_report

        telemetry = engine.telemetry
        funnel = None
        if args.trace_out is not None and Path(args.trace_out).exists():
            funnel = delivery_funnel(load_trace(args.trace_out))
        write_report(
            args.report,
            render_report(
                f"{args.family} sweep: {args.metric}",
                telemetry=(
                    telemetry.report(
                        cache_stats=(
                            engine.cache.stats.as_dict()
                            if engine.cache is not None
                            else None
                        ),
                        engine_stats=engine.stats.as_dict(),
                    )
                    if telemetry is not None
                    else None
                ),
                funnel=funnel,
                series=report_series,
                x_label=x_label,
                y_label=args.metric,
                subtitle=(
                    f"protocols: {', '.join(protocol_names)}; "
                    f"loads: {', '.join(f'{load:g}' for load in loads)}; "
                    f"scale: {args.scale}; seed: {args.seed}"
                ),
            ),
        )
        print(f"[report] wrote {args.report}", file=sys.stderr)
    return 0


def _command_quicksim(args: argparse.Namespace) -> int:
    mobility = args.mobility or "exponential"
    if mobility in SPATIAL_MODELS and args.mean_meeting is not None:
        raise ConfigurationError(
            "--mean-meeting applies only to the sampler models "
            "(exponential, powerlaw); spatial contact rates follow "
            "from --arena/--radio-range geometry"
        )
    config = SyntheticExperimentConfig(
        num_nodes=args.nodes,
        mean_inter_meeting=60.0 if args.mean_meeting is None else args.mean_meeting,
        duration=args.duration,
        buffer_capacity=args.buffer_kb * units.KB,
        deadline=None,
        mobility=mobility,
        num_runs=1,
        seed=args.seed,
    )
    config = _resolve_single_config(args, config)
    spec = ScenarioSpec.for_cell(
        config,
        ProtocolSpec(args.protocol, args.protocol, {}),
        load=args.load * config.packet_interval / units.HOUR,
        run_index=0,
    )
    engine = ExperimentEngine(workers=1, use_cache=False)
    with _profile_scope(args.profile), engine, _observability_scope(args, engine):
        (result,) = engine.run_cells([spec])
    print(f"protocol:          {result.protocol_name}")
    for key, value in result.summary().items():
        print(f"{key:35s} {value:.4f}")
    if args.profile and result.timings:
        print()
        print("profile (per-phase wall time and call counts):")
        for key, value in sorted(result.timings.items()):
            print(f"  {key:32s} {value:.6f}")
    if result.metrics is not None:
        metrics = result.metrics
        print()
        print(
            f"metrics: {len(metrics['times'])} samples at "
            f"{metrics['interval']:g}s intervals, "
            f"{len(metrics['series'])} series, "
            f"{len(metrics['histograms'])} histograms"
        )
        for name, histogram in sorted(metrics["histograms"].items()):
            print(
                f"  {name}: n={histogram['count']} mean={histogram['mean']:.3g}"
            )
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    from .observability.forensics import funnel_text, why_text
    from .observability.inspect import (
        load_trace,
        node_summary,
        outage_timeline,
        packet_table,
        packet_timeline,
        read_trace,
        trace_overview,
    )

    header, events = read_trace(args.trace)
    if args.why is not None:
        decisions = load_trace(args.decisions) if args.decisions else None
        print(why_text(events, args.why, decisions=decisions))
    elif args.funnel:
        print(funnel_text(events))
        if header is not None and header.get("result_mode") == "streaming":
            print(
                "[note] trace comes from a streaming-mode run; lifecycle "
                "events are complete, but per-packet record APIs on the "
                "run itself need result_mode='records'",
                file=sys.stderr,
            )
    elif args.packet is not None:
        print(packet_timeline(events, args.packet))
    elif args.node is not None:
        print(node_summary(events, args.node))
    elif args.packets:
        print(packet_table(events, limit=args.limit))
    elif args.nodes:
        print(node_summary(events))
    elif args.outages:
        print(outage_timeline(events))
    else:
        print(trace_overview(events))
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from .observability.forensics import delivery_funnel
    from .observability.inspect import load_trace
    from .observability.report import (
        load_bench_records,
        render_report,
        write_report,
    )

    validate_writable(args.out, what="report output")
    telemetry = None
    if args.telemetry is not None:
        try:
            with open(args.telemetry, "r", encoding="utf-8") as handle:
                telemetry = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read telemetry file {args.telemetry}: {exc}"
            ) from exc
    funnel = delivery_funnel(load_trace(args.trace)) if args.trace else None
    benches = load_bench_records(args.bench_dir) if args.bench_dir else None
    sources = [
        name
        for name, given in (
            (args.telemetry, args.telemetry),
            (args.trace, args.trace),
            (args.bench_dir, args.bench_dir),
        )
        if given
    ]
    write_report(
        args.out,
        render_report(
            args.title,
            telemetry=telemetry,
            funnel=funnel,
            benches=benches,
            subtitle="sources: " + ", ".join(sources) if sources else None,
        ),
    )
    print(f"[report] wrote {args.out}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "protocols":
            return _command_protocols()
        if args.command == "run":
            return _command_run(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "quicksim":
            return _command_quicksim(args)
        if args.command == "inspect":
            return _command_inspect(args)
        if args.command == "report":
            return _command_report(args)
    except ReproError as exc:
        # Bad user input (unknown protocol, workers < 1, ...) — report
        # the message, not a traceback.  Internal invariant failures are
        # not ReproError and still surface as tracebacks.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C: the executor has already terminated its workers and the
        # context managers flushed telemetry, traces and the manifest on
        # the way out — report and exit with the conventional 130.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into head/less that quit early — not an error.
        # Detach stdout so interpreter shutdown does not re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
