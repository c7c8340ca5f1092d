"""Repository benchmark: three workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace-exhibits --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the workload with nothing attached and reports
the end-to-end metrics; ``--trace 1`` makes one near-untraced and one
traced repetition and reports the per-layer metrics.  Every cell's
output is checked against the reference digests of ``reference.json``
(when the seed was recorded) and against the other repetitions of the
run.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when every cell matched and every check held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"

#: Fresh set-up processes timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: A run must finish well inside three minutes, whatever happens.
RUN_DEADLINE_S = 165.0


class RunTimeout(Exception):
    """The run's deadline passed while a workload body was executing."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: time one set-up in this fresh process and exit",
    )
    return parser.parse_args(argv)


def _host() -> Dict[str, object]:
    """Fingerprint of the machine and interpreter the numbers come from."""
    import multiprocessing

    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _probe_setup(args: argparse.Namespace, work: Path) -> int:
    """Child side of a set-up probe: import, build, report the instant."""
    from perfbench import workloads

    prepared = workloads.prepare(args.workload, args.seed, work)
    ready = time.monotonic()
    prepared.engine.close()
    print(json.dumps({"ready": ready}))
    return 0


def _time_setups(args: argparse.Namespace, work: Path) -> List[float]:
    """Seconds from process start to the first engine call, per probe."""
    samples = []
    for index in range(SETUP_PROBES):
        probe_dir = work / f"probe-{index}"
        command = [
            sys.executable,
            str(PERFBENCH / "run.py"),
            "--probe-setup",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
        ]
        env = dict(os.environ, PERFBENCH_WORK=str(probe_dir))
        started = time.monotonic()
        done = subprocess.run(
            command, cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - started)
    return samples


class Runner:
    """Executes repetitions of one workload and checks every output."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        from perfbench import digest, workloads

        self.args = args
        self.work = work
        self.workloads = workloads
        self.digest = digest
        self.recorded = digest.load_reference()
        self.reference = digest.reference_for(self.recorded, args.workload, args.seed)
        self.first: Optional[Dict[str, object]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def recorded_counts(self) -> Dict[str, int]:
        """Exact counts recorded at the default seed (empty at other seeds)."""
        if self.args.seed != self.workloads.DEFAULT_SEEDS[self.args.workload]:
            return {}
        entry = self.recorded.get("workloads", {}).get(self.args.workload, {})
        return dict(entry.get("counts_at_default_seed", {}))

    def prepare(self, rep: int):
        scratch = self.work / f"rep-{rep}"
        return self.workloads.prepare(self.args.workload, self.args.seed, scratch)

    def body(self, prepared):
        """Run the body; returns ``(outcome, wall seconds)``."""
        gc.collect()
        started = time.perf_counter()
        outcome = self.workloads.run(prepared)
        return outcome, time.perf_counter() - started

    def check(self, outcome, counts: Dict[str, int]) -> None:
        """Count cells whose output differs from the reference or run 1."""
        observed = self.digest.outcome_digests(outcome)
        observed["counts"] = counts
        self.attempted += len(observed["cells"])
        bad = set(self.digest.repeated_cell_mismatches(outcome, observed))
        if bad:
            self.problems.append(f"{len(bad)} cache hits differ from the cells that filled the cache")
        for expected, source in ((self.reference, "reference"), (self.first, "repetition 1")):
            if expected is None:
                continue
            cells = self.digest.mismatched_cells(observed, expected)
            series = self.digest.mismatched_series(observed, expected)
            if cells or series:
                self.problems.append(
                    f"{len(cells)} cells and series {series} differ from {source}"
                )
                bad.update(cells if cells else range(len(observed["cells"])))
        if self.first is None:
            self.first = observed
        else:
            for name, value in counts.items():
                if self.first["counts"].get(name) != value:
                    self.problems.append(
                        f"count {name} was {self.first['counts'].get(name)}, now {value}"
                    )
        self.failed += len(bad)

    def abort(self, expected_cells: int, reason: str) -> None:
        """A body raised or timed out: all its cells count as failed."""
        self.attempted += expected_cells
        self.failed += expected_cells
        self.problems.append(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _outcome_counts(outcome) -> Dict[str, int]:
    """Exact counts known without tracing, for the repetition check."""
    return {
        "engine.cells_executed": outcome.cells_executed,
        "engine.cache.hits": outcome.cache_hits,
        "dtn.packets_created": outcome.packets_created,
    }


def _timed(runner: Runner, args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    """End-to-end metrics: untraced repetitions until ``--seconds`` is used.

    Times are reported at the reference host speed (see
    :mod:`perfbench.calibration`); the raw seconds are printed beside them.
    """
    from perfbench.calibration import at_reference_speed, calibrate
    from perfbench.spans import median

    before = calibrate()
    setups = _time_setups(args, runner.work / "setup")
    after = calibrate()
    setup_ref = at_reference_speed(median(setups), before, after)
    walls: List[float] = []
    walls_ref: List[float] = []
    rates: List[float] = []
    rep = 0
    while True:
        rep += 1
        prepared = runner.prepare(rep)
        before = calibrate()
        outcome, wall = runner.body(prepared)
        after = calibrate()
        runner.check(outcome, _outcome_counts(outcome))
        walls.append(wall)
        walls_ref.append(at_reference_speed(wall, before, after))
        rates.append(outcome.packets_created / walls_ref[-1])
        # Free this repetition's results before the next one runs, so the
        # peak resident set does not grow with the repetition count.
        del prepared, outcome
        shutil.rmtree(runner.work / f"rep-{rep}", ignore_errors=True)
        if sum(walls) + median(walls) > args.seconds:
            break
    print(
        f"# {args.workload}: {len(walls)} repetitions; raw walls "
        + " ".join(f"{w:.3f}" for w in walls)
        + "; at reference speed "
        + " ".join(f"{w:.3f}" for w in walls_ref)
        + f"; raw set-ups {' '.join(f'{s:.3f}' for s in setups)}",
        file=sys.stderr,
    )
    print(f"raw_wall_s {median(walls)} s")
    print(f"raw_setup_s {median(setups)} s")
    return {
        "wall_s": {"value": median(walls_ref), "unit": "s"},
        "packets_per_s": {"value": median(rates), "unit": "1/s"},
        "setup_s": {"value": setup_ref, "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def _traced(runner: Runner, args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics: one near-untraced and one traced repetition."""
    from perfbench import layers
    from perfbench.spans import Patcher, Recorder, load_trace_dir, self_times
    from repro.engine import SweepTelemetry

    results = {}
    for rep, full in ((1, False), (2, True)):
        trace_dir = runner.work / f"spans-{rep}"
        trace_dir.mkdir(parents=True)
        prepared = runner.prepare(rep)
        telemetry = None
        if full and prepared.engine.workers > 1:
            telemetry = SweepTelemetry(workers=prepared.engine.workers)
            prepared.engine.telemetry = telemetry
        recorder = Recorder(trace_dir)
        patcher = Patcher()
        previous_profile = os.environ.get("REPRO_PROFILE")
        if full:
            os.environ["REPRO_PROFILE"] = "1"
        layers.activate(recorder)
        layers.install(recorder, patcher, full=full)
        try:
            outcome, wall = runner.body(prepared)
        finally:
            patcher.restore()
            layers.activate(None)
            if previous_profile is None:
                os.environ.pop("REPRO_PROFILE", None)
            else:
                os.environ["REPRO_PROFILE"] = previous_profile
        recorder.flush()
        spans, counts, gauges = load_trace_dir(trace_dir)
        shared = _outcome_counts(outcome)
        shared["dtn.run_simulation_calls"] = counts.get("dtn.run_simulation_calls", 0)
        runner.check(outcome, shared)
        results[rep] = (outcome, wall, spans, counts, gauges, telemetry, prepared.engine.workers)

    probe_wall, probe_gauges = results[1][1], results[1][4]
    outcome, wall, spans, counts, gauges, telemetry, workers = results[2]
    walls, utilization = layers.cell_walls(telemetry, spans, workers, wall)
    if counts.get("engine.cache.hits", 0) != outcome.cache_hits:
        runner.problems.append(
            f"traced cache hits {counts.get('engine.cache.hits', 0)} "
            f"!= engine's {outcome.cache_hits}"
        )
    _check_predictions(runner, args.workload, spans, counts)
    values = layers.layer_metrics(
        self_s=self_times(spans),
        counts=counts,
        gauges=probe_gauges,
        executed=list(outcome.executed.values()),
        packets_created=outcome.packets_created,
        cells_executed=outcome.cells_executed,
        cell_walls=walls,
        utilization=utilization,
        overhead_s=wall - probe_wall,
    )
    print(
        f"# {args.workload}: traced wall {wall:.3f} s, untraced {probe_wall:.3f} s, "
        f"{len(spans)} spans",
        file=sys.stderr,
    )
    recorded = runner.recorded_counts()
    if recorded:
        exact = [
            name
            for name in layers.EXACT_COUNTS
            if workers == 1 or name not in layers.POOL_DEPENDENT_COUNTS
        ]
        moved = {
            name: (recorded[name], values[name])
            for name in exact
            if name in recorded and recorded[name] != values[name]
        }
        # Informational: a change may move a count on purpose and claim it.
        print(f"# counts that differ from the recorded baseline: {moved or 'none'}", file=sys.stderr)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in layers.PER_LAYER_UNITS.items()
    }


def _check_predictions(runner: Runner, workload: str, spans, counts) -> None:
    """Fail a workload that drifted off the layer it exists to load."""
    from perfbench import workloads

    make_room = counts.get("routing.make_room_calls", 0)
    if workload == workloads.TRACE_EXHIBITS and make_room != 0:
        runner.problems.append(f"trace-exhibits made {make_room} make_room calls, expected 0")
    if workload == workloads.STORAGE_PRESSURE and make_room == 0:
        runner.problems.append("storage-pressure made no make_room calls")
    if workload == workloads.LONGHAUL_STREAMING:
        core = sorted({span[1] for _, span in spans if span[1].startswith("core.")})
        if core:
            runner.problems.append(f"longhaul-streaming entered core layers: {core}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEEDS[args.workload]
    if args.probe_setup:
        return _probe_setup(args, Path(os.environ["PERFBENCH_WORK"]))

    started = time.monotonic()
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, work)

    def _deadline(signum, frame):
        raise RunTimeout(f"run exceeded {RUN_DEADLINE_S:.0f} s")

    previous_handler = signal.signal(signal.SIGALRM, _deadline)
    signal.setitimer(signal.ITIMER_REAL, RUN_DEADLINE_S - (time.monotonic() - started))
    metrics: Dict[str, Dict[str, object]] = {}
    try:
        metrics = _traced(runner, args) if args.trace else _timed(runner, args)
    except RunTimeout as error:
        runner.abort(workloads.EXPECTED_CELLS[args.workload], str(error))
    except Exception as error:  # report any failure as a failed run
        import traceback

        traceback.print_exc()
        runner.abort(workloads.EXPECTED_CELLS[args.workload], f"{type(error).__name__}: {error}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass

    host = _host()
    seeds = {
        "seed": args.seed,
        "load_scale": workloads.load_scale(args.workload, args.seed),
        "config_seed": workloads.DEFAULT_SEEDS[args.workload],
        "held_out_seeds": list(workloads.HELD_OUT_SEEDS),
        "reference": runner.reference is not None,
    }
    print(json.dumps({"workload": args.workload, "host": host, **seeds}))
    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"failed_cells {runner.failed} count (of {runner.attempted} cells)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": runner.correct,
                "attempted": max(1, runner.attempted),
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
