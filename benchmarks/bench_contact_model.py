"""Benchmark gate: the durational contact layer must not tax the hot path.

Every contact model runs one contact pipeline in the simulator: an
instantaneous meeting is a window-less session, opened, pumped and
closed at one instant.  This gate runs the buffer-constrained RAPID cell
of ``bench_rapid_hotpath`` twice on that same pipeline —

1. the **default** spelling (no options at all), and
2. the **explicit** ``contact_model="instantaneous"`` spelling,

asserts the two outputs are byte-identical and the explicit spelling is
at most 10% slower, then records the cost of the ``durational`` and
``interruptible`` models on a DieselNet-style day with real contact
windows.  Everything lands in
``benchmarks/results/BENCH_contact_model.json``.

The two spellings are timed in interleaved pairs, each pair in
alternating order, and the gate compares their median wall times: a
burst of load on a shared host then slows both spellings of a pair
alike instead of one spelling's whole best-of-N block.

Usage::

    PYTHONPATH=src python benchmarks/bench_contact_model.py [--quick]
    PYTHONPATH=src python -m pytest benchmarks/bench_contact_model.py -q
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from repro import units
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import PoissonWorkload
from repro.mobility.exponential import ExponentialMobility
from repro.routing.registry import create_factory
from repro.traces.dieselnet import DieselNetParameters, DieselNetTraceGenerator

from bench_config import emit_bench_json

#: Maximum overhead the explicit instantaneous mode may add over the
#: default hot path (1.10 = ten percent), plus an absolute floor so a
#: sub-100ms cell cannot flap the gate on scheduler noise.
OVERHEAD_CEILING = 1.10
ABSOLUTE_SLACK_S = 0.05
#: Wall times of the durational probe are the best of this many runs.
REPEATS = 3
#: Interleaved (default, explicit) pairs behind the gated medians.
PAIRS = 5


def _hotpath_inputs(quick: bool):
    """The PR-2 buffer-constrained synthetic RAPID cell (see bench_rapid_hotpath)."""
    duration = 400.0 if quick else 1200.0
    mobility = ExponentialMobility(
        num_nodes=6,
        mean_inter_meeting=100.0,
        transfer_opportunity=60 * units.KB,
        seed=3,
    )
    schedule = mobility.generate(duration)
    workload = PoissonWorkload(packets_per_hour=700.0, seed=4)
    packets = workload.generate(list(range(6)), duration)
    return schedule, packets, 600 * units.KB


def _durational_inputs(quick: bool):
    """A DieselNet-style day with real contact windows (durational cost probe)."""
    parameters = DieselNetParameters(
        num_buses=10,
        avg_buses_per_day=8,
        day_duration=(1.0 if quick else 3.0) * units.HOUR,
        avg_meetings_per_day=60 if quick else 160,
        avg_bytes_per_day=(60 if quick else 160) * 60 * units.KB,
        num_routes=3,
    )
    day = DieselNetTraceGenerator(parameters, seed=3).generate_day(0)
    workload = PoissonWorkload(packets_per_hour=30.0, seed=4)
    packets = workload.generate(day.buses_on_road, day.schedule.duration)
    return day.schedule, packets


def _run_cell(
    schedule, packets, capacity: float, options: Optional[Dict[str, object]]
) -> Tuple[Dict[str, object], float]:
    """Run the cell once; return (payload, wall seconds)."""
    started = time.perf_counter()
    result = run_simulation(
        schedule,
        packets,
        create_factory("rapid"),
        buffer_capacity=capacity,
        seed=5,
        options=dict(options) if options is not None else None,
    )
    elapsed = time.perf_counter() - started
    return result.to_dict(), elapsed


def _time_cell(
    schedule, packets, capacity: float, options: Optional[Dict[str, object]]
) -> Tuple[Dict[str, object], float]:
    """Run the cell REPEATS times; return (payload, best wall seconds)."""
    runs = [_run_cell(schedule, packets, capacity, options) for _ in range(REPEATS)]
    return runs[-1][0], min(elapsed for _, elapsed in runs)


def _time_pairs(
    schedule, packets, capacity: float, options: Dict[str, object]
) -> Tuple[Dict[str, object], float, Dict[str, object], float]:
    """Time the default and *options* spellings in PAIRS interleaved pairs.

    The first of each pair alternates, so neither spelling always runs
    on the warmer or the colder half.  Returns ``(default payload, median
    default seconds, explicit payload, median explicit seconds)``.
    """
    default_times = []
    explicit_times = []
    for pair in range(PAIRS):
        spellings = [(None, default_times), (options, explicit_times)]
        if pair % 2:
            spellings.reverse()
        for spelling, times in spellings:
            payload, elapsed = _run_cell(schedule, packets, capacity, spelling)
            times.append(elapsed)
            if spelling is None:
                default_payload = payload
            else:
                explicit_payload = payload
    return (
        default_payload,
        statistics.median(default_times),
        explicit_payload,
        statistics.median(explicit_times),
    )


def _canonical(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_gate(quick: bool) -> Dict[str, object]:
    """Run the full gate; return the BENCH payload (raises on regression)."""
    schedule, packets, capacity = _hotpath_inputs(quick)

    default_payload, default_s, explicit_payload, explicit_s = _time_pairs(
        schedule, packets, capacity, {"contact_model": "instantaneous"}
    )

    assert _canonical(default_payload) == _canonical(explicit_payload), (
        "explicit contact_model='instantaneous' output differs from the default path"
    )
    overhead = explicit_s / default_s if default_s > 0 else float("inf")

    # Cost of the durational modes on real contact windows (recorded, not
    # gated — these modes do strictly more work by design).
    day_schedule, day_packets = _durational_inputs(quick)
    _, inst_day_s = _time_cell(day_schedule, day_packets, 2 * units.MB, None)
    durational_result, durational_s = _time_cell(
        day_schedule, day_packets, 2 * units.MB, {"contact_model": "durational"}
    )
    interruptible_result, interruptible_s = _time_cell(
        day_schedule,
        day_packets,
        2 * units.MB,
        {"contact_model": "interruptible", "contact_resume": True},
    )
    contact_block = interruptible_result.get("contact", {})

    payload = {
        "mode": "quick" if quick else "full",
        "packets": len(packets),
        "overhead_ceiling": OVERHEAD_CEILING,
        "default_wall_time_s": round(default_s, 6),
        "instantaneous_wall_time_s": round(explicit_s, 6),
        "instantaneous_overhead": round(overhead, 4),
        "bit_identical_to_default": True,
        "durational_probe": {
            "meetings": int(durational_result["meetings_processed"]),
            "packets": len(day_packets),
            "instantaneous_wall_time_s": round(inst_day_s, 6),
            "durational_wall_time_s": round(durational_s, 6),
            "interruptible_wall_time_s": round(interruptible_s, 6),
            "contacts_interrupted": int(contact_block.get("contacts_interrupted", 0)),
            "transfers_interrupted": int(contact_block.get("transfers_interrupted", 0)),
            "transfers_resumed": int(contact_block.get("transfers_resumed", 0)),
        },
    }
    emit_bench_json("contact_model", payload)
    assert explicit_s <= default_s * OVERHEAD_CEILING + ABSOLUTE_SLACK_S, (
        f"contact-layer regression: explicit instantaneous mode is "
        f"{overhead:.2f}x the default hot path (ceiling {OVERHEAD_CEILING}x); "
        f"default={default_s:.3f}s explicit={explicit_s:.3f}s"
    )
    return payload


def test_contact_model_gate():
    """Pytest entry point (quick mode keeps bench suites fast)."""
    payload = run_gate(quick=True)
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller cells for CI smoke runs; default is the full "
        "bench_rapid_hotpath-sized cell",
    )
    args = parser.parse_args(argv)
    payload = run_gate(quick=args.quick)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
