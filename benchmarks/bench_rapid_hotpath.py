"""Benchmark gate: the vectorised RAPID structure-of-arrays hot path.

Runs one buffer-constrained synthetic RAPID cell twice:

1. the fast path — the structure-of-arrays
   :class:`~repro.dtn.packet_store.PacketStore` columns, batched
   ``bytes_ahead`` / candidate-utility / eviction array kernels, cached
   buffer snapshots, the per-destination serve-order index and the
   column-block metadata exchange;
2. the reference path (``REPRO_SLOW_ESTIMATES=1``) — the original
   O(buffer) scans, scalar per-packet estimates, eager full sort and
   per-step eviction rescoring.

Both must produce **byte-identical** ``SimulationResult.to_dict()``
output.  RAPID's two scoring dispatches (``choose_eviction_victim`` and
``_candidate_scores``) each pick the array kernel or the scalar fold by
candidate count, and the fast run must take both arms of both, so the
identity check covers all four.  Its delay estimates must likewise take
both paths: the per-destination shortcut (the destination's queued bytes
plus the packet fit one expected transfer, so the queue position cannot
matter) and the queue-position path.  The fast path must be at least ``8x``
faster on the full
cell (~28k packets against 1.5 MB buffers; ``1.5x`` in ``--quick`` mode,
whose cell is small enough for CI smoke runs).  A second stage re-runs a
small rapid/maxprop/prophet grid through the experiment engine serially,
fanned out over worker processes and against a cold-then-warm result
cache, asserting all three backends emit byte-identical results.
``--scale`` additionally runs a 5 000-node / 500 000-packet synthetic
cell on the fast path only, recording wall time and peak RSS — the
bounded-memory scale probe.  Everything lands in
``benchmarks/results/BENCH_rapid_hotpath.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_rapid_hotpath.py [--quick] [--scale]
    PYTHONPATH=src python -m pytest benchmarks/bench_rapid_hotpath.py -q
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from repro import units
from repro.core.rapid import RapidProtocol
from repro.dtn.buffer import NodeBuffer
from repro.dtn.packet import Packet
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import PoissonWorkload
from repro.engine import ExperimentEngine, ScenarioGrid
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig
from repro.mobility.exponential import ExponentialMobility
from repro.mobility.schedule import Meeting, MeetingSchedule
from repro.profiling import ENV_SLOW_ESTIMATES
from repro.routing.registry import create_factory

from bench_config import emit_bench_json

#: Minimum fast-vs-reference wall-time speedup the gate enforces.  The
#: full cell is deep enough (1.5 MB buffers, ~28k packets) that the
#: reference path's O(buffer) scalar scans dominate; the SoA kernels
#: clear the floor with >2x headroom.
FULL_SPEEDUP_FLOOR = 8.0
QUICK_SPEEDUP_FLOOR = 1.5
#: The hot-path cell must be a real load: at least this many packets.
QUICK_MIN_PACKETS = 2000
#: Quick-cell buffers: shallow enough that storage fills and evicts.
QUICK_BUFFER_KB = 80
#: Quick-cell transfer opportunities: small enough that some destination
#: queues outgrow one expected transfer (the queue-position delay path).
QUICK_TRANSFER_KB = 30
FULL_MIN_PACKETS = 20000

#: RAPID's scoring dispatches; each picks an arm per call in
#: ``RapidProtocol._scalar_replica_delays``.
SCORING_DISPATCHES = ("choose_eviction_victim", "_candidate_scores")

#: The two ways RAPID answers a delay estimate: from the destination's
#: queued bytes alone, or from the packet's queue position ``b``.
DELAY_PATHS = ("per_destination", "queue_position")

#: Protocols whose serial / parallel / cached outputs must agree.
IDENTITY_PROTOCOLS = ("rapid", "maxprop", "prophet")

#: Scale probe dimensions (``--scale``): a sparse 5k-node cell carrying
#: half a million packets, sized to finish in minutes on one core.
SCALE_NODES = 5000
SCALE_PACKETS = 500_000
SCALE_MEETINGS = 60_000
SCALE_DURATION = 3600.0


def _hotpath_inputs(quick: bool):
    """The buffer-constrained synthetic RAPID cell the gate times.

    The quick cell keeps 80 KB buffers (~80 packets deep) against a
    multi-megabyte offered load, so victim choices score sets on both
    sides of the eviction crossover, and 30 KB opportunities, so delay
    estimates take both paths; the full cell raises the pressure
    to 1.5 MB buffers and ~28k packets across 8 nodes, which is where
    the reference path's O(buffer) scans and per-step eviction
    rescoring hurt the most.
    """
    if quick:
        duration = 600.0
        mobility = ExponentialMobility(
            num_nodes=6,
            mean_inter_meeting=100.0,
            transfer_opportunity=QUICK_TRANSFER_KB * units.KB,
            seed=3,
        )
        schedule = mobility.generate(duration)
        workload = PoissonWorkload(packets_per_hour=700.0, seed=4)
        packets = workload.generate(list(range(6)), duration)
        return schedule, packets, QUICK_BUFFER_KB * units.KB
    duration = 1200.0
    mobility = ExponentialMobility(
        num_nodes=8,
        mean_inter_meeting=90.0,
        transfer_opportunity=100 * units.KB,
        seed=3,
    )
    schedule = mobility.generate(duration)
    workload = PoissonWorkload(packets_per_hour=1500.0, seed=4)
    packets = workload.generate(list(range(8)), duration)
    return schedule, packets, 1500 * units.KB


def _run_hotpath_cell(quick: bool, slow: bool) -> Tuple[Dict[str, object], float, int]:
    """Run the cell on one path; return (to_dict payload, wall seconds, #packets)."""
    previous = os.environ.pop(ENV_SLOW_ESTIMATES, None)
    if slow:
        os.environ[ENV_SLOW_ESTIMATES] = "1"
    try:
        schedule, packets, capacity = _hotpath_inputs(quick)
        started = time.perf_counter()
        result = run_simulation(
            schedule,
            packets,
            create_factory("rapid"),
            buffer_capacity=capacity,
            seed=5,
        )
        elapsed = time.perf_counter() - started
        return result.to_dict(), elapsed, len(packets)
    finally:
        os.environ.pop(ENV_SLOW_ESTIMATES, None)
        if previous is not None:
            os.environ[ENV_SLOW_ESTIMATES] = previous


@contextlib.contextmanager
def _count_scoring_arms() -> Iterator[Counter]:
    """Count the calls each arm of each scoring dispatch served.

    Keys are ``(dispatch, "kernel" | "scalar")``, the dispatch being the
    method that asked for the arm.  A lone eviction candidate is taken
    without scoring and counts for neither arm.
    """
    counts: Counter = Counter()
    pick_arm = RapidProtocol._scalar_replica_delays

    def counted(self, candidates, now, kernel_min):
        delays = pick_arm(self, candidates, now, kernel_min)
        dispatch = sys._getframe(1).f_code.co_name
        counts[dispatch, "kernel" if delays is None else "scalar"] += 1
        return delays

    RapidProtocol._scalar_replica_delays = counted
    try:
        yield counts
    finally:
        RapidProtocol._scalar_replica_delays = pick_arm


@contextlib.contextmanager
def _count_delay_paths() -> Iterator[Counter]:
    """Count the delay estimates each path answered.

    Every packet of a ``_direct_delays_for_holder`` call and every
    ``own_delay_estimate`` call is one estimate; the packets of the
    ``bytes_ahead_batch`` calls and the ``bytes_ahead_of`` calls they make
    are the ones that needed a queue position.
    """
    counts: Counter = Counter()
    sizes = {
        (RapidProtocol, "_direct_delays_for_holder"): ("estimates", lambda args: len(args[1])),
        (RapidProtocol, "own_delay_estimate"): ("estimates", lambda args: 1),
        (NodeBuffer, "bytes_ahead_batch"): ("queue_position", lambda args: len(args[0])),
        (NodeBuffer, "bytes_ahead_of"): ("queue_position", lambda args: 1),
    }
    originals = {site: getattr(*site) for site in sizes}

    def counted(method, key, size):
        def wrapper(self, *args):
            counts[key] += size(args)
            return method(self, *args)

        return wrapper

    for site, (key, size) in sizes.items():
        setattr(*site, counted(originals[site], key, size))
    try:
        yield counts
    finally:
        for site, method in originals.items():
            setattr(*site, method)
        counts["per_destination"] = counts.pop("estimates", 0) - counts["queue_position"]


def _canonical(payloads: List[Dict[str, object]]) -> str:
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


def _identity_grid() -> ScenarioGrid:
    config = SyntheticExperimentConfig(
        num_nodes=8,
        mean_inter_meeting=70.0,
        transfer_opportunity=100 * units.KB,
        duration=4 * units.MINUTE,
        buffer_capacity=40 * units.KB,
        deadline=25.0,
        packet_interval=50.0,
        mobility="exponential",
        num_runs=1,
        seed=11,
    )
    protocols = [ProtocolSpec(label=name, registry_name=name) for name in IDENTITY_PROTOCOLS]
    return ScenarioGrid(config=config, protocols=protocols, loads=(6.0,))


def _backend_identity_check(tmp_cache_dir: Path) -> Dict[str, object]:
    """Run the identity grid serial / parallel / cached; assert equal output."""
    grid = _identity_grid()

    with ExperimentEngine(workers=1) as engine:
        serial = _canonical([r.to_dict() for r in engine.run_grid(grid)])
    with ExperimentEngine(workers=2) as engine:
        parallel = _canonical([r.to_dict() for r in engine.run_grid(grid)])
    with ExperimentEngine(workers=1, cache_dir=tmp_cache_dir) as engine:
        cold = _canonical([r.to_dict() for r in engine.run_grid(grid)])
    with ExperimentEngine(workers=1, cache_dir=tmp_cache_dir) as engine:
        warm = _canonical([r.to_dict() for r in engine.run_grid(grid)])
        warm_hits = engine.stats.cache_hits

    assert parallel == serial, "parallel backend output differs from serial"
    assert cold == serial, "cache-filling run output differs from serial"
    assert warm == serial, "warm-cache output differs from serial"
    assert warm_hits == len(grid), "warm cache did not serve every cell"
    return {
        "protocols": list(IDENTITY_PROTOCOLS),
        "cells": len(grid),
        "backends_identical": True,
    }


# ----------------------------------------------------------------------
# Scale probe (--scale): 5k nodes x 500k packets, fast path only
# ----------------------------------------------------------------------
def _scale_inputs() -> Tuple[MeetingSchedule, List[Packet], float]:
    """Build the sparse 5k-node synthetic cell directly.

    The pairwise mobility samplers are O(nodes^2) and unusable at this
    scale, so the schedule is drawn directly: ``SCALE_MEETINGS`` random
    node pairs at uniform times.  Packets are drawn the same way (random
    sources and destinations).  Shallow 30 KB buffers keep every node
    under storage pressure so the probe exercises the eviction kernels,
    not just insertion.
    """
    rng = np.random.default_rng(42)
    times = np.sort(rng.uniform(0.0, SCALE_DURATION, size=SCALE_MEETINGS))
    pairs = rng.integers(0, SCALE_NODES, size=(SCALE_MEETINGS, 2))
    same = pairs[:, 0] == pairs[:, 1]
    pairs[same, 1] = (pairs[same, 0] + 1) % SCALE_NODES
    meetings = [
        Meeting(
            time=float(times[i]),
            node_a=int(pairs[i, 0]),
            node_b=int(pairs[i, 1]),
            capacity=40 * units.KB,
        )
        for i in range(SCALE_MEETINGS)
    ]
    schedule = MeetingSchedule(
        meetings, nodes=range(SCALE_NODES), duration=SCALE_DURATION
    )

    creation = np.sort(rng.uniform(0.0, SCALE_DURATION * 0.8, size=SCALE_PACKETS))
    endpoints = rng.integers(0, SCALE_NODES, size=(SCALE_PACKETS, 2))
    same = endpoints[:, 0] == endpoints[:, 1]
    endpoints[same, 1] = (endpoints[same, 0] + 1) % SCALE_NODES
    packets = [
        Packet(
            packet_id=i,
            source=int(endpoints[i, 0]),
            destination=int(endpoints[i, 1]),
            size=units.KB,
            creation_time=float(creation[i]),
        )
        for i in range(SCALE_PACKETS)
    ]
    return schedule, packets, 30 * units.KB


def run_scale_probe() -> Dict[str, object]:
    """Run the 5k-node / 500k-packet cell once on the fast path.

    The probe asserts completion (bounded memory, minutes of wall time)
    rather than a speedup: the reference path would take hours here.
    The in-band control channel is disabled — at 5 000 nodes the
    metadata flood is the workload, and the probe targets the packet
    kernels.
    """
    schedule, packets, capacity = _scale_inputs()
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    result = run_simulation(
        schedule,
        packets,
        create_factory("rapid", control_channel="none"),
        buffer_capacity=capacity,
        seed=7,
    )
    elapsed = time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "nodes": SCALE_NODES,
        "packets": SCALE_PACKETS,
        "meetings": SCALE_MEETINGS,
        "wall_time_s": round(elapsed, 3),
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "rss_before_mb": round(rss_before_kb / 1024.0, 1),
        "delivered": result.deliveries,
        "delivery_rate": round(result.delivery_rate(), 6),
    }


def run_gate(
    quick: bool, cache_dir: Optional[Path] = None, scale: bool = False
) -> Dict[str, object]:
    """Run the full gate; return the BENCH payload (raises on regression)."""
    with _count_scoring_arms() as arms, _count_delay_paths() as paths:
        fast_payload, fast_s, num_packets = _run_hotpath_cell(quick, slow=False)
    slow_payload, slow_s, _ = _run_hotpath_cell(quick, slow=True)

    min_packets = QUICK_MIN_PACKETS if quick else FULL_MIN_PACKETS
    assert num_packets >= min_packets, (
        f"hot-path cell too small: {num_packets} packets < {min_packets}"
    )
    assert _canonical([fast_payload]) == _canonical([slow_payload]), (
        "fast path output differs from the REPRO_SLOW_ESTIMATES reference"
    )
    scoring_arms = {
        name: {arm: arms[name, arm] for arm in ("kernel", "scalar")}
        for name in SCORING_DISPATCHES
    }
    missing = [
        f"{name}/{arm}"
        for name, taken in scoring_arms.items()
        for arm, calls in taken.items()
        if not calls
    ]
    assert not missing, f"the fast run never took these scoring arms: {missing}"
    delay_paths = {name: paths[name] for name in DELAY_PATHS}
    missing = [name for name, estimates in delay_paths.items() if not estimates]
    assert not missing, f"the fast run never took these delay paths: {missing}"
    speedup = slow_s / fast_s if fast_s > 0 else float("inf")

    if cache_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-hotpath-") as tmp:
            identity = _backend_identity_check(Path(tmp) / "cache")
    else:
        identity = _backend_identity_check(cache_dir)

    floor = QUICK_SPEEDUP_FLOOR if quick else FULL_SPEEDUP_FLOOR
    payload = {
        "mode": "quick" if quick else "full",
        "packets": num_packets,
        "buffer_kb": QUICK_BUFFER_KB if quick else 1500,
        "fast_wall_time_s": round(fast_s, 6),
        "reference_wall_time_s": round(slow_s, 6),
        "speedup": round(speedup, 3),
        "speedup_floor": floor,
        "bit_identical_to_reference": True,
        "scoring_arms": scoring_arms,
        "delay_paths": delay_paths,
        "identity_check": identity,
    }
    if scale:
        payload["scale_probe"] = run_scale_probe()
    emit_bench_json("rapid_hotpath", payload)
    assert speedup >= floor, (
        f"hot-path regression: fast path only {speedup:.2f}x faster than the "
        f"reference (floor {floor}x); fast={fast_s:.2f}s reference={slow_s:.2f}s"
    )
    return payload


def test_rapid_hotpath_gate(tmp_path):
    """Pytest entry point (quick mode keeps bench suites fast)."""
    payload = run_gate(quick=True, cache_dir=tmp_path / "cache")
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller cell and a 1.5x floor (CI smoke); default is the "
        f"full >= {FULL_MIN_PACKETS // 1000}k-packet cell with the "
        f"{FULL_SPEEDUP_FLOOR:g}x floor",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help=f"additionally run the {SCALE_NODES}-node / "
        f"{SCALE_PACKETS // 1000}k-packet scale probe (fast path only)",
    )
    args = parser.parse_args(argv)
    payload = run_gate(quick=args.quick, scale=args.scale)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
