#!/usr/bin/env python
"""A/B the simulation cells of a perfbench workload between two checkouts.

Replays every cell a perfbench workload executes through each checkout's
``engine.worker.run_cell``, both in this one process, and reports how
their CPU times compare.  Timing both sides in one process, cell by cell
and in shuffled order, cancels most of the host noise that separate
benchmark runs suffer on a shared machine: a slow stretch of the host
hits both sides of a pair alike.

The package uses relative imports only, so each checkout's ``src/repro``
is imported under its own package name (``repro_a``, ``repro_b``) and the
two copies live side by side.  The cell list comes from one run of the
workload body with side A's ``perfbench``, in a child process.  A first,
untimed round warms each side's input caches (day traces, workloads);
then every round runs each cell once per side, the side order drawn
afresh per cell.

Usage::

    python scripts/compare_cells.py REV_A REV_B --workload trace-exhibits --rounds 2

``REV_A`` / ``REV_B`` are checkout directories or git revisions of this
repository (a revision is exported with ``git archive``).  The output
ends with the CPU-time ratio B/A, the number of cell pairs B won, and
whether every result of B matched A's (``to_dict()`` without
``timings``); the same ratio and wins follow per protocol (and RAPID
metric).  The exit status is 1 when any result differed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Lists the distinct cells one workload body executes, as spec dicts.
_LIST_CELLS = """
import json, sys, tempfile
from pathlib import Path
from perfbench import workloads
name = sys.argv[1]
with tempfile.TemporaryDirectory() as scratch:
    prepared = workloads.prepare(name, workloads.DEFAULT_SEEDS[name], Path(scratch))
    outcome = workloads.run(prepared)
cells = {}
for spec, _ in outcome.cells:
    cells.setdefault(spec.cache_key(), spec.to_dict())
print(json.dumps(list(cells.values())))
"""


def checkout(rev: str, scratch: Path) -> Path:
    """The checkout directory *rev* names, exporting a git revision if needed."""
    path = Path(rev)
    if (path / "src" / "repro").is_dir():
        return path.resolve()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    target = scratch / rev.replace("/", "_")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)
    return target


def load_package(root: Path, name: str):
    """Import ``root/src/repro`` as package *name*; return its cell runner."""
    package = root / "src" / "repro"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.engine.worker")


def list_cells(root: Path, workload: str) -> List[Dict[str, object]]:
    """The distinct cells *workload* executes, from *root*'s perfbench."""
    listed = subprocess.run(
        [sys.executable, "-c", _LIST_CELLS, workload],
        cwd=root,
        env={**os.environ, "PYTHONPATH": f"{root / 'src'}:{root}"},
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(listed.stdout.strip().splitlines()[-1])


def _canonical(result) -> str:
    payload = result.to_dict()
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)


def _timed(worker, cell: Dict[str, object]) -> Tuple[float, str]:
    spec = worker.ScenarioSpec.from_dict(cell)
    gc.collect()
    start = time.process_time()
    result = worker.run_cell(spec)
    elapsed = time.process_time() - start
    return elapsed, _canonical(result)


def compare(
    workers: Sequence[object],
    cells: Sequence[Dict[str, object]],
    rounds: int,
    seed: int = 0,
) -> Dict[str, object]:
    """Time every cell on both sides for *rounds* rounds after a warm-up.

    Returns the total CPU seconds per side, the timed cell pairs, how
    many of them side B won, and whether every result matched side A's
    warm-up result for the same cell; ``by_protocol`` splits the CPU
    seconds, pairs and wins by :func:`protocol_of` the cell.
    """
    order = random.Random(seed)
    expected = []
    match = True
    for cell in cells:
        outputs = [_timed(worker, cell)[1] for worker in workers]
        expected.append(outputs[0])
        match &= outputs[1] == outputs[0]
    totals = [0.0, 0.0]
    wins = 0
    by_protocol: Dict[str, Dict[str, object]] = {}
    for _ in range(rounds):
        for cell, reference in zip(cells, expected):
            sides = [0, 1]
            order.shuffle(sides)
            cpu = [0.0, 0.0]
            for side in sides:
                cpu[side], output = _timed(workers[side], cell)
                match &= output == reference
            totals[0] += cpu[0]
            totals[1] += cpu[1]
            wins += cpu[1] < cpu[0]
            group = by_protocol.setdefault(
                protocol_of(cell), {"cpu": [0.0, 0.0], "pairs": 0, "b_wins": 0}
            )
            group["cpu"] = [group["cpu"][0] + cpu[0], group["cpu"][1] + cpu[1]]
            group["pairs"] += 1
            group["b_wins"] += cpu[1] < cpu[0]
    return {
        "cpu": totals,
        "pairs": rounds * len(cells),
        "b_wins": wins,
        "match": match,
        "by_protocol": by_protocol,
    }


def protocol_of(cell: Dict[str, object]) -> str:
    """The cell's protocol label, with its routing metric when it names one."""
    protocol = cell["protocol"]
    metric = protocol.get("options", {}).get("metric")
    return protocol["label"] if metric is None else f"{protocol['label']} ({metric})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        roots = [checkout(rev, Path(scratch)) for rev in (args.rev_a, args.rev_b)]
        cells = list_cells(roots[0], args.workload)
        workers = [load_package(root, f"repro_{side}") for root, side in zip(roots, "ab")]
        print(f"{args.workload}: {len(cells)} cells, {args.rounds} timed rounds")
        report = compare(workers, cells, args.rounds)
    cpu_a, cpu_b = report["cpu"]
    print(f"cpu A {cpu_a:.2f} s, B {cpu_b:.2f} s, ratio B/A {cpu_b / cpu_a:.3f}")
    print(f"B faster in {report['b_wins']}/{report['pairs']} cell pairs")
    for name, group in sorted(report["by_protocol"].items()):
        group_a, group_b = group["cpu"]
        print(
            f"  {name}: ratio {group_b / group_a:.3f}, "
            f"B faster in {group['b_wins']}/{group['pairs']}"
        )
    print(f"results match: {str(report['match']).lower()}")
    return 0 if report["match"] else 1


if __name__ == "__main__":
    sys.exit(main())
