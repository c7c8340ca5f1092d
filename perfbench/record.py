"""Record the reference digests and exact counts the benchmark checks.

Run once, from the repository root, on the commit whose outputs are the
reference (outputs must never change afterwards, so later commits are
checked against it)::

    python3 perfbench/record.py --seeds 0-20 --commit <sha>

For every workload and seed — those given, the default seed and the
held-out seeds — this runs the workload body once, untraced, and stores
its per-cell and per-series digests.  For each workload's
default seed it also runs one traced benchmark run and stores the exact
per-layer counts, so a later change can claim a count against them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent


def _seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def _traced_counts(workload: str, seed: int) -> Dict[str, int]:
    from perfbench.layers import EXACT_COUNTS

    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: int(metrics[name]["value"]) for name in EXACT_COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="", help="e.g. 0-20,99")
    parser.add_argument("--workloads", default="", help="comma list (default: all)")
    parser.add_argument("--commit", default="", help="commit the outputs come from")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import digest, workloads

    reference = digest.load_reference()
    reference["format"] = 1
    if args.commit:
        reference["recorded_from"] = args.commit
    names = [n for n in args.workloads.split(",") if n] or list(workloads.WORKLOADS)
    work = ROOT / ".perfbench-work" / f"record-{os.getpid()}"
    for name in names:
        entry = reference["workloads"].setdefault(name, {"seeds": {}})
        seeds = set(_seed_list(args.seeds)) | {workloads.DEFAULT_SEEDS[name]}
        seeds |= set(workloads.HELD_OUT_SEEDS)
        for seed in sorted(seeds):
            outcome = workloads.run(workloads.prepare(name, seed, work))
            entry["seeds"][str(seed)] = digest.outcome_digests(outcome)
            shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed}: {len(outcome.cells)} cells", file=sys.stderr)
        entry["counts_at_default_seed"] = _traced_counts(name, workloads.DEFAULT_SEEDS[name])
        with open(digest.REFERENCE_PATH, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
