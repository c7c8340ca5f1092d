#!/usr/bin/env python
"""Compare two sets of ``BENCH_*.json`` records and fail on regressions.

Each benchmark emits a machine-readable ``BENCH_<name>.json`` into
``benchmarks/results/`` (see ``benchmarks/bench_config.py``).  This script
diffs a *baseline* set (typically the records committed on the branch)
against a *candidate* set (the records a fresh benchmark run just wrote)
and exits non-zero when any benchmark's wall time regressed by more than
``--threshold`` (default 10%).

Matching rules:

* Records pair by benchmark name (the ``bench`` key / ``BENCH_<name>``
  filename stem).
* A candidate record identical to its baseline was not re-run (a
  directory diff sees every committed record that no benchmark
  overwrote), so it is **skipped**: comparing it would always pass.
* Records measured in different modes (e.g. a committed ``full`` record
  vs a CI ``quick`` run) are **skipped**, not compared — their cells are
  different sizes, so wall times are incomparable.
* The compared metric is the first of ``fast_wall_time_s`` /
  ``wall_time_s`` present in both records.  Records without a wall-time
  metric (or present on only one side) are reported and skipped.

The last line of output names the compared and the skipped records.  The
script exits 1 on a regression and 2 when it compared no record at all,
so a diff whose every record was skipped cannot pass.

Usage::

    python scripts/bench_compare.py BASELINE CANDIDATE [--threshold 0.10]

where BASELINE / CANDIDATE are either single ``BENCH_*.json`` files or
directories containing them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Wall-time keys, in preference order.
WALL_TIME_KEYS = ("fast_wall_time_s", "wall_time_s")

#: Relative slowdown above which a benchmark counts as regressed.
DEFAULT_THRESHOLD = 0.10


def load_records(path: Path) -> Dict[str, dict]:
    """Load BENCH records from a file or directory, keyed by bench name."""
    if path.is_dir():
        files: Iterable[Path] = sorted(path.glob("BENCH_*.json"))
    elif path.is_file():
        files = [path]
    else:
        raise FileNotFoundError(f"no such file or directory: {path}")
    records: Dict[str, dict] = {}
    for file in files:
        try:
            record = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable record {file}: {exc}", file=sys.stderr)
            continue
        if not isinstance(record, dict):
            print(f"warning: skipping non-object record {file}", file=sys.stderr)
            continue
        name = record.get("bench") or file.stem.removeprefix("BENCH_")
        records[str(name)] = record
    return records


def wall_time(record: dict) -> Optional[Tuple[str, float]]:
    """The record's wall-time metric as ``(key, seconds)``, if any."""
    for key in WALL_TIME_KEYS:
        value = record.get(key)
        if isinstance(value, (int, float)) and value >= 0:
            return key, float(value)
    return None


def compare(
    baseline: Dict[str, dict], candidate: Dict[str, dict], threshold: float
) -> Tuple[List[str], List[str], List[str], List[str]]:
    """Diff the two record sets.

    Returns ``(report lines, regression lines, compared names, skipped
    names)``.
    """
    lines: List[str] = []
    regressions: List[str] = []
    compared: List[str] = []
    skipped: List[str] = []

    def skip(name: str, reason: str) -> None:
        skipped.append(name)
        lines.append(f"  {name}: {reason} — skipped")

    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name)
        cand = candidate.get(name)
        if base is None or cand is None:
            skip(name, f"only present in {'candidate' if base is None else 'baseline'}")
            continue
        if base == cand:
            skip(name, "identical to baseline (not re-run)")
            continue
        if base.get("mode") != cand.get("mode"):
            skip(name, f"mode mismatch ({base.get('mode')!r} vs {cand.get('mode')!r})")
            continue
        base_metric = wall_time(base)
        cand_metric = wall_time(cand)
        if base_metric is None or cand_metric is None:
            skip(name, "no wall-time metric on both sides")
            continue
        key, base_s = base_metric
        _, cand_s = cand_metric
        if base_s == 0:
            skip(name, f"baseline {key} is 0")
            continue
        compared.append(name)
        ratio = cand_s / base_s
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = f"REGRESSION (> {threshold:.0%} slower)"
            regressions.append(
                f"{name}: {key} {base_s:.3f}s -> {cand_s:.3f}s ({ratio:.2f}x)"
            )
        lines.append(
            f"  {name}: {key} {base_s:.3f}s -> {cand_s:.3f}s ({ratio:.2f}x) {verdict}"
        )
    return lines, regressions, compared, skipped


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="BENCH json file or directory (old)")
    parser.add_argument("candidate", type=Path, help="BENCH json file or directory (new)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative wall-time slowdown that counts as a regression "
        f"(default {DEFAULT_THRESHOLD:.0%})",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")

    baseline = load_records(args.baseline)
    candidate = load_records(args.candidate)
    if not baseline or not candidate:
        print(
            f"error: no BENCH records found (baseline: {len(baseline)}, "
            f"candidate: {len(candidate)})",
            file=sys.stderr,
        )
        return 2

    lines, regressions, compared, skipped = compare(baseline, candidate, args.threshold)
    print(f"bench_compare: {len(baseline)} baseline vs {len(candidate)} candidate records")
    for line in lines:
        print(line)
    status = 0
    if regressions:
        print(f"\n{len(regressions)} wall-time regression(s) above {args.threshold:.0%}:")
        for item in regressions:
            print(f"  {item}")
        status = 1
    elif compared:
        print("\nno wall-time regressions")
    else:
        print("\nerror: no record was compared, so the diff checked nothing", file=sys.stderr)
        status = 2
    print(
        f"summary: compared {len(compared)} ({', '.join(compared) or 'none'}); "
        f"skipped {len(skipped)} ({', '.join(skipped) or 'none'})"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
