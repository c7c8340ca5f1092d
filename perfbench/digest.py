"""Output digests: what a correct run of each workload must produce.

A cell's digest is a SHA-256 over its canonical ``SimulationResult``
payload — ``to_dict()`` without ``timings`` (profiling wall times differ
from run to run and are not part of the result), serialised as JSON with
sorted keys.  A series digest covers an exhibit's plotted values the
same way.  Reference digests were recorded once from the seed commit
with ``perfbench/record.py`` and live in ``reference.json`` beside this
file, keyed by workload and seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Hex digits kept per digest (64 bits: ample to tell outputs apart).
DIGEST_CHARS = 16


def canonical_payload(result) -> Dict[str, object]:
    """``result.to_dict()`` without the run-dependent ``timings`` block."""
    payload = result.to_dict()
    payload.pop("timings", None)
    return payload


def digest(data: object) -> str:
    """Short SHA-256 of *data* as canonical JSON."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def outcome_digests(outcome) -> Dict[str, object]:
    """Per-cell digests (submission order) and per-series digests."""
    return {
        "cells": [digest(canonical_payload(result)) for _, result in outcome.cells],
        "series": {name: digest(series) for name, series in sorted(outcome.series.items())},
    }


def repeated_cell_mismatches(outcome, observed: Dict[str, object]) -> List[int]:
    """Indices of cells whose digest differs from an earlier equal cell.

    Cells with the same cache address — a cache hit and the execution
    that filled the cache — must have produced the same output.
    """
    first: Dict[str, str] = {}
    bad: List[int] = []
    for index, ((spec, _), cell_digest) in enumerate(zip(outcome.cells, observed["cells"])):
        key = spec.cache_key()
        if first.setdefault(key, cell_digest) != cell_digest:
            bad.append(index)
    return bad


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, object]:
    """The recorded reference file (empty structure when absent)."""
    if not path.is_file():
        return {"workloads": {}}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(reference: Dict[str, object], workload: str, seed: int) -> Optional[Dict[str, object]]:
    """The recorded digests of *workload* at *seed*, if that seed was recorded."""
    return reference.get("workloads", {}).get(workload, {}).get("seeds", {}).get(str(seed))


def mismatched_cells(observed: Dict[str, object], expected: Dict[str, object]) -> List[int]:
    """Indices of cells whose digest differs from *expected*.

    When the cell counts differ, every cell beyond the shorter list is a
    mismatch too.
    """
    got: List[str] = list(observed["cells"])
    want: List[str] = list(expected["cells"])
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    bad.extend(range(min(len(got), len(want)), max(len(got), len(want))))
    return bad


def mismatched_series(observed: Dict[str, object], expected: Dict[str, object]) -> List[str]:
    """Names of series whose digest differs from (or is missing in) *expected*."""
    got: Dict[str, str] = dict(observed["series"])
    want: Dict[str, str] = dict(expected["series"])
    return sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
