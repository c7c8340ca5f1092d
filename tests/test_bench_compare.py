"""Tests for ``scripts/bench_compare.py``'s verdicts and summary line."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
try:
    import bench_compare
finally:
    sys.path.pop(0)


def _write(directory: Path, name: str, **fields) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    record = {"bench": name, **fields}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(record), encoding="utf-8")


def _main(tmp_path: Path, capsys):
    status = bench_compare.main([str(tmp_path / "base"), str(tmp_path / "cand")])
    return status, capsys.readouterr().out.strip().splitlines()[-1]


def test_summary_names_compared_and_skipped_records(tmp_path, capsys):
    _write(tmp_path / "base", "steady", mode="quick", wall_time_s=1.0)
    _write(tmp_path / "cand", "steady", mode="quick", wall_time_s=1.05)
    _write(tmp_path / "base", "hotpath", mode="full", fast_wall_time_s=8.0)
    _write(tmp_path / "cand", "hotpath", mode="quick", fast_wall_time_s=1.0)
    status, summary = _main(tmp_path, capsys)
    assert status == 0
    assert summary == "summary: compared 1 (steady); skipped 1 (hotpath)"


def test_regression_fails(tmp_path, capsys):
    _write(tmp_path / "base", "steady", mode="quick", wall_time_s=1.0)
    _write(tmp_path / "cand", "steady", mode="quick", wall_time_s=1.5)
    status, summary = _main(tmp_path, capsys)
    assert status == 1
    assert summary.startswith("summary: compared 1 (steady)")


@pytest.mark.parametrize(
    "candidate",
    [
        # Not re-run: the committed record is still in place.
        {"mode": "quick", "wall_time_s": 1.0},
        {"mode": "full", "wall_time_s": 1.0},
        {"mode": "quick"},
    ],
)
def test_nothing_compared_fails(tmp_path, capsys, candidate):
    _write(tmp_path / "base", "steady", mode="quick", wall_time_s=1.0)
    _write(tmp_path / "cand", "steady", **candidate)
    status, summary = _main(tmp_path, capsys)
    assert status == 2
    assert summary == "summary: compared 0 (none); skipped 1 (steady)"
