"""A/A smoke test of ``scripts/compare_cells.py`` on two tiny cells."""

from __future__ import annotations

import sys
from pathlib import Path

from repro.engine import ScenarioSpec
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
try:
    import compare_cells
finally:
    sys.path.pop(0)


def test_same_checkout_on_both_sides_matches_cell_for_cell():
    config = SyntheticExperimentConfig(
        num_nodes=4, duration=60.0, mean_inter_meeting=20.0, num_runs=1, seed=3
    )
    cells = [
        ScenarioSpec.for_cell(config, ProtocolSpec(name, name), load=4.0, run_index=0).to_dict()
        for name in ("rapid", "random")
    ]
    root = compare_cells.checkout(str(ROOT), ROOT)
    assert root == ROOT
    try:
        workers = [
            compare_cells.load_package(root, f"repro_compare_smoke_{side}") for side in "ab"
        ]
        assert workers[0] is not workers[1]
        report = compare_cells.compare(workers, cells, rounds=2)
    finally:
        for name in [name for name in sys.modules if name.startswith("repro_compare_smoke_")]:
            del sys.modules[name]
    assert report["match"] is True
    assert report["pairs"] == 4 and 0 <= report["b_wins"] <= 4
    assert all(seconds > 0 for seconds in report["cpu"])
    by_protocol = report["by_protocol"]
    assert sorted(by_protocol) == ["random", "rapid"]
    assert sum(group["pairs"] for group in by_protocol.values()) == report["pairs"]
    assert sum(group["b_wins"] for group in by_protocol.values()) == report["b_wins"]
