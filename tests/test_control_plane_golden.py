"""Golden digests for RAPID's control plane where the metadata budget cuts.

Which replica records reach a peer depends on the order they are emitted
in whenever the metadata budget cannot carry them all: the cut keeps a
prefix.  The default exhibit cells rarely cut (``figure4 --scale ci``
never does), so these cells raise the per-record byte cost to the
deployment's (``metadata_byte_scale=1``) and cap the metadata share, which
truncates both the buffer-state and the third-party sends dozens of times
per cell.  Each cell's canonical ``to_dict()`` is compared with a SHA-256
digest recorded before the control plane moved onto columns.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_control_plane_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import units
from repro.engine import worker as cell_worker
from repro.engine.spec import ScenarioSpec
from repro.experiments.config import ProtocolSpec, TraceExperimentConfig

_RAPID = ProtocolSpec(label="rapid", registry_name="rapid")
_RAPID_LOCAL = ProtocolSpec(label="rapid-local", registry_name="rapid-local")


def _config(byte_scale: float) -> TraceExperimentConfig:
    return dataclasses.replace(
        TraceExperimentConfig.ci_scale(seed=7, num_days=1), metadata_byte_scale=byte_scale
    )


#: name -> (spec keyword arguments, metadata byte scale, load, digest).
CELLS = {
    "rapid-cap-0.02": (
        dict(protocol=_RAPID, metadata_fraction_cap=0.02),
        1.0,
        6.0,
        "cc826cf5868ba22f397b410647c6732666732911c3eb2a231e3f1e92954e60eb",
    ),
    "rapid-cap-0.1": (
        dict(protocol=_RAPID, metadata_fraction_cap=0.1),
        1.0,
        6.0,
        "bbf79b8cbc0241a6e716e44dc71a8cd8ef31950047ea4c5e6f21dd31ea82870a",
    ),
    "rapid-local-cap-0.02": (
        dict(protocol=_RAPID_LOCAL, metadata_fraction_cap=0.02),
        1.0,
        6.0,
        "752e43346529ec01f74ccf47cbce734cf512f47d8b013ed36d2d260723a88be7",
    ),
    "rapid-metadata-faults": (
        dict(protocol=_RAPID, faults="metadata", metadata_fraction_cap=0.02),
        1.0,
        6.0,
        "a0a5365a31d3550ec4cd3c24ab9ae6e62fa45f8e7327e719eb8630b390442468",
    ),
    "rapid-durational": (
        # No cap: the cut comes from metadata_capacity narrowing to what
        # fits the remaining contact window.
        dict(protocol=_RAPID, contact_model="durational"),
        4.0,
        12.0,
        "439b30b0a427b6bd505f2fc911266fc8cd05f3aefd34d1da2963c30f8a72631b",
    ),
    "rapid-evicting-cap-0.05": (
        # Small buffers: evictions remove self records between exchanges.
        dict(protocol=_RAPID, metadata_fraction_cap=0.05, buffer_capacity=24 * units.KB),
        1.0,
        12.0,
        "e08f050087d8a7c66631fd1ecbf3984db54aa066eabe9530e81ae65f676a5a26",
    ),
}


def _digest(name: str) -> str:
    kwargs, byte_scale, load, _ = CELLS[name]
    spec = ScenarioSpec.for_cell(config=_config(byte_scale), load=load, run_index=0, **kwargs)
    cell_worker.clear_input_caches()
    payload = cell_worker.run_cell(spec).to_dict()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_truncating_control_plane_cell_matches_golden_digest(name):
    assert _digest(name) == CELLS[name][3]


if __name__ == "__main__":
    for cell in CELLS:
        print(f"{cell}: {_digest(cell)}")
