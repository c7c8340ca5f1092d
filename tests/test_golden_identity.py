"""Golden bit-identity: the incremental fast path vs. the reference oracle.

RAPID's fast scoring path (per-destination serve-order index, one-pass
own-delay loop, in-order replica-rate fold, array candidate scoring,
lazy-heap ranking, array eviction scoring) is a pure optimisation:
``rapid_oracle.reference_paths()`` swaps in the original O(buffer)
per-packet reference computations, and both must produce
**byte-identical** ``SimulationResult.to_dict()`` output.  These tests pin that down for
one RAPID trace cell and one buffer-constrained synthetic cell, exactly
as ``benchmarks/bench_rapid_hotpath.py`` does at larger scale.
"""

from __future__ import annotations

import json

from repro import units
from repro.engine.spec import ScenarioSpec
from repro.engine import worker as cell_worker
from repro.experiments.config import (
    ProtocolSpec,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
)

from rapid_oracle import reference_paths


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _run_cell(spec: ScenarioSpec):
    cell_worker.clear_input_caches()
    return cell_worker.run_cell(spec).to_dict()


def _assert_matches_reference(spec: ScenarioSpec) -> None:
    fast = _run_cell(spec)
    with reference_paths():
        reference = _run_cell(spec)
    assert _canonical(fast) == _canonical(reference)


def test_rapid_trace_cell_bit_identical():
    config = TraceExperimentConfig.ci_scale(seed=7, num_days=1)
    spec = ScenarioSpec.for_cell(
        config=config,
        protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
        load=4.0,
        run_index=0,
    )
    _assert_matches_reference(spec)


def test_rapid_synthetic_cell_bit_identical():
    # Small buffers force eviction cascades, exercising the array eviction
    # scoring against the scalar reference.
    config = SyntheticExperimentConfig(
        num_nodes=8,
        mean_inter_meeting=70.0,
        transfer_opportunity=100 * units.KB,
        duration=4 * units.MINUTE,
        buffer_capacity=30 * units.KB,
        deadline=25.0,
        packet_interval=50.0,
        mobility="exponential",
        num_runs=1,
        seed=11,
    )
    spec = ScenarioSpec.for_cell(
        config=config,
        protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
        load=8.0,
        run_index=0,
    )
    _assert_matches_reference(spec)


class TestContactLayerGoldenIdentity:
    """The durational contact layer must not perturb the default mode.

    The default ``instantaneous`` contact model and an *explicit*
    ``contact_model="instantaneous"`` spec must both produce the exact
    pre-contact-layer output, for rapid, maxprop and prophet, across the
    serial, parallel and cached engine backends.
    """

    PROTOCOLS = ("rapid", "maxprop", "prophet")

    def _grid(self, contact_models=None):
        from repro.engine import ScenarioGrid

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
        protocols = [
            ProtocolSpec(label=name, registry_name=name) for name in self.PROTOCOLS
        ]
        return ScenarioGrid(
            config=config, protocols=protocols, loads=(6.0,), contact_models=contact_models
        )

    def test_explicit_instantaneous_matches_default(self):
        """Spelling the default out must not change a single byte."""
        from repro.engine import ExperimentEngine

        with ExperimentEngine(workers=1) as engine:
            default = [r.to_dict() for r in engine.run_grid(self._grid())]
            explicit = [
                r.to_dict() for r in engine.run_grid(self._grid(("instantaneous",)))
            ]
        assert _canonical(default) == _canonical(explicit)

    def test_instantaneous_identical_across_backends(self, tmp_path):
        """Serial, parallel and cold/warm-cache backends agree byte for byte."""
        from repro.engine import ExperimentEngine

        grid = self._grid(("instantaneous",))
        with ExperimentEngine(workers=1) as engine:
            serial = _canonical([r.to_dict() for r in engine.run_grid(grid)])
        with ExperimentEngine(workers=2) as engine:
            parallel = _canonical([r.to_dict() for r in engine.run_grid(grid)])
        cache_dir = tmp_path / "cache"
        with ExperimentEngine(workers=1, cache_dir=cache_dir) as engine:
            cold = _canonical([r.to_dict() for r in engine.run_grid(grid)])
        with ExperimentEngine(workers=1, cache_dir=cache_dir) as engine:
            warm = _canonical([r.to_dict() for r in engine.run_grid(grid)])
            assert engine.stats.cache_hits == len(grid)
        assert parallel == serial
        assert cold == serial
        assert warm == serial

    def test_trace_cell_default_matches_explicit_instantaneous(self):
        """The DieselNet family: real contact windows exist in the schedule,
        but the default mode must still ignore them entirely."""
        config = TraceExperimentConfig.ci_scale(seed=7, num_days=1)
        protocol = ProtocolSpec(label="rapid", registry_name="rapid")
        default = _run_cell(
            ScenarioSpec.for_cell(config=config, protocol=protocol, load=4.0, run_index=0)
        )
        explicit = _run_cell(
            ScenarioSpec.for_cell(
                config=config,
                protocol=protocol,
                load=4.0,
                run_index=0,
                contact_model="instantaneous",
            )
        )
        assert _canonical(default) == _canonical(explicit)


def test_max_delay_metric_ranking_bit_identical():
    """The lazy heap must reproduce the eager order for every metric family."""
    config = SyntheticExperimentConfig(
        num_nodes=6,
        mean_inter_meeting=60.0,
        transfer_opportunity=60 * units.KB,
        duration=3 * units.MINUTE,
        buffer_capacity=25 * units.KB,
        deadline=25.0,
        packet_interval=50.0,
        mobility="exponential",
        num_runs=1,
        seed=19,
    )
    spec = ScenarioSpec.for_cell(
        config=config,
        protocol=ProtocolSpec(
            label="rapid", registry_name="rapid", options={"metric": "max_delay"}
        ),
        load=8.0,
        run_index=0,
    )
    _assert_matches_reference(spec)
