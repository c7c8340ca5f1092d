"""Tests for the spatial (position-based) mobility subsystem.

Determinism is the contract under test: fixed-seed position streams are
bit-reproducible, contact extraction is symmetric in the pair and never
produces overlapping windows, and a simulation cell driven by a spatial
model is byte-identical across repeat runs and across the serial,
parallel and cached engine backends.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np
import pytest

from repro import units
from repro.engine import ExperimentEngine, ScenarioGrid
from repro.engine import worker as cell_worker
from repro.engine.spec import ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.experiments.config import (
    ProtocolSpec,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
)
from repro.mobility.spatial import (
    SPATIAL_MODEL_NAMES,
    ContactExtractor,
    GridRoutes,
    RandomWalk,
    RandomWaypoint,
    SampledRateLinkModel,
    SpatialParameters,
    build_spatial_model,
)

PARAMS = SpatialParameters(
    arena_width=500.0, arena_height=400.0, radio_range=100.0, time_step=1.0
)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _spatial_config(mobility: str) -> SyntheticExperimentConfig:
    return SyntheticExperimentConfig(
        num_nodes=8,
        mean_inter_meeting=70.0,
        transfer_opportunity=100 * units.KB,
        duration=3 * units.MINUTE,
        buffer_capacity=40 * units.KB,
        deadline=25.0,
        packet_interval=50.0,
        mobility=mobility,
        spatial=SpatialParameters(
            arena_width=400.0, arena_height=400.0, radio_range=120.0
        ),
        num_runs=1,
        seed=11,
    )


class TestSpatialParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialParameters(arena_width=0.0)
        with pytest.raises(ValueError):
            SpatialParameters(radio_range=-1.0)
        with pytest.raises(ValueError):
            SpatialParameters(speed_min=5.0, speed_max=1.0)
        with pytest.raises(ValueError):
            SpatialParameters(time_step=0.0)
        with pytest.raises(ValueError):
            SpatialParameters(turn_probability=1.5)

    @pytest.mark.parametrize(
        "field",
        ["arena_width", "arena_height", "radio_range", "speed_min", "speed_max",
         "pause_max", "heading_epoch", "time_step", "grid_spacing", "link_rate"],
    )
    def test_nan_is_rejected(self, field):
        with pytest.raises(ValueError):
            SpatialParameters(**{field: float("nan")})

    def test_round_trip(self):
        params = PARAMS.with_arena(750.0).with_radio_range(50.0)
        rebuilt = SpatialParameters.from_dict(params.to_dict())
        assert rebuilt == params
        assert rebuilt.arena_width == 750.0
        assert rebuilt.radio_range == 50.0


class TestPositionStreams:
    @pytest.mark.parametrize("name", SPATIAL_MODEL_NAMES)
    def test_fixed_seed_positions_reproducible(self, name):
        a = build_spatial_model(name, num_nodes=9, params=PARAMS, seed=23)
        b = build_spatial_model(name, num_nodes=9, params=PARAMS, seed=23)
        pa = a.sample_positions(120.0)
        pb = b.sample_positions(120.0)
        assert pa.shape == pb.shape == (121, 9, 2)
        np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("name", SPATIAL_MODEL_NAMES)
    def test_different_seeds_differ(self, name):
        a = build_spatial_model(name, num_nodes=9, params=PARAMS, seed=1)
        b = build_spatial_model(name, num_nodes=9, params=PARAMS, seed=2)
        assert not np.array_equal(a.sample_positions(60.0), b.sample_positions(60.0))

    @pytest.mark.parametrize("name", SPATIAL_MODEL_NAMES)
    def test_positions_stay_inside_arena(self, name):
        model = build_spatial_model(name, num_nodes=12, params=PARAMS, seed=7)
        positions = model.sample_positions(300.0)
        assert positions[..., 0].min() >= 0.0
        assert positions[..., 0].max() <= PARAMS.arena_width
        assert positions[..., 1].min() >= 0.0
        assert positions[..., 1].max() <= PARAMS.arena_height

    def test_grid_positions_on_streets(self):
        params = SpatialParameters(
            arena_width=600.0, arena_height=600.0, grid_spacing=150.0
        )
        model = GridRoutes(num_nodes=10, params=params, seed=4)
        positions = model.sample_positions(200.0)
        on_vertical = np.isclose(positions[..., 0] % 150.0, 0.0, atol=1e-6) | np.isclose(
            positions[..., 0] % 150.0, 150.0, atol=1e-6
        )
        on_horizontal = np.isclose(positions[..., 1] % 150.0, 0.0, atol=1e-6) | np.isclose(
            positions[..., 1] % 150.0, 150.0, atol=1e-6
        )
        assert np.all(on_vertical | on_horizontal)

    def test_grid_requires_one_block(self):
        with pytest.raises(ValueError):
            GridRoutes(
                num_nodes=4,
                params=SpatialParameters(
                    arena_width=50.0, arena_height=50.0, grid_spacing=200.0
                ),
            )

    def test_waypoint_pause_holds_position(self):
        params = SpatialParameters(
            arena_width=200.0,
            arena_height=200.0,
            speed_min=50.0,
            speed_max=60.0,
            pause_max=1000.0,
        )
        model = RandomWaypoint(num_nodes=6, params=params, seed=3)
        positions = model.sample_positions(120.0)
        # With enormous pauses and fast legs, every node ends up parked at
        # a waypoint: the last two snapshots must agree for paused nodes.
        assert np.array_equal(positions[-1], positions[-2])


class TestContactExtraction:
    @pytest.mark.parametrize("name", SPATIAL_MODEL_NAMES)
    def test_windows_disjoint_and_ordered(self, name):
        model = build_spatial_model(name, num_nodes=12, params=PARAMS, seed=9)
        schedule = model.generate(400.0)
        assert len(schedule) > 0
        per_pair = defaultdict(list)
        for contact in schedule:
            assert contact.duration >= PARAMS.time_step
            assert contact.end <= 400.0
            assert contact.capacity > 0.0
            per_pair[contact.pair()].append(contact)
        for windows in per_pair.values():
            for earlier, later in zip(windows, windows[1:]):
                assert earlier.end <= later.start

    def test_extraction_is_symmetric(self):
        """Swapping the two nodes' position columns swaps nothing: the
        extracted windows are identical (contact(a,b) == contact(b,a))."""
        model = RandomWaypoint(num_nodes=6, params=PARAMS, seed=31)
        snapshots = [(t, p.copy()) for t, p in model.iter_positions(200.0)]
        extractor = ContactExtractor(PARAMS)
        forward = extractor.extract(iter(snapshots), 200.0)
        # Relabel the nodes in reverse: node i becomes node n-1-i.
        reversed_snapshots = [(t, p[::-1].copy()) for t, p in snapshots]
        backward = extractor.extract(iter(reversed_snapshots), 200.0)
        remap = {
            (c.time, tuple(sorted((5 - c.node_a, 5 - c.node_b))), c.capacity, c.duration)
            for c in backward
        }
        original = {
            (c.time, c.pair(), c.capacity, c.duration) for c in forward
        }
        assert original == remap

    def test_adjacency_matches_distance(self):
        params = SpatialParameters(radio_range=10.0)
        extractor = ContactExtractor(params)
        positions = np.array([[0.0, 0.0], [6.0, 8.0], [100.0, 100.0]])
        adjacency = extractor.adjacency(positions)
        assert adjacency[0, 1] and adjacency[1, 0]  # distance exactly 10
        assert not adjacency[0, 2] and not adjacency[2, 0]
        assert not adjacency.diagonal().any()

    def test_constant_rate_capacity_scales_with_duration(self):
        model = RandomWalk(num_nodes=8, params=PARAMS, seed=13)
        schedule = model.generate(300.0)
        for contact in schedule:
            assert contact.capacity == pytest.approx(
                PARAMS.link_rate * contact.duration
            )

    def test_distance_rate_profile(self):
        params = SpatialParameters(
            arena_width=300.0, arena_height=300.0, radio_range=120.0, distance_rate=True
        )
        model = RandomWaypoint(num_nodes=8, params=params, seed=5)
        schedule = model.generate(200.0)
        assert len(schedule) > 0
        contact = schedule[0]
        profile = contact.profile
        assert isinstance(profile, SampledRateLinkModel)
        # Distance-degraded capacity never exceeds the full-rate budget.
        assert contact.capacity <= params.link_rate * contact.duration + 1e-9
        # The profile is monotone and inverts around the full capacity.
        half = profile.bytes_within(contact, contact.duration / 2)
        assert 0.0 < half < contact.capacity
        assert profile.time_to_transfer(contact, contact.capacity) == pytest.approx(
            contact.duration
        )

    def test_sampled_profile_monotone_inverse(self):
        profile = SampledRateLinkModel(2.0, [100.0, 0.0, 50.0])
        contact = None  # the profile ignores the contact argument
        times = np.linspace(0.0, 6.0, 25)
        values = [profile.bytes_within(contact, t) for t in times]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))
        for target in (50.0, 150.0, 250.0):
            elapsed = profile.time_to_transfer(contact, target)
            assert profile.bytes_within(contact, elapsed) == pytest.approx(
                target, rel=1e-6
            )


class TestSpatialCellsThroughEngine:
    @pytest.mark.parametrize("name", SPATIAL_MODEL_NAMES)
    def test_golden_cell_byte_stable(self, name):
        """A fixed-seed spatial cell serializes byte-identically on repeat
        runs with cold input caches."""
        spec = ScenarioSpec.for_cell(
            config=_spatial_config(name),
            protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
            load=4.0,
            run_index=0,
        )
        cell_worker.clear_input_caches()
        first = cell_worker.run_cell(spec).to_dict()
        cell_worker.clear_input_caches()
        second = cell_worker.run_cell(spec).to_dict()
        assert _canonical(first) == _canonical(second)
        assert first["meetings_processed"] > 0
        assert len(first["records"]) > 0

    def test_mobility_override_equals_config_mobility(self):
        """A spec-level mobility override reproduces the schedule of a
        configuration that names the same model directly."""
        base = _spatial_config("powerlaw")
        direct = cell_worker.synthetic_schedule(base.with_mobility("waypoint"), 0)
        overridden = cell_worker.synthetic_schedule(base, 0, "waypoint")
        assert [
            (c.time, c.node_a, c.node_b, c.capacity, c.duration) for c in direct
        ] == [(c.time, c.node_a, c.node_b, c.capacity, c.duration) for c in overridden]

    def test_mobility_axis_identical_across_backends(self, tmp_path):
        """The acceptance criterion: a waypoint+grid sweep is
        byte-identical across serial, workers, and cold/warm caches."""
        grid = ScenarioGrid(
            config=_spatial_config("powerlaw"),
            protocols=[ProtocolSpec(label="rapid", registry_name="rapid")],
            loads=(4.0,),
            mobilities=("waypoint", "grid"),
        )
        assert len(grid) == 2
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

    def test_grid_expansion_order_and_len(self):
        grid = ScenarioGrid(
            config=_spatial_config("powerlaw"),
            protocols=[ProtocolSpec(label="rapid", registry_name="rapid")],
            loads=(4.0, 8.0),
            mobilities=(None, "walk"),
        )
        cells = grid.cells()
        assert len(cells) == len(grid) == 4
        assert [c.mobility for c in cells] == [None, None, "walk", "walk"]
        assert cells[0].resolved_mobility() == "powerlaw"
        assert cells[2].resolved_mobility() == "walk"

    def test_spec_round_trip_preserves_mobility(self):
        spec = ScenarioSpec.for_cell(
            config=_spatial_config("powerlaw"),
            protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
            load=4.0,
            run_index=0,
            mobility="grid",
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.mobility == "grid"
        assert rebuilt.cache_key() == spec.cache_key()

    def test_mobility_override_changes_cache_key(self):
        config = _spatial_config("powerlaw")
        protocol = ProtocolSpec(label="rapid", registry_name="rapid")
        plain = ScenarioSpec.for_cell(
            config=config, protocol=protocol, load=4.0, run_index=0
        )
        walked = ScenarioSpec.for_cell(
            config=config, protocol=protocol, load=4.0, run_index=0, mobility="walk"
        )
        assert plain.cache_key() != walked.cache_key()


class TestValidation:
    def test_trace_cells_reject_mobility(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.for_cell(
                config=TraceExperimentConfig.ci_scale(num_days=1),
                protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
                load=4.0,
                run_index=0,
                mobility="waypoint",
            )

    def test_unknown_mobility_rejected(self):
        with pytest.raises(ConfigurationError):
            _spatial_config("powerlaw").with_mobility("teleport")
        with pytest.raises(ConfigurationError):
            ScenarioSpec.for_cell(
                config=_spatial_config("powerlaw"),
                protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
                load=4.0,
                run_index=0,
                mobility="teleport",
            )

    def test_config_round_trip_preserves_spatial(self):
        config = _spatial_config("grid")
        rebuilt = SyntheticExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.spatial == config.spatial
        assert rebuilt.mobility == "grid"

    def test_build_unknown_spatial_model(self):
        with pytest.raises(KeyError):
            build_spatial_model("teleport", num_nodes=4)


class TestSpatialCLI:
    def test_sweep_mobility_axis(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--family",
                "synthetic",
                "--mobility",
                "waypoint,grid",
                "--protocols",
                "random",
                "--loads",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "random [waypoint]" in output
        assert "random [grid]" in output

    def test_sweep_unknown_mobility_rejected(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--family",
                    "synthetic",
                    "--mobility",
                    "teleport",
                    "--protocols",
                    "random",
                    "--loads",
                    "4",
                ]
            )
            == 2
        )
        assert "unknown mobility model" in capsys.readouterr().err

    def test_trace_family_rejects_mobility(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--family",
                    "trace",
                    "--mobility",
                    "waypoint",
                    "--protocols",
                    "random",
                    "--loads",
                    "2",
                ]
            )
            == 2
        )
        assert "synthetic" in capsys.readouterr().err

    def test_quicksim_spatial(self, capsys):
        from repro.cli import main

        code = main(
            [
                "quicksim",
                "--protocol",
                "random",
                "--nodes",
                "6",
                "--duration",
                "120",
                "--mobility",
                "waypoint",
                "--arena",
                "300",
                "--radio-range",
                "120",
            ]
        )
        assert code == 0
        assert "delivery_rate" in capsys.readouterr().out

    def test_quicksim_arena_requires_spatial_model(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "quicksim",
                    "--protocol",
                    "random",
                    "--nodes",
                    "4",
                    "--duration",
                    "60",
                    "--arena",
                    "300",
                ]
            )
            == 2
        )
        assert "spatial" in capsys.readouterr().err

    def test_quicksim_mean_meeting_rejected_for_spatial_model(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "quicksim",
                    "--protocol",
                    "random",
                    "--nodes",
                    "4",
                    "--duration",
                    "60",
                    "--mobility",
                    "walk",
                    "--mean-meeting",
                    "10",
                ]
            )
            == 2
        )
        assert "--mean-meeting" in capsys.readouterr().err

    def test_sweep_arena_requires_spatial_mobility(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--family",
                    "synthetic",
                    "--protocols",
                    "random",
                    "--loads",
                    "4",
                    "--arena",
                    "300",
                ]
            )
            == 2
        )
        assert "spatial" in capsys.readouterr().err
