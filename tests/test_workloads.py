"""Tests of the traffic workload subsystem (:mod:`repro.workloads`).

Four layers are covered: the arrival models themselves (draw-order
determinism, byte-identity of the default model with the historic
``PoissonWorkload``, statistical shape of the non-default models), the
declarative parameters, the engine threading (spec override, grid axis,
backend identity) and the CLI flags.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.cli import main as cli_main
from repro.dtn.packet import DEFAULT_TRAFFIC_CLASS, PacketFactory, PacketRecord
from repro.dtn.results import SimulationResult
from repro.dtn.workload import PoissonWorkload
from repro.engine import ExperimentEngine, ScenarioGrid, ScenarioSpec
from repro.engine import worker as cell_worker
from repro.exceptions import ConfigurationError
from repro.experiments.config import (
    ProtocolSpec,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
)
from repro.workloads import (
    DiurnalProfile,
    HotspotPopularity,
    MMPPBursty,
    PoissonArrivals,
    TrafficClass,
    UniformCBR,
    UniformPopularity,
    WORKLOAD_MODEL_NAMES,
    WorkloadParameters,
    ZipfPopularity,
    build_traffic_model,
)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _build(name: str, params: WorkloadParameters = WorkloadParameters(), **kwargs):
    defaults = dict(packets_per_hour=120.0, packet_size=512, seed=5)
    defaults.update(kwargs)
    return build_traffic_model(params, model=name, **defaults)


# ----------------------------------------------------------------------
# The default model: byte-identity with the historic generator
# ----------------------------------------------------------------------
class TestUniformCBRIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 7007])
    @pytest.mark.parametrize("rate,size,deadline", [(60.0, 1024, None), (13.5, 256, 40.0)])
    def test_matches_poisson_workload_exactly(self, seed, rate, size, deadline):
        """The pre-subsystem generator and UniformCBR draw identically."""
        legacy = PoissonWorkload(
            packets_per_hour=rate, packet_size=size, deadline=deadline, seed=seed
        ).generate(list(range(7)), 900.0)
        modern = UniformCBR(
            packets_per_hour=rate, packet_size=size, deadline=deadline, seed=seed
        ).generate(list(range(7)), 900.0)
        assert modern == legacy

    def test_matches_with_start_time_and_shared_factory(self):
        factory_a, factory_b = PacketFactory(100), PacketFactory(100)
        legacy = PoissonWorkload(packets_per_hour=40.0, seed=3, factory=factory_a)
        modern = UniformCBR(packets_per_hour=40.0, seed=3, factory=factory_b)
        assert modern.generate(range(5), 600.0, start_time=50.0) == legacy.generate(
            range(5), 600.0, start_time=50.0
        )

    def test_registry_default_is_uniform(self):
        model = build_traffic_model(WorkloadParameters(), 60.0, 1024, seed=1)
        assert isinstance(model, UniformCBR)
        assert WORKLOAD_MODEL_NAMES[0] == "uniform"


# ----------------------------------------------------------------------
# Model behaviour
# ----------------------------------------------------------------------
class TestModelBehaviour:
    @pytest.mark.parametrize("name", WORKLOAD_MODEL_NAMES)
    def test_same_seed_same_packets(self, name):
        first = _build(name).generate(range(6), 600.0)
        second = _build(name).generate(range(6), 600.0)
        assert first == second

    @pytest.mark.parametrize("name", WORKLOAD_MODEL_NAMES)
    def test_packets_inside_horizon_and_valid(self, name):
        packets = _build(name).generate(range(6), 600.0, start_time=25.0)
        for packet in packets:
            assert 25.0 <= packet.creation_time < 625.0
            assert packet.source != packet.destination
            assert 0 <= packet.source < 6 and 0 <= packet.destination < 6

    def test_mean_rate_preserved_across_models(self):
        """Bursty/diurnal reshape arrivals in time without changing load.

        The diurnal cell spans one full profile period — the sinusoid
        only averages to the mean rate over whole cycles.
        """
        nodes, duration = list(range(8)), 4 * units.HOUR
        params = WorkloadParameters(diurnal_period=duration)
        counts = {
            name: len(
                _build(name, params, packets_per_hour=6.0, seed=23).generate(nodes, duration)
            )
            for name in ("uniform", "poisson", "bursty", "diurnal")
        }
        expected = 6.0 / units.HOUR * duration * len(nodes) * (len(nodes) - 1)
        for name, count in counts.items():
            assert count == pytest.approx(expected, rel=0.2), (name, count, expected)

    def test_bursty_concentrates_interarrivals(self):
        """MMPP bursts squeeze many gaps below the uniform model's mean."""
        nodes, duration = list(range(6)), 2 * units.HOUR

        def small_gap_fraction(name):
            packets = _build(name, packets_per_hour=12.0, seed=9).generate(nodes, duration)
            times = np.array([p.creation_time for p in packets])
            gaps = np.diff(times)
            return float(np.mean(gaps < np.mean(gaps) * 0.1))

        assert small_gap_fraction("bursty") > small_gap_fraction("uniform")

    def test_zipf_skews_destinations(self):
        packets = _build(
            "zipf", WorkloadParameters(zipf_alpha=1.5), packets_per_hour=240.0
        ).generate(range(10), units.HOUR)
        counts = np.bincount([p.destination for p in packets], minlength=10)
        assert counts[0] > 2 * counts[9]

    def test_hotspot_concentrates_destinations(self):
        params = WorkloadParameters(hotspot_fraction=0.2, hotspot_weight=0.8)
        packets = _build("hotspot", params, packets_per_hour=240.0).generate(
            range(10), units.HOUR
        )
        hot = sum(1 for p in packets if p.destination < 2)
        assert hot / len(packets) == pytest.approx(0.8, abs=0.1)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            UniformCBR(packets_per_hour=0)
        with pytest.raises(ValueError):
            UniformCBR(packets_per_hour=5).generate([0], 10.0)
        with pytest.raises(ValueError):
            UniformCBR(packets_per_hour=5).generate([0, 1], 0.0)
        with pytest.raises(ValueError):
            MMPPBursty(burstiness=1.0, packets_per_hour=5)
        with pytest.raises(KeyError):
            build_traffic_model(WorkloadParameters(), 5.0, 1024, model="nope")


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(WORKLOAD_MODEL_NAMES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=5.0, max_value=400.0),
    num_nodes=st.integers(min_value=2, max_value=12),
)
def test_arrivals_are_time_sorted(name, seed, rate, num_nodes):
    """Every model returns packets sorted by creation time."""
    packets = build_traffic_model(
        WorkloadParameters(), packets_per_hour=rate, packet_size=1024, seed=seed, model=name
    ).generate(list(range(num_nodes)), 600.0)
    times = [p.creation_time for p in packets]
    assert times == sorted(times)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(WORKLOAD_MODEL_NAMES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    weights=st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=4
    ),
)
def test_per_class_counts_conserve_totals(name, seed, weights):
    """Per-class metric counts sum to the run's packet totals."""
    classes = tuple(
        TrafficClass(name=f"class{i}", weight=w, priority=i)
        for i, w in enumerate(weights)
    )
    params = WorkloadParameters(classes=classes)
    packets = build_traffic_model(
        params, packets_per_hour=120.0, packet_size=512, seed=seed, model=name
    ).generate(list(range(5)), 400.0)
    result = SimulationResult(protocol_name="none", duration=400.0)
    from repro.dtn.packet import PacketRecord

    for packet in packets:
        result.records[packet.packet_id] = PacketRecord(packet=packet)
    summary = result.per_class_summary()
    assert sum(row["packets"] for row in summary.values()) == result.num_packets
    assert sum(row["delivered"] for row in summary.values()) == result.num_delivered
    assert set(summary) == {p.traffic_class for p in packets}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_class_mix_never_perturbs_arrival_times(seed):
    """Adding classes retags packets without moving a single arrival."""
    plain = UniformCBR(packets_per_hour=60.0, seed=seed).generate(range(5), 500.0)
    mixed = UniformCBR(
        packets_per_hour=60.0,
        seed=seed,
        classes=(TrafficClass("a", 1.0), TrafficClass("b", 2.0)),
    ).generate(range(5), 500.0)
    assert [(p.source, p.destination, p.creation_time) for p in plain] == [
        (p.source, p.destination, p.creation_time) for p in mixed
    ]


# ----------------------------------------------------------------------
# Popularity and profile pieces
# ----------------------------------------------------------------------
class TestPopularityAndProfile:
    def test_sample_never_returns_source(self):
        rng = np.random.default_rng(0)
        nodes = list(range(6))
        for popularity in (UniformPopularity(), ZipfPopularity(1.0), HotspotPopularity()):
            for source_index in range(len(nodes)):
                for _ in range(50):
                    assert popularity.sample(rng, nodes, source_index) != nodes[source_index]

    def test_zipf_weights_decrease(self):
        weights = ZipfPopularity(0.9).weights(list(range(8)))
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_hotspot_weights_mass(self):
        weights = HotspotPopularity(fraction=0.25, weight=0.6).weights(list(range(8)))
        assert weights[:2].sum() == pytest.approx(0.6)
        assert weights.sum() == pytest.approx(1.0)

    def test_diurnal_profile_shape(self):
        profile = DiurnalProfile(amplitude=0.5, period=100.0)
        samples = [profile.multiplier(t) for t in np.linspace(0, 100.0, 1000, endpoint=False)]
        assert np.mean(samples) == pytest.approx(1.0, abs=1e-3)
        assert max(samples) <= profile.peak + 1e-9
        assert all(0.0 < profile.acceptance(t) <= 1.0 for t in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity(-0.1)
        with pytest.raises(ValueError):
            HotspotPopularity(fraction=0.0)
        with pytest.raises(ValueError):
            DiurnalProfile(amplitude=1.0)


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
class TestWorkloadParameters:
    def test_roundtrip(self):
        params = WorkloadParameters(
            model="bursty",
            burstiness=6.0,
            classes=(TrafficClass("news", 2.0, deadline=30.0, priority=1),),
        )
        restored = WorkloadParameters.from_dict(json.loads(json.dumps(params.to_dict())))
        assert restored == params

    def test_default_is_default(self):
        assert WorkloadParameters().is_default()
        assert not WorkloadParameters(model="poisson").is_default()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadParameters(burstiness=1.0)
        with pytest.raises(ValueError):
            WorkloadParameters(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            WorkloadParameters(classes=(TrafficClass("a"), TrafficClass("a")))
        with pytest.raises(ValueError):
            TrafficClass("", 1.0)
        with pytest.raises(ValueError):
            TrafficClass("a", weight=0.0)

    def test_config_rejects_unknown_model(self):
        with pytest.raises(ConfigurationError):
            SyntheticExperimentConfig.ci_scale().with_workload(
                WorkloadParameters(model="fractal")
            )

    def test_config_roundtrip_with_workload(self):
        config = TraceExperimentConfig.ci_scale().with_workload(
            WorkloadParameters(model="zipf", zipf_alpha=1.1)
        )
        restored = TraceExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored.workload == config.workload


# ----------------------------------------------------------------------
# Engine threading: spec override, grid axis, backend identity
# ----------------------------------------------------------------------
def _synth_config() -> SyntheticExperimentConfig:
    return SyntheticExperimentConfig(
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


class TestEngineThreading:
    def test_spec_rejects_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.for_cell(
                config=_synth_config(),
                protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
                load=6.0,
                run_index=0,
                workload="fractal",
            )

    def test_from_dict_rejects_unknown_fields(self):
        spec = ScenarioSpec.for_cell(
            config=_synth_config(),
            protocol=ProtocolSpec(label="rapid", registry_name="rapid"),
            load=6.0,
            run_index=0,
        )
        data = {**spec.to_dict(), "workloads": "poisson"}
        with pytest.raises(ConfigurationError, match="workloads"):
            ScenarioSpec.from_dict(data)

    def test_resolved_workload(self):
        config = _synth_config()
        protocol = ProtocolSpec(label="rapid", registry_name="rapid")
        default = ScenarioSpec.for_cell(config=config, protocol=protocol, load=6.0, run_index=0)
        assert default.resolved_workload() == "uniform"
        override = ScenarioSpec.for_cell(
            config=config, protocol=protocol, load=6.0, run_index=0, workload="bursty"
        )
        assert override.resolved_workload() == "bursty"
        configured = ScenarioSpec.for_cell(
            config=config.with_workload(WorkloadParameters(model="zipf")),
            protocol=protocol,
            load=6.0,
            run_index=0,
        )
        assert configured.resolved_workload() == "zipf"

    def test_grid_workload_axis(self):
        grid = ScenarioGrid(
            config=_synth_config(),
            protocols=[ProtocolSpec(label="rapid", registry_name="rapid")],
            loads=(6.0,),
            workloads=("uniform", "poisson", "bursty"),
        )
        cells = grid.cells()
        assert len(grid) == len(cells) == 3
        assert [cell.workload for cell in cells] == ["uniform", "poisson", "bursty"]
        with pytest.raises(ConfigurationError):
            ScenarioGrid(
                config=_synth_config(),
                protocols=[ProtocolSpec(label="rapid", registry_name="rapid")],
                loads=(6.0,),
                workloads=(),
            )

    def test_worker_override_changes_packets_and_memoizes_separately(self):
        config = _synth_config()
        cell_worker.clear_input_caches()
        default = cell_worker.synthetic_workload(config, 0, 6.0)
        poisson = cell_worker.synthetic_workload(config, 0, 6.0, "poisson")
        again = cell_worker.synthetic_workload(config, 0, 6.0)
        assert default is again  # memoized per resolved model
        assert default != poisson

    def test_trace_worker_override(self):
        config = TraceExperimentConfig.ci_scale(seed=7, num_days=1)
        cell_worker.clear_input_caches()
        default = cell_worker.trace_workload(config, 0, 4.0)
        bursty = cell_worker.trace_workload(config, 0, 4.0, "bursty")
        assert default != bursty


class TestWorkloadGoldenIdentity:
    """The workload axis must not perturb default cells, and swept cells
    must be byte-identical across every engine backend."""

    PROTOCOLS = ("rapid", "maxprop", "prophet")

    def _grid(self, workloads=None):
        return ScenarioGrid(
            config=_synth_config(),
            protocols=[
                ProtocolSpec(label=name, registry_name=name) for name in self.PROTOCOLS
            ],
            loads=(6.0,),
            workloads=workloads,
        )

    def test_explicit_uniform_matches_default(self):
        """Spelling the default out must not change a single byte."""
        with ExperimentEngine(workers=1) as engine:
            default = [r.to_dict() for r in engine.run_grid(self._grid())]
            explicit = [r.to_dict() for r in engine.run_grid(self._grid(("uniform",)))]
        assert _canonical(default) == _canonical(explicit)

    def test_workload_sweep_identical_across_backends(self, tmp_path):
        """poisson/bursty/zipf cells agree byte for byte across the
        serial, workers=4 and cold/warm-cache backends."""
        grid = self._grid(("poisson", "bursty", "zipf"))
        with ExperimentEngine(workers=1) as engine:
            serial = _canonical([r.to_dict() for r in engine.run_grid(grid)])
        with ExperimentEngine(workers=4) as engine:
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


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestWorkloadCLI:
    def test_quicksim_workload_flag(self, capsys):
        code = cli_main(
            [
                "quicksim", "--protocol", "random", "--nodes", "5",
                "--duration", "120", "--mean-meeting", "30",
                "--workload", "bursty", "--burstiness", "5",
            ]
        )
        assert code == 0
        assert "delivery_rate" in capsys.readouterr().out

    def test_quicksim_contact_model_parity(self, capsys):
        code = cli_main(
            [
                "quicksim", "--protocol", "random", "--nodes", "5",
                "--duration", "120", "--mean-meeting", "30",
                "--contact-model", "durational",
            ]
        )
        assert code == 0
        assert "delivery_rate" in capsys.readouterr().out

    def test_sweep_workload_axis_labels(self, capsys):
        code = cli_main(
            [
                "sweep", "--family", "synthetic", "--protocols", "random",
                "--loads", "4", "--workload", "poisson,zipf",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "random [poisson]" in output and "random [zipf]" in output

    def test_sweep_rejects_unknown_workload(self, capsys):
        code = cli_main(
            [
                "sweep", "--family", "synthetic", "--protocols", "random",
                "--loads", "4", "--workload", "fractal",
            ]
        )
        assert code == 2
        assert "unknown workload model" in capsys.readouterr().err

    def test_burstiness_requires_bursty_model(self, capsys):
        code = cli_main(
            [
                "quicksim", "--protocol", "random", "--nodes", "4",
                "--duration", "60", "--burstiness", "3",
            ]
        )
        assert code == 2
        assert "--burstiness" in capsys.readouterr().err

    def test_zipf_alpha_requires_zipf_model(self, capsys):
        code = cli_main(
            [
                "sweep", "--family", "synthetic", "--protocols", "random",
                "--loads", "4", "--zipf-alpha", "0.9",
            ]
        )
        assert code == 2
        assert "--zipf-alpha" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Packet tagging
# ----------------------------------------------------------------------
def _packet_payload(packet):
    """The serialized form of *packet* inside a result's canonical dict."""
    result = SimulationResult(protocol_name="x", duration=1.0)
    result.records[packet.packet_id] = PacketRecord(packet=packet)
    return result.to_dict()["records"][0]["packet"]


class TestPacketClassTagging:
    def test_default_packets_serialize_without_class_keys(self):
        factory = PacketFactory()
        packet = factory.create(source=0, destination=1)
        assert packet.traffic_class == DEFAULT_TRAFFIC_CLASS
        assert packet.priority == 0
        payload = _packet_payload(packet)
        assert "traffic_class" not in payload and "priority" not in payload

    def test_classed_packets_roundtrip(self):
        factory = PacketFactory()
        packet = factory.create(
            source=0, destination=1, traffic_class="news", priority=3
        )
        payload = _packet_payload(packet)
        assert payload["traffic_class"] == "news" and payload["priority"] == 3
        result = SimulationResult(protocol_name="x", duration=1.0)
        result.records[packet.packet_id] = PacketRecord(packet=packet)
        restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        rebuilt = restored.records[packet.packet_id].packet
        assert rebuilt.traffic_class == "news" and rebuilt.priority == 3
        assert _canonical(restored.to_dict()) == _canonical(result.to_dict())

    def test_class_sizes_and_deadlines_apply(self):
        params = WorkloadParameters(
            classes=(
                TrafficClass("bulk", 1.0, size=4096),
                TrafficClass("news", 1.0, deadline=20.0),
            )
        )
        packets = build_traffic_model(
            params, packets_per_hour=200.0, packet_size=512, seed=2
        ).generate(range(4), 300.0)
        by_class = {p.traffic_class for p in packets}
        assert by_class == {"bulk", "news"}
        for packet in packets:
            if packet.traffic_class == "bulk":
                assert packet.size == 4096 and packet.deadline is None
            else:
                assert packet.size == 512 and packet.deadline == 20.0
