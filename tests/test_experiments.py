"""Tests for the experiment harness: configs, runners, reports and figures.

Figure functions are exercised at a deliberately tiny scale — the goal is
to validate the harness plumbing (series structure, labels, metric wiring),
not to reproduce the paper's numbers, which is the benchmark suite's job.
"""

import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.experiments import EXPERIMENT_INDEX
from repro.experiments.config import (
    ProtocolSpec,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
    component_protocols,
    global_channel_protocols,
    standard_protocols,
)
from repro.experiments.report import FigureResult, Series, TableResult, percentage_improvement
from repro.experiments.runner import SyntheticRunner, TraceRunner, sweep
from repro.traces.dieselnet import DieselNetParameters


@pytest.fixture(scope="module")
def tiny_trace_config():
    parameters = DieselNetParameters(
        num_buses=8,
        avg_buses_per_day=6,
        day_duration=0.5 * units.HOUR,
        avg_meetings_per_day=25,
        avg_bytes_per_day=25 * 60 * units.KB,
        num_routes=2,
    )
    return TraceExperimentConfig(
        trace_parameters=parameters,
        num_days=1,
        deadline=0.15 * 0.5 * units.HOUR,
        seed=3,
        metadata_byte_scale=0.05,
    )


@pytest.fixture(scope="module")
def tiny_synthetic_config():
    return SyntheticExperimentConfig(
        num_nodes=6,
        mean_inter_meeting=40.0,
        transfer_opportunity=50 * units.KB,
        duration=3 * units.MINUTE,
        buffer_capacity=20 * units.KB,
        deadline=30.0,
        packet_interval=50.0,
        mobility="powerlaw",
        num_runs=1,
        seed=5,
    )


class TestReport:
    def test_series_validation_and_lookup(self):
        series = Series(label="a", x=[1, 2], y=[10, 20])
        assert series.y_at(2) == 20
        with pytest.raises(KeyError):
            series.y_at(3)
        with pytest.raises(ValueError):
            Series(label="bad", x=[1], y=[1, 2])

    def test_figure_result_text(self):
        figure = FigureResult("Figure X", "demo", "load", "delay")
        figure.add_series("rapid", [1, 2], [10.0, 20.0])
        figure.add_series("random", [1, 2], [15.0, 30.0])
        text = figure.to_text()
        assert "Figure X" in text and "rapid" in text and "random" in text
        assert figure.get("rapid").y_at(1) == 10.0
        with pytest.raises(KeyError):
            figure.get("missing")

    def test_table_result_text(self):
        table = TableResult("Table Y", "demo")
        table.add_row("delivery", 0.88, "%")
        assert table.get("delivery") == 0.88
        assert "delivery" in table.to_text()

    def test_percentage_improvement(self):
        assert percentage_improvement(80.0, 100.0) == pytest.approx(20.0)
        assert percentage_improvement(1.0, 0.0) == 0.0


class TestConfigs:
    def test_protocol_spec_factory_and_options(self):
        spec = ProtocolSpec("Rapid", "rapid", {"metric": "max_delay"})
        factory = spec.factory()
        assert "max_delay" in factory.name
        updated = spec.with_options(metric="deadline")
        assert updated.options["metric"] == "deadline"

    def test_standard_protocol_sets(self):
        assert [s.label for s in standard_protocols()] == [
            "Rapid", "MaxProp", "Spray and Wait", "Random",
        ]
        assert len(component_protocols()) == 4
        assert len(global_channel_protocols()) == 2

    def test_trace_config_validation(self):
        with pytest.raises(ConfigurationError):
            TraceExperimentConfig(num_days=0)
        with pytest.raises(ConfigurationError):
            TraceExperimentConfig(load_packets_per_hour=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda value: TraceExperimentConfig.ci_scale().with_load(value),
            lambda value: SyntheticExperimentConfig(duration=value),
            lambda value: SyntheticExperimentConfig(mean_inter_meeting=value),
        ],
        ids=["trace-load", "synthetic-duration", "synthetic-mean-inter-meeting"],
    )
    def test_configs_reject_non_finite_values(self, build, value):
        with pytest.raises(ConfigurationError, match="positive finite"):
            build(value)

    @pytest.mark.parametrize("capacity", [float("nan"), 0.0, -5.0])
    @pytest.mark.parametrize(
        "build",
        [
            lambda capacity: TraceExperimentConfig(buffer_capacity=capacity),
            lambda capacity: SyntheticExperimentConfig.ci_scale().with_buffer(capacity),
        ],
        ids=["trace", "synthetic"],
    )
    def test_configs_reject_non_positive_buffer_capacity(self, build, capacity):
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            build(capacity)

    @pytest.mark.parametrize(
        "build",
        [
            lambda seed: TraceExperimentConfig(seed=seed),
            lambda seed: TraceExperimentConfig.ci_scale(seed=seed),
            lambda seed: SyntheticExperimentConfig(seed=seed),
            lambda seed: SyntheticExperimentConfig.ci_scale(seed=seed),
        ],
        ids=["trace", "trace-ci", "synthetic", "synthetic-ci"],
    )
    def test_configs_reject_negative_seeds(self, build):
        with pytest.raises(ConfigurationError, match="seed must be non-negative"):
            build(-1)
        assert build(0).seed == 0

    def test_configs_accept_unlimited_buffer_capacity(self):
        assert TraceExperimentConfig(buffer_capacity=float("inf")).buffer_capacity == float("inf")
        synthetic = SyntheticExperimentConfig.ci_scale().with_buffer(float("inf"))
        assert synthetic.buffer_capacity == float("inf")

    def test_trace_config_scales(self):
        paper = TraceExperimentConfig.paper_scale()
        ci = TraceExperimentConfig.ci_scale()
        assert paper.trace_parameters.num_buses > ci.trace_parameters.num_buses
        assert ci.metadata_byte_scale < 1.0
        assert ci.with_load(9.0).load_packets_per_hour == 9.0

    def test_synthetic_config_validation_and_conversion(self):
        with pytest.raises(ConfigurationError):
            SyntheticExperimentConfig(mobility="teleport")
        config = SyntheticExperimentConfig.ci_scale()
        assert config.load_to_packets_per_hour(10) == pytest.approx(720.0)
        assert config.with_mobility("exponential").mobility == "exponential"
        assert config.with_buffer(1000).buffer_capacity == 1000


class TestRunners:
    def test_trace_runner_caches_and_shares_workloads(self, tiny_trace_config):
        runner = TraceRunner(tiny_trace_config)
        assert runner.day_traces() is runner.day_traces()
        first = runner.workloads(2.0)
        second = runner.workloads(2.0)
        assert first is second
        results = runner.run_protocol(standard_protocols()[3], load_packets_per_hour=2.0)
        assert len(results) == tiny_trace_config.num_days

    def test_trace_runner_optimal(self, tiny_trace_config):
        runner = TraceRunner(tiny_trace_config)
        outcomes = runner.run_optimal(load_packets_per_hour=1.0)
        assert outcomes and all(0 <= o.delivery_rate() <= 1 for o in outcomes)

    def test_synthetic_runner(self, tiny_synthetic_config):
        runner = SyntheticRunner(tiny_synthetic_config)
        results = runner.run_protocol(standard_protocols()[3], packets_per_interval=5.0)
        assert len(results) == tiny_synthetic_config.num_runs
        assert results[0].num_packets > 0

    def test_sweep_over_protocols(self, tiny_synthetic_config):
        runner = SyntheticRunner(tiny_synthetic_config)
        specs = standard_protocols()[2:]  # Spray and Wait + Random (fast)
        series = sweep(runner, specs, [2.0, 5.0], "delivery_rate")
        assert set(series) == {spec.label for spec in specs}
        assert all(len(values) == 2 for values in series.values())
        assert all(0.0 <= v <= 1.0 for values in series.values() for v in values)


class TestExperimentIndex:
    def test_every_exhibit_registered(self):
        expected = {"table3"} | {f"figure{i}" for i in list(range(3, 25))}
        assert set(EXPERIMENT_INDEX) == expected


class TestFigureSmoke:
    """Minimal-scale smoke runs of representative figure functions."""

    def test_table3_and_figure3(self, tiny_trace_config):
        from repro.experiments import deployment

        table = deployment.run_table3(config=tiny_trace_config)
        assert 0 <= table.get("percentage_delivered_per_day") <= 100
        figure = deployment.run_figure3(config=tiny_trace_config, simulation_repeats=1)
        assert figure.labels() == ["Real", "Simulation"]
        assert "relative gap" in figure.notes

    def test_figure4_structure(self, tiny_trace_config):
        from repro.experiments import trace_comparison

        figure = trace_comparison.run_figure4(loads=(2.0,), config=tiny_trace_config)
        assert set(figure.labels()) == {"Rapid", "MaxProp", "Spray and Wait", "Random"}
        assert all(len(series.y) == 1 for series in figure.series)
        assert all(y >= 0 for series in figure.series for y in series.y)

    def test_figure8_caps(self, tiny_trace_config):
        from repro.experiments import control_channel

        figure = control_channel.run_figure8(
            caps=(0.0, 0.2), loads=(2.0,), config=tiny_trace_config
        )
        assert len(figure.series) == 1
        assert len(figure.series[0].x) == 2

    def test_figure13_includes_optimal(self, tiny_trace_config):
        from repro.experiments import optimal_comparison

        figure = optimal_comparison.run_figure13(loads=(1.0,), config=tiny_trace_config)
        assert "Optimal" in figure.labels()
        optimal = figure.get("Optimal").y[0]
        rapid = figure.get("Rapid: In-band control channel").y[0]
        assert optimal <= rapid + 1e-6

    def test_figure15_fairness(self, tiny_trace_config):
        from repro.experiments import fairness

        figure = fairness.run_figure15(batch_sizes=(5,), config=tiny_trace_config, background_load=2.0)
        assert figure.series and all(0 <= y <= 1 for y in figure.series[0].y)

    def test_figure16_synthetic(self, tiny_synthetic_config):
        from repro.experiments import synthetic

        figure = synthetic.run_figure16(loads=(3.0,), config=tiny_synthetic_config)
        assert set(figure.labels()) == {"Rapid", "MaxProp", "Spray and Wait", "Random"}

    def test_figure19_buffer_sweep(self, tiny_synthetic_config):
        from repro.experiments import synthetic

        figure = synthetic.run_figure19(buffers_kb=(10.0, 40.0), load=5.0, config=tiny_synthetic_config)
        assert len(figure.series[0].x) == 2
