"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure4" in output and "table3" in output

    def test_protocols(self, capsys):
        assert main(["protocols"]) == 0
        output = capsys.readouterr().out
        assert "rapid" in output and "maxprop" in output

    def test_quicksim(self, capsys):
        code = main([
            "quicksim", "--protocol", "random", "--nodes", "5",
            "--duration", "120", "--mean-meeting", "30", "--load", "30",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "delivery_rate" in output

    def test_quicksim_rapid(self, capsys):
        assert main(["quicksim", "--protocol", "rapid", "--nodes", "4", "--duration", "60"]) == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--nodes", "1"],
            ["--nodes", "0"],
            ["--duration", "0"],
            ["--mean-meeting", "0"],
            ["--load", "0"],
            ["--buffer-kb", "nan"],
            ["--buffer-kb", "-5"],
        ],
    )
    def test_quicksim_rejects_bad_input(self, flags, capsys):
        assert main(["quicksim", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("load", ["nan", "inf"])
    def test_sweep_rejects_non_finite_loads(self, load, capsys):
        code = main([
            "sweep", "--family", "synthetic", "--protocols", "rapid",
            "--loads", load, "--no-cache",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["quicksim", "--duration", "100", "--seed", "-1"],
            ["run", "figure4", "--scale", "ci", "--seed", "-3", "--no-cache"],
            ["sweep", "--seed", "-2", "--loads", "1", "--protocols", "random", "--no-cache"],
        ],
        ids=["quicksim", "run", "sweep"],
    )
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])


class TestObservabilityCLI:
    def test_quicksim_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "quicksim", "--protocol", "rapid", "--nodes", "4", "--duration", "120",
            "--trace-out", str(trace), "--metrics-interval", "30",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "metrics:" in output
        lines = trace.read_text().splitlines()
        assert lines and '"schema"' in lines[0]  # self-describing header
        assert len(lines) > 1 and all('"ev"' in line for line in lines[1:])

    def test_inspect_views(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main([
            "quicksim", "--protocol", "epidemic", "--nodes", "4", "--duration", "120",
            "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        assert "event counts:" in capsys.readouterr().out
        assert main(["inspect", str(trace), "--packets", "--limit", "3"]) == 0
        assert "packet" in capsys.readouterr().out
        assert main(["inspect", str(trace), "--nodes"]) == 0
        assert "contacts" in capsys.readouterr().out
        assert main(["inspect", str(trace), "--packet", "0"]) == 0
        assert "timeline" in capsys.readouterr().out

    def test_inspect_rejects_bad_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert main(["inspect", str(bad)]) == 2

    def test_metrics_interval_validated(self, tmp_path):
        assert main([
            "quicksim", "--protocol", "rapid", "--nodes", "4", "--duration", "60",
            "--metrics-interval", "-1",
        ]) == 2


class TestForensicsCLI:
    @pytest.fixture()
    def traced(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        decisions = tmp_path / "decisions.jsonl.gz"
        assert main([
            "quicksim", "--protocol", "rapid", "--nodes", "6",
            "--duration", "600", "--load", "40", "--buffer-kb", "8",
            "--trace-out", str(trace), "--decisions-out", str(decisions),
            "--seed", "3",
        ]) == 0
        capsys.readouterr()
        return trace, decisions

    def test_decisions_out_gzip(self, traced):
        import gzip
        import json

        _, decisions = traced
        with gzip.open(decisions, "rt", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "decisions"
        events = {json.loads(line)["ev"] for line in lines[1:]}
        assert "replication_rank" in events

    def test_inspect_why(self, traced, capsys):
        trace, decisions = traced
        import gzip
        import json

        # A delivered packet that the decision audit actually ranked
        # (direct source->destination deliveries never enter a ranking).
        with gzip.open(decisions, "rt", encoding="utf-8") as handle:
            ranked = {
                packet
                for line in handle.read().splitlines()[1:]
                for packet in json.loads(line).get("candidates", ())
            }
        delivered = None
        for line in trace.read_text().splitlines()[1:]:
            event = json.loads(line)
            if event["ev"] == "packet_delivered" and event["packet"] in ranked:
                delivered = event["packet"]
                break
        assert delivered is not None
        assert main(["inspect", str(trace), "--why", str(delivered)]) == 0
        output = capsys.readouterr().out
        assert "winning path" in output and "latency decomposition" in output
        # Cross-referencing the decision audit adds the rankings.
        assert main([
            "inspect", str(trace), "--why", str(delivered),
            "--decisions", str(decisions),
        ]) == 0
        assert "decision audit" in capsys.readouterr().out

    def test_inspect_why_unknown_packet_clean_error(self, traced, capsys):
        trace, _ = traced
        assert main(["inspect", str(trace), "--why", "999999"]) == 2
        assert "no events" in capsys.readouterr().err

    def test_inspect_funnel(self, traced, capsys):
        trace, _ = traced
        assert main(["inspect", str(trace), "--funnel"]) == 0
        output = capsys.readouterr().out
        assert "delivery funnel" in output and "delivered" in output

    def test_inspect_streaming_trace_degrades_gracefully(self, tmp_path, capsys):
        trace = tmp_path / "stream.jsonl"
        assert main([
            "quicksim", "--protocol", "rapid", "--nodes", "5",
            "--duration", "300", "--result-mode", "streaming",
            "--trace-out", str(trace), "--seed", "2",
        ]) == 0
        capsys.readouterr()
        import json

        header = json.loads(trace.read_text().splitlines()[0])
        assert header["result_mode"] == "streaming"
        assert main(["inspect", str(trace), "--funnel"]) == 0
        captured = capsys.readouterr()
        assert "delivery funnel" in captured.out
        assert "streaming-mode run" in captured.err


class TestReportCLI:
    def _assert_self_contained(self, html):
        assert html.startswith("<!DOCTYPE html>")
        for marker in ("http://", "https://", "<script", "src=", "<link"):
            assert marker not in html, f"external reference: {marker}"

    def test_report_from_trace_and_bench(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main([
            "quicksim", "--protocol", "epidemic", "--nodes", "4",
            "--duration", "180", "--trace-out", str(trace),
        ]) == 0
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "BENCH_sample.json").write_text(
            json.dumps({"bench": "sample", "wall_time_s": 1.5, "workers": 1})
        )
        out = tmp_path / "report.html"
        assert main([
            "report", "--out", str(out), "--trace", str(trace),
            "--bench-dir", str(bench_dir), "--title", "test report",
        ]) == 0
        html = out.read_text()
        self._assert_self_contained(html)
        assert "Delivery funnel" in html and "Benchmark records" in html

    def test_report_requires_out(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_report_bad_telemetry_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "tel.json"
        bad.write_text("{nope")
        out = tmp_path / "report.html"
        assert main(["report", "--out", str(out), "--telemetry", str(bad)]) == 2
        assert "cannot read telemetry" in capsys.readouterr().err

    def test_sweep_report(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl.gz"
        out = tmp_path / "sweep.html"
        assert main([
            "sweep", "--family", "synthetic", "--protocols", "epidemic",
            "--loads", "2", "--scale", "ci", "--trace-out", str(trace),
            "--report", str(out),
        ]) == 0
        capsys.readouterr()
        html = out.read_text()
        self._assert_self_contained(html)
        assert "Metric series" in html
        assert "Sweep telemetry" in html
        assert "Delivery funnel" in html


class TestQuicksimIsOneEngineCell:
    """``quicksim`` runs exactly the engine cell its flags describe.

    Each case builds the expected :class:`ScenarioSpec` by hand and runs
    it through the engine worker; the command must print that cell's
    summary and write that cell's trace and decision-audit lines.
    """

    BASE = ["--protocol", "rapid", "--nodes", "5", "--duration", "300", "--seed", "3"]

    CASES = {
        "plain": ([], {}),
        "crash": (["--fault-model", "crash"], {"faults": "crash"}),
        "durational": (["--contact-model", "durational"], {"contact_model": "durational"}),
        "waypoint": (
            ["--mobility", "waypoint", "--arena", "300", "--radio-range", "120"],
            {"mobility": "waypoint"},
        ),
    }

    @staticmethod
    def _spec(faults=None, contact_model="instantaneous", mobility="exponential"):
        from repro import units
        from repro.engine import ScenarioSpec
        from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig
        from repro.faults import FaultParameters
        from repro.mobility.spatial import SpatialParameters

        spatial = SpatialParameters()
        if mobility == "waypoint":
            spatial = spatial.with_arena(300.0).with_radio_range(120.0)
        config = SyntheticExperimentConfig(
            num_nodes=5,
            mean_inter_meeting=60.0,
            duration=300.0,
            buffer_capacity=100 * units.KB,
            deadline=None,
            mobility=mobility,
            spatial=spatial,
            num_runs=1,
            seed=3,
            contact_model=contact_model,
            faults=FaultParameters(model=faults),
        )
        return ScenarioSpec.for_cell(
            config,
            ProtocolSpec("rapid", "rapid", {}),
            load=30.0 * config.packet_interval / units.HOUR,
            run_index=0,
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_summary_trace_and_decisions_match_the_engine_cell(self, case, tmp_path, capsys):
        import json

        from repro.engine.worker import observe_cell
        from repro.observability import (
            DECISION_EVENT_NAMES,
            ObservabilityOptions,
            schema_header,
        )

        flags, spec_kwargs = self.CASES[case]
        trace, decisions = tmp_path / "trace.jsonl", tmp_path / "decisions.jsonl"
        assert main([
            "quicksim", *self.BASE, *flags,
            "--trace-out", str(trace), "--decisions-out", str(decisions),
        ]) == 0
        printed = capsys.readouterr().out

        outcome = observe_cell(
            self._spec(**spec_kwargs), ObservabilityOptions(trace=True, decisions=True)
        )
        result = outcome.result
        expected = [f"protocol:          {result.protocol_name}"] + [
            f"{key:35s} {value:.4f}" for key, value in result.summary().items()
        ]
        assert printed.splitlines() == expected

        def header(**kwargs):
            return json.dumps(schema_header(**kwargs), sort_keys=True, separators=(",", ":"))

        assert outcome.trace and outcome.decisions
        assert trace.read_text().splitlines() == [header(result_mode=None), *outcome.trace]
        assert decisions.read_text().splitlines() == [
            header(events=DECISION_EVENT_NAMES, kind="decisions", result_mode=None),
            *outcome.decisions,
        ]


class _CellsCaptured(Exception):
    """Raised by the patched engine once it has seen the cells to run."""


class TestSingleModelFlags:
    """``run`` and ``quicksim`` apply one ``--workload``/``--fault-model``
    to every cell they run, through the same config resolution."""

    COMMANDS = {
        "run": ["run", "figure4", "--scale", "ci"],
        "quicksim": ["quicksim", "--protocol", "random", "--nodes", "4", "--duration", "60"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_models_reach_the_cell_spec(self, command, monkeypatch):
        from repro.engine import ExperimentEngine

        cells = []

        def capture(engine, specs, *args, **kwargs):
            cells.extend(specs)
            raise _CellsCaptured

        monkeypatch.setattr(ExperimentEngine, "run_cells", capture)
        with pytest.raises(_CellsCaptured):
            main([*self.COMMANDS[command], "--workload", "zipf", "--fault-model", "crash"])
        assert cells
        assert {(spec.resolved_workload(), spec.resolved_faults()) for spec in cells} == {
            ("zipf", "crash")
        }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_zipf_alpha_without_zipf_model_exits_2(self, command, capsys):
        assert main([*self.COMMANDS[command], "--zipf-alpha", "0.9"]) == 2
        assert "--zipf-alpha" in capsys.readouterr().err
