"""Tests for the observability subsystem.

Covers the trace sinks and recorder, the bounded metrics registry, the
sweep-telemetry aggregation, the trace inspector, and — most importantly
— the two contracts the subsystem makes to the rest of the repo:

* **byte identity when off** — a run with observability disabled emits
  exactly the bytes it emitted before the subsystem existed, and a run
  with observability *on* changes nothing but the opt-in blocks;
* **determinism when on** — traces and metrics are pure functions of
  the cell's inputs: identical across executor backends, worker counts
  and result-cache states.
"""

import json
import math

import pytest

from repro import units
from repro.dtn.results import SimulationResult
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import PoissonWorkload
from repro.engine import ExperimentEngine, ObservabilityOptions, ScenarioGrid, SweepTelemetry
from repro.engine.cache import ENTRY_SUFFIX, ResultCache
from repro.exceptions import ConfigurationError
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig
from repro.mobility.exponential import ExponentialMobility
from repro.observability import (
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    TraceRecorder,
    event_line,
)
from repro.observability.inspect import (
    TraceFormatError,
    load_trace,
    node_summary,
    packet_table,
    packet_timeline,
    trace_overview,
)
from repro.observability.metrics import metrics_interval_from
from repro.routing.registry import create_factory


def _canonical(payloads):
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


def _quick_inputs(seed=3, duration=240.0):
    mobility = ExponentialMobility(
        num_nodes=5,
        mean_inter_meeting=40.0,
        transfer_opportunity=50 * units.KB,
        seed=seed,
    )
    schedule = mobility.generate(duration)
    workload = PoissonWorkload(packets_per_hour=240.0, seed=seed + 1)
    packets = workload.generate(list(range(5)), duration)
    return schedule, packets


def _grid(num_runs=1, loads=(4.0,), protocols=("rapid", "epidemic")):
    config = SyntheticExperimentConfig(
        num_nodes=6,
        mean_inter_meeting=40.0,
        transfer_opportunity=50 * units.KB,
        duration=3 * units.MINUTE,
        buffer_capacity=20 * units.KB,
        deadline=30.0,
        packet_interval=50.0,
        mobility="exponential",
        num_runs=num_runs,
        seed=5,
    )
    specs = [ProtocolSpec(label=name, registry_name=name) for name in protocols]
    return ScenarioGrid(config=config, protocols=specs, loads=loads)


# ----------------------------------------------------------------------
# Trace sinks and recorder
# ----------------------------------------------------------------------
class TestTraceSinks:
    def test_event_line_is_canonical(self):
        line = event_line({"b": 1, "a": 2.5, "t": 0.0})
        assert line == '{"a":2.5,"b":1,"t":0.0}'

    def test_memory_sink_collects_and_renders(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink)
        recorder.ack_learned(3, 7)
        assert len(sink) == 1
        assert sink.events[0] == {"t": 0.0, "ev": "ack_learned", "node": 3, "packet": 7}
        assert sink.lines() == [event_line(sink.events[0])]

    def test_null_sink_recorder_emits_nothing(self):
        recorder = TraceRecorder(NullSink())
        assert recorder.enabled is False
        recorder.ack_learned(0, 0)  # must not raise nor build anything

    def test_default_sink_is_null(self):
        assert TraceRecorder().enabled is False

    def test_recorder_clock_stamps_acks(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink)
        recorder.clock(12.5)
        recorder.ack_learned(1, 2)
        assert sink.events[0]["t"] == 12.5

    def test_infinite_capacity_serializes_as_null(self):
        sink = MemorySink()
        TraceRecorder(sink).contact_open(0, 1, 5.0, math.inf)
        assert sink.events[0]["capacity"] is None
        json.loads(sink.lines()[0])  # strict JSON

    def test_jsonl_sink_writes_lazily(self, tmp_path):
        path = tmp_path / "sub" / "trace.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # lazy: nothing until the first event
        recorder = TraceRecorder(sink)
        recorder.ack_learned(0, 1)
        recorder.ack_learned(1, 1)
        sink.close()
        sink.close()  # idempotent
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # schema header + two events
        header = json.loads(lines[0])
        assert header["schema"] == "repro-dtn-trace"
        assert header["version"] == 1
        assert "packet_created" in header["events"]
        assert json.loads(lines[1])["ev"] == "ack_learned"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_buckets_by_sign_and_decade(self):
        histogram = Histogram()
        for value in (0.0, 0.5, 5.0, 500.0, -5.0):
            histogram.observe(value)
        assert histogram.buckets == {"0": 1, "e0": 2, "e2": 1, "-e0": 1}
        assert histogram.count == 5
        assert histogram.min == -5.0 and histogram.max == 500.0

    def test_mean_is_exact(self):
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.observe(3.0)
        assert histogram.mean == 2.0

    def test_infinite_values_bucket_by_sign(self):
        histogram = Histogram()
        histogram.observe(math.inf)
        histogram.observe(-math.inf)
        histogram.observe(2.0)
        assert histogram.buckets["inf"] == 1 and histogram.buckets["-inf"] == 1
        assert histogram.mean == 2.0  # infinities excluded from the mean

    def test_empty_to_dict(self):
        payload = Histogram().to_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None


class TestMetricsRegistry:
    def test_sampling_boundaries(self):
        registry = MetricsRegistry(interval=10.0)
        assert registry.due(0.0)  # first boundary is t=0
        registry.push(registry.next_sample_time, {"g": 1.0})
        assert not registry.due(5.0)
        assert registry.due(10.0)

    def test_decimation_bounds_memory(self):
        registry = MetricsRegistry(interval=1.0, max_samples=8)
        for step in range(64):
            if registry.due(float(step)):
                registry.push(registry.next_sample_time, {"g": float(step)})
        assert len(registry) < 8
        assert registry.interval > 1.0
        assert registry.requested_interval == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(interval=0.0)
        with pytest.raises(ValueError):
            MetricsRegistry(interval=1.0, max_samples=2)

    def test_counters_and_histograms(self):
        registry = MetricsRegistry(interval=1.0)
        registry.count("drops")
        registry.count("drops", 2.0)
        registry.observe("utility", 10.0)
        payload = registry.to_dict()
        assert payload["counters"] == {"drops": 3.0}
        assert payload["histograms"]["utility"]["count"] == 1

    def test_interval_option_parsing(self):
        assert metrics_interval_from(None) is None
        assert metrics_interval_from({}) is None
        assert metrics_interval_from({"metrics_interval": 5}) == 5.0
        with pytest.raises(ValueError):
            metrics_interval_from({"metrics_interval": -1.0})


# ----------------------------------------------------------------------
# Options and sweep telemetry
# ----------------------------------------------------------------------
class TestObservabilityOptions:
    def test_default_is_disabled(self):
        assert ObservabilityOptions().enabled is False

    def test_enabled_variants(self):
        assert ObservabilityOptions(trace=True).enabled
        assert ObservabilityOptions(metrics_interval=5.0).enabled

    def test_round_trip(self):
        options = ObservabilityOptions(trace=True, metrics_interval=2.0)
        assert ObservabilityOptions.from_dict(options.to_dict()) == options

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservabilityOptions(metrics_interval=0.0)


class TestSweepTelemetry:
    def test_report_aggregates_cells(self):
        telemetry = SweepTelemetry(workers=2)
        telemetry.record_cell(0, "rapid", 2.0, cached=False)
        telemetry.record_cell(1, "rapid", 0.0, cached=True)
        telemetry.record_cell(2, "epidemic", 4.0, cached=False)
        telemetry.add_engine_wall(4.0)
        report = telemetry.report(cache_stats={"hits": 1}, engine_stats={"cells_total": 3})
        assert report["cells_total"] == 3
        assert report["cells_executed"] == 2
        assert report["cache_hits"] == 1
        assert report["cell_wall_s"]["sum"] == 6.0
        assert report["cell_wall_s"]["max"] == 4.0
        # 6 busy worker-seconds over a 2 x 4 s budget.
        assert report["worker_utilization"] == pytest.approx(0.75)
        assert report["slowest_cells"][0]["index"] == 2
        assert report["cache"] == {"hits": 1}
        assert report["engine"] == {"cells_total": 3}

    def test_utilization_none_without_wall(self):
        assert SweepTelemetry().worker_utilization() is None


# ----------------------------------------------------------------------
# Inspector
# ----------------------------------------------------------------------
class TestInspect:
    def _trace_file(self, tmp_path):
        sink = MemorySink()
        recorder = TraceRecorder(sink)
        recorder.contact_open(0, 1, 1.0, 10e3)
        recorder.clock(1.0)
        from repro.dtn.packet import Packet

        packet = Packet(packet_id=0, source=0, destination=1, size=1024, creation_time=0.5)
        recorder.packet_created(packet, stored=True)
        recorder.packet_replicated(packet, 0, 1, 1.5)
        recorder.packet_delivered(packet, 0, 1, 1.5, hops=1)
        recorder.ack_learned(1, 0)
        recorder.contact_close(0, 1, 2.0, 1024.0, 30.0)
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(sink.lines()) + "\n")
        return path

    def test_load_and_overview(self, tmp_path):
        events = load_trace(self._trace_file(tmp_path))
        overview = trace_overview(events)
        assert "packets created:   1" in overview
        assert "contact_open" in overview

    def test_packet_views(self, tmp_path):
        events = load_trace(self._trace_file(tmp_path))
        timeline = packet_timeline(events, 0)
        assert "packet_created" in timeline and "packet_delivered" in timeline
        table = packet_table(events)
        assert "1.0" in table  # delay column: delivered 1.5 - created 0.5
        assert packet_timeline(events, 99).endswith("no events in trace")

    def test_node_views(self, tmp_path):
        events = load_trace(self._trace_file(tmp_path))
        summary = node_summary(events)
        assert summary.count("\n") == 2  # header + two nodes
        assert "no events in trace" in node_summary(events, 42)

    def test_rejects_bad_files(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(TraceFormatError):
            load_trace(missing)
        bad_json = tmp_path / "bad.jsonl"
        bad_json.write_text("{not json\n")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            load_trace(bad_json)
        not_event = tmp_path / "noevent.jsonl"
        not_event.write_text('{"foo": 1}\n')
        with pytest.raises(TraceFormatError, match="missing t/ev"):
            load_trace(not_event)

    def test_empty_views(self):
        assert trace_overview([]) == "empty trace (no events)"
        assert packet_table([]) == "no packet events in trace"
        assert node_summary([]) == "no node events in trace"


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------
class TestSimulatorObservability:
    def test_headline_output_is_byte_identical(self):
        schedule, packets = _quick_inputs()
        default = run_simulation(
            schedule, packets, create_factory("rapid"), buffer_capacity=20 * units.KB, seed=7
        )
        sink = MemorySink()
        observed = run_simulation(
            schedule,
            packets,
            create_factory("rapid"),
            buffer_capacity=20 * units.KB,
            seed=7,
            options={"trace_sink": sink, "metrics_interval": 30.0},
        )
        assert sink.events, "instrumented run emitted no events"
        assert observed.metrics is not None
        headline = observed.to_dict()
        headline.pop("metrics")
        assert _canonical(headline) == _canonical(default.to_dict())

    def test_null_sink_is_the_default_path(self):
        schedule, packets = _quick_inputs()
        observed = run_simulation(
            schedule,
            packets,
            create_factory("rapid"),
            buffer_capacity=20 * units.KB,
            seed=7,
            options={"trace_sink": NullSink()},
        )
        default = run_simulation(
            schedule, packets, create_factory("rapid"), buffer_capacity=20 * units.KB, seed=7
        )
        assert observed.metrics is None
        assert _canonical(observed.to_dict()) == _canonical(default.to_dict())

    def test_trace_is_deterministic(self):
        schedule, packets = _quick_inputs()
        traces = []
        for _ in range(2):
            sink = MemorySink()
            run_simulation(
                schedule,
                packets,
                create_factory("rapid"),
                buffer_capacity=20 * units.KB,
                seed=7,
                options={"trace_sink": sink},
            )
            traces.append("\n".join(sink.lines()))
        assert traces[0] == traces[1]

    def test_metrics_block_round_trips(self):
        schedule, packets = _quick_inputs()
        result = run_simulation(
            schedule,
            packets,
            create_factory("rapid"),
            buffer_capacity=20 * units.KB,
            seed=7,
            options={"metrics_interval": 30.0},
        )
        metrics = result.metrics
        assert metrics is not None
        assert metrics["times"], "no samples were taken"
        assert "buffer_bytes_total" in metrics["series"]
        assert "delivery_rate" in metrics["series"]
        assert any(key.startswith("peak_buffer_bytes.") for key in metrics["counters"])
        restored = SimulationResult.from_dict(result.to_dict())
        assert _canonical(restored.to_dict()) == _canonical(result.to_dict())

    def test_invalid_options_rejected(self):
        schedule, packets = _quick_inputs()
        with pytest.raises(ConfigurationError):
            run_simulation(
                schedule,
                packets,
                create_factory("rapid"),
                buffer_capacity=20 * units.KB,
                seed=7,
                options={"trace_sink": "not-a-sink"},
            )
        with pytest.raises(ConfigurationError):
            run_simulation(
                schedule,
                packets,
                create_factory("rapid"),
                buffer_capacity=20 * units.KB,
                seed=7,
                options={"metrics_interval": -5.0},
            )


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineObservability:
    def _traced(self, grid, workers, cache_dir=None):
        lines = []
        with ExperimentEngine(workers=workers, cache_dir=cache_dir) as engine:
            results = engine.run_cells(
                grid.cells(),
                observability=ObservabilityOptions(trace=True, metrics_interval=30.0),
                trace_writer=lines.append,
            )
            hits = engine.stats.cache_hits
        stripped = []
        for result in results:
            payload = result.to_dict()
            payload.pop("metrics", None)
            stripped.append(payload)
        return "\n".join(lines), _canonical(stripped), hits

    def test_trace_identical_across_backends_and_cache_states(self, tmp_path):
        grid = _grid()
        serial_trace, serial_results, _ = self._traced(grid, workers=1)
        parallel_trace, parallel_results, _ = self._traced(grid, workers=4)
        cold_trace, cold_results, _ = self._traced(grid, 1, tmp_path / "cache")
        warm_trace, warm_results, warm_hits = self._traced(grid, 1, tmp_path / "cache")
        assert parallel_trace == serial_trace
        assert cold_trace == serial_trace
        assert warm_trace == serial_trace
        assert parallel_results == serial_results == cold_results == warm_results
        # Tracing bypasses cache reads: a served hit would skip the
        # simulation that produces the trace.
        assert warm_hits == 0

    def test_telemetry_only_runs_still_use_the_cache(self, tmp_path):
        grid = _grid()
        with ExperimentEngine(cache_dir=tmp_path / "cache") as engine:
            baseline = [r.to_dict() for r in engine.run_cells(grid.cells())]
        telemetry = SweepTelemetry(workers=1)
        with ExperimentEngine(cache_dir=tmp_path / "cache") as engine:
            warm = [r.to_dict() for r in engine.run_cells(grid.cells(), telemetry=telemetry)]
            assert engine.stats.cache_hits == len(grid)
        assert _canonical(warm) == _canonical(baseline)
        report = telemetry.report()
        assert report["cache_hits"] == len(grid)
        assert report["cells_executed"] == 0

    def test_standing_engine_configuration(self):
        grid = _grid(protocols=("epidemic",))
        lines = []
        with ExperimentEngine() as engine:
            engine.observability = ObservabilityOptions(trace=True)
            engine.trace_writer = lines.append
            engine.run_cells(grid.cells())
        assert lines, "standing configuration produced no trace"

    def test_cache_strips_metrics(self, tmp_path):
        grid = _grid(protocols=("epidemic",))
        with ExperimentEngine(cache_dir=tmp_path / "cache") as engine:
            engine.run_cells(
                grid.cells(), observability=ObservabilityOptions(metrics_interval=30.0)
            )
        entries = list((tmp_path / "cache").glob(f"*/*{ENTRY_SUFFIX}"))
        assert entries, "instrumented run stored nothing"
        for entry in entries:
            stored = ResultCache.read_header(entry)
            assert "metrics" not in stored["result"]
            assert "timings" not in stored["result"]
        # A later uninstrumented run serves clean results from the cache.
        with ExperimentEngine(cache_dir=tmp_path / "cache") as engine:
            results = engine.run_cells(grid.cells())
            assert engine.stats.cache_hits == len(grid)
        assert all(r.metrics is None and r.timings == {} for r in results)

    def test_telemetry_wall_times_from_parallel_workers(self, tmp_path):
        grid = _grid(num_runs=2)  # 4 cells
        telemetry = SweepTelemetry(workers=4)
        with ExperimentEngine(workers=4) as engine:
            engine.run_cells(grid.cells(), telemetry=telemetry)
        report = telemetry.report()
        assert report["cells_executed"] == len(grid)
        assert all(cell["wall_s"] > 0 for cell in report["cells"])
        assert 0.0 < report["worker_utilization"] <= 1.0


# ----------------------------------------------------------------------
# Profiling timings across parallel workers
# ----------------------------------------------------------------------
class TestTimingsMergeAcrossWorkers:
    def test_merge_sums_timings(self):
        a = SimulationResult(protocol_name="rapid", duration=10.0)
        a.timings = {"phase": 1.5, "phase_calls": 2.0}
        b = SimulationResult(protocol_name="rapid", duration=10.0)
        b.timings = {"phase": 2.5, "phase_calls": 3.0, "other": 1.0}
        merged = SimulationResult.merge([a, b])
        assert merged.timings == {"phase": 4.0, "phase_calls": 5.0, "other": 1.0}

    def test_timings_survive_workers_and_merge(self, monkeypatch):
        """Profiled cells keep their timings through the multiprocessing
        transport (workers=4), and day-style merging sums them."""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        grid = _grid(num_runs=2, protocols=("epidemic",))  # 2 cells
        with ExperimentEngine(workers=4) as engine:
            results = engine.run_cells(grid.cells())
        assert len(results) == 2
        assert all(r.timings for r in results), "timings lost in worker transport"

        # Remap packet ids so the runs merge like distinct operating days.
        shifted = []
        offset = 0
        for result in results:
            payload = result.to_dict()
            for entry in payload["records"]:
                entry["packet"]["packet_id"] += offset
            offset += 10_000
            shifted.append(SimulationResult.from_dict(payload))
        merged = SimulationResult.merge(shifted)
        for key in results[0].timings:
            expected = sum(r.timings.get(key, 0.0) for r in results)
            assert merged.timings[key] == pytest.approx(expected)


# ----------------------------------------------------------------------
# Schema header and gzip transport
# ----------------------------------------------------------------------
class TestSchemaHeader:
    def test_header_shape(self):
        from repro.observability import (
            DECISION_EVENT_NAMES,
            SCHEMA_NAME,
            SCHEMA_VERSION,
            is_schema_header,
            schema_header,
        )

        header = schema_header()
        assert header["schema"] == SCHEMA_NAME
        assert header["version"] == SCHEMA_VERSION
        assert header["kind"] == "lifecycle"
        assert is_schema_header(header)
        decisions = schema_header(
            events=DECISION_EVENT_NAMES, kind="decisions", result_mode="streaming"
        )
        assert decisions["events"] == ["replication_rank", "eviction_choice"]
        assert decisions["result_mode"] == "streaming"
        # None-valued extras are dropped, not serialized as null.
        assert "result_mode" not in schema_header(result_mode=None)
        assert not is_schema_header({"t": 0.0, "ev": "packet_created"})
        assert not is_schema_header([1, 2])

    def test_read_trace_returns_header(self, tmp_path):
        from repro.observability.inspect import read_trace

        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        TraceRecorder(sink).ack_learned(0, 1)
        sink.close()
        header, events = read_trace(path)
        assert header is not None and header["version"] == 1
        assert len(events) == 1 and events[0]["ev"] == "ack_learned"

    def test_headerless_trace_still_loads(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"t":0.0,"ev":"ack_learned","node":0,"packet":1}\n')
        events = load_trace(path)
        assert len(events) == 1

    def test_unknown_version_warns(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"schema":"repro-dtn-trace","version":99,"kind":"lifecycle","events":[]}\n'
            '{"t":0.0,"ev":"ack_learned","node":0,"packet":1}\n'
        )
        events = load_trace(path)
        assert len(events) == 1
        assert "version 99" in capsys.readouterr().err

    def test_header_only_first_record(self, tmp_path):
        # A schema-shaped dict after events is malformed, not a header.
        path = tmp_path / "mid.jsonl"
        path.write_text(
            '{"t":0.0,"ev":"ack_learned","node":0,"packet":1}\n'
            '{"schema":"repro-dtn-trace","version":1}\n'
        )
        with pytest.raises(TraceFormatError, match="missing t/ev"):
            load_trace(path)


class TestGzipTraces:
    def test_jsonl_sink_gzip_round_trip(self, tmp_path):
        import gzip

        path = tmp_path / "trace.jsonl.gz"
        sink = JsonlSink(path)
        recorder = TraceRecorder(sink)
        recorder.ack_learned(0, 1)
        recorder.ack_learned(1, 1)
        sink.close()
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 3  # header + 2 events
        events = load_trace(path)
        assert [e["ev"] for e in events] == ["ack_learned", "ack_learned"]

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        digests = []
        for name in ("a.jsonl.gz", "b.jsonl.gz"):
            path = tmp_path / name
            sink = JsonlSink(path)
            TraceRecorder(sink).ack_learned(0, 1)
            sink.close()
            digests.append(path.read_bytes())
        assert digests[0] == digests[1]

    def test_corrupt_gzip_is_a_trace_format_error(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(path)


# ----------------------------------------------------------------------
# Decision audit
# ----------------------------------------------------------------------
class TestDecisionRecorder:
    def test_null_sink_disables(self):
        from repro.observability import DecisionRecorder

        recorder = DecisionRecorder()
        assert recorder.enabled is False
        recorder = DecisionRecorder(NullSink())
        assert recorder.enabled is False

    def test_replication_rank_event(self):
        from repro.observability import DecisionRecorder

        sink = MemorySink()
        recorder = DecisionRecorder(sink)
        recorder.replication_rank(
            2, 5, 10.0, "rapid",
            candidates=[1, 3], score=[0.5, float("inf")], improves=[True, False],
        )
        event = sink.events[0]
        assert event["ev"] == "replication_rank"
        assert event["node"] == 2 and event["peer"] == 5 and event["t"] == 10.0
        assert event["candidates"] == [1, 3]
        assert event["score"] == [0.5, None]  # non-finite -> null
        assert event["improves"] == [True, False]
        json.loads(sink.lines()[0])  # strict canonical JSON

    def test_eviction_choice_event(self):
        from repro.observability import DecisionRecorder

        sink = MemorySink()
        recorder = DecisionRecorder(sink)
        recorder.eviction_choice(
            4, 20.0, "rapid", 9,
            candidates=[7, 8], score=[1.0, 2.0], victim=7, reason="lowest_score",
        )
        event = sink.events[0]
        assert event["ev"] == "eviction_choice"
        assert event["victim"] == 7 and event["reason"] == "lowest_score"
        recorder.eviction_choice(
            4, 21.0, "rapid", 9,
            candidates=[], score=[], victim=None, reason="own_packets_protected",
        )
        assert sink.events[1]["victim"] is None


class TestSimulatorDecisionAudit:
    def _run(self, protocol, sink, seed=3):
        schedule, packets = _quick_inputs(seed=seed)
        return run_simulation(
            schedule,
            packets,
            create_factory(protocol),
            buffer_capacity=8 * units.KB,
            seed=7,
            options={"decision_sink": sink} if sink is not None else None,
        )

    @pytest.mark.parametrize("protocol", ["rapid", "maxprop", "prophet", "balanced"])
    def test_protocols_emit_decisions(self, protocol):
        sink = MemorySink()
        self._run(protocol, sink)
        kinds = {e["ev"] for e in sink.events}
        assert "replication_rank" in kinds
        assert all(e["protocol"] == protocol for e in sink.events)
        for event in sink.events:
            if event["ev"] == "replication_rank":
                assert len(event["candidates"]) == len(event["score"])

    def test_audit_does_not_change_results(self):
        default = self._run("rapid", None)
        sink = MemorySink()
        audited = self._run("rapid", sink)
        assert sink.events, "audit emitted nothing under buffer pressure"
        assert _canonical(audited.to_dict()) == _canonical(default.to_dict())

    def test_audit_is_deterministic(self):
        traces = []
        for _ in range(2):
            sink = MemorySink()
            self._run("rapid", sink)
            traces.append("\n".join(sink.lines()))
        assert traces[0] == traces[1]

    def test_eviction_choices_recorded_under_pressure(self):
        sink = MemorySink()
        self._run("rapid", sink)
        evictions = [e for e in sink.events if e["ev"] == "eviction_choice"]
        assert evictions, "no eviction decisions under an 8KB buffer"
        for event in evictions:
            if event["victim"] is not None:
                assert event["victim"] in event["candidates"]
            assert event["reason"]

    def test_invalid_decision_sink_rejected(self):
        with pytest.raises(ConfigurationError, match="decision_sink"):
            self._run("rapid", "not-a-sink")


class TestEngineDecisionAudit:
    def _decisions(self, grid, workers, cache_dir=None):
        lines = []
        with ExperimentEngine(workers=workers, cache_dir=cache_dir) as engine:
            engine.run_cells(
                grid.cells(),
                observability=ObservabilityOptions(decisions=True),
                decisions_writer=lines.append,
            )
        return "\n".join(lines)

    def test_decisions_identical_across_backends_and_cache_states(self, tmp_path):
        grid = _grid()
        serial = self._decisions(grid, workers=1)
        parallel = self._decisions(grid, workers=4)
        cold = self._decisions(grid, 1, tmp_path / "cache")
        warm = self._decisions(grid, 1, tmp_path / "cache")
        assert serial, "no decision events traced"
        assert parallel == serial
        assert cold == serial == warm

    def test_options_round_trip_decisions_flag(self):
        options = ObservabilityOptions(decisions=True)
        assert options.enabled
        restored = ObservabilityOptions.from_dict(options.to_dict())
        assert restored.decisions is True
