"""Tests for the parallel experiment engine.

Covers the declarative scenario layer (specs, grids, content addresses),
result serialization round-trips, serial vs. multiprocess equivalence,
the on-disk result cache (hit/miss/invalidation/corruption recovery),
aggregation, the deterministic event-queue ordering the engine's
bit-identical guarantee rests on, and the CLI engine flags.
"""

import json
import struct

import pytest

from repro import units
from repro.dtn.events import (
    EndOfSimulationEvent,
    EventKind,
    MeetingEvent,
    PacketCreationEvent,
)
from repro.dtn.node import DeploymentNoise
from repro.dtn.packet import Packet
from repro.dtn.results import SimulationResult
from repro.dtn.scheduler import EventQueue
from repro.engine import (
    Aggregator,
    ExperimentEngine,
    Executor,
    ResultCache,
    ScenarioGrid,
    ScenarioSpec,
    get_default_engine,
    use_engine,
)
from repro.engine import worker as cell_worker
from repro.engine.resilient import ResilientPool
from repro.exceptions import ConfigurationError
from repro.experiments.config import (
    ProtocolSpec,
    SyntheticExperimentConfig,
    TraceExperimentConfig,
)
from repro.experiments.runner import SyntheticRunner, TraceRunner, sweep
from repro.mobility.schedule import Meeting


@pytest.fixture(scope="module")
def tiny_synth_config():
    return SyntheticExperimentConfig(
        num_nodes=6,
        mean_inter_meeting=40.0,
        transfer_opportunity=50 * units.KB,
        duration=3 * units.MINUTE,
        buffer_capacity=20 * units.KB,
        deadline=30.0,
        packet_interval=50.0,
        mobility="powerlaw",
        num_runs=2,
        seed=5,
    )


@pytest.fixture(scope="module")
def tiny_grid(tiny_synth_config):
    return ScenarioGrid(
        config=tiny_synth_config,
        protocols=[
            ProtocolSpec("Random", "random"),
            ProtocolSpec("Spray and Wait", "spray-and-wait"),
        ],
        loads=(2.0, 5.0),
    )


def run_tiny_simulation():
    from repro.mobility.exponential import ExponentialMobility
    from repro.dtn.workload import PoissonWorkload
    from repro.routing.registry import create_factory
    from repro.dtn.simulator import run_simulation

    schedule = ExponentialMobility(num_nodes=5, mean_inter_meeting=20.0, seed=1).generate(120.0)
    packets = PoissonWorkload(packets_per_hour=200.0, deadline=40.0, seed=2).generate(
        list(range(5)), 120.0
    )
    return run_simulation(
        schedule, packets, create_factory("random"), buffer_capacity=30 * units.KB, seed=3
    )


class TestResultSerialization:
    def test_round_trip_preserves_every_metric(self):
        result = run_tiny_simulation()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = SimulationResult.from_dict(payload)
        assert restored.summary() == result.summary()
        assert restored.delays(include_undelivered=True) == result.delays(include_undelivered=True)
        assert set(restored.records) == set(result.records)
        some_id = next(iter(result.records))
        assert restored.records[some_id].packet == result.records[some_id].packet
        assert restored.node_counters == result.node_counters

    def test_incompatible_schema_rejected(self):
        result = run_tiny_simulation()
        payload = result.to_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            SimulationResult.from_dict(payload)


class TestScenarioSpec:
    def test_round_trip_and_rehydration(self, tiny_synth_config):
        spec = ScenarioSpec.for_cell(
            config=tiny_synth_config,
            protocol=ProtocolSpec("Rapid", "rapid", {"metric": "average_delay"}),
            load=4.0,
            run_index=1,
            noise=DeploymentNoise(seed=9),
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.experiment_config() == tiny_synth_config
        assert restored.protocol_spec().registry_name == "rapid"
        assert restored.deployment_noise() == DeploymentNoise(seed=9)

    def test_trace_config_round_trip(self):
        config = TraceExperimentConfig.ci_scale(num_days=2)
        spec = ScenarioSpec.for_cell(config, ProtocolSpec("Random", "random"), 2.0, 0)
        assert spec.family == "trace"
        assert spec.experiment_config() == config

    def test_cache_key_stable_and_content_addressed(self, tiny_synth_config):
        protocol = ProtocolSpec("Random", "random")
        a = ScenarioSpec.for_cell(tiny_synth_config, protocol, 4.0, 0)
        b = ScenarioSpec.for_cell(tiny_synth_config, protocol, 4.0, 0)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != ScenarioSpec.for_cell(tiny_synth_config, protocol, 5.0, 0).cache_key()
        assert a.cache_key() != ScenarioSpec.for_cell(tiny_synth_config, protocol, 4.0, 1).cache_key()
        reconfigured = SyntheticExperimentConfig.from_dict(
            {**tiny_synth_config.to_dict(), "seed": 6}
        )
        assert a.cache_key() != ScenarioSpec.for_cell(reconfigured, protocol, 4.0, 0).cache_key()
        retuned = ProtocolSpec("Random", "random", {"metric": "max_delay"})
        assert a.cache_key() != ScenarioSpec.for_cell(tiny_synth_config, retuned, 4.0, 0).cache_key()

    def test_validation(self, tiny_synth_config):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(family="bogus", config={}, protocol={}, load=1.0, run_index=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec.for_cell(tiny_synth_config, ProtocolSpec("R", "random"), 0.0, 0)

    @pytest.mark.parametrize("capacity", [float("nan"), 0.0, -1.0])
    def test_rejects_non_positive_buffer_capacity(self, tiny_synth_config, capacity):
        protocol = ProtocolSpec("R", "random")
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            ScenarioSpec.for_cell(tiny_synth_config, protocol, 1.0, 0, buffer_capacity=capacity)
        grid = ScenarioGrid(
            config=tiny_synth_config, protocols=[protocol], loads=(1.0,), buffer_capacity=capacity
        )
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            grid.cells()
        unlimited = ScenarioSpec.for_cell(
            tiny_synth_config, protocol, 1.0, 0, buffer_capacity=float("inf")
        )
        assert unlimited.buffer_capacity == float("inf")


class TestScenarioGrid:
    def test_expansion_order_and_size(self, tiny_grid):
        cells = tiny_grid.cells()
        assert len(cells) == len(tiny_grid) == 2 * 2 * 2
        # loads outer, then protocols, then run indices
        assert [ (c.load, c.label, c.run_index) for c in cells[:4] ] == [
            (2.0, "Random", 0),
            (2.0, "Random", 1),
            (2.0, "Spray and Wait", 0),
            (2.0, "Spray and Wait", 1),
        ]

    def test_trace_grid_defaults_to_days(self):
        grid = ScenarioGrid(
            config=TraceExperimentConfig.ci_scale(num_days=3),
            protocols=[ProtocolSpec("Random", "random")],
            loads=(2.0,),
        )
        assert [c.run_index for c in grid.cells()] == [0, 1, 2]

    def test_empty_grid_rejected(self, tiny_synth_config):
        with pytest.raises(ConfigurationError):
            ScenarioGrid(config=tiny_synth_config, protocols=[], loads=(1.0,))


def _results(executor, cells):
    """The results of *cells* run through *executor* (no failures allowed)."""
    outcomes, failures = executor.run(cells)
    assert failures == []
    return [outcome.result for outcome in outcomes]


class TestExecutorBackends:
    def test_serial_and_process_results_identical(self, tiny_grid):
        cells = tiny_grid.cells()
        serial = _results(Executor(workers=1), cells)
        with Executor(workers=2) as executor:
            parallel = _results(executor, cells)
        assert [r.summary() for r in serial] == [r.summary() for r in parallel]
        assert [r.protocol_name for r in serial] == [c.protocol_spec().factory().name for c in cells]

    def test_progress_callback_ordered(self, tiny_grid):
        cells = tiny_grid.cells()[:3]
        seen = []
        Executor(workers=1).run(cells, progress=lambda done, total, spec: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Executor(workers=0)
        assert Executor(workers=1).run([]) == ([], [])


def _interleaved(cells):
    """The tiny grid's loads 2 and 5 alternating: (2, 5, 2, 5, ...)."""
    light, heavy = cells[:4], cells[4:]
    assert {c.load for c in light} == {2.0} and {c.load for c in heavy} == {5.0}
    return [cell for pair in zip(light, heavy) for cell in pair]


class TestHeaviestFirstDispatch:
    def test_pool_receives_heaviest_load_first_with_stable_ties(self, tiny_grid, monkeypatch):
        cells = tiny_grid.cells()
        mixed = _interleaved(cells)
        dispatched = []

        def recording_imap(pool, payloads, labels=None):
            payloads = list(payloads)
            assert labels == [payload["spec"]["protocol"]["label"] for payload in payloads]
            dispatched.extend(ScenarioSpec.from_dict(payload["spec"]) for payload in payloads)
            # Settle last-dispatched first, so only the executor's mapping
            # can put each outcome back in its submission slot.
            for position in reversed(range(len(payloads))):
                yield position, cell_worker.execute_cell(payloads[position]), None

        monkeypatch.setattr(ResilientPool, "imap_unordered", recording_imap)
        with Executor(workers=2) as executor:
            outcomes, failures = executor.run(mixed)
        assert failures == []
        # Loads descending; equal loads keep their submission order.
        assert dispatched == cells[4:] + cells[:4]
        serial = _results(Executor(workers=1), mixed)
        assert [o.result.to_dict() for o in outcomes] == [r.to_dict() for r in serial]

    def test_in_process_branch_keeps_submission_order(self, tiny_grid, monkeypatch):
        mixed = _interleaved(tiny_grid.cells())
        ran = []
        observe = cell_worker.observe_cell

        def recording_observe(spec, observability):
            ran.append(spec)
            return observe(spec, observability)

        monkeypatch.setattr("repro.engine.executor.observe_cell", recording_observe)
        Executor(workers=1).run(mixed)
        assert ran == mixed


class TestEngineEquivalenceAndSweep:
    def test_engine_sweep_series_matches_runner_sweep(self, tiny_grid, tiny_synth_config):
        engine_series = ExperimentEngine(workers=1).sweep_series(tiny_grid, "delivery_rate")
        runner = SyntheticRunner(tiny_synth_config)
        runner_series = sweep(
            runner,
            list(tiny_grid.protocols),
            list(tiny_grid.loads),
            "delivery_rate",
        )
        assert engine_series == runner_series

    def test_serial_vs_multiprocess_sweep_identical(self, tiny_grid):
        serial = ExperimentEngine(workers=1).sweep_series(tiny_grid, "average_delay")
        parallel = ExperimentEngine(workers=2).sweep_series(tiny_grid, "average_delay")
        assert serial == parallel

    def test_uniform_runner_interface(self, tiny_synth_config):
        trace_runner = TraceRunner(TraceExperimentConfig.ci_scale(num_days=1))
        synth_runner = SyntheticRunner(tiny_synth_config)
        assert trace_runner.load_keyword == "load_packets_per_hour"
        assert synth_runner.load_keyword == "packets_per_interval"
        # trace cells resolve the config's default load; synthetic demands one
        cells = trace_runner.cells(ProtocolSpec("Random", "random"))
        assert all(c.load == trace_runner.config.load_packets_per_hour for c in cells)
        with pytest.raises(ConfigurationError):
            synth_runner.cells(ProtocolSpec("Random", "random"))

    def test_default_engine_context(self):
        special = ExperimentEngine(workers=1)
        with use_engine(special) as active:
            assert get_default_engine() is special is active
        assert get_default_engine() is not special


def _entry_corruptions():
    """Ways a cache entry can rot, each mapping its bytes to bad ones."""

    def truncated(data):
        return data[:20]

    def wrong_byte_length(data):
        return data[:-1]

    def garbage_header(data):
        (length,) = struct.unpack_from("<Q", data)
        return data[:8] + b"\xff" * length + data[8 + length :]

    def foreign_dtype(data):
        (length,) = struct.unpack_from("<Q", data)
        header = json.loads(data[8 : 8 + length])
        header["result"]["records"]["layout"][0][1] = "<i4"
        encoded = json.dumps(header).encode()
        return struct.pack("<Q", len(encoded)) + encoded + data[8 + length :]

    return [truncated, wrong_byte_length, garbage_header, foreign_dtype]


class TestResultCache:
    def test_hit_miss_and_stats(self, tmp_path, tiny_grid):
        cache = ResultCache(tmp_path / "cache")
        cells = tiny_grid.cells()[:2]
        assert cache.get(cells[0]) is None
        results = _results(Executor(workers=1), cells)
        for spec, result in zip(cells, results):
            cache.put(spec, result)
        assert len(cache) == 2
        hit = cache.get(cells[0])
        assert hit is not None and hit.summary() == results[0].summary()
        assert cache.stats.hits == 1 and cache.stats.misses == 1 and cache.stats.stores == 2

    def test_spec_change_invalidates(self, tmp_path, tiny_synth_config):
        cache = ResultCache(tmp_path / "cache")
        base = ScenarioSpec.for_cell(tiny_synth_config, ProtocolSpec("Random", "random"), 2.0, 0)
        cache.put(base, cell_worker.run_cell(base))
        assert cache.get(base) is not None
        changed = ScenarioSpec.for_cell(
            tiny_synth_config, ProtocolSpec("Random", "random"), 2.0, 0, buffer_capacity=5 * units.KB
        )
        assert cache.get(changed) is None

    def test_corrupted_entry_recovers(self, tmp_path, tiny_synth_config):
        cache_dir = tmp_path / "cache"
        spec = ScenarioSpec.for_cell(tiny_synth_config, ProtocolSpec("Random", "random"), 2.0, 0)
        engine = ExperimentEngine(workers=1, cache_dir=cache_dir)
        first = engine.run_cells([spec])
        entry = engine.cache.entry_path(spec)
        assert entry.exists()
        entry.write_text("{ not json", encoding="utf-8")
        healed = ExperimentEngine(workers=1, cache_dir=cache_dir)
        second = healed.run_cells([spec])
        assert second[0].summary() == first[0].summary()
        assert healed.cache.stats.corrupt_entries == 1
        assert healed.stats.cells_executed == 1  # re-simulated, then re-stored
        third = ExperimentEngine(workers=1, cache_dir=cache_dir).run_cells([spec])
        assert third[0].summary() == first[0].summary()
        # Every way an entry can rot is a miss that re-simulates and heals.
        for corrupt in _entry_corruptions():
            entry.write_bytes(corrupt(entry.read_bytes()))
            healed = ExperimentEngine(workers=1, cache_dir=cache_dir)
            assert healed.run_cells([spec])[0].to_dict() == first[0].to_dict()
            assert healed.cache.stats.corrupt_entries == 1, corrupt.__name__
            assert healed.stats.cells_executed == 1, corrupt.__name__
            served = ResultCache(cache_dir).get(spec)
            assert served is not None and served.to_dict() == first[0].to_dict()

    def test_warm_cache_serves_without_simulator(self, tmp_path, tiny_grid, monkeypatch):
        cache_dir = tmp_path / "cache"
        cells = tiny_grid.cells()
        warm = ExperimentEngine(workers=1, cache_dir=cache_dir)
        originals = warm.run_cells(cells)
        assert warm.stats.cells_executed == len(cells)

        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulator must not be called on a warm cache")

        monkeypatch.setattr(cell_worker, "run_simulation", _forbidden)
        replay = ExperimentEngine(workers=1, cache_dir=cache_dir)
        replayed = replay.run_cells(cells)
        assert replay.stats.cache_hits == len(cells)
        assert replay.stats.cells_executed == 0
        assert [r.summary() for r in replayed] == [r.summary() for r in originals]


class TestAggregator:
    def test_groups_and_averages_by_label_and_load(self, tiny_grid):
        cells = tiny_grid.cells()
        results = _results(Executor(workers=1), cells)
        series = Aggregator("delivery_rate").series(cells, results)
        assert set(series) == {"Random", "Spray and Wait"}
        assert all(len(values) == len(tiny_grid.loads) for values in series.values())
        # spot-check one mean against a manual reduction
        manual = [
            r.delivery_rate()
            for c, r in zip(cells, results)
            if c.label == "Random" and c.load == 2.0
        ]
        assert series["Random"][0] == pytest.approx(sum(manual) / len(manual))

    def test_mismatched_lengths_rejected(self, tiny_grid):
        with pytest.raises(ValueError):
            Aggregator("delivery_rate").series(tiny_grid.cells(), [])

    def test_unknown_group_rejected(self, tiny_grid):
        cells = tiny_grid.cells()
        results = _results(Executor(workers=1), cells)
        with pytest.raises(KeyError):
            Aggregator("delivery_rate").series(cells, results, labels=["Nope"])


class TestEventQueueOrdering:
    def test_kind_priority_at_equal_time(self):
        meeting = Meeting(time=5.0, node_a=0, node_b=1, capacity=1000.0)
        packet = Packet(packet_id=0, source=0, destination=1, creation_time=5.0)
        queue = EventQueue()
        queue.push(EndOfSimulationEvent(time=5.0))
        queue.push(MeetingEvent(time=5.0, meeting=meeting))
        queue.push(PacketCreationEvent(time=5.0, packet=packet))
        kinds = [event.kind for event in queue.drain()]
        assert kinds == [EventKind.PACKET_CREATION, EventKind.MEETING, EventKind.END_OF_SIMULATION]

    def test_insertion_order_breaks_remaining_ties(self):
        first = Meeting(time=5.0, node_a=0, node_b=1, capacity=1.0)
        second = Meeting(time=5.0, node_a=2, node_b=3, capacity=2.0)
        queue = EventQueue()
        queue.push_all([MeetingEvent(time=5.0, meeting=first), MeetingEvent(time=5.0, meeting=second)])
        drained = queue.drain()
        assert [e.meeting for e in drained] == [first, second]

    def test_time_dominates(self):
        meeting = Meeting(time=1.0, node_a=0, node_b=1)
        queue = EventQueue([EndOfSimulationEvent(time=2.0), MeetingEvent(time=1.0, meeting=meeting)])
        assert queue.peek_time() == 1.0
        assert isinstance(queue.pop(), MeetingEvent)


class TestCLIEngineFlags:
    def test_run_with_workers_and_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cli-cache")
        assert main(["run", "figure4", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr()
        assert main(["run", "figure4", "--cache-dir", cache_dir, "--workers", "2"]) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "cache hits: 0" in first.err
        assert "executed: 0" in second.err

    def test_sweep_subcommand(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep", "--family", "synthetic", "--protocols", "random",
                    "--loads", "2", "--metric", "delivery_rate",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "random" in captured.out
        assert "[engine]" in captured.err
