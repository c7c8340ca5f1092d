"""Tests for the failure-resilient sweep engine.

Covers the self-healing worker pool (crash isolation, per-cell
timeouts, bounded deterministic backoff, partial results), the sweep
manifest behind ``repro-dtn sweep --resume``, the fail-fast validation
of trace/telemetry output paths, and the headline robustness claims:

* a sweep with one worker **SIGKILLed mid-cell** completes via retry
  with results byte-identical to an undisturbed run;
* a sweep interrupted and **resumed** replays completed cells from the
  result cache and prints byte-identical output;
* ``KeyboardInterrupt`` tears the pool down without orphaning workers.
"""

import json
import os
import signal
import time

import pytest

from repro import units
from repro.engine import (
    CellFailure,
    ExperimentEngine,
    Executor,
    ResultCache,
    ScenarioGrid,
    SweepManifest,
    SweepTelemetry,
)
from repro.engine import worker as cell_worker
from repro.engine.resilient import RemoteTraceback, ResilientPool
from repro.exceptions import ConfigurationError, WorkerError
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig
from repro.observability import JsonlSink, validate_writable
from repro.observability.telemetry import SWEEP_REPORT_VERSION


# ----------------------------------------------------------------------
# Top-level payload functions (workers fork/spawn these, so they must be
# importable — no closures).
# ----------------------------------------------------------------------
def _square(payload):
    return payload * payload


def _boom(payload):
    raise RuntimeError(f"cell {payload} exploded")


def _flaky(payload):
    """Fail (or self-SIGKILL) the first time, succeed on retry.

    ``payload`` is ``(value, marker_path, mode)``; the marker file is the
    cross-process memory that makes the first attempt misbehave and every
    later attempt succeed.
    """
    value, marker, mode = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("attempted\n")
        if mode == "raise":
            raise RuntimeError("first attempt fails")
        if mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == "hang":
            time.sleep(60.0)
    return value * value


def _simulate_payload(payload):
    """Run one real simulation cell, optionally self-SIGKILLing first.

    Returns the canonical serialized result so byte-identity across the
    disturbed and undisturbed runs is checked on the wire format itself.
    """
    seed, marker = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("attempted\n")
        os.kill(os.getpid(), signal.SIGKILL)
    from repro.dtn.simulator import run_simulation
    from repro.dtn.workload import PoissonWorkload
    from repro.mobility.exponential import ExponentialMobility
    from repro.routing.registry import create_factory

    mobility = ExponentialMobility(
        num_nodes=5, mean_inter_meeting=40.0, transfer_opportunity=50 * units.KB, seed=seed
    )
    schedule = mobility.generate(240.0)
    packets = PoissonWorkload(packets_per_hour=240.0, seed=seed + 1).generate(
        list(range(5)), 240.0
    )
    result = run_simulation(
        schedule, packets, create_factory("rapid"), buffer_capacity=20 * units.KB, seed=7
    )
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _interrupting_progress(done, total, index):
    raise KeyboardInterrupt


def _nap(seconds):
    time.sleep(seconds)
    return seconds


# Stand-ins for the engine's in-worker cell runner.  Workers are forked
# after the test patches ``repro.engine.worker.run_cell``, so they run
# these; each keys its misbehaviour on the cell's run index.
_RUN_CELL = cell_worker.run_cell


class _CellBug(Exception):
    """A cell failure whose type must survive the trip out of a worker."""


def _buggy_run_cell(spec, extra_options=None):
    if spec.run_index == 1:
        raise _CellBug(f"bug in run {spec.run_index}")
    return _RUN_CELL(spec, extra_options)


def _sigkill_run_cell(spec, extra_options=None):
    if spec.run_index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _RUN_CELL(spec, extra_options)


def _light_random_run_cell(spec, extra_options=None):
    if spec.load == 2.0 and spec.label == "random":
        raise _CellBug(f"bug in {spec.label} at load {spec.load:g}")
    return _RUN_CELL(spec, extra_options)


def _slow_first_run_cell(spec, extra_options=None):
    if spec.run_index == 0:
        time.sleep(1.5)
    return _RUN_CELL(spec, extra_options)


class _Deadline:
    """Fail the test instead of hanging when a run never returns."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise TimeoutError(f"run did not return within {self.seconds}s")

        self.previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc_info):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class TestResilientPool:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, workers=0)
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, retries=-1)
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, cell_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ResilientPool(_square, backoff_base=-1.0)

    def test_results_keep_submission_order(self):
        with ResilientPool(_square, workers=3) as pool:
            results, failures = pool.run(list(range(7)))
        assert results == [n * n for n in range(7)]
        assert failures == []

    def test_empty_batch(self):
        assert ResilientPool(_square).run([]) == ([], [])

    def test_exhausted_retries_become_failures(self):
        with ResilientPool(_boom, workers=2, retries=1, backoff_base=0.0) as pool:
            results, failures = pool.run([10, 20], labels=["a", "b"])
        assert results == [None, None]
        assert [f.index for f in failures] == [0, 1]
        assert all(f.attempts == 2 for f in failures)
        assert all("exploded" in f.error for f in failures)
        assert failures[0].label == "a"
        assert failures[0].to_dict()["error"] == failures[0].error

    def test_exception_retried_until_success(self, tmp_path):
        marker = str(tmp_path / "raise.marker")
        with ResilientPool(_flaky, workers=1, retries=2, backoff_base=0.0) as pool:
            results, failures = pool.run([(6, marker, "raise"), (3, None, "raise")])
        assert results == [36, 9]
        assert failures == []

    def test_sigkilled_worker_is_replaced_and_cell_retried(self, tmp_path):
        marker = str(tmp_path / "kill.marker")
        with ResilientPool(_flaky, workers=2, retries=2, backoff_base=0.0) as pool:
            results, failures = pool.run(
                [(2, None, "ok"), (5, marker, "sigkill"), (4, None, "ok")]
            )
        assert results == [4, 25, 16]
        assert failures == []

    def test_sigkill_without_retries_fails_that_cell_only(self, tmp_path):
        marker = str(tmp_path / "kill-once.marker")
        with ResilientPool(_flaky, workers=2, retries=0, backoff_base=0.0) as pool:
            results, failures = pool.run(
                [(2, None, "ok"), (5, marker, "sigkill"), (4, None, "ok")]
            )
        assert results == [4, None, 16]
        assert [f.index for f in failures] == [1]
        assert "died" in failures[0].error

    def test_timeout_kills_and_retries(self, tmp_path):
        marker = str(tmp_path / "hang.marker")
        with ResilientPool(
            _flaky, workers=1, retries=1, cell_timeout=1.0, backoff_base=0.0
        ) as pool:
            results, failures = pool.run([(9, marker, "hang")])
        assert results == [81]
        assert failures == []

    def test_timeout_without_retries_reports_failure(self, tmp_path):
        marker = str(tmp_path / "hang-once.marker")
        with ResilientPool(_flaky, workers=1, retries=0, cell_timeout=0.5) as pool:
            results, failures = pool.run([(9, marker, "hang")])
        assert results == [None]
        assert len(failures) == 1
        assert "timed out" in failures[0].error

    def test_backoff_is_deterministic(self):
        pool = ResilientPool(_square, backoff_base=0.5)
        assert [pool._backoff(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
        assert ResilientPool(_square, backoff_base=0.0)._backoff(3) == 0.0

    def test_progress_counts_every_settled_cell(self, tmp_path):
        calls = []
        with ResilientPool(_boom, workers=1, retries=0, backoff_base=0.0) as pool:
            pool.run(
                [1, 2],
                progress=lambda done, total, index: calls.append((done, total, index)),
            )
        assert calls == [(1, 2, 0), (2, 2, 1)]

    def test_queued_cells_do_not_busy_poll(self):
        """More cells than workers: the parent waits on replies, not a spin."""
        with ResilientPool(_nap, workers=1) as pool:
            pool.run([0.0])  # spawn the worker outside the measurement
            cpu, wall = time.process_time(), time.monotonic()
            results, failures = pool.run([0.25] * 4)
            cpu, wall = time.process_time() - cpu, time.monotonic() - wall
        assert results == [0.25] * 4 and failures == []
        assert wall >= 1.0
        assert cpu < 0.2 * wall

    def test_workers_persist_across_batches(self):
        with ResilientPool(_square, workers=2) as pool:
            assert pool.run([1, 2])[0] == [1, 4]
            pids = {slot.process.pid for slot in pool._slots}
            assert pool.run([3, 4, 5])[0] == [9, 16, 25]
            assert {slot.process.pid for slot in pool._slots} == pids
        assert pool._slots == []

    def test_failure_carries_the_worker_exception(self):
        with ResilientPool(_boom, workers=2) as pool:
            _, failures = pool.run([1, 2])
        cause = failures[0].cause
        assert isinstance(cause, RuntimeError) and "cell 1 exploded" in str(cause)
        assert isinstance(cause.__cause__, RemoteTraceback)
        assert "_boom" in str(cause.__cause__)

    def test_abandoned_batch_stops_its_workers(self):
        with ResilientPool(_square, workers=2) as pool:
            settled = pool.imap_unordered(list(range(6)))
            next(settled)
            settled.close()
            assert pool._slots == []
            # The next batch spawns fresh workers.
            assert pool.run([3])[0] == [9]

    def test_keyboard_interrupt_reaps_workers(self):
        # Not closed on purpose: the interrupt alone must reap the workers.
        pool = ResilientPool(_square, workers=2)
        with pytest.raises(KeyboardInterrupt):
            pool.run(list(range(4)), progress=_interrupting_progress)
        # The pool must not leave orphaned children behind.
        import multiprocessing

        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_sigkilled_simulation_is_byte_identical(self, tmp_path):
        """The headline chaos claim: SIGKILL one worker mid-cell, and the
        completed sweep's serialized results match an undisturbed run."""
        marker = str(tmp_path / "chaos.marker")
        undisturbed = [_simulate_payload((seed, None)) for seed in (1, 2, 3)]
        with ResilientPool(
            _simulate_payload, workers=2, retries=2, backoff_base=0.0
        ) as pool:
            disturbed, failures = pool.run([(1, None), (2, marker), (3, None)])
        assert failures == []
        assert os.path.exists(marker)  # the kill really happened
        assert disturbed == undisturbed


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class TestResilientExecutor:
    def _cells(self, num_runs=2, loads=(3.0,)):
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
        grid = ScenarioGrid(
            config=config,
            protocols=[ProtocolSpec("rapid", "rapid"), ProtocolSpec("random", "random")],
            loads=loads,
        )
        return grid.cells()

    def test_failure_names_its_submission_index(self, monkeypatch):
        """The pool runs load 3 before load 2, but a failure still names
        the cell's position in the submitted batch."""
        monkeypatch.setattr(cell_worker, "run_cell", _light_random_run_cell)
        cells = self._cells(num_runs=1, loads=(2.0, 3.0))
        assert [(spec.load, spec.label) for spec in cells] == [
            (2.0, "rapid"), (2.0, "random"), (3.0, "rapid"), (3.0, "random"),
        ]
        executor = Executor(workers=2, retries=1, backoff_base=0.0)
        with ExperimentEngine(executor=executor) as engine, _Deadline(120):
            outcomes, failures = executor.run(cells)
            results = engine.run_cells(cells)
        assert [(f.index, f.label, f.attempts) for f in failures] == [(1, "random", 2)]
        assert outcomes[1] is None
        assert [o.result.protocol_name for i, o in enumerate(outcomes) if i != 1] == [
            r.protocol_name for r in results
        ]
        assert [(f.index, f.label) for f in engine.last_failures] == [(1, "random")]
        plain = ExperimentEngine(workers=1).run_cells([cells[0], cells[2], cells[3]])
        assert [r.to_dict() for r in results] == [r.to_dict() for r in plain]

    def test_resilient_property(self):
        """The dispatch rule: the calling process runs cells only for one
        worker under the default failure policy; all else uses the pool."""
        assert Executor(workers=2).resilient is False
        assert Executor(workers=2, retries=1).resilient is True
        assert Executor(workers=2, cell_timeout=30.0).resilient is True
        assert Executor(workers=1).in_process is True
        assert Executor(workers=2).in_process is False
        assert Executor(workers=1, retries=1).in_process is False
        assert Executor(workers=1, cell_timeout=30.0).in_process is False
        cells = self._cells(num_runs=1)[:1]
        serial = Executor(workers=1)
        serial.run(cells)
        assert serial._pool is None
        with Executor(workers=1, retries=1) as pooled:
            outcomes, failures = pooled.run(cells)
            assert pooled._pool is not None and failures == []
        assert outcomes[0].result.to_dict() == serial.run(cells)[0][0].result.to_dict()

    def test_default_policy_raises_the_original_exception(self, monkeypatch):
        monkeypatch.setattr(cell_worker, "run_cell", _buggy_run_cell)
        cells = self._cells()
        with ExperimentEngine(workers=2) as engine:
            with pytest.raises(_CellBug, match="bug in run 1"):
                engine.run_cells(cells)
            # The engine stays usable: the next batch gets fresh workers.
            healthy = [spec for spec in cells if spec.run_index == 0]
            assert len(engine.run_cells(healthy)) == len(healthy)

    def test_sigkilled_worker_without_retries_raises(self, monkeypatch):
        monkeypatch.setattr(cell_worker, "run_cell", _sigkill_run_cell)
        with ExperimentEngine(workers=2) as engine, _Deadline(60):
            with pytest.raises(WorkerError, match="worker died"):
                engine.run_cells(self._cells())

    def test_progress_names_the_settled_cell(self, monkeypatch):
        monkeypatch.setattr(cell_worker, "run_cell", _slow_first_run_cell)
        cells = self._cells()[:2]
        assert [spec.run_index for spec in cells] == [0, 1]
        seen = []
        with Executor(workers=2) as executor:
            executor.run(cells, progress=lambda done, total, spec: seen.append((done, spec)))
        assert seen == [(1, cells[1]), (2, cells[0])]

    def test_executor_validates_resilience_knobs(self):
        with pytest.raises(ConfigurationError):
            Executor(retries=-1)
        with pytest.raises(ConfigurationError):
            Executor(cell_timeout=0.0)

    def test_resilient_backend_matches_plain(self):
        cells = self._cells()
        plain = ExperimentEngine(workers=1).run_cells(cells)
        resilient = ExperimentEngine(
            executor=Executor(workers=2, retries=2, cell_timeout=120.0)
        )
        healed = resilient.run_cells(cells)
        assert [r.to_dict() for r in healed] == [r.to_dict() for r in plain]
        assert resilient.last_failures == []
        assert resilient.stats.cells_failed == 0

    def test_telemetry_report_carries_failed_cells(self):
        telemetry = SweepTelemetry()
        telemetry.record_failure(index=3, label="rapid/load=2", attempts=3, error="boom")
        report = telemetry.report()
        assert report["version"] == SWEEP_REPORT_VERSION
        assert report["cells_failed"] == 1
        assert report["failed_cells"][0]["label"] == "rapid/load=2"


# ----------------------------------------------------------------------
# The sweep manifest
# ----------------------------------------------------------------------
class TestSweepManifest:
    def _cells(self):
        return TestResilientExecutor()._cells()

    def test_sweep_key_tracks_cell_identity(self):
        cells = self._cells()
        assert SweepManifest.sweep_key_for(cells) == SweepManifest.sweep_key_for(cells)
        assert SweepManifest.sweep_key_for(cells) != SweepManifest.sweep_key_for(cells[:-1])
        assert SweepManifest.sweep_key_for(cells) != SweepManifest.sweep_key_for(
            list(reversed(cells))
        )

    def test_roundtrip(self, tmp_path):
        cells = self._cells()
        path = tmp_path / "sweep.manifest.json"
        manifest = SweepManifest.for_cells(path, cells)
        manifest.mark_completed(cells[0].cache_key())
        manifest.mark_failed(cells[1].cache_key(), "worker died mid-cell")
        manifest.write()
        loaded = SweepManifest.load(path)
        assert loaded.matches(cells)
        assert loaded.completed_count == 1
        assert loaded.failed == {cells[1].cache_key(): "worker died mid-cell"}
        assert loaded.to_dict() == manifest.to_dict()

    def test_completion_clears_failure(self, tmp_path):
        cells = self._cells()
        manifest = SweepManifest.for_cells(tmp_path / "m.json", cells)
        key = cells[0].cache_key()
        manifest.mark_failed(key, "boom")
        manifest.mark_completed(key)
        assert manifest.failed == {}
        # A later failure report must not demote a completed cell.
        manifest.mark_failed(key, "boom again")
        assert manifest.failed == {}
        assert manifest.completed_count == 1

    def test_matches_rejects_other_grids(self, tmp_path):
        cells = self._cells()
        manifest = SweepManifest.for_cells(tmp_path / "m.json", cells)
        assert manifest.matches(cells)
        assert not manifest.matches(cells[:-1])

    def test_load_missing_manifest_is_a_clean_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nothing to resume"):
            SweepManifest.load(tmp_path / "absent.manifest.json")

    def test_load_corrupt_manifest_is_a_clean_error(self, tmp_path):
        path = tmp_path / "corrupt.manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            SweepManifest.load(path)

    def test_load_rejects_future_versions(self, tmp_path):
        cells = self._cells()
        path = tmp_path / "future.manifest.json"
        manifest = SweepManifest.for_cells(path, cells)
        payload = manifest.to_dict()
        payload["version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            SweepManifest.load(path)


# ----------------------------------------------------------------------
# Resume via the CLI
# ----------------------------------------------------------------------
class TestResumeCli:
    SWEEP = [
        "sweep",
        "--family",
        "synthetic",
        "--protocols",
        "rapid,random",
        "--loads",
        "2",
        "--metric",
        "delivery_rate",
    ]

    def test_resume_is_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(self.SWEEP + ["--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(self.SWEEP + ["--cache-dir", cache, "--resume"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == first
        assert "[resume]" in resumed.err

    def test_resume_requires_cache_dir(self, capsys):
        from repro.cli import main

        assert main(self.SWEEP + ["--resume"]) != 0
        assert "--cache-dir" in capsys.readouterr().err

    def test_resume_without_manifest_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "empty-cache")
        assert main(self.SWEEP + ["--cache-dir", cache, "--resume"]) != 0
        assert "nothing to resume" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fail-fast output validation
# ----------------------------------------------------------------------
class TestOutputValidation:
    @staticmethod
    def _blocked(tmp_path):
        """A path whose parent is a file — mkdir on it must fail."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        return blocker / "trace.jsonl"

    def test_validate_writable_creates_missing_parents(self, tmp_path):
        target = tmp_path / "new" / "dir" / "trace.jsonl"
        validate_writable(target)
        assert target.parent.is_dir()

    def test_validate_writable_rejects_file_as_parent(self, tmp_path):
        with pytest.raises(ConfigurationError):
            validate_writable(self._blocked(tmp_path))

    def test_validate_writable_rejects_directory_path(self, tmp_path):
        with pytest.raises(ConfigurationError):
            validate_writable(tmp_path)

    def test_jsonl_sink_fails_fast(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlSink(self._blocked(tmp_path))

    def test_cli_rejects_unwritable_trace_out_before_running(self, tmp_path, capsys):
        from repro.cli import main

        target = str(self._blocked(tmp_path))
        code = main(
            [
                "sweep",
                "--family",
                "synthetic",
                "--protocols",
                "rapid",
                "--loads",
                "2",
                "--trace-out",
                target,
            ]
        )
        assert code != 0
        assert "trace" in capsys.readouterr().err.lower()
