"""Tests of the benchmark's own helpers (spans, percentiles, digests, patches).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.  None of these run a workload.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from perfbench import digest, layers
from perfbench.spans import (
    OBSERVER_SPAN,
    Patcher,
    Recorder,
    defining_classes,
    load_trace_dir,
    median,
    percentile,
    self_times,
    timed,
    timed_generator,
)


def _span(span_id, name, start, end, parent, pid=1):
    return (pid, (span_id, name, start, end, parent, ""))


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "outer", 0.0, 10.0, -1),
        _span(1, "mid", 1.0, 6.0, 0),
        _span(2, "leaf", 2.0, 3.0, 1),
        _span(3, "leaf", 7.0, 9.0, 0),
    ]
    totals = self_times(spans)
    assert totals["outer"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["mid"] == pytest.approx(5.0 - 1.0)
    assert totals["leaf"] == pytest.approx(1.0 + 2.0)
    # Self times partition the top-level span exactly.
    assert sum(totals.values()) == pytest.approx(10.0)


def test_self_time_of_reentrant_span_is_not_counted_twice():
    spans = [
        _span(0, "make_room", 0.0, 8.0, -1),
        _span(1, "make_room", 1.0, 5.0, 0),
        _span(2, "victim", 2.0, 4.0, 1),
    ]
    totals = self_times(spans)
    assert totals["make_room"] == pytest.approx(8.0 - 2.0)
    assert totals["victim"] == pytest.approx(2.0)


def test_self_time_keeps_processes_apart():
    # Same span ids in two processes must not be mistaken for each other.
    spans = [
        _span(0, "a", 0.0, 4.0, -1, pid=1),
        _span(1, "b", 1.0, 2.0, 0, pid=1),
        _span(0, "a", 0.0, 3.0, -1, pid=2),
    ]
    assert self_times(spans)["a"] == pytest.approx(3.0 + 3.0)


class _Node:
    def __init__(self, depth):
        self.depth = depth

    def visit(self):
        return 1 + (_Node(self.depth - 1).visit() if self.depth else 0)


def test_timed_wrapper_records_nesting_and_counts_outermost_calls_only():
    recorder = Recorder()
    patcher = Patcher()
    patcher.replace(_Node, "visit", lambda fn: timed(recorder, "visit", fn, calls="visits"))
    try:
        assert _Node(3).visit() == 4
    finally:
        patcher.restore()
    assert recorder.counts["visits"] == 1
    assert len(recorder.spans) == 4
    by_id = {span[0]: span for span in recorder.spans}
    for span_id, name, start, end, parent, cell in recorder.spans:
        if parent >= 0:
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]
    totals = self_times((0, span) for span in recorder.spans)
    outer = next(s for s in recorder.spans if s[4] == -1)
    assert totals["visit"] == pytest.approx(outer[3] - outer[2])


def test_costly_observer_runs_in_its_own_span():
    recorder = Recorder()
    seen = []

    def work():
        return 5

    def observe(rec, args, value):
        seen.append(value)

    wrapped = timed(recorder, "work", work, observe=observe, observe_in_span=True)
    assert wrapped() == 5
    assert seen == [5]
    assert [span[1] for span in recorder.spans] == ["work", OBSERVER_SPAN]
    assert recorder.spans[1][4] == -1  # a sibling of the work, not its child


def test_generator_wrapper_times_every_step_and_counts_items():
    recorder = Recorder()

    def numbers(n):
        yield from range(n)

    wrapped = timed_generator(recorder, "gen", numbers, calls="gen_calls", yielded="items")
    assert list(wrapped(3)) == [0, 1, 2]
    assert recorder.counts["gen_calls"] == 1
    assert recorder.counts["items"] == 3
    # One span for the call, one per item, one for the exhausting step.
    assert [span[1] for span in recorder.spans] == ["gen"] * 5
    assert not recorder.stack


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 67)]  # 66 * 0.15 = 9.9 beyond p85
    assert percentile(samples, 0.85) is None
    samples.append(67.0)  # 67 * 0.15 = 10.05
    assert percentile(samples, 0.85) == 57.0  # nearest rank ceil(56.95)
    assert percentile([1.0] * 19, 0.5) is None
    assert percentile([1.0] * 20, 0.5) == 1.0
    assert percentile([], 0.5) is None
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
class _FakeResult:
    def __init__(self, timings):
        self.timings = timings

    def to_dict(self):
        payload = {"protocol": "x", "records": [[1, 2.5]], "values": {"b": 1, "a": 2}}
        if self.timings:
            payload["timings"] = dict(self.timings)
        return payload


def test_digest_ignores_timings_and_key_order():
    plain = digest.digest(digest.canonical_payload(_FakeResult({})))
    timed_result = digest.digest(
        digest.canonical_payload(_FakeResult({"phase_total_s": 1.23, "calls_x": 4.0}))
    )
    assert plain == timed_result
    assert digest.digest({"a": 1, "b": 2}) == digest.digest({"b": 2, "a": 1})
    assert digest.digest({"a": 1}) != digest.digest({"a": 1.0000001})
    assert len(plain) == digest.DIGEST_CHARS


def test_digest_of_real_result_ignores_profiling(tmp_path):
    from repro.dtn.simulator import run_simulation
    from repro.dtn.workload import PoissonWorkload
    from repro.mobility.exponential import ExponentialMobility
    from repro.routing import create_factory

    schedule = ExponentialMobility(
        num_nodes=4, mean_inter_meeting=30.0, transfer_opportunity=4096, seed=1
    ).generate(300.0)
    packets = PoissonWorkload(packets_per_hour=60.0, packet_size=512, seed=2).generate(
        list(range(4)), 300.0
    )
    factory = create_factory("random")
    plain = run_simulation(schedule, packets, factory, seed=3)
    profiled = run_simulation(schedule, packets, factory, seed=3, options={"profile": True})
    assert profiled.timings and not plain.timings
    assert digest.digest(digest.canonical_payload(plain)) == digest.digest(
        digest.canonical_payload(profiled)
    )


def test_mismatch_reports_changed_and_missing_cells():
    expected = {"cells": ["a", "b", "c"], "series": {"f": "x"}}
    assert digest.mismatched_cells({"cells": ["a", "b", "c"]}, expected) == []
    assert digest.mismatched_cells({"cells": ["a", "z", "c"]}, expected) == [1]
    assert digest.mismatched_cells({"cells": ["a", "b"]}, expected) == [2]
    assert digest.mismatched_series({"series": {"f": "y"}}, expected) == ["f"]
    assert digest.mismatched_series({"series": {}}, expected) == ["f"]


def test_reference_covers_default_seeds():
    from perfbench import workloads

    reference = digest.load_reference()
    for name, seed in workloads.DEFAULT_SEEDS.items():
        recorded = digest.reference_for(reference, name, seed)
        assert recorded is not None, name
        assert len(recorded["cells"]) == workloads.EXPECTED_CELLS[name]


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def _class_dicts(classes):
    return {cls: dict(vars(cls)) for cls in classes}


def test_install_then_restore_puts_back_every_attribute():
    recorder = Recorder()
    patcher = Patcher()
    layers.install(recorder, patcher, full=True)
    owners = {patch.owner for patch in patcher.patches}
    patched = [(patch.owner, patch.attribute, patch.original) for patch in patcher.patches]
    assert len(patched) >= 15
    for owner, attribute, original in patched:
        assert owner.__dict__[attribute] is not original
    patcher.restore()
    assert patcher.patches == []
    for owner, attribute, original in patched:
        assert owner.__dict__[attribute] is original
    # Nothing else on those classes changed either.
    before = _class_dicts(owners)
    second = Patcher()
    layers.install(recorder, second, full=True)
    second.restore()
    assert _class_dicts(owners) == before


def test_classmethod_patch_stays_a_classmethod():
    from repro.dtn.results import SimulationResult

    original = SimulationResult.__dict__["from_dict"]
    recorder = Recorder()
    patcher = Patcher()
    patcher.replace(SimulationResult, "from_dict", lambda fn: timed(recorder, "f", fn))
    try:
        assert isinstance(SimulationResult.__dict__["from_dict"], classmethod)
    finally:
        patcher.restore()
    assert SimulationResult.__dict__["from_dict"] is original


def test_defining_classes_skips_inheritors_and_excluded_subtrees():
    class Base:
        def go(self):
            return "base"

    class Inherits(Base):
        pass

    class Overrides(Base):
        def go(self):
            return "own"

    class Excluded(Base):
        def go(self):
            return "skip"

    class BelowExcluded(Excluded):
        def go(self):
            return "skip too"

    found = defining_classes(Base, "go", exclude=(Excluded,))
    assert set(found) == {Base, Overrides}
    assert Inherits not in found


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
class _Job:
    def run(self, x):
        return x * 2


def _call_job(x):
    return _Job().run(x)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_forked_workers_flush_their_own_spans_once(tmp_path):
    recorder = Recorder(tmp_path)
    patcher = Patcher()
    patcher.replace(_Job, "run", lambda fn: timed(recorder, "job", fn, calls="jobs"))
    layers.activate(recorder)
    try:
        _call_job(1)  # a parent span the workers must not inherit
        with multiprocessing.get_context("fork").Pool(2) as pool:
            assert pool.map(_call_job, range(6)) == [0, 2, 4, 6, 8, 10]
    finally:
        patcher.restore()
        layers.activate(None)
    recorder.flush()
    spans, counts, _ = load_trace_dir(tmp_path)
    assert counts["jobs"] == 7
    assert len(spans) == 7
    assert sum(1 for pid, _ in spans if pid == os.getpid()) == 1


def test_cache_hits_must_match_the_cells_that_filled_the_cache():
    class Spec:
        def __init__(self, key):
            self.key = key

        def cache_key(self):
            return self.key

    class Outcome:
        cells = [(Spec("k1"), None), (Spec("k2"), None), (Spec("k1"), None)]

    assert digest.repeated_cell_mismatches(Outcome(), {"cells": ["x", "y", "x"]}) == []
    assert digest.repeated_cell_mismatches(Outcome(), {"cells": ["x", "y", "z"]}) == [2]


def test_reference_speed_scales_by_the_bracketing_calibrations():
    from perfbench.calibration import REFERENCE_S, at_reference_speed, calibrate

    assert at_reference_speed(10.0, REFERENCE_S, REFERENCE_S) == pytest.approx(10.0)
    # A host running at half speed doubles both the work and the calibration.
    assert at_reference_speed(20.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(10.0)
    assert at_reference_speed(10.0, 0.2, 0.3) == pytest.approx(10.0 * REFERENCE_S / 0.25)
    assert calibrate(samples=1) > 0
