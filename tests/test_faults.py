"""Tests for the deterministic fault-injection subsystem.

Covers the parameter dataclass, the schedule/window plumbing (merging,
canonical serialization, content keys), the four registered models, the
simulator's consumption of a schedule (event order, accounting, trace
events), and the two contracts the subsystem makes to the rest of the
repo:

* **byte identity when off** — a run with fault injection disabled (or
  with a model that happens to draw no fault) serializes exactly the
  payload it serialized before the subsystem existed;
* **determinism when on** — a fault schedule is a pure function of
  ``(parameters, seed, deployment shape)``, identical across serial,
  multiprocess, cold-cache and warm-cache execution backends.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.dtn.events import (
    ContactStartEvent,
    EventKind,
    MeetingEvent,
    NodeDownEvent,
    NodeUpEvent,
    PacketCreationEvent,
)
from repro.dtn.packet import Packet
from repro.dtn.results import SimulationResult
from repro.dtn.scheduler import EventQueue
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import PoissonWorkload
from repro.engine import ExperimentEngine, ScenarioGrid, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig
from repro.faults import (
    FAULT_MODEL_NAMES,
    FAULT_MODELS,
    FaultParameters,
    FaultSchedule,
    NodeDowntime,
    build_fault_model,
    merge_windows,
)
from repro.mobility.exponential import ExponentialMobility
from repro.mobility.schedule import Contact, Meeting, MeetingSchedule
from repro.observability import MemorySink
from repro.routing.registry import create_factory


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _quick_inputs(seed=3, duration=240.0, num_nodes=5):
    mobility = ExponentialMobility(
        num_nodes=num_nodes,
        mean_inter_meeting=40.0,
        transfer_opportunity=50 * units.KB,
        seed=seed,
    )
    schedule = mobility.generate(duration)
    workload = PoissonWorkload(packets_per_hour=240.0, seed=seed + 1)
    packets = workload.generate(list(range(num_nodes)), duration)
    return schedule, packets


def _run(schedule, packets, seed=7, options=None, protocol="rapid"):
    return run_simulation(
        schedule,
        packets,
        create_factory(protocol),
        buffer_capacity=20 * units.KB,
        seed=seed,
        options=options,
    )


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
class TestFaultParameters:
    def test_default_is_disabled(self):
        params = FaultParameters()
        assert params.model is None
        assert params.enabled is False

    def test_with_model_enables(self):
        params = FaultParameters().with_model("crash")
        assert params.enabled is True
        assert params.with_model(None).enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -0.1},
            {"rate": 1.5},
            {"mean_downtime": 0.0},
            {"mean_downtime": 1.2},
            {"max_windows": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultParameters(**kwargs)

    def test_roundtrip(self):
        params = FaultParameters(model="churn", rate=0.4, mean_downtime=0.2, seed_offset=9)
        assert FaultParameters.from_dict(params.to_dict()) == params

    def test_config_rejects_unknown_model(self):
        config = SyntheticExperimentConfig.ci_scale()
        with pytest.raises(ConfigurationError):
            config.with_faults(FaultParameters(model="meteor-strike"))

    def test_config_threads_faults_through_serialization(self):
        config = SyntheticExperimentConfig.ci_scale().with_faults(
            FaultParameters(model="contact", rate=0.3)
        )
        rebuilt = SyntheticExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.faults == config.faults


# ----------------------------------------------------------------------
# Windows and schedules
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_downtime_validation(self):
        with pytest.raises(ValueError):
            NodeDowntime(node=-1, start=0.0, end=1.0)
        with pytest.raises(ValueError):
            NodeDowntime(node=0, start=5.0, end=5.0)
        with pytest.raises(ValueError):
            NodeDowntime(node=0, start=-1.0, end=1.0)

    def test_merge_windows_collapses_overlaps(self):
        merged = merge_windows(
            [
                NodeDowntime(node=1, start=10.0, end=20.0, wipe=False),
                NodeDowntime(node=1, start=15.0, end=30.0, wipe=True),
                NodeDowntime(node=0, start=5.0, end=8.0),
            ]
        )
        assert merged == (
            NodeDowntime(node=0, start=5.0, end=8.0, wipe=False),
            NodeDowntime(node=1, start=10.0, end=30.0, wipe=True),
        )

    def test_merge_windows_keeps_disjoint_windows(self):
        merged = merge_windows(
            [
                NodeDowntime(node=2, start=50.0, end=60.0),
                NodeDowntime(node=2, start=10.0, end=20.0),
            ]
        )
        assert [w.start for w in merged] == [10.0, 50.0]

    def test_empty_property(self):
        assert FaultSchedule().empty is True
        assert FaultSchedule(contact_no_shows=frozenset({3})).empty is False

    def test_schedule_key_is_content_addressed(self):
        one = FaultSchedule(downtimes=(NodeDowntime(node=1, start=1.0, end=2.0),))
        two = FaultSchedule(downtimes=(NodeDowntime(node=1, start=1.0, end=2.0),))
        other = FaultSchedule(downtimes=(NodeDowntime(node=1, start=1.0, end=3.0),))
        assert one.schedule_key() == two.schedule_key()
        assert one.schedule_key() != other.schedule_key()


# ----------------------------------------------------------------------
# Registered models
# ----------------------------------------------------------------------
class TestFaultModels:
    NODES = tuple(range(8))

    def test_registry_names(self):
        assert set(FAULT_MODEL_NAMES) == {"crash", "churn", "contact", "metadata"}
        assert set(FAULT_MODELS) == set(FAULT_MODEL_NAMES)

    def test_build_fault_model_requires_a_name(self):
        with pytest.raises(KeyError):
            build_fault_model(FaultParameters(), seed=1)
        with pytest.raises(KeyError):
            build_fault_model(FaultParameters(), seed=1, model="meteor-strike")

    def test_override_beats_params_model(self):
        model = build_fault_model(FaultParameters(model="crash"), seed=1, model="metadata")
        assert model.name == "metadata"

    @pytest.mark.parametrize("name", sorted(FAULT_MODEL_NAMES))
    def test_same_seed_same_schedule(self, name):
        params = FaultParameters(model=name, rate=0.5)
        one = build_fault_model(params, seed=42).build_schedule(self.NODES, 30, 600.0)
        two = build_fault_model(params, seed=42).build_schedule(self.NODES, 30, 600.0)
        assert one.schedule_key() == two.schedule_key()
        assert one.to_dict() == two.to_dict()

    @pytest.mark.parametrize("name", sorted(FAULT_MODEL_NAMES))
    def test_zero_rate_draws_nothing(self, name):
        params = FaultParameters(model=name, rate=0.0)
        schedule = build_fault_model(params, seed=11).build_schedule(self.NODES, 30, 600.0)
        assert schedule.empty

    def test_crash_wipes_by_default(self):
        params = FaultParameters(model="crash", rate=1.0)
        schedule = build_fault_model(params, seed=5).build_schedule(self.NODES, 0, 600.0)
        assert schedule.downtimes
        assert all(window.wipe for window in schedule.downtimes)

    def test_crash_can_persist_buffers(self):
        params = FaultParameters(model="crash", rate=1.0, wipe_buffers=False)
        schedule = build_fault_model(params, seed=5).build_schedule(self.NODES, 0, 600.0)
        assert schedule.downtimes
        assert not any(window.wipe for window in schedule.downtimes)

    def test_churn_never_wipes(self):
        params = FaultParameters(model="churn", rate=1.0, max_windows=3)
        schedule = build_fault_model(params, seed=5).build_schedule(self.NODES, 0, 600.0)
        assert schedule.downtimes
        assert not any(window.wipe for window in schedule.downtimes)

    def test_churn_windows_are_disjoint_per_node(self):
        params = FaultParameters(model="churn", rate=1.0, max_windows=4)
        schedule = build_fault_model(params, seed=9).build_schedule(self.NODES, 0, 600.0)
        per_node = {}
        for window in schedule.downtimes:
            per_node.setdefault(window.node, []).append(window)
        for windows in per_node.values():
            for earlier, later in zip(windows, windows[1:]):
                assert earlier.end < later.start

    def test_contact_faults_partition_contacts(self):
        params = FaultParameters(model="contact", rate=0.5)
        schedule = build_fault_model(params, seed=3).build_schedule(self.NODES, 200, 600.0)
        assert schedule.contact_no_shows
        assert schedule.transfer_kills
        # A no-show contact never happens, so it cannot also be killed.
        assert not schedule.contact_no_shows & set(schedule.transfer_kills)
        for fraction in schedule.transfer_kills.values():
            assert 0.05 <= fraction <= 0.95
        for index in schedule.contact_no_shows | set(schedule.transfer_kills):
            assert 0 <= index < 200

    def test_metadata_faults_only_touch_control(self):
        params = FaultParameters(model="metadata", rate=0.5)
        schedule = build_fault_model(params, seed=3).build_schedule(self.NODES, 200, 600.0)
        assert schedule.control_losses
        assert not schedule.downtimes
        assert not schedule.contact_no_shows
        assert not schedule.transfer_kills

    def test_seed_offset_decorrelates(self):
        base = FaultParameters(model="crash", rate=0.5)
        offset = FaultParameters(model="crash", rate=0.5, seed_offset=1)
        one = build_fault_model(base, seed=7 + base.seed_offset)
        two = build_fault_model(offset, seed=7 + offset.seed_offset)
        assert (
            one.build_schedule(self.NODES, 0, 600.0).schedule_key()
            != two.build_schedule(self.NODES, 0, 600.0).schedule_key()
        )


# ----------------------------------------------------------------------
# Event total order
# ----------------------------------------------------------------------
class TestEventOrder:
    def test_kind_ordering(self):
        assert (
            EventKind.NODE_UP
            < EventKind.NODE_DOWN
            < EventKind.CONTACT_START
            < EventKind.PACKET_CREATION
            < EventKind.MEETING
            < EventKind.CONTACT_END
            < EventKind.END_OF_SIMULATION
        )

    def test_up_precedes_down_at_equal_time(self):
        queue = EventQueue()
        down = NodeDownEvent(time=10.0, node_id=1, wipe=True)
        up = NodeUpEvent(time=10.0, node_id=2)
        meeting = MeetingEvent(
            time=10.0, meeting=Meeting(time=10.0, node_a=0, node_b=1, capacity=1000.0)
        )
        creation = PacketCreationEvent(
            time=10.0,
            packet=Packet(packet_id=0, source=0, destination=1, creation_time=10.0),
        )
        queue.push(meeting)
        queue.push(down)
        queue.push(creation)
        queue.push(up)
        assert [queue.pop() for _ in range(4)] == [up, down, creation, meeting]

    def test_node_events_validate_ids(self):
        with pytest.raises(ValueError):
            NodeDownEvent(time=0.0, node_id=-1)
        with pytest.raises(ValueError):
            NodeUpEvent(time=0.0, node_id=-1)


# ----------------------------------------------------------------------
# Simulator consumption
# ----------------------------------------------------------------------
class TestSimulatorFaults:
    def test_fault_free_payload_is_byte_identical(self):
        schedule, packets = _quick_inputs()
        plain = _run(schedule, packets)
        # A model that draws no fault must leave both the RNG streams and
        # the serialized payload exactly as the fault-free path does.
        quiet = build_fault_model(FaultParameters(model="crash", rate=0.0), seed=99)
        faulted = _run(schedule, packets, options={"fault_model": quiet})
        assert _canonical(faulted.to_dict()) == _canonical(plain.to_dict())
        assert "faults" not in plain.to_dict()

    def test_invalid_fault_options_rejected(self):
        schedule, packets = _quick_inputs()
        with pytest.raises(ConfigurationError):
            _run(schedule, packets, options={"fault_model": "crash"})
        with pytest.raises(ConfigurationError):
            _run(schedule, packets, options={"fault_schedule": {"downtimes": []}})

    def test_crash_accounting_appears_only_when_disruptive(self):
        schedule, packets = _quick_inputs()
        model = build_fault_model(FaultParameters(model="crash", rate=1.0), seed=21)
        result = _run(schedule, packets, options={"fault_model": model})
        payload = result.to_dict()
        assert "faults" in payload
        faults = payload["faults"]
        assert faults["node_outages"] >= 1
        assert faults["node_downtime_s"] > 0.0
        rebuilt = SimulationResult.from_dict(payload)
        assert _canonical(rebuilt.to_dict()) == _canonical(payload)

    def test_explicit_schedule_takes_precedence_over_model(self):
        schedule, packets = _quick_inputs()
        explicit = FaultSchedule(
            downtimes=(NodeDowntime(node=0, start=10.0, end=40.0, wipe=False),)
        )
        loud = build_fault_model(FaultParameters(model="crash", rate=1.0), seed=21)
        result = _run(
            schedule, packets, options={"fault_model": loud, "fault_schedule": explicit}
        )
        assert result.node_outages == 1
        assert result.node_downtime_s == pytest.approx(30.0)

    def test_trace_outage_events_match_accounting(self):
        schedule, packets = _quick_inputs()
        model = build_fault_model(FaultParameters(model="crash", rate=1.0), seed=21)
        sink = MemorySink()
        result = _run(
            schedule, packets, options={"fault_model": model, "trace_sink": sink}
        )
        downs = [e for e in sink.events if e["ev"] == "node_down"]
        ups = [e for e in sink.events if e["ev"] == "node_up"]
        assert len(downs) == result.node_outages
        assert len(ups) <= len(downs)
        assert sum(e["wiped_replicas"] for e in downs) == result.replicas_lost_to_crashes
        assert sum(e["wiped_bytes"] for e in downs) == pytest.approx(
            result.bytes_lost_to_crashes
        )

    def test_tracing_does_not_change_faulted_output(self):
        schedule, packets = _quick_inputs()
        params = FaultParameters(model="churn", rate=0.8)
        plain = _run(
            schedule, packets, options={"fault_model": build_fault_model(params, seed=4)}
        )
        sink = MemorySink()
        traced = _run(
            schedule,
            packets,
            options={"fault_model": build_fault_model(params, seed=4), "trace_sink": sink},
        )
        assert _canonical(traced.to_dict()) == _canonical(plain.to_dict())

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.1, max_value=1.0),
        name=st.sampled_from(sorted(FAULT_MODEL_NAMES)),
    )
    def test_no_packet_double_counted_delivered(self, seed, rate, name):
        """Faults must never double-count a delivery.

        Lost acks can make a redundant copy physically re-arrive at the
        destination (a second ``packet_delivered`` trace event), but the
        accounting must credit each packet exactly once, at its first
        arrival.
        """
        schedule, packets = _quick_inputs(seed=2)
        model = build_fault_model(FaultParameters(model=name, rate=rate), seed=seed)
        sink = MemorySink()
        result = _run(
            schedule, packets, options={"fault_model": model, "trace_sink": sink}
        )
        first_arrival = {}
        for event in sink.events:
            if event["ev"] == "packet_delivered":
                first_arrival.setdefault(event["packet"], float(event["t"]))
        assert result.deliveries == result.num_delivered == len(first_arrival)
        assert result.num_delivered <= result.num_packets
        for record in result.delivered_records():
            assert record.delivery_time is not None
            assert record.delivery_time == pytest.approx(
                first_arrival[record.packet_id]
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_wiped_replicas_match_trace(self, seed):
        """Replicas lost to wipes == the sum the node_down events report."""
        schedule, packets = _quick_inputs(seed=5)
        model = build_fault_model(FaultParameters(model="crash", rate=0.9), seed=seed)
        sink = MemorySink()
        result = _run(
            schedule, packets, options={"fault_model": model, "trace_sink": sink}
        )
        wiped = sum(
            e["wiped_replicas"] for e in sink.events if e["ev"] == "node_down"
        )
        assert wiped == result.replicas_lost_to_crashes

    @pytest.mark.parametrize("model", ["instantaneous", "durational", "interruptible"])
    def test_kill_truncates_zero_duration_contact_in_every_model(self, model):
        """A kill on a zero-duration contact cuts its byte budget to the
        killed fraction under every contact model.  The contact has no
        window to cut short, so it does not count in
        ``contacts_interrupted``."""
        schedule = MeetingSchedule(
            [Contact(time=10.0, node_a=0, node_b=1, capacity=4096.0, duration=0.0)],
            nodes=range(2),
            duration=20.0,
        )
        packets = [
            Packet(packet_id=k, source=0, destination=1, size=1024, creation_time=float(k))
            for k in range(4)
        ]
        sink = MemorySink()
        result = run_simulation(
            schedule,
            packets,
            create_factory("epidemic"),
            seed=1,
            options={
                "contact_model": model,
                "fault_schedule": FaultSchedule(transfer_kills={0: 0.5}),
                "trace_sink": sink,
            },
        )
        assert result.num_delivered == 2
        assert result.transfers_killed == 1
        assert result.data_bytes == 2048.0
        assert result.contacts_interrupted == 0
        closes = [e for e in sink.events if e["ev"] == "contact_close"]
        assert len(closes) == 1 and closes[0]["interrupted"] is True


# ----------------------------------------------------------------------
# Spec / grid threading
# ----------------------------------------------------------------------
class TestSpecThreading:
    def _config(self):
        return SyntheticExperimentConfig(
            num_nodes=6,
            mean_inter_meeting=40.0,
            transfer_opportunity=50 * units.KB,
            duration=3 * units.MINUTE,
            buffer_capacity=20 * units.KB,
            deadline=30.0,
            packet_interval=50.0,
            mobility="exponential",
            num_runs=1,
            seed=5,
        )

    def test_faults_axis_changes_cache_key(self):
        config = self._config()
        spec = ProtocolSpec("rapid", "rapid")
        plain = ScenarioSpec.for_cell(config=config, protocol=spec, load=4.0, run_index=0)
        faulted = ScenarioSpec.for_cell(
            config=config, protocol=spec, load=4.0, run_index=0, faults="crash"
        )
        assert plain.cache_key() != faulted.cache_key()
        assert plain.faults is None
        assert faulted.faults == "crash"

    def test_spec_rejects_unknown_fault_model(self):
        config = self._config()
        with pytest.raises(ConfigurationError):
            ScenarioSpec.for_cell(
                config=config,
                protocol=ProtocolSpec("rapid", "rapid"),
                load=4.0,
                run_index=0,
                faults="meteor-strike",
            )

    def test_spec_roundtrip_preserves_faults(self):
        config = self._config()
        spec = ScenarioSpec.for_cell(
            config=config,
            protocol=ProtocolSpec("rapid", "rapid"),
            load=4.0,
            run_index=0,
            faults="metadata",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()).faults == "metadata"

    def test_resolved_faults_falls_back_to_config(self):
        config = self._config().with_faults(FaultParameters(model="churn"))
        spec = ScenarioSpec.for_cell(
            config=config, protocol=ProtocolSpec("rapid", "rapid"), load=4.0, run_index=0
        )
        assert spec.resolved_faults() == "churn"
        override = ScenarioSpec.for_cell(
            config=config,
            protocol=ProtocolSpec("rapid", "rapid"),
            load=4.0,
            run_index=0,
            faults="contact",
        )
        assert override.resolved_faults() == "contact"

    def test_grid_expands_faults_axis(self):
        grid = ScenarioGrid(
            config=self._config(),
            protocols=[ProtocolSpec("rapid", "rapid")],
            loads=(4.0,),
            faults=(None, "crash"),
        )
        cells = grid.cells()
        assert {cell.faults for cell in cells} == {None, "crash"}
        assert len(cells) == 2

    def test_grid_rejects_empty_faults_axis(self):
        with pytest.raises(ConfigurationError):
            ScenarioGrid(
                config=self._config(),
                protocols=[ProtocolSpec("rapid", "rapid")],
                loads=(4.0,),
                faults=(),
            )


# ----------------------------------------------------------------------
# Cross-backend determinism
# ----------------------------------------------------------------------
class TestBackendDeterminism:
    def _cells(self):
        config = SyntheticExperimentConfig(
            num_nodes=6,
            mean_inter_meeting=40.0,
            transfer_opportunity=50 * units.KB,
            duration=3 * units.MINUTE,
            buffer_capacity=20 * units.KB,
            deadline=30.0,
            packet_interval=50.0,
            mobility="exponential",
            num_runs=2,
            seed=5,
        )
        grid = ScenarioGrid(
            config=config,
            protocols=[ProtocolSpec("rapid", "rapid"), ProtocolSpec("random", "random")],
            loads=(3.0,),
            faults=("crash",),
        )
        return grid.cells()

    def test_faulted_cells_identical_across_backends(self, tmp_path):
        cells = self._cells()
        serial = ExperimentEngine(workers=1)
        parallel = ExperimentEngine(workers=4)
        cached = ExperimentEngine(workers=1, cache_dir=tmp_path / "cache")
        baseline = [r.to_dict() for r in serial.run_cells(cells)]
        assert [r.to_dict() for r in parallel.run_cells(cells)] == baseline
        cold = [r.to_dict() for r in cached.run_cells(cells)]
        warm = [r.to_dict() for r in cached.run_cells(cells)]
        assert cold == baseline
        assert warm == baseline
        assert cached.stats.cache_hits >= len(cells)
        # The runs really were disrupted — this is not the fault-free path.
        assert any("faults" in payload for payload in baseline)
