"""Tests for the event queue, workloads, results and the simulator itself."""

import pytest

from repro.dtn.events import Event, EndOfSimulationEvent, MeetingEvent, PacketCreationEvent
from repro.dtn.node import DeploymentNoise, Node
from repro.dtn.packet import Packet, PacketFactory, PacketRecord
from repro.dtn.results import SimulationResult
from repro.dtn.scheduler import EventQueue
from repro.dtn.simulator import Simulator, run_simulation
from repro.dtn.workload import ParallelWorkload, PoissonWorkload, single_packet_workload
from repro.exceptions import ConfigurationError, SimulationError
from repro.mobility.schedule import Meeting, MeetingSchedule
from repro.routing.registry import create_factory
from result_builders import result_with_records


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        factory = PacketFactory()
        queue.push(MeetingEvent(time=10.0, meeting=Meeting(time=10.0, node_a=0, node_b=1)))
        queue.push(
            PacketCreationEvent(time=5.0, packet=factory.create(source=0, destination=1, creation_time=5.0))
        )
        queue.push(EndOfSimulationEvent(time=20.0))
        times = [event.time for event in queue.drain()]
        assert times == [5.0, 10.0, 20.0]

    def test_creation_before_meeting_at_same_time(self):
        queue = EventQueue()
        factory = PacketFactory()
        queue.push(MeetingEvent(time=5.0, meeting=Meeting(time=5.0, node_a=0, node_b=1)))
        queue.push(
            PacketCreationEvent(time=5.0, packet=factory.create(source=0, destination=1, creation_time=5.0))
        )
        events = queue.drain()
        assert isinstance(events[0], PacketCreationEvent)
        assert isinstance(events[1], MeetingEvent)

    def test_peek(self):
        queue = EventQueue([EndOfSimulationEvent(time=3.0)])
        assert queue.peek_time() == 3.0
        assert len(queue) == 1

    def test_events_require_payload(self):
        with pytest.raises(ValueError):
            PacketCreationEvent(time=0.0)
        with pytest.raises(ValueError):
            MeetingEvent(time=0.0)


class TestWorkloads:
    def test_poisson_rate(self):
        workload = PoissonWorkload(packets_per_hour=60.0, seed=1)
        packets = workload.generate(nodes=[0, 1, 2], duration=3600.0)
        # 6 ordered pairs x ~60 packets/hour.
        assert 250 < len(packets) < 470
        assert all(p.source != p.destination for p in packets)
        assert packets == sorted(packets, key=lambda p: p.creation_time)

    def test_poisson_deadline_applied(self):
        workload = PoissonWorkload(packets_per_hour=30.0, deadline=99.0, seed=2)
        packets = workload.generate(nodes=[0, 1], duration=1000.0)
        assert packets and all(p.deadline == 99.0 for p in packets)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonWorkload(packets_per_hour=0)
        with pytest.raises(ValueError):
            PoissonWorkload(packets_per_hour=5).generate(nodes=[0], duration=10.0)
        with pytest.raises(ValueError):
            PoissonWorkload(packets_per_hour=5).generate(nodes=[0, 1], duration=0.0)

    def test_parallel_batches(self):
        workload = ParallelWorkload(batch_size=5, seed=3)
        batches = workload.generate(nodes=range(6), duration=100.0, batch_interval=25.0)
        assert len(batches) == 4
        for batch in batches:
            assert len(batch) == 5
            assert len({p.creation_time for p in batch}) == 1

    def test_single_packet_workload(self):
        packets = single_packet_workload(source=1, destination=2, creation_time=5.0)
        assert len(packets) == 1
        assert packets[0].source == 1


class TestSimulatorBasics:
    def test_direct_delivery_on_single_meeting(self):
        schedule = MeetingSchedule([Meeting(time=10.0, node_a=0, node_b=1, capacity=10_000)], duration=20.0)
        packets = single_packet_workload(source=0, destination=1, creation_time=0.0)
        result = run_simulation(schedule, packets, create_factory("direct"))
        assert result.num_delivered == 1
        record = result.record_for(packets[0].packet_id)
        assert record.delivery_time == 10.0
        assert record.hop_count == 1

    def test_packet_created_after_meeting_not_delivered(self):
        schedule = MeetingSchedule([Meeting(time=10.0, node_a=0, node_b=1, capacity=10_000)], duration=20.0)
        packets = single_packet_workload(source=0, destination=1, creation_time=15.0)
        result = run_simulation(schedule, packets, create_factory("direct"))
        assert result.num_delivered == 0

    def test_multi_hop_delivery_with_epidemic(self, tiny_schedule):
        # 0 -> 1 at t=10, 1 -> 2 at t=20: packet from 0 to 2 needs a relay.
        packets = single_packet_workload(source=0, destination=2, creation_time=0.0)
        direct = run_simulation(tiny_schedule, packets, create_factory("direct"))
        epidemic = run_simulation(tiny_schedule, packets, create_factory("epidemic"))
        assert direct.num_delivered == 0
        assert epidemic.num_delivered == 1
        assert epidemic.record_for(packets[0].packet_id).delivery_time == 20.0
        assert epidemic.record_for(packets[0].packet_id).hop_count == 2

    def test_bandwidth_constraint_limits_transfers(self):
        # Opportunity fits only two 1 KB packets.
        schedule = MeetingSchedule([Meeting(time=10.0, node_a=0, node_b=1, capacity=2048)], duration=20.0)
        factory = PacketFactory()
        packets = [factory.create(source=0, destination=1, size=1024, creation_time=0.0) for _ in range(5)]
        result = run_simulation(schedule, packets, create_factory("epidemic"))
        assert result.num_delivered == 2
        assert result.data_bytes == 2048

    def test_storage_constraint_limits_replicas(self):
        schedule = MeetingSchedule(
            [Meeting(time=10.0, node_a=0, node_b=1, capacity=100_000)], duration=20.0
        )
        factory = PacketFactory()
        # Ten relayed packets destined to node 2, but node 1 can store only 3.
        packets = [factory.create(source=0, destination=2, size=1024, creation_time=0.0) for _ in range(10)]
        result = run_simulation(
            schedule, packets, create_factory("epidemic"), buffer_capacity=3 * 1024
        )
        assert result.replications <= 3

    def test_total_capacity_accounting(self, tiny_schedule):
        packets = single_packet_workload(source=0, destination=2)
        result = run_simulation(tiny_schedule, packets, create_factory("epidemic"))
        assert result.total_capacity_bytes == pytest.approx(tiny_schedule.total_capacity())
        assert result.meetings_processed == len(tiny_schedule)

    def test_invalid_buffer_capacity(self, tiny_schedule):
        packets = single_packet_workload(source=0, destination=2)
        with pytest.raises(Exception):
            Simulator(tiny_schedule, packets, create_factory("epidemic"), buffer_capacity=0)

    def test_nan_buffer_capacity_is_rejected(self, tiny_schedule):
        packets = single_packet_workload(source=0, destination=2)
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            Simulator(
                tiny_schedule, packets, create_factory("epidemic"), buffer_capacity=float("nan")
            )

    def test_duplicate_packet_ids_are_rejected(self, tiny_schedule):
        packet = single_packet_workload(source=0, destination=2)[0]
        with pytest.raises(ConfigurationError, match="packet ids must be unique"):
            run_simulation(tiny_schedule, [packet, packet], create_factory("epidemic"))

    def test_deployment_noise_misses_meetings(self, exponential_schedule, small_workload):
        noise = DeploymentNoise(capacity_jitter=0.0, meeting_miss_probability=0.5, processing_delay=0.0, seed=1)
        result = run_simulation(
            exponential_schedule, small_workload, create_factory("random"), noise=noise
        )
        assert result.meetings_missed > 0
        assert result.meetings_missed + result.meetings_processed == len(exponential_schedule)

    def test_deployment_noise_adds_processing_delay(self):
        schedule = MeetingSchedule([Meeting(time=10.0, node_a=0, node_b=1, capacity=10_000)], duration=20.0)
        packets = single_packet_workload(source=0, destination=1)
        noise = DeploymentNoise(capacity_jitter=0.0, meeting_miss_probability=0.0, processing_delay=7.0)
        result = run_simulation(schedule, packets, create_factory("direct"), noise=noise)
        assert result.record_for(packets[0].packet_id).delivery_time == 17.0

    def test_unknown_event_type_raises_simulation_error(self):
        class ForeignEventSimulator(Simulator):
            def _build_events(self):
                queue = super()._build_events()
                queue.push(Event(time=5.0))
                return queue

        schedule = MeetingSchedule([Meeting(time=10.0, node_a=0, node_b=1, capacity=10_000)], duration=20.0)
        packets = single_packet_workload(source=0, destination=1)
        simulator = ForeignEventSimulator(schedule, packets, create_factory("direct"))
        with pytest.raises(SimulationError, match="unknown event type"):
            simulator.run()

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            DeploymentNoise(capacity_jitter=2.0)
        with pytest.raises(ValueError):
            DeploymentNoise(meeting_miss_probability=1.5)
        with pytest.raises(ValueError):
            DeploymentNoise(processing_delay=-1)


class TestSimulationResult:
    def _result_with_records(self):
        factory = PacketFactory()
        delivered = factory.create(source=0, destination=1, creation_time=0.0, deadline=50.0)
        missed = factory.create(source=0, destination=1, creation_time=0.0, deadline=10.0)
        lost = factory.create(source=0, destination=1, creation_time=40.0)
        records = [PacketRecord(p) for p in (delivered, missed, lost)]
        records[0].mark_delivered(30.0, 1, 1)
        records[1].mark_delivered(20.0, 1, 1)
        return result_with_records(records, protocol_name="test", duration=100.0)

    def test_headline_metrics(self):
        result = self._result_with_records()
        assert result.delivery_rate() == pytest.approx(2 / 3)
        assert result.average_delay() == pytest.approx(25.0)
        assert result.average_delay(include_undelivered=True) == pytest.approx((30 + 20 + 60) / 3)
        assert result.max_delay() == 30.0
        assert result.deadline_success_rate() == pytest.approx(1 / 3)

    def test_channel_metrics(self):
        result = self._result_with_records()
        result.total_capacity_bytes = 1000.0
        result.data_bytes = 200.0
        result.metadata_bytes = 50.0
        assert result.channel_utilization() == pytest.approx(0.25)
        assert result.metadata_fraction_of_bandwidth() == pytest.approx(0.05)
        assert result.metadata_fraction_of_data() == pytest.approx(0.25)

    def test_summary_keys(self):
        summary = self._result_with_records().summary()
        assert "delivery_rate" in summary and "average_delay" in summary

    def test_merge_rejects_duplicates(self):
        result = self._result_with_records()
        with pytest.raises(ValueError):
            SimulationResult.merge([result, result])

    def test_merge_combines_counts(self):
        a = self._result_with_records()
        factory = PacketFactory(start_id=100)
        packet = factory.create(source=0, destination=1)
        b = result_with_records([PacketRecord(packet)], protocol_name="test", duration=100.0)
        merged = SimulationResult.merge([a, b])
        assert merged.num_packets == 4

    def test_node_repr_and_counters(self):
        node = Node.with_capacity(3, 1024)
        assert node.node_id == 3
        assert not node.has_packet(1)
        assert "Node(3" in repr(node)
