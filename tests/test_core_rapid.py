"""Tests for the RAPID protocol: selection, inference, control channels."""

import pytest

from metadata_oracle import columnar_replica
from repro import constants
from repro.core.control import (
    GlobalControlChannel,
    InBandControlChannel,
    LocalControlChannel,
    NoControlChannel,
    available_channels,
    make_channel,
)
from repro.core.rapid import RapidProtocol
from repro.core.utility import DeadlineMetric, MaximumDelayMetric
from repro.dtn.node import Node
from repro.dtn.packet import PacketFactory
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import single_packet_workload
from repro.exceptions import ConfigurationError
from repro.mobility.schedule import Meeting, MeetingSchedule
from repro.routing.base import ProtocolContext, ProtocolFactory, TransferBudget
from repro.routing.registry import create_factory


def make_pair(metric="average_delay", channel="in-band", capacity=float("inf"), **kwargs):
    """Two connected RAPID instances sharing one context."""
    nodes = {0: Node.with_capacity(0, capacity), 1: Node.with_capacity(1, capacity)}
    context = ProtocolContext(nodes=nodes)
    x = RapidProtocol(nodes[0], context, metric=metric, control_channel=channel, **kwargs)
    y = RapidProtocol(nodes[1], context, metric=metric, control_channel=channel, **kwargs)
    return x, y, context


class TestControlChannelFactory:
    def test_available(self):
        assert set(available_channels()) == {"in-band", "local", "global", "none"}

    def test_aliases(self):
        assert isinstance(make_channel("oracle"), GlobalControlChannel)
        assert isinstance(make_channel("inband"), InBandControlChannel)

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_channel("smoke-signals")

    def test_invalid_cap(self):
        with pytest.raises(ConfigurationError):
            InBandControlChannel(fraction_cap=-0.1)

    def test_invalid_byte_scale(self):
        with pytest.raises(ConfigurationError):
            InBandControlChannel(byte_scale=0)

    def test_local_channel_excludes_third_party(self):
        channel = LocalControlChannel()
        assert channel.include_third_party is False

    def test_channels_count_bytes_flag(self):
        assert InBandControlChannel.counts_bytes
        assert not GlobalControlChannel.counts_bytes
        assert not NoControlChannel.counts_bytes


class TestRapidConstruction:
    def test_metric_resolution(self):
        x, _, _ = make_pair(metric="max_delay")
        assert isinstance(x.metric, MaximumDelayMetric)

    def test_deadline_default_applied(self):
        x, _, _ = make_pair(metric="deadline", default_deadline=90.0)
        assert isinstance(x.metric, DeadlineMetric)
        assert x.metric.default_deadline == 90.0

    def test_counts_control_bytes_follows_channel(self):
        in_band, _, _ = make_pair(channel="in-band")
        oracle, _, _ = make_pair(channel="global")
        assert in_band.counts_control_bytes
        assert not oracle.counts_control_bytes

    def test_registry_contains_instances(self):
        x, y, context = make_pair()
        registry = context.options["rapid_registry"]
        assert registry[0] is x and registry[1] is y


class TestRapidInference:
    def test_own_delay_estimate_uses_meeting_time_and_queue(self):
        x, y, _ = make_pair()
        factory = PacketFactory()
        packet = factory.create(source=0, destination=1, size=1000, creation_time=0.0)
        x.on_packet_created(packet, now=0.0)
        x.meetings.record_meeting(1, now=200.0)  # E(M_01) = 200
        x.transfer_sizes.record(1, 10_000.0)
        estimate = x.own_delay_estimate(packet, now=200.0)
        assert estimate == pytest.approx(200.0)

    def test_estimate_scales_with_queue_position(self):
        x, _, _ = make_pair()
        factory = PacketFactory()
        ahead = factory.create(source=0, destination=1, size=5000, creation_time=0.0)
        behind = factory.create(source=0, destination=1, size=1000, creation_time=10.0)
        x.on_packet_created(ahead, now=0.0)
        x.on_packet_created(behind, now=10.0)
        x.meetings.record_meeting(1, now=100.0)
        x.transfer_sizes.record(1, 4000.0)
        # 'behind' waits for 5000 bytes ahead + its own 1000 over 4000-byte
        # opportunities -> 2 meetings -> 200 seconds.
        assert x.own_delay_estimate(behind, now=100.0) == pytest.approx(200.0)
        assert x.own_delay_estimate(ahead, now=100.0) == pytest.approx(200.0)

    def test_replica_delays_include_metadata_holders(self):
        x, _, _ = make_pair()
        factory = PacketFactory()
        packet = factory.create(source=0, destination=1, size=1000)
        x.on_packet_created(packet, now=0.0)
        x.meetings.record_meeting(1, now=100.0)
        x.metadata.update_replica(packet, holder_id=5, delay_estimate=50.0, now=1.0)
        delays = x.replica_delays(packet, now=100.0)
        assert len(delays) == 2
        assert 50.0 in delays

    def test_marginal_utility_positive_for_good_peer(self):
        x, y, _ = make_pair()
        factory = PacketFactory()
        packet = factory.create(source=0, destination=5, size=1000)
        x.on_packet_created(packet, now=0.0)
        x.meetings.record_meeting(5, now=400.0)
        y.meetings.record_meeting(5, now=100.0)  # peer meets the destination sooner
        gain = x.marginal_utility(packet, y, now=400.0)
        assert gain > 0


class TestRapidExchange:
    def test_in_band_exchange_shares_acks_and_buffer_state(self):
        x, y, _ = make_pair()
        factory = PacketFactory()
        packet = factory.create(source=0, destination=9, size=1000)
        x.on_packet_created(packet, now=0.0)
        x.acked.add(1234)
        budget = TransferBudget(capacity=100_000)
        x.on_meeting_start(y, now=10.0)
        y.on_meeting_start(x, now=10.0)
        x.exchange_control(y, now=10.0, budget=budget)
        assert 1234 in y.acked
        assert packet.packet_id in y.metadata
        assert budget.metadata_bytes > 0

    def test_metadata_cap_zero_blocks_exchange(self):
        x, y, _ = make_pair(metadata_fraction_cap=0.0)
        factory = PacketFactory()
        x.on_packet_created(factory.create(source=0, destination=9), now=0.0)
        x.acked.add(7)
        budget = TransferBudget(capacity=100_000)
        x.exchange_control(y, now=10.0, budget=budget)
        assert budget.metadata_bytes == 0
        assert 7 not in y.acked

    def test_local_channel_omits_third_party_records(self):
        x, y, _ = make_pair(channel="local")
        factory = PacketFactory()
        packet = factory.create(source=0, destination=9)
        # X only knows about the packet via metadata (it is not buffered here).
        x.metadata.update_replica(packet, holder_id=5, delay_estimate=10.0, now=1.0)
        budget = TransferBudget(capacity=100_000)
        x.exchange_control(y, now=10.0, budget=budget)
        assert packet.packet_id not in y.metadata

    def test_in_band_channel_forwards_third_party_records(self):
        x, y, _ = make_pair(channel="in-band")
        factory = PacketFactory()
        packet = factory.create(source=0, destination=9)
        x.metadata.update_replica(packet, holder_id=5, delay_estimate=10.0, now=1.0)
        budget = TransferBudget(capacity=100_000)
        x.exchange_control(y, now=10.0, budget=budget)
        assert packet.packet_id in y.metadata

    def test_learn_ack_purges_state(self):
        x, _, _ = make_pair()
        factory = PacketFactory()
        packet = factory.create(source=0, destination=9)
        x.on_packet_created(packet, now=0.0)
        x.learn_ack(packet.packet_id, now=5.0)
        assert packet.packet_id not in x.buffer
        assert packet.packet_id not in x.metadata
        assert packet.packet_id in x.acked

    def test_byte_scale_reduces_charge(self):
        x1, y1, _ = make_pair()
        x2, y2, _ = make_pair(metadata_byte_scale=0.1)
        factory = PacketFactory()
        for x in (x1, x2):
            for _ in range(5):
                x.on_packet_created(factory.create(source=0, destination=9), now=0.0)
        b1 = TransferBudget(capacity=100_000)
        b2 = TransferBudget(capacity=100_000)
        x1.exchange_control(y1, now=10.0, budget=b1)
        x2.exchange_control(y2, now=10.0, budget=b2)
        assert 0 < b2.metadata_bytes < b1.metadata_bytes

    def test_records_cut_by_the_budget_wait_until_they_change_again(self):
        """The peer's exchange time advances past records the budget cut."""
        x, y, _ = make_pair()
        packet = PacketFactory().create(source=0, destination=9)
        x.metadata.update_replica(packet, holder_id=5, delay_estimate=10.0, now=1.0)
        x.metadata.update_replica(packet, holder_id=6, delay_estimate=20.0, now=1.0)
        # Room for the (empty) meeting table and exactly one replica record.
        room = constants.RAPID_TABLE_ENTRY_BYTES + constants.RAPID_METADATA_ENTRY_BYTES
        x.exchange_control(y, now=10.0, budget=TransferBudget(capacity=room))
        assert y.metadata.holders(packet.packet_id) == [5]
        x.exchange_control(y, now=20.0, budget=TransferBudget(capacity=100_000))
        assert y.metadata.holders(packet.packet_id) == [5]
        # A meaningful change makes the cut record new again.
        x.metadata.update_replica(packet, holder_id=6, delay_estimate=90.0, now=25.0)
        x.exchange_control(y, now=30.0, budget=TransferBudget(capacity=100_000))
        assert y.metadata.holders(packet.packet_id) == [5, 6]
        assert columnar_replica(y.metadata, packet.packet_id, 6) == (90.0, 25.0, 30.0)


class TestRapidSelection:
    def test_replication_prefers_fewer_replicas(self):
        x, y, _ = make_pair()
        factory = PacketFactory()
        # Both packets have the same destination and age; one already has an
        # extra known replica, so the other has higher marginal utility.
        lonely = factory.create(source=0, destination=5, size=1000, creation_time=0.0)
        popular = factory.create(source=0, destination=5, size=1000, creation_time=0.0)
        x.on_packet_created(popular, now=0.0)
        x.on_packet_created(lonely, now=0.0)
        x.meetings.record_meeting(5, now=100.0)
        y.meetings.record_meeting(5, now=100.0)
        x.metadata.update_replica(popular, holder_id=7, delay_estimate=100.0, now=1.0)
        order = list(x.replication_candidates(y, now=100.0))
        assert order[0].packet_id == lonely.packet_id

    def test_max_delay_metric_prioritises_highest_expected_delay(self):
        x, y, _ = make_pair(metric="max_delay")
        factory = PacketFactory()
        # Different destinations so queueing does not change the ordering:
        # the older packet has the larger expected delay D = T + A.
        old = factory.create(source=0, destination=5, size=1000, creation_time=0.0)
        new = factory.create(source=0, destination=6, size=1000, creation_time=500.0)
        x.on_packet_created(old, now=0.0)
        x.on_packet_created(new, now=500.0)
        for node in (x, y):
            node.meetings.record_meeting(5, now=600.0)
            node.meetings.record_meeting(6, now=600.0)
        order = list(x.replication_candidates(y, now=600.0))
        assert order[0].packet_id == old.packet_id

    def test_unhelpful_replication_ranked_last_not_dropped(self):
        x, y, _ = make_pair()
        factory = PacketFactory()
        helpful = factory.create(source=0, destination=5, size=1000, creation_time=0.0)
        hopeless = factory.create(source=0, destination=6, size=1000, creation_time=0.0)
        x.on_packet_created(helpful, now=0.0)
        x.on_packet_created(hopeless, now=0.0)
        # Both X and Y know how to reach node 5 but nobody ever meets node 6.
        x.meetings.record_meeting(5, now=100.0)
        y.meetings.record_meeting(5, now=100.0)
        order = [p.packet_id for p in x.replication_candidates(y, now=100.0)]
        assert order == [helpful.packet_id, hopeless.packet_id]

    def test_direct_delivery_order_oldest_first_for_delay_metric(self):
        x, _, _ = make_pair()
        factory = PacketFactory()
        old = factory.create(source=0, destination=1, creation_time=0.0)
        new = factory.create(source=0, destination=1, creation_time=50.0)
        x.on_packet_created(new, now=50.0)
        x.on_packet_created(old, now=50.0)
        order = x.direct_delivery_order(1, now=100.0)
        assert [p.packet_id for p in order] == [old.packet_id, new.packet_id]

    def test_eviction_never_drops_own_unacked_for_incoming_relay(self):
        x, y, _ = make_pair(capacity=2048)
        factory = PacketFactory()
        own = factory.create(source=0, destination=5, size=1024)
        own2 = factory.create(source=0, destination=6, size=1024)
        x.on_packet_created(own, now=0.0)
        x.on_packet_created(own2, now=0.0)
        relayed = factory.create(source=3, destination=7, size=1024)
        accepted = x.accept_replica(relayed, y, now=1.0)
        assert not accepted
        assert own.packet_id in x.buffer and own2.packet_id in x.buffer

    def test_new_own_packet_displaces_old_own_packet(self):
        x, _, _ = make_pair(capacity=1024)
        factory = PacketFactory()
        first = factory.create(source=0, destination=5, size=1024, creation_time=0.0)
        second = factory.create(source=0, destination=6, size=1024, creation_time=10.0)
        assert x.on_packet_created(first, now=0.0)
        assert x.on_packet_created(second, now=10.0)
        assert second.packet_id in x.buffer
        assert first.packet_id not in x.buffer


class TestRapidEndToEnd:
    def test_relay_delivery_via_simulator(self):
        # 0 meets 1 early, 1 meets 2 later; a RAPID packet from 0 to 2 should
        # be replicated to 1 and delivered at the second meeting.
        meetings = [
            Meeting(time=10.0, node_a=0, node_b=1, capacity=50_000),
            Meeting(time=30.0, node_a=1, node_b=2, capacity=50_000),
            Meeting(time=40.0, node_a=0, node_b=1, capacity=50_000),
        ]
        schedule = MeetingSchedule(meetings, duration=60.0)
        packets = single_packet_workload(source=0, destination=2, creation_time=0.0)
        result = run_simulation(schedule, packets, create_factory("rapid"), seed=1)
        assert result.num_delivered == 1
        assert result.record_for(packets[0].packet_id).delivery_time == pytest.approx(30.0)

    def test_global_channel_runs_and_charges_nothing(self, exponential_schedule, small_workload):
        result = run_simulation(
            exponential_schedule,
            small_workload,
            create_factory("rapid-global"),
            buffer_capacity=64 * 1024,
            seed=2,
        )
        assert result.metadata_bytes == 0
        assert result.delivery_rate() > 0.3

    def test_all_three_metrics_run(self, exponential_schedule, small_workload):
        for metric in ("average_delay", "max_delay", "deadline"):
            result = run_simulation(
                exponential_schedule,
                small_workload,
                create_factory("rapid", metric=metric),
                buffer_capacity=64 * 1024,
                seed=3,
            )
            assert result.delivery_rate() > 0.3

    def test_acks_purge_replicas_elsewhere(self, exponential_schedule, small_workload):
        rapid = run_simulation(
            exponential_schedule, small_workload, create_factory("rapid"), buffer_capacity=64 * 1024, seed=4
        )
        # Acked packets should not remain buffered anywhere at the end in
        # large numbers: count replicas of delivered packets still stored.
        assert rapid.deliveries == rapid.num_delivered
