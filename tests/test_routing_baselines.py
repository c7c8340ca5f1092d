"""Tests for the baseline routing protocols and the protocol registry."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn.node import Node
from repro.dtn.packet import PacketFactory
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import single_packet_workload
from repro.exceptions import UnknownProtocolError
from repro.mobility.schedule import Meeting, MeetingSchedule
from repro.routing.base import ProtocolContext, ProtocolFactory, RoutingProtocol, TransferBudget
from repro.routing.maxprop import MaxPropProtocol
from repro.routing.prophet import ProphetProtocol
from repro.routing.random_routing import RandomProtocol, RandomWithAcksProtocol
from repro.routing.registry import available_protocols, create_factory, register_protocol
from repro.routing.spray_and_wait import SprayAndWaitProtocol


def build(protocol_cls, node_id=0, capacity=float("inf"), context=None, **kwargs):
    context = context or ProtocolContext(nodes={})
    node = Node.with_capacity(node_id, capacity)
    context.nodes[node_id] = node
    return protocol_cls(node, context, **kwargs), context


class TestTransferBudget:
    def test_accounting(self):
        budget = TransferBudget(capacity=1000)
        budget.charge_data(400)
        charged = budget.charge_metadata(300)
        assert charged == 300
        assert budget.remaining == 300
        assert budget.can_send(300)
        assert not budget.can_send(301)

    def test_metadata_clipped_to_remaining(self):
        budget = TransferBudget(capacity=100)
        assert budget.charge_metadata(500) == 100
        assert budget.remaining == 0

    def test_data_overflow_raises(self):
        budget = TransferBudget(capacity=100)
        with pytest.raises(ValueError):
            budget.charge_data(200)


class TestRegistry:
    def test_available_protocols(self):
        names = available_protocols()
        for expected in ("rapid", "rapid-local", "rapid-global", "maxprop",
                         "spray-and-wait", "prophet", "random", "random-acks",
                         "epidemic", "direct"):
            assert expected in names

    def test_unknown_protocol(self):
        with pytest.raises(UnknownProtocolError):
            create_factory("carrier-pigeon")

    def test_factory_passes_options(self):
        factory = create_factory("spray-and-wait", copies=4)
        context = ProtocolContext(nodes={})
        node = Node.with_capacity(0, 1e9)
        context.nodes[0] = node
        protocol = factory.create(node, context)
        assert protocol.copies == 4

    def test_register_custom_protocol(self):
        class NullProtocol(RandomProtocol):
            name = "null"

        register_protocol("null-test", lambda **kw: ProtocolFactory(NullProtocol, name="null", **kw))
        factory = create_factory("null-test")
        assert factory.name == "null"

    def test_factory_requires_protocol_subclass(self):
        with pytest.raises(TypeError):
            ProtocolFactory(object)

    def test_rapid_factory_label(self):
        assert create_factory("rapid", metric="max_delay").name == "rapid[max_delay,in-band]"
        assert create_factory("rapid", label="custom").name == "custom"


class TestSprayAndWait:
    def test_source_starts_with_l_copies(self):
        protocol, _ = build(SprayAndWaitProtocol, copies=8)
        factory = PacketFactory()
        packet = factory.create(source=0, destination=5)
        protocol.on_packet_created(packet, now=0.0)
        assert protocol.tokens[packet.packet_id] == 8

    def test_binary_split_on_replication(self):
        context = ProtocolContext(nodes={})
        sender, _ = build(SprayAndWaitProtocol, node_id=0, context=context, copies=8)
        receiver, _ = build(SprayAndWaitProtocol, node_id=1, context=context, copies=8)
        factory = PacketFactory()
        packet = factory.create(source=0, destination=5)
        sender.on_packet_created(packet, now=0.0)
        assert receiver.accept_replica(packet, sender, now=1.0)
        sender.on_replica_sent(packet, receiver, now=1.0)
        assert receiver.tokens[packet.packet_id] == 4
        assert sender.tokens[packet.packet_id] == 4

    def test_wait_phase_stops_replication(self):
        context = ProtocolContext(nodes={})
        sender, _ = build(SprayAndWaitProtocol, node_id=0, context=context, copies=1)
        receiver, _ = build(SprayAndWaitProtocol, node_id=1, context=context, copies=1)
        factory = PacketFactory()
        packet = factory.create(source=0, destination=5)
        sender.on_packet_created(packet, now=0.0)
        assert list(sender.replication_candidates(receiver, now=1.0)) == []

    def test_copy_budget_bounds_total_replicas(self):
        # With L=4 the packet should never exist at more than 4 nodes.
        meetings = [
            Meeting(time=float(t), node_a=0, node_b=peer, capacity=100_000)
            for t, peer in enumerate([1, 2, 3, 4, 5, 6, 7, 8], start=1)
        ]
        schedule = MeetingSchedule(meetings, duration=20.0)
        packets = single_packet_workload(source=0, destination=9)
        result = run_simulation(schedule, packets, create_factory("spray-and-wait", copies=4))
        assert result.replications <= 3  # 3 handed-out copies + the source's

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            build(SprayAndWaitProtocol, copies=0)


class TestProphet:
    def test_meeting_raises_predictability(self):
        protocol, _ = build(ProphetProtocol)
        peer, _ = build(ProphetProtocol, node_id=1)
        assert protocol.predictability_for(1) == 0.0
        protocol.on_meeting_start(peer, now=10.0)
        assert protocol.predictability_for(1) == pytest.approx(0.75)
        protocol.on_meeting_start(peer, now=20.0)
        assert protocol.predictability_for(1) > 0.75

    def test_aging_decays_predictability(self):
        protocol, _ = build(ProphetProtocol, aging_time_unit=10.0)
        peer, _ = build(ProphetProtocol, node_id=1)
        protocol.on_meeting_start(peer, now=0.0)
        before = protocol.predictability_for(1)
        after = protocol.predictability_for(1, now=1000.0)
        assert after < before

    def test_transitive_update(self):
        context = ProtocolContext(nodes={})
        a, _ = build(ProphetProtocol, node_id=0, context=context)
        b, _ = build(ProphetProtocol, node_id=1, context=context)
        b.predictability[5] = 0.9
        a.on_meeting_start(b, now=1.0)
        a.exchange_control(b, now=1.0, budget=TransferBudget(capacity=1e9))
        assert a.predictability_for(5) > 0.0

    def test_forwarding_rule(self):
        context = ProtocolContext(nodes={})
        a, _ = build(ProphetProtocol, node_id=0, context=context)
        b, _ = build(ProphetProtocol, node_id=1, context=context)
        factory = PacketFactory()
        packet = factory.create(source=0, destination=5)
        a.on_packet_created(packet, now=0.0)
        # B is a better relay for node 5 than A.
        b.predictability[5] = 0.8
        a.predictability[5] = 0.1
        assert [p.packet_id for p in a.replication_candidates(b, now=1.0)] == [packet.packet_id]
        # And not the other way around.
        a.predictability[5] = 0.95
        assert list(a.replication_candidates(b, now=1.0)) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build(ProphetProtocol, p_init=0.0)
        with pytest.raises(ValueError):
            build(ProphetProtocol, gamma=1.5)
        with pytest.raises(ValueError):
            build(ProphetProtocol, aging_time_unit=0.0)


class TestMaxProp:
    def test_meeting_probabilities_normalised(self):
        context = ProtocolContext(nodes={})
        a, _ = build(MaxPropProtocol, node_id=0, context=context)
        b, _ = build(MaxPropProtocol, node_id=1, context=context)
        c, _ = build(MaxPropProtocol, node_id=2, context=context)
        a.on_meeting_start(b, now=1.0)
        a.on_meeting_start(c, now=2.0)
        a.on_meeting_start(b, now=3.0)
        assert sum(a.meeting_probs.values()) == pytest.approx(1.0)
        assert a.meeting_probs[1] > a.meeting_probs[2]

    def test_destination_cost_via_relay(self):
        context = ProtocolContext(nodes={})
        a, _ = build(MaxPropProtocol, node_id=0, context=context)
        a.meeting_probs = {1: 1.0}
        a.known_vectors = {0: {1: 1.0}, 1: {2: 0.5, 0: 0.5}}
        cost = a.destination_cost(2)
        assert cost == pytest.approx(0.5)
        assert a.destination_cost(0) == 0.0
        assert a.destination_cost(99) == float("inf")

    def test_priority_order_new_packets_first(self):
        context = ProtocolContext(nodes={})
        a, _ = build(MaxPropProtocol, node_id=0, context=context)
        factory = PacketFactory()
        fresh = factory.create(source=0, destination=5)
        travelled = factory.create(source=3, destination=5)
        a.insert_packet(fresh, now=0.0, hop_count=0)
        a.insert_packet(travelled, now=0.0, hop_count=6)
        order = a._priority_order([travelled, fresh])
        assert order[0].packet_id == fresh.packet_id

    def test_ack_flooding_purges_buffers(self):
        context = ProtocolContext(nodes={})
        a, _ = build(MaxPropProtocol, node_id=0, context=context)
        b, _ = build(MaxPropProtocol, node_id=1, context=context)
        factory = PacketFactory()
        packet = factory.create(source=0, destination=5)
        b.insert_packet(packet, now=0.0, hop_count=1)
        a.acked.add(packet.packet_id)
        a.exchange_control(b, now=1.0, budget=TransferBudget(capacity=1e9))
        assert packet.packet_id not in b.buffer


class TestRandomAndBase:
    def test_random_candidates_cover_all_transferable(self):
        context = ProtocolContext(nodes={})
        a, _ = build(RandomProtocol, node_id=0, context=context)
        b, _ = build(RandomProtocol, node_id=1, context=context)
        factory = PacketFactory()
        packets = [factory.create(source=0, destination=5) for _ in range(5)]
        for packet in packets:
            a.on_packet_created(packet, now=0.0)
        candidates = {p.packet_id for p in a.replication_candidates(b, now=1.0)}
        assert candidates == {p.packet_id for p in packets}

    def test_random_with_acks_flag(self):
        assert RandomWithAcksProtocol.uses_acks
        assert not RandomProtocol.uses_acks

    def test_base_accept_rejects_duplicates_and_acked(self):
        context = ProtocolContext(nodes={})
        a, _ = build(RandomProtocol, node_id=0, context=context)
        b, _ = build(RandomProtocol, node_id=1, context=context)
        factory = PacketFactory()
        packet = factory.create(source=1, destination=5)
        b.on_packet_created(packet, now=0.0)
        assert a.accept_replica(packet, b, now=1.0)
        assert not a.accept_replica(packet, b, now=1.0)
        a.learn_ack(packet.packet_id, now=2.0)
        assert not a.accept_replica(packet, b, now=2.0)

    def test_hop_counts_propagate(self):
        context = ProtocolContext(nodes={})
        a, _ = build(RandomProtocol, node_id=0, context=context)
        b, _ = build(RandomProtocol, node_id=1, context=context)
        factory = PacketFactory()
        packet = factory.create(source=1, destination=5)
        b.on_packet_created(packet, now=0.0)
        a.accept_replica(packet, b, now=1.0)
        assert a.hop_counts[packet.packet_id] == 1

    def test_transferable_packets_excludes_peer_holdings(self):
        context = ProtocolContext(nodes={})
        a, _ = build(RandomProtocol, node_id=0, context=context)
        b, _ = build(RandomProtocol, node_id=1, context=context)
        factory = PacketFactory()
        shared = factory.create(source=0, destination=5)
        fresh = factory.create(source=0, destination=5)
        a.on_packet_created(shared, now=0.0)
        a.on_packet_created(fresh, now=0.0)
        b.insert_packet(shared, now=0.0, hop_count=1)
        ids = {p.packet_id for p in a.transferable_packets(b)}
        assert ids == {fresh.packet_id}


# ----------------------------------------------------------------------
# MaxProp path-cost memo against the per-query early-exit Dijkstra
# ----------------------------------------------------------------------
def _early_exit_cost(node_id, meeting_probs, known_vectors, destination):
    """Oracle: the per-query Dijkstra ``destination_cost`` once ran."""
    if destination == node_id:
        return 0.0
    graph = dict(known_vectors)
    graph[node_id] = dict(meeting_probs)
    distances = {node_id: 0.0}
    heap = [(0.0, node_id)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node == destination:
            return cost
        if cost > distances.get(node, float("inf")):
            continue
        for neighbor, prob in graph.get(node, {}).items():
            new_cost = cost + (1.0 - min(max(prob, 0.0), 1.0))
            if new_cost < distances.get(neighbor, float("inf")):
                distances[neighbor] = new_cost
                heapq.heappush(heap, (new_cost, neighbor))
    return distances.get(destination, float("inf"))


_MEMO_NODES = 4
# Node ids _MEMO_NODES (reachable only through assigned vectors) and
# _MEMO_NODES + 1 (never in any graph) are queried as well.
_node = st.integers(min_value=0, max_value=_MEMO_NODES - 1)
_graph_node = st.integers(min_value=0, max_value=_MEMO_NODES)
_vector = st.dictionaries(_graph_node, st.floats(min_value=-0.5, max_value=1.5), max_size=4)
_memo_ops = st.lists(
    st.one_of(
        st.tuples(st.just("meet"), _node, _node),
        st.tuples(st.just("exchange"), _node, _node),
        st.tuples(st.just("assign_probs"), _node, _vector),
        st.tuples(
            st.just("assign_vectors"), _node, st.dictionaries(_graph_node, _vector, max_size=4)
        ),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(ops=_memo_ops)
def test_maxprop_cost_memo_matches_early_exit_dijkstra(ops):
    context = ProtocolContext(nodes={})
    nodes = [build(MaxPropProtocol, node_id=i, context=context)[0] for i in range(_MEMO_NODES)]
    for step, (kind, i, arg) in enumerate(ops):
        x = nodes[i]
        if kind == "meet" and arg != i:
            x.on_meeting_start(nodes[arg], now=float(step))
            nodes[arg].on_meeting_start(x, now=float(step))
        elif kind == "exchange" and arg != i:
            x.exchange_control(nodes[arg], float(step), TransferBudget(capacity=1e9))
        elif kind == "assign_probs":
            x.meeting_probs = dict(arg)
        elif kind == "assign_vectors":
            x.known_vectors = {owner: dict(vector) for owner, vector in arg.items()}
        for node in nodes:
            for destination in range(_MEMO_NODES + 2):
                expected = _early_exit_cost(
                    node.node_id, node.meeting_probs, node.known_vectors, destination
                )
                assert node.destination_cost(destination) == expected
