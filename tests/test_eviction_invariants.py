"""Eviction-path consistency, ack budget clipping and hot-path units.

The eviction audit (buffer, hop counts and RAPID replica metadata must
never disagree), the ``send_acks`` budget fix (only acks that fit the
remaining opportunity are learned by the peer) and focused units for the
incremental hot path: the per-destination serve-order index, the
memo-free eviction cascade and the lazy-heap candidate ranking.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from metadata_oracle import columnar_entries
from repro import constants, units
from repro.core.rapid import RapidProtocol
from repro.dtn.node import Node
from repro.dtn.packet import Packet, PacketFactory
from repro.dtn.workload import PoissonWorkload
from repro.mobility.exponential import ExponentialMobility
from repro.routing.base import ProtocolContext, RoutingProtocol, TransferBudget
from repro.routing.registry import create_factory


def make_rapid_pair(capacity=float("inf"), **kwargs):
    nodes = {0: Node.with_capacity(0, capacity), 1: Node.with_capacity(1, capacity)}
    context = ProtocolContext(nodes=nodes)
    x = RapidProtocol(nodes[0], context, **kwargs)
    y = RapidProtocol(nodes[1], context, **kwargs)
    return x, y, context


def assert_protocol_consistent(protocol: RoutingProtocol) -> None:
    """Buffer, hop counts and (for RAPID) metadata must agree exactly."""
    buffered = set(protocol.buffer.packet_ids)
    assert set(protocol.hop_counts) == buffered, (
        f"node {protocol.node_id}: hop counts {sorted(protocol.hop_counts)} "
        f"disagree with buffer {sorted(buffered)}"
    )
    protocol.buffer.check_integrity()
    if isinstance(protocol, RapidProtocol):
        for packet_id in buffered:
            assert packet_id in protocol.metadata and protocol.node_id in (
                protocol.metadata.holders(packet_id)
            ), (
                f"node {protocol.node_id}: buffered packet {packet_id} has no "
                f"self replica record"
            )
        for packet_id, _, _ in columnar_entries(protocol.metadata):
            if protocol.node_id in protocol.metadata.holders(packet_id):
                assert packet_id in buffered, (
                    f"node {protocol.node_id}: metadata claims a self replica "
                    f"of {packet_id} that is not buffered"
                )


class TestEvictionConsistency:
    def test_eviction_removes_metadata_hop_count_and_buffer_entry(self):
        x, y, _ = make_rapid_pair(capacity=2048)
        factory = PacketFactory()
        first = factory.create(source=3, destination=5, size=1024, creation_time=0.0)
        second = factory.create(source=3, destination=6, size=1024, creation_time=1.0)
        third = factory.create(source=3, destination=7, size=2048, creation_time=2.0)
        assert x.accept_replica(first, y, now=0.0)
        assert x.accept_replica(second, y, now=1.0)
        # Third needs the whole buffer: a two-step eviction cascade.
        assert x.accept_replica(third, y, now=2.0)
        assert first.packet_id not in x.buffer
        assert second.packet_id not in x.buffer
        assert_protocol_consistent(x)

    def test_refused_cascade_leaves_state_consistent(self):
        x, y, _ = make_rapid_pair(capacity=1024)
        factory = PacketFactory()
        own = factory.create(source=0, destination=5, size=1024)
        assert x.on_packet_created(own, now=0.0)
        relayed = factory.create(source=3, destination=6, size=1024)
        # An incoming relay may not displace the own unacked packet.
        assert not x.accept_replica(relayed, y, now=1.0)
        assert_protocol_consistent(x)
        assert own.packet_id in x.buffer

    @pytest.mark.parametrize("protocol_name", ["rapid", "maxprop", "prophet"])
    def test_invariants_hold_under_storage_pressure(self, protocol_name):
        mobility = ExponentialMobility(
            num_nodes=6, mean_inter_meeting=40.0, transfer_opportunity=30 * units.KB, seed=2
        )
        schedule = mobility.generate(600.0)
        workload = PoissonWorkload(packets_per_hour=240.0, seed=3)
        packets = workload.generate(list(range(6)), 600.0)
        simulator_result = None

        from repro.dtn.simulator import Simulator

        simulator = Simulator(
            schedule=schedule,
            packets=packets,
            protocol_factory=create_factory(protocol_name),
            buffer_capacity=10 * units.KB,
            seed=4,
        )
        original = simulator._handle_meeting

        def checked(meeting, now, contact_id=-1):
            original(meeting, now, contact_id)
            for protocol in simulator.protocols.values():
                assert_protocol_consistent(protocol)

        simulator._handle_meeting = checked
        simulator_result = simulator.run()
        assert simulator_result.meetings_processed > 0
        total_drops = sum(p.storage_drops for p in simulator.protocols.values())
        assert total_drops > 0, "scenario must actually exercise eviction"


class _CountingMetric:
    """Wraps a metric to count eviction_score evaluations."""

    def __init__(self, metric):
        self._metric = metric
        self.eviction_scores = 0

    def __getattr__(self, name):
        return getattr(self._metric, name)

    def eviction_score(self, packet, remaining, now):
        self.eviction_scores += 1
        return self._metric.eviction_score(packet, remaining, now)


class TestMemoFreeEviction:
    def test_scalar_cascade_rescores_all_survivors(self):
        x, y, _ = make_rapid_pair(capacity=4096)
        counting = _CountingMetric(x.metric)
        x.metric = counting
        factory = PacketFactory()
        # Four relayed 1 KB packets to four distinct destinations.
        stored = [
            factory.create(source=3, destination=10 + i, size=1024, creation_time=float(i))
            for i in range(4)
        ]
        for packet in stored:
            assert x.accept_replica(packet, y, now=packet.creation_time)
        counting.eviction_scores = 0
        incoming = factory.create(source=3, destination=20, size=3072, creation_time=5.0)
        assert x.accept_replica(incoming, y, now=5.0)
        # Cascade of three evictions over four candidates: with no memo,
        # every step scores every remaining candidate (4+3+2=9).
        assert counting.eviction_scores == 9
        assert_protocol_consistent(x)

    def test_cascade_rescores_the_victims_destination(self):
        x, y, _ = make_rapid_pair(capacity=3072)
        counting = _CountingMetric(x.metric)
        x.metric = counting
        factory = PacketFactory()
        same_a = factory.create(source=3, destination=10, size=1024, creation_time=0.0)
        same_b = factory.create(source=3, destination=10, size=1024, creation_time=1.0)
        other = factory.create(source=3, destination=11, size=1024, creation_time=2.0)
        for packet, now in ((same_a, 0.0), (same_b, 1.0), (other, 2.0)):
            assert x.accept_replica(packet, y, now=now)
        counting.eviction_scores = 0
        incoming = factory.create(source=3, destination=20, size=2048, creation_time=5.0)
        assert x.accept_replica(incoming, y, now=5.0)
        # Step 1 scores all three candidates, step 2 the two survivors —
        # including a destination-10 packet whose queue position moved
        # if its sibling was the first victim.
        assert counting.eviction_scores == 5
        assert_protocol_consistent(x)

    def test_lone_candidate_is_taken_unscored_without_a_recorder(self):
        x, y, _ = make_rapid_pair(capacity=2048)
        counting = _CountingMetric(x.metric)
        x.metric = counting
        factory = PacketFactory()
        only = factory.create(source=3, destination=10, size=1024, creation_time=0.0)
        assert x.accept_replica(only, y, now=0.0)
        incoming = factory.create(source=3, destination=11, size=2048, creation_time=1.0)
        assert x.choose_eviction_victim(incoming, 1.0) == only.packet_id
        assert counting.eviction_scores == 0

    def test_kernel_cascade_matches_scalar_scores(self):
        x, y, _ = make_rapid_pair(capacity=4096)
        factory = PacketFactory()
        x.meetings.record_meeting(10, 30.0)
        for i, size in enumerate((512, 1024, 512, 1024)):
            packet = factory.create(
                source=3, destination=10 + i % 2, size=size, creation_time=float(i)
            )
            assert x.accept_replica(packet, y, now=float(i))
        candidates = list(x.buffer)
        kernel = x._eviction_score_array(candidates, 6.0)
        scalar = [
            x.metric.eviction_score(p, x.expected_remaining_delay(p, 6.0), 6.0)
            for p in candidates
        ]
        assert kernel.tolist() == scalar

    def test_tied_scores_evict_the_first_candidate(self):
        # Destinations nobody can reach give every candidate the same
        # score (-inf); like the scalar loop's strict ``<``, the kernel
        # path must evict the first candidate in buffer order.
        victims = []
        for slow in (False, True):
            x, y, _ = make_rapid_pair(capacity=3072)
            x._slow_reference = slow
            factory = PacketFactory()
            stored = [
                factory.create(source=3, destination=10 + i, size=1024, creation_time=0.0)
                for i in range(3)
            ]
            for packet in stored:
                assert x.accept_replica(packet, y, now=1.0)
            incoming = factory.create(source=3, destination=20, size=1024, creation_time=2.0)
            victims.append(x.choose_eviction_victim(incoming, 2.0))
        assert victims == [stored[0].packet_id, stored[0].packet_id]

    def test_multi_victim_cascades_match_reference(self, monkeypatch):
        """Mixed sizes force cascades of two or more victims; the memo-free
        kernel path must pick the same victims, and write the same
        decision audit, as ``REPRO_SLOW_ESTIMATES=1``: the whole JSONL,
        ranking and eviction events alike, must match line for line.
        """
        from repro.dtn.simulator import run_simulation
        from repro.observability import MemorySink
        from repro.profiling import ENV_SLOW_ESTIMATES

        mobility = ExponentialMobility(
            num_nodes=6, mean_inter_meeting=40.0, transfer_opportunity=30 * units.KB, seed=2
        )
        schedule = mobility.generate(600.0)
        rng = np.random.default_rng(5)
        factory = PacketFactory()
        packets = []
        for created in np.sort(rng.uniform(0.0, 600.0, size=160)).tolist():
            source, destination = rng.choice(6, size=2, replace=False).tolist()
            size = int(rng.choice([256, 1024, 4096]))
            packets.append(
                factory.create(
                    source=source, destination=destination, size=size, creation_time=created
                )
            )
        original = RapidProtocol.make_room

        def run(slow: bool):
            monkeypatch.delenv(ENV_SLOW_ESTIMATES, raising=False)
            if slow:
                monkeypatch.setenv(ENV_SLOW_ESTIMATES, "1")
            cascades = []

            def make_room(self, incoming, now):
                before = set(self.buffer.packet_ids)
                admitted = original(self, incoming, now)
                victims = sorted(before - set(self.buffer.packet_ids))
                cascades.append((self.node_id, incoming.packet_id, victims))
                return admitted

            monkeypatch.setattr(RapidProtocol, "make_room", make_room)
            sink = MemorySink()
            result = run_simulation(
                schedule,
                packets,
                create_factory("rapid"),
                buffer_capacity=8 * units.KB,
                seed=4,
                options={"decision_sink": sink},
            )
            monkeypatch.delenv(ENV_SLOW_ESTIMATES, raising=False)
            return cascades, sink.lines(), result.to_dict()

        fast = run(slow=False)
        slow = run(slow=True)
        assert max(len(victims) for _, _, victims in fast[0]) >= 2
        assert fast[0] == slow[0]
        evictions = [line for line in fast[1] if '"ev":"eviction_choice"' in line]
        assert len(evictions) >= len(fast[0]) > 0
        assert fast[1] == slow[1]
        assert fast[2] == slow[2]


class TestAckBudgetClipping:
    class _CountingAckProtocol(RoutingProtocol):
        name = "counting-acks"
        uses_acks = True
        counts_control_bytes = True

        def replication_candidates(self, peer, now):
            return iter(())

    def _pair(self):
        nodes = {0: Node.with_capacity(0, float("inf")), 1: Node.with_capacity(1, float("inf"))}
        context = ProtocolContext(nodes=nodes)
        a = self._CountingAckProtocol(nodes[0], context)
        b = self._CountingAckProtocol(nodes[1], context)
        return a, b

    def test_only_acks_that_fit_are_learned(self):
        a, b = self._pair()
        a.acked = {1, 2, 3, 4, 5}
        budget = TransferBudget(capacity=2.5 * constants.RAPID_ACK_ENTRY_BYTES)
        a.send_acks(b, budget)
        # Two whole entries fit; they are sent in packet-id order.
        assert b.acked == {1, 2}
        assert budget.metadata_bytes == 2 * constants.RAPID_ACK_ENTRY_BYTES

    def test_exhausted_budget_transfers_no_acks(self):
        a, b = self._pair()
        a.acked = {7, 8}
        budget = TransferBudget(capacity=100.0)
        budget.charge_data(100.0)
        a.send_acks(b, budget)
        assert b.acked == set()
        assert budget.metadata_bytes == 0.0

    def test_uncounted_channel_still_floods_everything(self):
        a, b = self._pair()
        a.counts_control_bytes = False
        a.acked = {1, 2, 3}
        budget = TransferBudget(capacity=1.0)
        a.send_acks(b, budget)
        assert b.acked == {1, 2, 3}
        assert budget.metadata_bytes == 0.0

    def test_infinite_budget_sends_everything(self):
        # Meeting.capacity defaults to infinity; `inf // entry` is NaN, so
        # the clipping arithmetic must special-case unconstrained budgets.
        a, b = self._pair()
        a.acked = {1, 2, 3}
        budget = TransferBudget(capacity=float("inf"))
        a.send_acks(b, budget)
        assert b.acked == {1, 2, 3}
        assert budget.metadata_bytes == 3 * constants.RAPID_ACK_ENTRY_BYTES


class TestLazyHeapRanking:
    def test_heap_order_matches_eager_reference_sort(self):
        x, y, _ = make_rapid_pair()
        factory = PacketFactory()
        now = 200.0
        x.meetings.record_meeting(5, now=50.0)
        y.meetings.record_meeting(5, now=80.0)
        y.meetings.record_meeting(6, now=90.0)
        for i in range(12):
            packet = factory.create(
                source=0,
                destination=5 + (i % 3),
                size=500 + 100 * (i % 4),
                creation_time=float(10 * (i // 2)),  # deliberate age ties
            )
            x.on_packet_created(packet, now=packet.creation_time)
        lazy = [p.packet_id for p in x.replication_candidates(y, now)]
        reference = [p.packet_id for _, p in x._ranked_candidates(y, now)]
        assert lazy == reference

    def test_vectorized_delays_match_scalar(self):
        rng = np.random.default_rng(0)
        meetings = rng.uniform(1.0, 1e4, size=64)
        meetings[::7] = float("inf")
        ahead = rng.integers(0, 10**7, size=64)
        # Every other queue is short enough that its bytes plus the packet
        # fit one transfer: those estimates skip the queue position.
        ahead[::2] //= 10**4
        queued = ahead + rng.integers(0, 10**3, size=64)
        sizes = rng.integers(1, 10**5, size=64)
        transfers = rng.uniform(1.0, 10**6, size=64)
        positioned = []

        def bytes_ahead_batch(packets, now):
            positioned.extend(p.destination for p in packets)
            return np.array([ahead[p.destination] for p in packets], dtype=np.float64)

        # Packet k goes to destination k, so the holder's per-destination
        # estimates and queue positions are exactly the arrays above.
        holder = SimpleNamespace(
            meetings=SimpleNamespace(expected_meeting_time=lambda k: float(meetings[k])),
            transfer_sizes=SimpleNamespace(expected_bytes_or_none=lambda k: float(transfers[k])),
            buffer=SimpleNamespace(
                queued_bytes=lambda k: int(queued[k]),
                bytes_ahead_batch=bytes_ahead_batch,
                bytes_ahead_of=lambda packet, now: int(ahead[packet.destination]),
            ),
            _slow_reference=False,
        )
        packets = [
            Packet(packet_id=k, source=99, destination=k, size=int(sizes[k]))
            for k in range(64)
        ]
        x, _, _ = make_rapid_pair()
        vector = x._direct_delays_for_holder(holder, packets, now=0.0)
        assert 0 < len(positioned) < 64
        for k in range(64):
            scalar = RapidProtocol.own_delay_estimate(holder, packets[k], 0.0)
            full = meetings[k] * max(math.ceil((ahead[k] + sizes[k]) / transfers[k]), 1)
            assert vector[k] == scalar == full
