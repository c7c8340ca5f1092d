"""Differential property test: the columnar metadata store vs the reference.

Hypothesis drives the same random operation sequence through two nodes'
:class:`~repro.core.metadata.MetadataStore` pair and through the
dict-of-records reference in :mod:`metadata_oracle`: scalar updates,
replica and packet removals, third-party and buffer-state exchanges cut
to random budgets (through the in-band channel's own send methods), and
changed-since queries.  After every operation both sides must agree on
the return value, the emitted records in order, every entry's ``seq``,
and every entry's holders in order with their (estimate, ``updated_at``,
``changed_at``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metadata_oracle import (
    ReferenceMetadataStore,
    columnar_entries,
    send_buffer_state,
    send_third_party,
)
from repro import constants
from repro.core.control import InBandControlChannel, _MetadataBudget
from repro.core.metadata import MetadataStore
from repro.dtn.buffer import NodeBuffer
from repro.dtn.packet import Packet
from repro.dtn.packet_store import PacketStore
from repro.routing.base import TransferBudget

PACKETS = [Packet(packet_id=10 + i, source=0, destination=9, size=100) for i in range(3)]
NODES = (0, 1)

# Estimates on both sides of the relative tolerance (0.75), plus the edge
# values the meaningful-change rule singles out: zero, negative and inf.
ESTIMATES = st.sampled_from([0.0, -5.0, 40.0, 100.0, 150.0, 174.0, 176.0, 400.0, np.inf])
TIMES = st.sampled_from([0.0, 1.0, 2.5, 5.0, 9.0])

packet_index = st.integers(0, len(PACKETS) - 1)
holder = st.integers(0, 2)
side = st.sampled_from(NODES)

# A small packet and holder universe, long sequences and mostly updates
# and exchanges make collisions — re-added holders, reused slots, merges
# onto existing records — common.
_STRATEGIES = {
    "update": st.tuples(
        st.just("update"),
        side,
        packet_index,
        holder,
        ESTIMATES,
        TIMES,
        st.one_of(st.none(), TIMES),
        st.sampled_from([constants.RAPID_ESTIMATE_TOLERANCE, 0.0, 0.25]),
    ),
    "remove_replica": st.tuples(st.just("remove_replica"), side, packet_index, holder),
    "remove_packet": st.tuples(st.just("remove_packet"), side, packet_index),
    "third_party": st.tuples(st.just("third_party"), side, st.integers(0, 8)),
    "buffer_state": st.tuples(
        st.just("buffer_state"),
        side,
        st.lists(st.tuples(packet_index, ESTIMATES), max_size=3, unique_by=lambda item: item[0]),
        st.integers(0, 8),
    ),
    "changed_since": st.tuples(
        st.just("changed_since"),
        side,
        st.sampled_from([-1.0, 0.0, 2.0, 5.0, 20.0]),
        st.one_of(st.none(), holder),
    ),
}
_WEIGHTS = {
    "update": 6,
    "remove_replica": 1,
    "remove_packet": 1,
    "third_party": 3,
    "buffer_state": 2,
    "changed_since": 1,
}
OPERATIONS = st.sampled_from(
    [kind for kind, weight in _WEIGHTS.items() for _ in range(weight)]
).flatmap(_STRATEGIES.__getitem__)


class _Recorder:
    """Stands in for a receiver's store; records every record it is sent.

    The third-party send arrives as merged blocks, the buffer-state send
    record by record; both land in ``records`` and ``results`` in order.
    """

    def __init__(self, store: MetadataStore) -> None:
        self.store = store
        self.records = []
        self.results = []

    def merge(self, block, learned_at):
        result = self.store.merge(block, learned_at)
        self.records.extend(_records(block))
        self.results.extend(result.tolist())
        return result

    def update_replica(self, packet, holder_id, estimate, now, tolerance, learned_at):
        result = self.store.update_replica(
            packet, holder_id, estimate, now, tolerance, learned_at=learned_at
        )
        self.records.append((packet.packet_id, holder_id, estimate, now))
        self.results.append(result)
        return result


def _records(block):
    return list(
        zip(
            block.packet_ids.tolist(),
            block.holders.tolist(),
            block.estimates.tolist(),
            block.updated.tolist(),
        )
    )


def _budget(entries: int) -> _MetadataBudget:
    return _MetadataBudget(
        TransferBudget(capacity=entries * constants.RAPID_METADATA_ENTRY_BYTES), None
    )


def _state(store):
    if isinstance(store, ReferenceMetadataStore):
        return [
            (
                entry.packet_id,
                entry.seq,
                [
                    (info.node_id, info.delay_estimate, info.updated_at, info.changed_at)
                    for info in entry.replicas.values()
                ],
            )
            for entry in store.entries()
        ]
    return columnar_entries(store)


@settings(max_examples=300, deadline=None)
@given(operations=st.lists(OPERATIONS, min_size=10, max_size=60))
def test_columnar_store_matches_reference(operations):
    columnar = {node: MetadataStore() for node in NODES}
    reference = {node: ReferenceMetadataStore() for node in NODES}
    last_exchange = {node: {} for node in NODES}
    sent_columns = {node: {} for node in NODES}
    sent_reference = {node: {} for node in NODES}
    channel = InBandControlChannel()
    clock = 10.0

    for operation in operations:
        kind, node = operation[0], operation[1]
        peer = 1 - node
        if kind == "update":
            _, _, index, holder_id, estimate, now, learned_at, tolerance = operation
            args = (PACKETS[index], holder_id, estimate, now, tolerance, learned_at)
            assert columnar[node].update_replica(*args) == reference[node].update_replica(*args)
        elif kind == "remove_replica":
            _, _, index, holder_id = operation
            columnar[node].remove_replica(PACKETS[index].packet_id, holder_id)
            reference[node].remove_replica(PACKETS[index].packet_id, holder_id, clock)
        elif kind == "remove_packet":
            columnar[node].remove_packet(PACKETS[operation[2]].packet_id)
            reference[node].remove_packet(PACKETS[operation[2]].packet_id)
        elif kind == "third_party":
            clock += 1.0
            last = last_exchange[node].get(peer, -1.0)
            recorder = _Recorder(columnar[peer])
            channel._send_third_party(
                SimpleNamespace(metadata=columnar[node], last_metadata_exchange={peer: last}),
                SimpleNamespace(node_id=peer, metadata=recorder),
                clock,
                _budget(operation[2]),
            )
            expected, expected_results = send_third_party(
                reference[node], reference[peer], peer, last, clock, operation[2]
            )
            assert recorder.records == expected
            assert recorder.results == expected_results
            last_exchange[node][peer] = clock
        elif kind == "buffer_state":
            _, _, contents, budget = operation
            clock += 1.0
            buffer = NodeBuffer(store=PacketStore())
            for index, _ in contents:
                buffer.add(PACKETS[index])
            estimates = np.array([estimate for _, estimate in contents], dtype=np.float64)
            recorder = _Recorder(columnar[peer])
            channel._send_buffer_state(
                SimpleNamespace(
                    node_id=node,
                    buffer=buffer,
                    buffer_delay_estimates=lambda now: estimates,
                    sent_buffer_estimates=sent_columns[node],
                ),
                SimpleNamespace(node_id=peer, metadata=recorder),
                clock,
                _budget(budget),
            )
            emitted = [(packet_id, estimate) for packet_id, _, estimate, _ in recorder.records]
            expected = send_buffer_state(
                node,
                [(PACKETS[index], estimate) for index, estimate in contents],
                sent_reference[node].setdefault(peer, {}),
                reference[peer],
                clock,
                budget,
            )
            assert emitted == expected
        else:
            _, _, timestamp, exclude = operation
            block = columnar[node].replica_block(
                columnar[node].entries_changed_since(timestamp, exclude_holder=exclude)
            )
            expected = [
                (entry.packet_id, info.node_id, info.delay_estimate, info.updated_at)
                for entry in reference[node].entries_changed_since(timestamp)
                for info in entry.replicas.values()
                if info.changed_at > timestamp and info.node_id != exclude
            ]
            assert _records(block) == expected
        for each in NODES:
            assert _state(columnar[each]) == _state(reference[each])
            assert len(columnar[each]) == len(reference[each])
            # Rank order (what a send emits) is the reference's iteration order.
            ranked = columnar[each].replica_block(columnar[each].entries_changed_since(-np.inf))
            assert [record[:2] for record in _records(ranked)] == [
                (entry.packet_id, holder)
                for entry in reference[each].entries()
                for holder in entry.replicas
            ]


def test_re_added_holder_is_sent_last_even_in_a_reused_slot():
    """Slot reuse must not move a re-added holder ahead of older holders."""
    store = MetadataStore()
    packet = PACKETS[0]
    store.update_replica(packet, 1, 10.0, now=1.0)
    store.update_replica(packet, 2, 20.0, now=1.0)
    store.remove_replica(packet.packet_id, 1)
    store.update_replica(packet, 3, 30.0, now=2.0)  # takes holder 1's freed slot
    store.update_replica(packet, 1, 40.0, now=3.0)
    block = store.replica_block(store.entries_changed_since(-1.0))
    assert block.holders.tolist() == [2, 3, 1]
    assert store.holders(packet.packet_id) == [2, 3, 1]
