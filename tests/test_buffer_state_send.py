"""The in-band buffer-state send: a record fold against the block merge.

``InBandControlChannel._send_buffer_state`` compares each own estimate
with the one last sent to the peer and writes every changed record that
fits the budget through ``MetadataStore.update_replica``.  It must leave
the receiver's store and the sender's sent map exactly as the column
path it replaced does: the changed set as one numpy mask over the
buffer's estimates, then one ``MetadataStore.merge`` of the block
(:func:`_merge_buffer_state`).  Both keep the send's two quirks: an
infinite estimate is always re-sent, and a finite estimate that follows
an infinite one counts as unchanged (``inf <= 0.75 * inf``).
"""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metadata_oracle import columnar_entries, columnar_replica
from repro import constants
from repro.core.control import InBandControlChannel, _MetadataBudget
from repro.core.metadata import MetadataStore, ReplicaBlock
from repro.core.rapid import RapidProtocol
from repro.dtn.buffer import NodeBuffer
from repro.dtn.node import Node
from repro.dtn.packet import Packet
from repro.dtn.packet_store import PacketStore
from repro.routing.base import ProtocolContext, TransferBudget

SENDER, RECEIVER, OTHER = 0, 1, 2
NOW = 10.0
PACKETS = [Packet(packet_id=20 + i, source=5, destination=9, size=100) for i in range(4)]

# 175 and 25 sit exactly at the 0.75 tolerance of a last-sent 100.
ESTIMATES = st.sampled_from([0.0, 25.0, 40.0, 100.0, 175.0, 176.0, math.inf])
LAST_SENT = st.sampled_from([0.0, 40.0, 100.0, math.inf])


def _budget(entries: int) -> _MetadataBudget:
    return _MetadataBudget(
        TransferBudget(capacity=entries * constants.RAPID_METADATA_ENTRY_BYTES), None
    )


def _merge_buffer_state(packets, estimates, sent, receiver, now, budget) -> None:
    """The column path: one mask picks the changed estimates, one merge writes them."""
    tolerance = constants.RAPID_ESTIMATE_TOLERANCE
    estimates = np.array(estimates, dtype=np.float64)
    last = np.array([sent.get(p.packet_id, np.nan) for p in packets], dtype=np.float64)
    gap = np.subtract(
        estimates, last, out=np.full(len(packets), np.nan), where=np.isfinite(estimates)
    )
    unchanged = (last > 0) & (np.abs(gap) <= tolerance * last)
    changed = np.flatnonzero(~unchanged)[:budget]
    if len(changed):
        ids = np.array([p.packet_id for p in packets], dtype=np.int64)[changed]
        count = len(changed)
        block = ReplicaBlock(
            ids,
            np.full(count, SENDER, dtype=np.int64),
            estimates[changed],
            np.full(count, now, dtype=np.float64),
        )
        receiver.merge(block, now)
        sent.update(zip(ids.tolist(), estimates[changed].tolist()))


@settings(max_examples=300, deadline=None)
@given(
    buffered=st.lists(
        st.tuples(st.integers(0, len(PACKETS) - 1), ESTIMATES),
        max_size=len(PACKETS),
        unique_by=lambda record: record[0],
    ),
    last_sent=st.dictionaries(st.integers(0, len(PACKETS) - 1), LAST_SENT),
    known=st.lists(
        st.tuples(
            st.integers(0, len(PACKETS) - 1),
            st.sampled_from([SENDER, OTHER]),
            ESTIMATES,
            st.sampled_from([1.0, 5.0, 20.0]),
        ),
        max_size=6,
    ),
    budget=st.integers(0, len(PACKETS) + 1),
    numpy_estimates=st.booleans(),
)
# Never sent, and a last-sent estimate of 0: both are sent.
@example(
    buffered=[(0, 40.0), (1, 40.0)], last_sent={1: 0.0}, known=[], budget=4, numpy_estimates=False
)
# inf -> inf (re-sent), inf -> finite (withheld) and finite -> inf (sent),
# as numpy scalars too: the fold must never compute inf - inf.
@example(
    buffered=[(0, math.inf), (1, 40.0), (2, math.inf)],
    last_sent={0: math.inf, 1: math.inf, 2: 100.0},
    known=[(0, SENDER, math.inf, 1.0), (1, SENDER, math.inf, 1.0), (2, SENDER, 100.0, 1.0)],
    budget=4,
    numpy_estimates=True,
)
# |delta| exactly at 0.75 * last on both sides (withheld), and just past it.
@example(
    buffered=[(0, 175.0), (1, 25.0), (2, 176.0)],
    last_sent={0: 100.0, 1: 100.0, 2: 100.0},
    known=[(0, SENDER, 100.0, 1.0), (1, SENDER, 100.0, 1.0), (2, SENDER, 100.0, 1.0)],
    budget=4,
    numpy_estimates=False,
)
# Fresh holders (the sender unknown, or the packet unknown) beside a known
# one, and a receiver record newer than the send, which must not move.
@example(
    buffered=[(0, 40.0), (1, 100.0), (2, 176.0), (3, 0.0)],
    last_sent={},
    known=[(0, OTHER, 40.0, 1.0), (2, SENDER, 40.0, 20.0), (3, SENDER, 5.0, 1.0)],
    budget=3,
    numpy_estimates=False,
)
def test_record_fold_matches_block_merge(buffered, last_sent, known, budget, numpy_estimates):
    folded, merged = MetadataStore(), MetadataStore()
    for store in (folded, merged):
        for index, holder, estimate, updated in known:
            store.update_replica(PACKETS[index], holder, estimate, updated)
    buffer = NodeBuffer(store=PacketStore())
    for index, _ in buffered:
        buffer.add(PACKETS[index])
    estimates = [estimate for _, estimate in buffered]
    own = np.array(estimates, dtype=np.float64) if numpy_estimates else list(estimates)
    prior = {PACKETS[index].packet_id: last for index, last in last_sent.items()}
    sent = {RECEIVER: dict(prior)}

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        InBandControlChannel()._send_buffer_state(
            SimpleNamespace(
                node_id=SENDER,
                buffer=buffer,
                buffer_delay_estimates=lambda now: own,
                sent_buffer_estimates=sent,
            ),
            SimpleNamespace(node_id=RECEIVER, metadata=folded),
            NOW,
            _budget(budget),
        )
    reference_sent = dict(prior)
    _merge_buffer_state(buffer.packets(), estimates, reference_sent, merged, NOW, budget)

    assert columnar_entries(folded) == columnar_entries(merged)
    assert sent[RECEIVER] == reference_sent


def _infinite_then_finite():
    """Send an infinite own estimate, then a finite one; return what the peer saw.

    Returns the peer's record after the first exchange, the sender's
    finite estimate and the peer's record after the second exchange.
    """
    nodes = {node: Node.with_capacity(node, float("inf")) for node in (SENDER, RECEIVER)}
    context = ProtocolContext(nodes=nodes)
    sender = RapidProtocol(nodes[SENDER], context)
    receiver = RapidProtocol(nodes[RECEIVER], context)
    packet = Packet(packet_id=7, source=SENDER, destination=9, size=100)
    sender.buffer.add(packet, 0.0)
    channel = InBandControlChannel()
    # The sender has never met the destination: its estimate is infinite.
    channel.exchange(sender, receiver, 1.0, TransferBudget(capacity=1e6))
    first = columnar_replica(receiver.metadata, 7, SENDER)[0]
    sender.meetings.record_meeting(9, 30.0)
    estimate = sender.own_delay_estimate(packet, 40.0)
    channel.exchange(sender, receiver, 40.0, TransferBudget(capacity=1e6))
    return first, estimate, columnar_replica(receiver.metadata, 7, SENDER)[0]


def test_finite_estimate_after_infinite_is_withheld_today():
    first, estimate, last = _infinite_then_finite()
    assert first == math.inf
    assert 0 < estimate < math.inf
    assert last == math.inf


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 3: a finite estimate after an infinite one counts as "
        "unchanged (inf <= 0.75 * inf), so the peer keeps the infinite one; "
        "the fix moves golden digests and waits on the re-record command"
    ),
)
def test_finite_estimate_after_infinite_reaches_the_peer():
    _, estimate, last = _infinite_then_finite()
    assert last == estimate
