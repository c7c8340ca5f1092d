"""Differential tests: RAPID's batched scoring kernels vs. the scalar chain.

The fast path scores whole candidate sets with two kernels: the one-pass
own-delay loop (``RapidProtocol._direct_delays_for_holder``) and the
sequential replica-rate fold (``MetadataStore.replica_estimates`` +
``delay.delivery_rate_sum``).  Both must reproduce the scalar
``own_delay_estimate`` / ``delivery_rate`` / ``combined_remaining_delay``
chain bit for bit, including the degenerate edges: infinite meeting
times, missing or non-positive transfer estimates, packets created after
*now*, infinite, zero and negative replica estimates, the excluded
holder, unknown packets and more than eight holders per packet (where a
pairwise sum would round differently).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import delay as delay_module
from repro.core.rapid import RapidProtocol
from repro.core.transfer_estimator import TransferSizeEstimator
from repro.dtn.node import Node
from repro.dtn.packet import PacketFactory
from repro.routing.base import ProtocolContext

HOLDER = 0
PEER = 1
#: Destinations 0..7: the holder itself (E(M) = 0), met nodes and nodes
#: never met (E(M) = inf).
DESTINATIONS = st.integers(min_value=0, max_value=7)


def _pair():
    nodes = {node: Node.with_capacity(node, float("inf")) for node in (HOLDER, PEER)}
    context = ProtocolContext(nodes=nodes)
    return RapidProtocol(nodes[HOLDER], context), RapidProtocol(nodes[PEER], context)


# ----------------------------------------------------------------------
# One-pass own delays
# ----------------------------------------------------------------------
packet_specs = st.lists(
    st.tuples(
        DESTINATIONS,
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=0.0, max_value=200.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None)
# No transfer estimate at all: the packet's own size stands in for ``B``.
@example(
    packets=[(2, 3000, 0.0, True), (2, 2000, 1.0, True), (2, 700, 2.0, False)],
    met=[(2, 5.0)], initial=None, transfers={}, now=10.0,
)
# An infinite ``B`` (infinite-capacity meetings): ``ceil(0) == 0`` is
# clamped to one meeting.
@example(packets=[(2, 100, 0.0, True)], met=[(2, 5.0)], initial=math.inf, transfers={}, now=10.0)
# ``B <= 0``: one meeting whatever the queue.
@example(
    packets=[(2, 100, 0.0, True), (2, 100, 1.0, True)],
    met=[(2, 5.0)], initial=0.0, transfers={}, now=10.0,
)
# Packets created after ``now`` reorder the queue: the scan path.
@example(
    packets=[(2, 900, 50.0, True), (2, 900, 1.0, True), (2, 900, 30.0, False)],
    met=[(2, 5.0)], initial=1500.0, transfers={}, now=10.0,
)
@given(
    packets=packet_specs,
    met=st.lists(
        st.tuples(
            st.integers(min_value=2, max_value=7), st.floats(min_value=1.0, max_value=100.0)
        ),
        max_size=8,
    ),
    initial=st.sampled_from([None, 0.0, -512.0, 1500.0, math.inf]),
    transfers=st.dictionaries(
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=1.0, max_value=1e5),
        max_size=4,
    ),
    now=st.floats(min_value=0.0, max_value=200.0),
)
def test_direct_delays_match_scalar(packets, met, initial, transfers, now):
    x, peer = _pair()
    # Meetings give finite h-hop meeting times to the destinations met;
    # the rest stay unreachable (E(M) = inf).
    clock = 0.0
    for node, gap in met:
        clock += gap
        x.meetings.record_meeting(node, clock)
    # ``initial`` None: no transfer estimate at all (the packet's own
    # size stands in); 0 or negative: ``B <= 0`` (one meeting); inf: an
    # infinite-capacity average.
    x.transfer_sizes = TransferSizeEstimator(initial_estimate=initial)
    for node, size in transfers.items():
        x.transfer_sizes.record(node, size)
    factory = PacketFactory()
    queried = []
    for destination, size, created, buffered in packets:
        packet = factory.create(
            source=9, destination=destination, size=size, creation_time=created
        )
        queried.append(packet)
        if buffered:
            x.buffer.add(packet, now)
    # The holder's own packets and the "what if it held these" questions
    # (packets not in its buffer) share one kernel; creation times after
    # ``now`` take the buffer's scan path.
    delays = peer._direct_delays_for_holder(x, queried, now)
    assert delays.dtype == np.float64 and len(delays) == len(queried)
    for packet, delay in zip(queried, delays.tolist()):
        expected = peer._estimate_for_holder(x, packet, now)
        assert delay == expected
        if packet.packet_id in x.buffer:
            assert delay == x.own_delay_estimate(packet, now)


def test_buffer_delay_estimates_align_with_buffer_order():
    x, _ = _pair()
    x.meetings.record_meeting(3, 40.0)
    factory = PacketFactory()
    for k in range(6):
        packet = factory.create(
            source=9, destination=3 + k % 2, size=700, creation_time=float(k)
        )
        x.buffer.add(packet, 10.0)
    estimates = x.buffer_delay_estimates(10.0)
    assert estimates.tolist() == [x.own_delay_estimate(p, 10.0) for p in x.buffer.packets()]


# ----------------------------------------------------------------------
# Sequential replica-rate fold
# ----------------------------------------------------------------------
estimates = st.one_of(
    st.sampled_from([math.inf, 0.0, -3.0]),
    st.floats(min_value=1e-3, max_value=1e6),
)


def _scalar_delays(x: RapidProtocol, packet, own: float):
    return [own] + x.metadata.estimates(packet.packet_id, x.node_id)


def _assert_fold_matches(x: RapidProtocol, packets, own, extra) -> None:
    rate, degenerate = x._fold_replica_rates(packets, np.array(own, dtype=np.float64))
    combined = delay_module.combined_remaining_delay_array(rate, degenerate)
    rate_after, degenerate_after = delay_module.fold_extra_delay(
        rate, degenerate, np.array(extra, dtype=np.float64)
    )
    combined_after = delay_module.combined_remaining_delay_array(rate_after, degenerate_after)
    for k, packet in enumerate(packets):
        delays = _scalar_delays(x, packet, own[k])
        scalar_rate = delay_module.delivery_rate(delays)
        assert bool(degenerate[k]) == any(d <= 0 for d in delays)
        if not degenerate[k]:
            assert rate[k] == scalar_rate
        assert combined[k] == delay_module.combined_remaining_delay(delays)
        assert combined_after[k] == delay_module.combined_remaining_delay(delays + [extra[k]])


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=8),
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            # Holder 0 is the scoring node itself: excluded from the fold.
            st.integers(min_value=0, max_value=12),
            estimates,
        ),
        max_size=60,
    ),
    own=st.lists(estimates, min_size=8, max_size=8),
    extra=st.lists(estimates, min_size=8, max_size=8),
)
def test_replica_rate_fold_matches_scalar(count, records, own, extra):
    x, _ = _pair()
    factory = PacketFactory()
    packets = [factory.create(source=9, destination=5, size=100) for _ in range(count)]
    # Records of packet indices >= count land on packets never scored;
    # packets without records are unknown to the store.
    strangers = [factory.create(source=9, destination=5, size=100) for _ in range(8)]
    for clock, (index, holder, estimate) in enumerate(records):
        target = packets[index] if index < count else strangers[index]
        x.metadata.update_replica(target, holder, estimate, float(clock))
    _assert_fold_matches(x, packets, own[:count], extra[:count])


def test_fold_over_many_holders_is_sequential_not_pairwise():
    x, _ = _pair()
    factory = PacketFactory()
    packets = [factory.create(source=9, destination=5, size=100) for _ in range(8)]
    rng = np.random.default_rng(1)
    pairwise_differs = 0
    for packet in packets:
        values = np.exp(rng.uniform(0.0, 12.0, size=12)).tolist()
        for holder, value in enumerate(values, start=1):
            x.metadata.update_replica(packet, holder, value, 1.0)
        # Thirteen rates: numpy's pairwise sum rounds differently from the
        # scalar left fold for some of these packets.
        pairwise = float(np.sum(1.0 / np.array([50.0, *values])))
        pairwise_differs += pairwise != delay_module.delivery_rate([50.0, *values])
    assert pairwise_differs > 0
    _assert_fold_matches(x, packets, [50.0] * 8, [math.inf] * 8)


def test_fold_of_unknown_packets_is_the_own_rate():
    x, _ = _pair()
    factory = PacketFactory()
    packets = [factory.create(source=9, destination=5, size=100) for _ in range(3)]
    rate, degenerate = x._fold_replica_rates(packets, np.array([4.0, math.inf, 0.0]))
    assert rate[:2].tolist() == [0.25, 0.0]
    assert degenerate.tolist() == [False, False, True]
