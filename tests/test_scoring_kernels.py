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

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import delay as delay_module
from repro.core.rapid import RapidProtocol
from repro.core.transfer_estimator import TransferSizeEstimator
from repro.dtn.node import Node
from repro.dtn.packet import PacketFactory
from repro.routing.base import ProtocolContext

from rapid_oracle import reference_paths

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
    assert len(delays) == len(queried) and all(type(delay) is float for delay in delays)
    for packet, delay in zip(queried, delays):
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
    assert estimates == [x.own_delay_estimate(p, 10.0) for p in x.buffer.packets()]


@pytest.mark.parametrize(
    "destination, initial, transfers, buffered",
    [
        pytest.param(6, 1500.0, {}, 3, id="infinite-meeting-time"),
        pytest.param(3, None, {}, 3, id="no-transfer-estimate"),
        pytest.param(3, 0.0, {}, 3, id="zero-transfer-estimate"),
        pytest.param(3, -512.0, {}, 3, id="negative-transfer-estimate"),
        pytest.param(3, None, {3: 1234.5}, 0, id="zero-bytes-ahead"),
        pytest.param(3, None, {3: 777.7}, 4, id="queued-bytes-ahead"),
    ],
)
@pytest.mark.parametrize("asker", ["self", "peer"])
def test_scalar_delay_formula_matches_kernel_bit_for_bit(
    destination, initial, transfers, buffered, asker
):
    """``own_delay_estimate`` is the scalar twin of ``_direct_delays_for_holder``."""
    x, peer = _pair()
    for clock in (7.3, 20.4, 41.9):
        x.meetings.record_meeting(3, clock)
    x.transfer_sizes = TransferSizeEstimator(initial_estimate=initial)
    for node, size in transfers.items():
        x.transfer_sizes.record(node, size)
    factory = PacketFactory()
    queried = [
        factory.create(source=9, destination=destination, size=300 + 211 * k, creation_time=k)
        for k in range(6)
    ]
    for packet in queried[:buffered]:
        x.buffer.add(packet, 10.0)
    kernel = (x if asker == "self" else peer)._direct_delays_for_holder(x, queried, 10.0)
    scalar = [x.own_delay_estimate(packet, 10.0) for packet in queried]
    assert [float.hex(value) for value in kernel] == list(map(float.hex, scalar))


def _full_formula(x: RapidProtocol, packet, now: float) -> float:
    """``E(M) * max(ceil((b + s) / B), 1)`` with the reference scan for ``b``."""
    meeting = x.meetings.expected_meeting_time(packet.destination)
    transfer = x.transfer_sizes.expected_bytes_or_none(packet.destination)
    if transfer is None:
        transfer = packet.size
    if not transfer > 0:
        return meeting
    ahead = x.buffer._bytes_ahead_scan(packet, now)
    return meeting * max(math.ceil((ahead + packet.size) / transfer), 1)


@settings(max_examples=200, deadline=None)
@given(
    packets=st.lists(
        st.tuples(
            # Destination 3 is met (finite E(M)); 6 never (E(M) = inf).
            st.sampled_from([3, 6]),
            st.integers(min_value=1, max_value=2000),
            # Few creation times: runs of equal times, some after ``now``.
            st.sampled_from([0.0, 4.0, 8.0, 30.0]),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    pivot=st.integers(min_value=0, max_value=11),
    transfer=st.sampled_from(
        [None, 0.0, -512.0, math.inf, 1500.0, "boundary", "one byte over"]
    ),
    now=st.sampled_from([2.0, 10.0]),
)
def test_fast_delay_matches_the_full_formula(packets, pivot, transfer, now):
    """Scalar and batched estimates, queue-position shortcut included,
    equal the full formula bit for bit.

    ``boundary`` sets ``B`` to the pivot packet's destination queue plus
    its own size (``queued + s == B``, the last case the shortcut takes);
    ``one byte over`` sets it one byte lower, so ``b`` decides.
    """
    x, peer = _pair()
    for clock in (7.3, 20.4, 41.9):
        x.meetings.record_meeting(3, clock)
    factory = PacketFactory()
    queried = []
    for destination, size, created, buffered in packets:
        packet = factory.create(
            source=9, destination=destination, size=size, creation_time=created
        )
        queried.append(packet)
        if buffered:
            x.buffer.add(packet, now)
    chosen = queried[pivot % len(queried)]
    if transfer == "boundary":
        transfer = float(x.buffer.queued_bytes(chosen.destination) + chosen.size)
    elif transfer == "one byte over":
        transfer = float(x.buffer.queued_bytes(chosen.destination) + chosen.size - 1)
    x.transfer_sizes = TransferSizeEstimator(initial_estimate=transfer)
    full = [float.hex(float(_full_formula(x, packet, now))) for packet in queried]
    scalar = [float.hex(float(x.own_delay_estimate(packet, now))) for packet in queried]
    for holder in (x, peer):
        batch = holder._direct_delays_for_holder(x, queried, now)
        assert list(map(float.hex, batch)) == full
    assert scalar == full


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


# ----------------------------------------------------------------------
# Arm dispatch: kernel, scalar fold and reference give the same answers
# ----------------------------------------------------------------------
ARM_METRICS = ("average_delay", "deadline", "max_delay")
#: Forces every set onto the scalar arm.
NO_KERNEL = 10**9


def _scoring_pair(metric, count, recorder=None):
    """A holder with *count* relayed packets, and a peer to offer them to.

    Destinations mix met, re-met and never-met nodes; sizes and creation
    times spread the queue positions and (under the deadline metric)
    leave some packets expired; other holders' records include infinite
    and zero estimates.
    """
    nodes = {node: Node.with_capacity(node, float("inf")) for node in (HOLDER, PEER)}
    context = ProtocolContext(nodes=nodes, decisions=recorder)
    x, y = (
        RapidProtocol(nodes[node], context, metric=metric, default_deadline=60.0)
        for node in (HOLDER, PEER)
    )
    for node, when in ((2, 5.0), (3, 11.0), (4, 30.0), (2, 40.0), (5, 47.0)):
        x.meetings.record_meeting(node, when)
    for node, when in ((3, 8.0), (6, 20.0), (4, 33.0)):
        y.meetings.record_meeting(node, when)
    x.transfer_sizes.record(3, 2500.0)
    rng = np.random.default_rng(count)
    factory = PacketFactory()
    for k in range(count):
        packet = factory.create(
            source=9,
            destination=int(rng.integers(2, 8)),
            size=int(rng.choice([300, 1024, 2600])),
            creation_time=float(k),
        )
        assert x.insert_packet(packet, float(k), hop_count=1)
        for holder in range(10, 10 + int(rng.integers(0, 4))):
            estimate = [math.inf, 0.0, float(rng.uniform(1.0, 500.0))][int(rng.integers(0, 3))]
            x.metadata.update_replica(packet, holder, estimate, float(k))
    incoming = factory.create(source=9, destination=3, size=1024, creation_time=float(count))
    return x, y, incoming, float(count) + 50.0


def _run_arm(monkeypatch, arm, metric, count, site):
    """Score one set on *arm*; return the answer and the audit lines.

    ``natural`` keeps the module's crossovers; ``kernel`` and ``scalar``
    force one arm; ``reference`` runs under ``rapid_oracle.reference_paths``.
    """
    from repro.core import rapid
    from repro.observability import DecisionRecorder, MemorySink

    if arm != "natural":
        kernel_min = 0 if arm == "kernel" else NO_KERNEL
        monkeypatch.setattr(rapid, "_EVICTION_KERNEL_MIN", kernel_min)
        monkeypatch.setattr(rapid, "_RANK_KERNEL_MIN", kernel_min)
    sink = MemorySink()
    x, y, incoming, now = _scoring_pair(metric, count, DecisionRecorder(sink))
    with reference_paths() if arm == "reference" else contextlib.nullcontext():
        if site == "eviction":
            answer = x.choose_eviction_victim(incoming, now)
        else:
            answer = [
                (improves, float(key), index, packet.packet_id)
                for (improves, key), index, packet in x._candidate_scores(y, now)
            ]
    monkeypatch.undo()
    return answer, sink.lines()


def _crossover(site):
    from repro.core import rapid

    return rapid._EVICTION_KERNEL_MIN if site == "eviction" else rapid._RANK_KERNEL_MIN


@pytest.mark.parametrize("metric", ARM_METRICS)
@pytest.mark.parametrize("site", ("eviction", "ranking"))
@pytest.mark.parametrize("side", (-1, 0))
def test_every_arm_scores_alike_across_the_crossover(monkeypatch, metric, site, side):
    count = _crossover(site) + side
    reference = _run_arm(monkeypatch, "reference", metric, count, site)
    assert reference[0] is not None and len(reference[1]) == 1
    for arm in ("natural", "kernel", "scalar"):
        assert _run_arm(monkeypatch, arm, metric, count, site) == reference, arm


@pytest.mark.parametrize("site", ("eviction", "ranking"))
def test_the_crossover_picks_the_arm(monkeypatch, site):
    kernel = "_eviction_score_array" if site == "eviction" else "_rank_score_arrays"
    original = getattr(RapidProtocol, kernel)
    calls = []

    def spy(self, *args):
        calls.append(len(args[-2]))
        return original(self, *args)

    count = _crossover(site)
    for taken in (count - 1, count):
        monkeypatch.setattr(RapidProtocol, kernel, spy)
        x, y, incoming, now = _scoring_pair("average_delay", taken)
        if site == "eviction":
            x.choose_eviction_victim(incoming, now)
        else:
            x._candidate_scores(y, now)
        monkeypatch.undo()
    # Only the set at the crossover reached the kernel.
    assert calls == [count]


@pytest.mark.parametrize("metric", ARM_METRICS)
def test_lone_candidate_with_a_recorder_keeps_its_event(monkeypatch, metric):
    reference = _run_arm(monkeypatch, "reference", metric, 1, "eviction")
    fast = _run_arm(monkeypatch, "natural", metric, 1, "eviction")
    assert fast == reference
    (line,) = fast[1]
    assert '"ev":"eviction_choice"' in line and '"reason":"lowest_score"' in line


# ----------------------------------------------------------------------
# Replica estimates handed from accept_replica to on_replica_sent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("channel", ("in-band", "global"))
def test_sender_reuses_the_receivers_estimates(monkeypatch, channel):
    nodes = {node: Node.with_capacity(node, float("inf")) for node in (HOLDER, PEER)}
    context = ProtocolContext(nodes=nodes)
    sender, receiver = (
        RapidProtocol(nodes[node], context, control_channel=channel) for node in (HOLDER, PEER)
    )
    sender.meetings.record_meeting(3, 10.0)
    receiver.meetings.record_meeting(3, 4.0)
    factory = PacketFactory()
    packet = factory.create(source=9, destination=3, size=700, creation_time=0.0)
    assert sender.insert_packet(packet, 1.0, hop_count=1)
    assert receiver.accept_replica(packet, sender, 12.0)
    calls = []
    original = RapidProtocol.own_delay_estimate
    monkeypatch.setattr(
        RapidProtocol,
        "own_delay_estimate",
        lambda self, *args: calls.append(self.node_id) or original(self, *args),
    )
    sender.on_replica_sent(packet, receiver, 12.0)
    monkeypatch.undo()
    # The global oracle recomputes both; the in-band channel reuses them.
    assert calls == ([PEER, HOLDER] if channel == "global" else [])
    # With two holders, excluding one leaves the other's record.
    assert sender.metadata.estimates(packet.packet_id, exclude_holder=PEER) == [
        sender.own_delay_estimate(packet, 12.0)
    ]
    assert sender.metadata.estimates(packet.packet_id, exclude_holder=HOLDER) == [
        receiver.own_delay_estimate(packet, 12.0)
    ]
    # A send that this acceptance did not precede recomputes.
    other = factory.create(source=9, destination=3, size=2900, creation_time=0.0)
    assert sender.insert_packet(other, 1.0, hop_count=1)
    assert receiver.accept_replica(packet, sender, 14.0) is False
    assert receiver.accept_replica(other, sender, 14.0)
    sender.on_replica_sent(packet, receiver, 14.0)
    assert receiver._accepted_estimates is None
    assert sender.metadata.estimates(packet.packet_id, exclude_holder=HOLDER) == [
        receiver.own_delay_estimate(packet, 14.0)
    ]
