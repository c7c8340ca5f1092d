"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadata_oracle import columnar_entries
from repro.analysis.fairness import jain_fairness_index
from repro.core import delay as delay_module
from repro.core.meeting_estimator import MeetingTimeEstimator
from repro.core.rapid import RapidProtocol
from repro.core.transfer_estimator import TransferSizeEstimator
from repro.core.utility import DeadlineMetric, make_metric
from repro.dtn.buffer import NodeBuffer
from repro.dtn.node import Node
from repro.dtn.packet import Packet, PacketFactory
from repro.dtn.scheduler import EventQueue
from repro.dtn.events import (
    ContactEndEvent,
    ContactStartEvent,
    EndOfSimulationEvent,
    EventKind,
    MeetingEvent,
    NodeDownEvent,
    NodeUpEvent,
    PacketCreationEvent,
)
from repro.mobility.schedule import Contact, Meeting, MeetingSchedule
from repro.routing.base import ProtocolContext

# ----------------------------------------------------------------------
# Buffer invariants
# ----------------------------------------------------------------------
packet_sizes = st.lists(st.integers(min_value=1, max_value=5000), min_size=0, max_size=30)


@given(sizes=packet_sizes, capacity=st.integers(min_value=1, max_value=20_000))
def test_buffer_never_exceeds_capacity(sizes, capacity):
    buffer = NodeBuffer(capacity=capacity)
    factory = PacketFactory()
    for size in sizes:
        packet = factory.create(source=0, destination=1, size=size)
        if buffer.fits(packet):
            buffer.add(packet)
        assert buffer.used_bytes <= capacity
    assert buffer.used_bytes == sum(p.size for p in buffer)


@given(sizes=packet_sizes)
def test_buffer_add_remove_roundtrip(sizes):
    buffer = NodeBuffer()
    factory = PacketFactory()
    packets = [factory.create(source=0, destination=1, size=size) for size in sizes]
    for packet in packets:
        buffer.add(packet)
    for packet in packets:
        buffer.remove(packet.packet_id)
    assert len(buffer) == 0 and buffer.used_bytes == 0


@given(
    ages=st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=20)
)
def test_bytes_ahead_is_consistent_total(ages):
    """Summing bytes_ahead over all same-destination packets counts each pair once."""
    buffer = NodeBuffer()
    factory = PacketFactory()
    packets = [
        factory.create(source=0, destination=9, size=100, creation_time=age) for age in ages
    ]
    for packet in packets:
        buffer.add(packet)
    now = 2000.0
    total_ahead = sum(buffer.bytes_ahead_of(p, now) for p in packets)
    n = len(packets)
    assert total_ahead == 100 * n * (n - 1) // 2


# ----------------------------------------------------------------------
# Delay estimation invariants
# ----------------------------------------------------------------------
def _rapid_holder(meeting: float, transfer: float) -> RapidProtocol:
    """A RAPID node whose ``E(M)`` is *meeting* for every destination and
    whose expected transfer is *transfer* bytes."""
    node = Node.with_capacity(0, float("inf"))
    holder = RapidProtocol(node, ProtocolContext(nodes={0: node}))
    holder.meetings.expected_meeting_time = lambda destination: meeting
    holder.transfer_sizes = TransferSizeEstimator(initial_estimate=transfer)
    return holder


delay_lists = st.lists(
    st.one_of(st.floats(min_value=0.1, max_value=1e6), st.just(float("inf"))),
    min_size=1,
    max_size=10,
)


@given(delays=delay_lists)
def test_combined_delay_never_exceeds_best_replica(delays):
    combined = delay_module.combined_remaining_delay(delays)
    assert combined <= min(delays) + 1e-9


@given(delays=delay_lists, extra=st.floats(min_value=0.1, max_value=1e6))
def test_adding_a_replica_never_hurts(delays, extra):
    rate = delay_module.delivery_rate(delays)
    before = delay_module.remaining_delay_from_rate(rate)
    after = delay_module.remaining_delay_from_rate(delay_module.add_delay_to_rate(rate, extra))
    assert after <= before + 1e-9


#: Every kind of replica delay the fold distinguishes: ``None`` (skipped),
#: ``<= 0`` (immediate delivery, infinite rate), ``inf`` (never meets)
#: and ordinary delays, down to ones whose reciprocal overflows to an
#: infinite rate without any delay being ``<= 0``.
fold_delays = st.one_of(
    st.none(),
    st.sampled_from([0.0, -3.0, -math.inf, math.inf, 5e-324]),
    st.floats(min_value=1e-3, max_value=1e6),
)


@given(delays=st.lists(fold_delays, max_size=8), extra=fold_delays)
def test_one_fold_step_equals_refolding_the_extended_list(delays, extra):
    rate = delay_module.add_delay_to_rate(delay_module.delivery_rate(delays), extra)
    assert float.hex(rate) == float.hex(delay_module.delivery_rate(delays + [extra]))


def _refolded_marginal(metric, packet, delays, extra, now):
    """``marginal_utility`` computed by refolding the extended list."""
    extended = delays + [extra]
    if isinstance(metric, DeadlineMetric):
        window = metric._window(packet, now)
        if window is not None and window <= 0:
            return 0.0
        if window is None:
            before = delay_module.combined_remaining_delay(delays)
            after = delay_module.combined_remaining_delay(extended)
            return 1.0 if before == math.inf and after != math.inf else 0.0
        p_before = delay_module.delivery_probability_within(delays, window)
        p_after = delay_module.delivery_probability_within(extended, window)
        return max(0.0, p_after - p_before)
    before = delay_module.combined_remaining_delay(delays)
    after = delay_module.combined_remaining_delay(extended)
    if before == math.inf and after == math.inf:
        return 0.0
    if before == math.inf:
        return 1.0 / max(metric.clip_delay(after, now), 1e-9)
    return max(0.0, metric.clip_delay(before, now) - metric.clip_delay(after, now))


@settings(max_examples=300)
@given(
    metric=st.sampled_from(["average_delay", "max_delay", "deadline"]),
    delays=st.lists(fold_delays, max_size=8),
    extra=fold_delays,
    # None: no deadline (the deadline metric's "ever delivered" branch).
    deadline=st.sampled_from([None, 5.0, 60.0, 1e5]),
    horizon=st.sampled_from([None, 120.0, 1e6]),
    now=st.sampled_from([10.0, 100.0]),
)
def test_marginal_utility_folds_the_extra_replica_once(
    metric, delays, extra, deadline, horizon, now
):
    """Each metric's one-step fold equals refolding the extended list, bit for bit."""
    scorer = make_metric(metric)
    scorer.set_horizon(horizon)
    packet = Packet(1, 0, 9, 1000, creation_time=0.0, deadline=deadline)
    assert float.hex(scorer.marginal_utility(packet, delays, extra, now)) == float.hex(
        _refolded_marginal(scorer, packet, delays, extra, now)
    )


@given(delays=delay_lists, window=st.floats(min_value=0.1, max_value=1e5))
def test_delivery_probability_in_unit_interval(delays, window):
    p = delay_module.delivery_probability_within(delays, window)
    assert 0.0 <= p <= 1.0


@given(
    delays=delay_lists,
    w1=st.floats(min_value=0.1, max_value=1e4),
    w2=st.floats(min_value=0.1, max_value=1e4),
)
def test_delivery_probability_monotone_in_window(delays, w1, w2):
    low, high = min(w1, w2), max(w1, w2)
    p_low = delay_module.delivery_probability_within(delays, low)
    p_high = delay_module.delivery_probability_within(delays, high)
    assert p_high >= p_low - 1e-12


@given(
    bytes_ahead=st.integers(min_value=0, max_value=10**7),
    packet_size=st.integers(min_value=1, max_value=100_000),
    transfer=st.floats(min_value=1, max_value=1e7),
)
def test_meetings_needed_at_least_one_and_monotone(bytes_ahead, packet_size, transfer):
    """RAPID's estimate is at least one meeting and grows with the queue ahead."""

    def estimate(queued_ahead: int) -> float:
        holder = _rapid_holder(meeting=100.0, transfer=transfer)
        if queued_ahead:
            holder.buffer.add(Packet(1, 0, 9, queued_ahead, creation_time=0.0))
        return holder.own_delay_estimate(Packet(2, 0, 9, packet_size, creation_time=1.0), 2.0)

    base = estimate(bytes_ahead)
    assert base >= 100.0
    assert estimate(bytes_ahead * 2 + 1) >= base


# ----------------------------------------------------------------------
# Fairness index invariants
# ----------------------------------------------------------------------
@given(values=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=40))
def test_jain_index_bounds(values):
    index = jain_fairness_index(values)
    assert 0.0 <= index <= 1.0 + 1e-12
    if len(set(values)) == 1 and values[0] > 0:
        assert index == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Meeting schedule and event queue invariants
# ----------------------------------------------------------------------
meeting_rows = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e5, allow_nan=False),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=1, max_value=1e6),
    ).filter(lambda row: row[1] != row[2]),
    min_size=0,
    max_size=40,
)


@given(rows=meeting_rows)
def test_schedule_is_time_ordered_and_complete(rows):
    schedule = MeetingSchedule.from_tuples(rows)
    times = [m.time for m in schedule]
    assert times == sorted(times)
    assert len(schedule) == len(rows)
    assert schedule.total_capacity() == pytest.approx(sum(r[3] for r in rows))


@given(times=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50))
def test_event_queue_pops_in_order(times):
    queue = EventQueue()
    for t in times:
        queue.push(EndOfSimulationEvent(time=t))
    popped = [event.time for event in queue.drain()]
    assert popped == sorted(times)


# ----------------------------------------------------------------------
# Contact event total order
# ----------------------------------------------------------------------
def _make_event(time: float, kind: EventKind, index: int):
    """Build a valid event of the requested kind for ordering tests."""
    if kind == EventKind.CONTACT_START:
        contact = Contact(time=time, node_a=0, node_b=1, capacity=1000.0, duration=5.0)
        return ContactStartEvent(time=time, contact=contact, contact_id=index)
    if kind == EventKind.PACKET_CREATION:
        packet = Packet(packet_id=index, source=0, destination=1, size=100, creation_time=time)
        return PacketCreationEvent(time=time, packet=packet)
    if kind == EventKind.MEETING:
        meeting = Meeting(time=time, node_a=0, node_b=1, capacity=1000.0)
        return MeetingEvent(time=time, meeting=meeting)
    if kind == EventKind.CONTACT_END:
        return ContactEndEvent(time=time, contact_id=index)
    if kind == EventKind.NODE_DOWN:
        return NodeDownEvent(time=time, node_id=index, wipe=bool(index % 2))
    if kind == EventKind.NODE_UP:
        return NodeUpEvent(time=time, node_id=index)
    return EndOfSimulationEvent(time=time)


event_kinds = st.sampled_from(list(EventKind))
event_entries = st.lists(
    st.tuples(st.floats(min_value=0, max_value=1e4, allow_nan=False), event_kinds),
    min_size=0,
    max_size=60,
)


@given(entries=event_entries)
def test_contact_event_total_order(entries):
    """Pops follow (time, kind priority, FIFO) for any mix of event kinds.

    In particular at equal timestamps: a contact start precedes a packet
    creation from the same instant (the creation lands *inside* the open
    window), which precedes the window's end — so creation-during-contact
    is transferable before the contact closes.
    """
    queue = EventQueue()
    for index, (time, kind) in enumerate(entries):
        queue.push(_make_event(time, kind, index))
    popped = queue.drain()
    keys = [(event.time, int(event.kind)) for event in popped]
    assert keys == sorted(keys)


@given(
    time=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    order=st.permutations(list(EventKind)),
)
def test_same_instant_kind_order_is_insertion_independent(time, order):
    """start < creation < meeting < end < end-of-sim at one instant,
    whatever order the events were pushed in."""
    queue = EventQueue()
    for index, kind in enumerate(order):
        queue.push(_make_event(time, kind, index))
    popped = [event.kind for event in queue.drain()]
    assert popped == sorted(EventKind)


@given(
    time=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    kind=event_kinds,
    count=st.integers(min_value=2, max_value=8),
)
def test_fifo_within_same_time_and_kind(time, kind, count):
    """Equal (time, kind) events pop in exact insertion order."""
    queue = EventQueue()
    events = [_make_event(time, kind, index) for index in range(count)]
    for event in events:
        queue.push(event)
    popped = queue.drain()
    assert [id(e) for e in popped] == [id(e) for e in events]


# ----------------------------------------------------------------------
# Interrupted-transfer bookkeeping invariants
# ----------------------------------------------------------------------
def _assert_bookkeeping_consistent(protocol) -> None:
    """Buffer, hop counts and (for RAPID) metadata must agree exactly."""
    from repro.core.rapid import RapidProtocol

    buffered = set(protocol.buffer.packet_ids)
    assert set(protocol.hop_counts) == buffered
    protocol.buffer.check_integrity()
    if isinstance(protocol, RapidProtocol):
        for packet_id in buffered:
            assert packet_id in protocol.metadata
            assert protocol.node_id in protocol.metadata.holders(packet_id)
        for packet_id, _, _ in columnar_entries(protocol.metadata):
            if protocol.node_id in protocol.metadata.holders(packet_id):
                assert packet_id in buffered


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    interrupt_probability=st.floats(min_value=0.3, max_value=1.0),
    resume=st.booleans(),
    protocol=st.sampled_from(["rapid", "epidemic"]),
)
def test_interrupted_transfers_never_corrupt_bookkeeping(
    seed, interrupt_probability, resume, protocol
):
    """However contacts are cut, buffer / hop-count / metadata agree and
    the byte accounting stays within the (finite) offered capacity."""
    import numpy as np

    from repro.dtn.simulator import Simulator
    from repro.dtn.workload import PoissonWorkload
    from repro.routing.registry import create_factory

    rng = np.random.default_rng(seed)
    contacts = []
    for _ in range(25):
        a, b = rng.choice(5, size=2, replace=False)
        contacts.append(
            Contact(
                time=float(rng.uniform(0, 450)),
                node_a=int(a),
                node_b=int(b),
                capacity=float(rng.uniform(2_000, 20_000)),
                duration=float(rng.uniform(1.0, 25.0)),
            )
        )
    schedule = MeetingSchedule(contacts, nodes=range(5), duration=500.0)
    packets = PoissonWorkload(packets_per_hour=120.0, packet_size=1024, seed=seed + 1).generate(
        range(5), 500.0
    )
    simulator = Simulator(
        schedule,
        packets,
        create_factory(protocol),
        buffer_capacity=10 * 1024,
        seed=seed,
        options={
            "contact_model": "interruptible",
            "contact_interrupt_probability": interrupt_probability,
            "contact_resume": resume,
        },
    )
    result = simulator.run()
    for proto in simulator.protocols.values():
        _assert_bookkeeping_consistent(proto)
    assert result.data_bytes + result.metadata_bytes <= result.total_capacity_bytes + 1e-6
    assert result.transfers_resumed <= result.transfers_interrupted
    if resume:
        assert result.partial_bytes_wasted == 0.0
    else:
        assert result.transfers_resumed == 0


# ----------------------------------------------------------------------
# Meeting-time estimator invariants
# ----------------------------------------------------------------------
@given(
    meeting_times=st.lists(
        st.floats(min_value=1.0, max_value=1e5, allow_nan=False), min_size=1, max_size=30
    )
)
def test_meeting_estimator_mean_positive_and_bounded(meeting_times):
    estimator = MeetingTimeEstimator(node_id=0)
    now = 0.0
    for gap in meeting_times:
        now += gap
        estimator.record_meeting(1, now=now)
    mean = estimator.direct_mean(1)
    assert mean is not None and mean > 0
    assert mean <= max(max(meeting_times), meeting_times[0] + 1e-6) + 1e-6
    assert estimator.expected_meeting_time(1) == mean
