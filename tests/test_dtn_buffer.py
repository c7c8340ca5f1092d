"""Tests for the storage-constrained node buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn.buffer import NodeBuffer
from repro.dtn.packet import Packet, PacketFactory
from repro.exceptions import BufferError_


@pytest.fixture
def factory():
    return PacketFactory()


class TestCapacity:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            NodeBuffer(capacity=0)

    def test_add_and_occupancy(self, factory):
        buffer = NodeBuffer(capacity=4096)
        p1 = factory.create(source=0, destination=1, size=1024)
        p2 = factory.create(source=0, destination=2, size=2048)
        buffer.add(p1, now=1.0)
        buffer.add(p2, now=2.0)
        assert buffer.used_bytes == 3072
        assert buffer.free_bytes == 1024
        assert buffer.occupancy() == pytest.approx(0.75)
        assert len(buffer) == 2

    def test_unlimited_capacity_occupancy_is_zero(self, factory):
        buffer = NodeBuffer()
        buffer.add(factory.create(source=0, destination=1, size=1024))
        assert buffer.occupancy() == 0.0

    def test_overflow_raises(self, factory):
        buffer = NodeBuffer(capacity=1024)
        buffer.add(factory.create(source=0, destination=1, size=1024))
        with pytest.raises(BufferError_):
            buffer.add(factory.create(source=0, destination=2, size=1))

    def test_duplicate_raises(self, factory):
        buffer = NodeBuffer(capacity=4096)
        packet = factory.create(source=0, destination=1, size=1024)
        buffer.add(packet)
        with pytest.raises(BufferError_):
            buffer.add(packet)

    def test_fits(self, factory):
        buffer = NodeBuffer(capacity=2048)
        small = factory.create(source=0, destination=1, size=1024)
        big = factory.create(source=0, destination=1, size=4096)
        assert buffer.fits(small)
        assert not buffer.fits(big)


class TestRemoval:
    def test_remove_returns_packet(self, factory):
        buffer = NodeBuffer(capacity=4096)
        packet = factory.create(source=0, destination=1, size=1024)
        buffer.add(packet, now=3.0)
        removed = buffer.remove(packet.packet_id)
        assert removed is packet
        assert packet.packet_id not in buffer
        assert buffer.used_bytes == 0

    def test_remove_missing_raises(self):
        buffer = NodeBuffer(capacity=1024)
        with pytest.raises(BufferError_):
            buffer.remove(999)

    def test_discard_is_silent_on_missing(self):
        buffer = NodeBuffer(capacity=1024)
        assert buffer.discard(999) is None

    def test_clear(self, factory):
        buffer = NodeBuffer(capacity=4096)
        for _ in range(3):
            buffer.add(factory.create(source=0, destination=1, size=1024))
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.used_bytes == 0


class TestQueries:
    def test_packets_for_destination(self, factory):
        buffer = NodeBuffer()
        to_one = [factory.create(source=0, destination=1, size=10) for _ in range(3)]
        to_two = [factory.create(source=0, destination=2, size=10) for _ in range(2)]
        for packet in to_one + to_two:
            buffer.add(packet)
        assert len(buffer.packets_for(1)) == 3
        assert len(buffer.packets_for(2)) == 2
        assert set(buffer.destinations()) == {1, 2}

    def test_arrival_time(self, factory):
        buffer = NodeBuffer()
        packet = factory.create(source=0, destination=1)
        buffer.add(packet, now=12.0)
        assert buffer.arrival_time(packet.packet_id) == 12.0
        assert buffer.arrival_time(999) is None

    def test_bytes_ahead_of_orders_oldest_first(self, factory):
        buffer = NodeBuffer()
        older = factory.create(source=0, destination=5, size=100, creation_time=0.0)
        newer = factory.create(source=0, destination=5, size=200, creation_time=50.0)
        other_dest = factory.create(source=0, destination=6, size=400, creation_time=0.0)
        for packet in (older, newer, other_dest):
            buffer.add(packet)
        now = 100.0
        # The oldest packet is served first, so nothing is ahead of it.
        assert buffer.bytes_ahead_of(older, now) == 0
        # The newer packet waits behind the older one (same destination only).
        assert buffer.bytes_ahead_of(newer, now) == 100

    def test_bytes_ahead_ties_broken_by_packet_id(self, factory):
        buffer = NodeBuffer()
        first = factory.create(source=0, destination=5, size=100, creation_time=0.0)
        second = factory.create(source=0, destination=5, size=100, creation_time=0.0)
        buffer.add(first)
        buffer.add(second)
        ahead_first = buffer.bytes_ahead_of(first, 10.0)
        ahead_second = buffer.bytes_ahead_of(second, 10.0)
        assert sorted([ahead_first, ahead_second]) == [0, 100]


class TestDestinationIndex:
    """The per-destination serve-order index behind ``bytes_ahead_of``."""

    def test_index_matches_reference_scan_under_churn(self, factory):
        import random

        rng = random.Random(7)
        buffer = NodeBuffer()
        alive = []
        for step in range(300):
            if alive and rng.random() < 0.4:
                victim = alive.pop(rng.randrange(len(alive)))
                buffer.remove(victim.packet_id)
            else:
                packet = factory.create(
                    source=0,
                    destination=1 + rng.randrange(3),
                    size=rng.randrange(1, 500),
                    creation_time=float(rng.randrange(0, 50)),
                )
                buffer.add(packet, now=float(step))
                alive.append(packet)
            buffer.check_integrity()
        now = 100.0
        for packet in alive:
            assert buffer.bytes_ahead_of(packet, now) == buffer._bytes_ahead_scan(packet, now)

    def test_query_packet_not_in_buffer(self, factory):
        buffer = NodeBuffer()
        stored = factory.create(source=0, destination=5, size=100, creation_time=10.0)
        buffer.add(stored)
        older_query = factory.create(source=1, destination=5, size=70, creation_time=5.0)
        newer_query = factory.create(source=1, destination=5, size=70, creation_time=20.0)
        assert buffer.bytes_ahead_of(older_query, now=50.0) == 0
        assert buffer.bytes_ahead_of(newer_query, now=50.0) == 100

    def test_age_clamping_falls_back_to_reference_scan(self, factory):
        # When `now` precedes a creation time, ages clamp to zero and the
        # serve order degenerates to packet-id ties; the index defers to the
        # scan so both paths agree even in this degenerate case.
        buffer = NodeBuffer()
        a = factory.create(source=0, destination=5, size=100, creation_time=40.0)
        b = factory.create(source=0, destination=5, size=200, creation_time=30.0)
        buffer.add(a)
        buffer.add(b)
        now = 20.0  # earlier than both creation times
        assert buffer.bytes_ahead_of(a, now) == buffer._bytes_ahead_scan(a, now)
        assert buffer.bytes_ahead_of(b, now) == buffer._bytes_ahead_scan(b, now)

    def test_clear_resets_index(self, factory):
        buffer = NodeBuffer()
        packet = factory.create(source=0, destination=5, size=100)
        buffer.add(packet)
        buffer.clear()
        buffer.check_integrity()
        assert buffer.bytes_ahead_of(packet, now=10.0) == 0

    def test_check_integrity_detects_drift(self, factory):
        buffer = NodeBuffer()
        packet = factory.create(source=0, destination=5, size=100)
        buffer.add(packet)
        buffer.used_bytes += 1  # corrupt on purpose
        with pytest.raises(BufferError_):
            buffer.check_integrity()


#: Few creation times and interleaved ids: most packets tie on their
#: creation time, so queries land inside runs of equal times.
queue_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "discard"]),
        st.integers(min_value=0, max_value=39),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([0.0, 5.0, 10.0]),
        st.integers(min_value=1, max_value=900),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=queue_ops, now=st.sampled_from([0.0, 2.0, 5.0, 7.5, 10.0, 50.0]))
def test_float_keyed_queue_matches_reference_scan(ops, now):
    """Random churn with tied creation times: every answer equals the scan.

    Every answer is also bounded by the destination's queued bytes, held
    packet or not: RAPID's delay estimate skips the queue position
    whenever the queued bytes plus the packet fit one transfer, which is
    exact only under this bound.
    """
    buffer = NodeBuffer()
    packets = {}
    for kind, packet_id, destination, created, size in ops:
        if kind == "add":
            if packet_id not in buffer.by_id:
                packet = Packet(packet_id, 100, destination, size, created)
                packets[packet_id] = packet
                buffer.add(packet, now=created)
        elif kind == "remove":
            if packet_id in buffer.by_id:
                buffer.remove(packet_id)
        else:
            buffer.discard(packet_id)
        buffer.check_integrity()
        for destination in range(4):
            queued = sum(p.size for p in buffer if p.destination == destination)
            assert buffer.queued_bytes(destination) == queued
    # Held packets, and non-held ones tied with them (fresh ids between
    # and around the held ones), including creation times after ``now``.
    queries = list(buffer.packets())
    queries += [
        Packet(1000 + k, 100, destination, 50, created)
        for k, (destination, created) in enumerate(
            (d, t) for d in range(3) for t in (0.0, 5.0, 10.0, 20.0)
        )
    ]
    queries += [Packet(k, 100, k % 3, 60, 5.0) for k in range(40) if k not in buffer.by_id]
    expected = [buffer._bytes_ahead_scan(packet, now) for packet in queries]
    assert [buffer.bytes_ahead_of(packet, now) for packet in queries] == expected
    assert buffer.bytes_ahead_batch(queries, now).tolist() == expected
    for packet, ahead in zip(queries, expected):
        assert ahead <= buffer.queued_bytes(packet.destination)

