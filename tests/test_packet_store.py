"""Structure-of-arrays packet store: array/object agreement and caches.

The SoA :class:`~repro.dtn.packet_store.PacketStore` mirrors immutable
packet attributes into contiguous numpy columns; the object layer
(:class:`~repro.dtn.buffer.NodeBuffer` and the ``Packet`` values it holds)
remains the API.  These tests drive random add / remove / evict / expire
sequences through a buffer attached to a shared store and assert the two
layers never disagree — membership, per-row attributes, per-destination
byte totals, and the batched ``bytes_ahead`` query against its scalar
counterpart.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn.buffer import NodeBuffer
from repro.dtn.packet import Packet, PacketFactory
from repro.dtn.packet_store import PacketStore

# ----------------------------------------------------------------------
# Operation sequences: add / remove / evict / expire
# ----------------------------------------------------------------------
_add_op = st.tuples(
    st.just("add"),
    st.integers(min_value=1, max_value=4),  # destination
    st.integers(min_value=1, max_value=2000),  # size
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # creation time
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=50.0, allow_nan=False)),
)
_remove_op = st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10_000))
_evict_op = st.tuples(st.just("evict"), st.just(0))
_expire_op = st.tuples(st.just("expire"), st.floats(min_value=0.0, max_value=200.0, allow_nan=False))

operation_sequences = st.lists(
    st.one_of(_add_op, _remove_op, _evict_op, _expire_op), min_size=1, max_size=60
)


def _apply(buffer: NodeBuffer, factory: PacketFactory, op) -> None:
    kind = op[0]
    if kind == "add":
        _, destination, size, creation_time, deadline = op
        packet = factory.create(
            source=0,
            destination=destination,
            size=size,
            creation_time=creation_time,
            deadline=deadline,
        )
        if buffer.fits(packet):
            buffer.add(packet, now=creation_time)
    elif kind == "remove":
        ids = buffer.packet_ids
        if ids:
            buffer.remove(ids[op[1] % len(ids)])
    elif kind == "evict":
        # Evict the largest packet, the way protocols shed load under
        # pressure (which packet is immaterial to the store invariants).
        packets = buffer.packets()
        if packets:
            victim = max(packets, key=lambda p: (p.size, p.packet_id))
            buffer.remove(victim.packet_id)
    elif kind == "expire":
        now = op[1]
        for packet in buffer.packets():
            if packet.has_expired(now):
                buffer.discard(packet.packet_id)


def _assert_layers_agree(buffer: NodeBuffer, store: PacketStore) -> None:
    """The array columns and the object layer must describe the same state."""
    store.check_integrity()
    buffer.check_integrity()

    packets = buffer.packets()
    # Membership: every buffered packet has a registered row that maps
    # back to the identical object.
    for packet in packets:
        assert packet.packet_id in store
        row = store.row_of(packet.packet_id)
        assert store.packet_at(row) is packet

    rows = buffer.snapshot_rows()
    assert len(rows) == len(packets)
    # Per-row attributes.
    np.testing.assert_array_equal(store.ids[rows], [p.packet_id for p in packets])
    np.testing.assert_array_equal(store.sizes[rows], [p.size for p in packets])
    np.testing.assert_array_equal(
        store.destinations[rows], [p.destination for p in packets]
    )
    np.testing.assert_array_equal(
        store.creation_times[rows], [p.creation_time for p in packets]
    )

    # Per-destination byte totals via the columns vs the object layer.
    dests = store.destinations[rows]
    sizes = store.sizes[rows]
    for destination in buffer.destinations():
        object_total = sum(p.size for p in buffer.packets_for(destination))
        array_total = float(sizes[dests == destination].sum())
        assert array_total == object_total

    assert buffer.used_bytes == int(sizes.sum())


@settings(max_examples=60, deadline=None)
@given(ops=operation_sequences, capacity=st.integers(min_value=500, max_value=30_000))
def test_store_and_object_layer_never_disagree(ops, capacity):
    store = PacketStore()
    buffer = NodeBuffer(capacity=capacity)
    buffer.attach_store(store)
    factory = PacketFactory()
    for op in ops:
        _apply(buffer, factory, op)
        store.check_integrity()
    _assert_layers_agree(buffer, store)


# Queries for packets the buffer does not hold: the peer queue-position
# questions RAPID asks of the other holder.  Destination 5 never has a
# queue; creation times may tie with stored packets.
_absent_queries = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(
    ops=operation_sequences,
    absent=_absent_queries,
    now=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
def test_bytes_ahead_batch_matches_scalar(ops, absent, now):
    """The batched query equals ``bytes_ahead_of`` packet by packet."""
    buffer = NodeBuffer()
    factory = PacketFactory()
    for op in ops:
        _apply(buffer, factory, op)
    queries = list(buffer.packets())
    queries += [
        factory.create(source=0, destination=d, size=size, creation_time=ct)
        for d, size, ct in absent
    ]
    batch = buffer.bytes_ahead_batch(queries, now)
    assert batch.dtype == np.float64
    scalar = [buffer.bytes_ahead_of(packet, now) for packet in queries]
    np.testing.assert_array_equal(batch, scalar)


@settings(max_examples=30, deadline=None)
@given(ops=operation_sequences)
def test_rows_survive_removal(ops):
    """Rows are append-only: removal from a buffer never invalidates rows."""
    store = PacketStore()
    buffer = NodeBuffer(capacity=50_000)
    buffer.attach_store(store)
    factory = PacketFactory()
    seen = {}
    for op in ops:
        _apply(buffer, factory, op)
        for packet in buffer.packets():
            row = store.row_of(packet.packet_id)
            previous = seen.setdefault(packet.packet_id, row)
            assert previous == row
    # Removed packets remain registered (append-only) at their old rows.
    for packet_id, row in seen.items():
        assert packet_id in store
        assert store.row_of(packet_id) == row


# ----------------------------------------------------------------------
# Store sharing and registration semantics
# ----------------------------------------------------------------------
class TestRegistration:
    def test_register_is_idempotent(self):
        store = PacketStore()
        packet = Packet(packet_id=7, source=0, destination=1, size=100)
        row = store.register(packet)
        assert store.register(packet) == row
        assert len(store) == 1

    def test_attach_store_registers_existing_contents(self):
        buffer = NodeBuffer()
        buffer.add(Packet(packet_id=1, source=0, destination=1, size=10))
        buffer.add(Packet(packet_id=2, source=0, destination=2, size=20))
        store = PacketStore()
        buffer.attach_store(store)
        assert 1 in store and 2 in store
        _assert_layers_agree(buffer, store)

    def test_buffers_share_one_store(self):
        store = PacketStore()
        a, b = NodeBuffer(store=store), NodeBuffer(store=store)
        packet = Packet(packet_id=3, source=0, destination=1, size=10)
        a.add(packet)
        b.add(packet)
        assert len(store) == 1
        assert a.snapshot_rows().tolist() == b.snapshot_rows().tolist()

    def test_standalone_buffer_lazily_creates_private_store(self):
        buffer = NodeBuffer()
        buffer.add(Packet(packet_id=4, source=0, destination=1, size=10))
        store = buffer.store
        assert 4 in store
        assert buffer.store is store

    def test_deadline_column_uses_nan_sentinel(self):
        store = PacketStore()
        with_deadline = Packet(packet_id=5, source=0, destination=1, size=10, deadline=30.0)
        without = Packet(packet_id=6, source=0, destination=1, size=10)
        store.register_all([with_deadline, without])
        deadlines = store.deadlines
        assert deadlines[store.row_of(5)] == 30.0
        assert np.isnan(deadlines[store.row_of(6)])


# ----------------------------------------------------------------------
# Snapshot caches (the allocation-churn satellite)
# ----------------------------------------------------------------------
class TestSnapshotCaches:
    @pytest.fixture(autouse=True)
    def _reset_stats(self):
        NodeBuffer.reset_snapshot_stats()
        yield
        NodeBuffer.reset_snapshot_stats()

    def test_repeated_reads_hit_the_cache(self):
        buffer = NodeBuffer()
        for i in range(5):
            buffer.add(Packet(packet_id=i, source=0, destination=1 + i % 2, size=10))
        NodeBuffer.reset_snapshot_stats()
        first = buffer.packets()
        for _ in range(9):
            assert buffer.packets() is first
        assert NodeBuffer.snapshot_stats == {"builds": 1, "hits": 9}

    def test_mutation_invalidates_every_snapshot(self):
        buffer = NodeBuffer()
        for i in range(4):
            buffer.add(Packet(packet_id=i, source=0, destination=1, size=10))
        before = buffer.packets()
        before_dest = buffer.packets_for(1)
        buffer.add(Packet(packet_id=99, source=0, destination=1, size=10))
        after = buffer.packets()
        assert after is not before
        assert 99 in [p.packet_id for p in after]
        assert 99 in [p.packet_id for p in buffer.packets_for(1)]
        assert buffer.packets_for(1) is not before_dest

    def test_hits_dwarf_builds_in_a_meeting_like_loop(self):
        """The profiling claim: repeated per-meeting reads stop allocating."""
        buffer = NodeBuffer()
        for i in range(20):
            buffer.add(Packet(packet_id=i, source=0, destination=1 + i % 3, size=10))
        NodeBuffer.reset_snapshot_stats()
        for _ in range(50):  # 50 "meetings" without buffer churn
            buffer.packets()
            buffer.destinations()
            for destination in buffer.destinations():
                buffer.packets_for(destination)
        stats = NodeBuffer.snapshot_stats
        assert stats["builds"] <= 5  # one per distinct snapshot kind
        assert stats["hits"] >= 10 * stats["builds"]

    def test_iteration_uses_cached_snapshot(self):
        buffer = NodeBuffer()
        for i in range(3):
            buffer.add(Packet(packet_id=i, source=0, destination=1, size=10))
        NodeBuffer.reset_snapshot_stats()
        assert [p.packet_id for p in buffer] == [0, 1, 2]
        assert [p.packet_id for p in buffer] == [0, 1, 2]
        assert NodeBuffer.snapshot_stats["builds"] == 1
        assert NodeBuffer.snapshot_stats["hits"] >= 1
