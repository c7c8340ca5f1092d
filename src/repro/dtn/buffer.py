"""Storage-constrained node buffer.

Nodes carry in-transit packets in a finite buffer (problem class P5 of the
paper: finite storage *and* finite bandwidth).  The buffer enforces the
capacity invariant; *which* packet to evict under pressure is a routing
decision and therefore belongs to the protocols, which call
:meth:`NodeBuffer.remove` before inserting.

Because RAPID's delay estimator asks ``bytes_ahead_of`` for every
candidate packet at every transfer opportunity, the buffer maintains a
per-destination *serve-order index*: the same-destination packets sorted
by ``(creation_time, packet_id)`` — the static serve order of Algorithm 2
(oldest first, ties by id) — together with lazily rebuilt prefix sums of
their sizes.  ``bytes_ahead_of`` is then one binary search instead of a
scan over the whole buffer, and :meth:`bytes_ahead_batch` answers a whole
meeting's worth of queries with the same binary search per packet into an
array.  Setting ``REPRO_SLOW_ESTIMATES=1`` restores the original
O(buffer) reference scan; both paths return identical values (the golden
tests assert bit-identical simulation output).

The buffer is also the attachment point of the structure-of-arrays
:class:`~repro.dtn.packet_store.PacketStore`: every inserted packet is
registered in the (usually simulation-shared) store, and the snapshot
accessors — :meth:`packets`, :meth:`packets_for`, :meth:`destinations`,
:meth:`snapshot_rows` — return cached tuples/arrays invalidated on
mutation, so the meeting loop stops allocating fresh lists per call
(:data:`NodeBuffer.snapshot_stats` counts builds vs. cache hits).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import BufferError_
from ..profiling import slow_reference_mode
from .packet import Packet
from .packet_store import PacketStore


class _DestinationQueue:
    """Serve-order index of one destination's packets.

    ``keys`` holds ``(creation_time, packet_id)`` sorted ascending — the
    exact order in which same-destination packets are served (descending
    time-in-system, ties broken by smaller packet id).  ``sizes`` is
    parallel to ``keys``; ``prefix`` holds its prefix sums, rebuilt
    lazily (while ``dirty``) on the first query after a mutation, so a
    burst of queries between meetings pays O(log n) each while
    adds/removes stay O(n) list surgery at worst.
    :meth:`NodeBuffer._bytes_ahead` answers every ``bytes_ahead`` query
    from these lists; the queried key need not be stored (``bisect_left``
    gives its insertion rank).
    """

    __slots__ = ("keys", "sizes", "prefix", "dirty")

    def __init__(self) -> None:
        self.keys: List[Tuple[float, int]] = []
        self.sizes: List[int] = []
        self.prefix: List[int] = [0]
        self.dirty = False

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, key: Tuple[float, int], size: int) -> None:
        index = bisect_left(self.keys, key)
        self.keys.insert(index, key)
        self.sizes.insert(index, size)
        self.dirty = True

    def remove(self, key: Tuple[float, int]) -> None:
        index = bisect_left(self.keys, key)
        if index >= len(self.keys) or self.keys[index] != key:  # pragma: no cover
            raise BufferError_(f"destination index out of sync for key {key}")
        del self.keys[index]
        del self.sizes[index]
        self.dirty = True


class NodeBuffer:
    """A byte-capacity-limited container of packet replicas.

    The buffer tracks per-packet arrival times (used by protocols that
    prioritise by queueing order) and maintains the occupancy invariant
    ``used_bytes <= capacity`` at all times.
    """

    #: Class-wide snapshot-cache statistics (profiling: the satellite goal
    #: of cutting per-meeting garbage churn is observable here — ``hits``
    #: dwarfing ``builds`` means the meeting loop reuses cached tuples
    #: instead of allocating fresh lists per call).
    snapshot_stats: Dict[str, int] = {"builds": 0, "hits": 0}

    def __init__(
        self, capacity: float = float("inf"), store: Optional[PacketStore] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        self._packets: Dict[int, Packet] = {}
        self._arrival_times: Dict[int, float] = {}
        self._used = 0
        #: Lifetime high-water mark of :attr:`used_bytes` (observability:
        #: the per-node peak occupancy reported by the metrics registry).
        self._peak = 0
        self._by_destination: Dict[int, _DestinationQueue] = {}
        self._slow_reference = slow_reference_mode()
        self._store = store
        # Snapshot caches, invalidated on any mutation.
        self._snapshot: Optional[Tuple[Packet, ...]] = None
        self._rows_snapshot: Optional[np.ndarray] = None
        self._dest_snapshot: Optional[Tuple[int, ...]] = None
        self._for_destination: Dict[int, Tuple[Packet, ...]] = {}

    @classmethod
    def reset_snapshot_stats(cls) -> None:
        """Zero the class-wide snapshot-cache counters (tests, profiling)."""
        cls.snapshot_stats["builds"] = 0
        cls.snapshot_stats["hits"] = 0

    # ------------------------------------------------------------------
    # Structure-of-arrays store attachment
    # ------------------------------------------------------------------
    @property
    def store(self) -> PacketStore:
        """The packet store this buffer registers into (lazily private)."""
        if self._store is None:
            self._store = PacketStore(self._packets.values())
        return self._store

    def attach_store(self, store: PacketStore) -> None:
        """Attach the (simulation-shared) store, registering current contents."""
        if store is self._store:
            return
        store.register_all(self._packets.values())
        self._store = store
        self._rows_snapshot = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self._packets

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets())

    @property
    def used_bytes(self) -> int:
        """Total size in bytes of the packets currently stored."""
        return self._used

    @property
    def free_bytes(self) -> float:
        """Remaining capacity in bytes."""
        return self.capacity - self._used

    @property
    def peak_used_bytes(self) -> int:
        """Highest :attr:`used_bytes` ever reached by this buffer."""
        return self._peak

    @property
    def packet_ids(self) -> List[int]:
        """Identifiers of stored packets (insertion order)."""
        return list(self._packets.keys())

    def packets(self) -> Tuple[Packet, ...]:
        """Snapshot of stored packets (cached tuple, insertion order)."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = tuple(self._packets.values())
            NodeBuffer.snapshot_stats["builds"] += 1
        else:
            NodeBuffer.snapshot_stats["hits"] += 1
        return snapshot

    def snapshot_rows(self) -> np.ndarray:
        """Store rows of :meth:`packets`, aligned with the snapshot tuple."""
        rows = self._rows_snapshot
        if rows is None:
            rows = self._rows_snapshot = self.store.rows_for(self.packets())
        return rows

    def get(self, packet_id: int) -> Optional[Packet]:
        """Return the stored packet with *packet_id*, or ``None``."""
        return self._packets.get(packet_id)

    def arrival_time(self, packet_id: int) -> Optional[float]:
        """Return the time the packet entered this buffer, or ``None``."""
        return self._arrival_times.get(packet_id)

    def occupancy(self) -> float:
        """Return the fraction of capacity in use (0 when unlimited)."""
        if self.capacity == float("inf"):
            return 0.0
        return self._used / self.capacity

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _invalidate_snapshots(self) -> None:
        self._snapshot = None
        self._rows_snapshot = None
        self._dest_snapshot = None
        if self._for_destination:
            self._for_destination.clear()

    def fits(self, packet: Packet) -> bool:
        """Return True when *packet* can be added without eviction."""
        return packet.size <= self.free_bytes

    def add(self, packet: Packet, now: float = 0.0) -> None:
        """Insert a packet replica.

        Raises:
            BufferError_: when the packet is already present or would
                overflow the capacity.  Callers must evict first.
        """
        if packet.packet_id in self._packets:
            raise BufferError_(
                f"packet {packet.packet_id} is already buffered at this node"
            )
        if not self.fits(packet):
            raise BufferError_(
                f"packet {packet.packet_id} ({packet.size} B) does not fit: "
                f"{self.free_bytes:.0f} B free of {self.capacity:.0f} B"
            )
        self._packets[packet.packet_id] = packet
        self._arrival_times[packet.packet_id] = now
        self._used += packet.size
        if self._used > self._peak:
            self._peak = self._used
        queue = self._by_destination.get(packet.destination)
        if queue is None:
            queue = self._by_destination[packet.destination] = _DestinationQueue()
        queue.add((packet.creation_time, packet.packet_id), packet.size)
        if self._store is not None:
            self._store.register(packet)
        self._invalidate_snapshots()

    def remove(self, packet_id: int) -> Packet:
        """Remove and return the packet with *packet_id*.

        Raises:
            BufferError_: when no such packet is stored.
        """
        if packet_id not in self._packets:
            raise BufferError_(f"packet {packet_id} is not buffered at this node")
        packet = self._packets.pop(packet_id)
        self._arrival_times.pop(packet_id, None)
        self._used -= packet.size
        queue = self._by_destination.get(packet.destination)
        if queue is not None:
            queue.remove((packet.creation_time, packet.packet_id))
            if not queue.keys:
                del self._by_destination[packet.destination]
        self._invalidate_snapshots()
        return packet

    def discard(self, packet_id: int) -> Optional[Packet]:
        """Remove the packet if present; return it or ``None``."""
        if packet_id in self._packets:
            return self.remove(packet_id)
        return None

    def clear(self) -> None:
        """Remove every packet."""
        self._packets.clear()
        self._arrival_times.clear()
        self._by_destination.clear()
        self._used = 0
        self._invalidate_snapshots()

    # ------------------------------------------------------------------
    # Queries used by routing protocols
    # ------------------------------------------------------------------
    def packets_for(self, destination: int) -> Tuple[Packet, ...]:
        """Packets destined to *destination* (cached tuple, insertion order)."""
        cached = self._for_destination.get(destination)
        if cached is None:
            cached = tuple(
                p for p in self._packets.values() if p.destination == destination
            )
            self._for_destination[destination] = cached
            NodeBuffer.snapshot_stats["builds"] += 1
        else:
            NodeBuffer.snapshot_stats["hits"] += 1
        return cached

    def destinations(self) -> Tuple[int, ...]:
        """Distinct destinations of buffered packets (cached tuple)."""
        cached = self._dest_snapshot
        if cached is None:
            seen: Dict[int, None] = {}
            for packet in self._packets.values():
                seen.setdefault(packet.destination, None)
            cached = self._dest_snapshot = tuple(seen.keys())
            NodeBuffer.snapshot_stats["builds"] += 1
        else:
            NodeBuffer.snapshot_stats["hits"] += 1
        return cached

    def bytes_ahead_of(self, packet: Packet, now: float) -> int:
        """Return ``b(i)``: bytes of same-destination packets served before *packet*.

        Following Algorithm 2 (Step 1-2), packets destined to the same node
        are served in descending order of time-in-system ``T(s)`` — i.e.
        oldest first.  The returned value is the total size of packets that
        precede *packet* in that order, used to compute how many meetings
        with the destination are needed before *packet* can be delivered
        directly.

        The fast path answers from the per-destination serve-order index
        in O(log n); the reference scan remains for
        ``REPRO_SLOW_ESTIMATES=1`` and for the degenerate case where
        ``now`` precedes a stored packet's creation time (age clamping can
        then reorder the queue, which the static index cannot represent).
        """
        return self._bytes_ahead((packet,), now)[0]

    def bytes_ahead_batch(self, packets: Sequence[Packet], now: float) -> np.ndarray:
        """:meth:`bytes_ahead_of` over many packets at once, as a float array.

        The queried packets need not reside in this buffer (the RAPID
        kernel also asks "what would the queue position be at this
        holder" for the peer).  Each query is one binary search into its
        destination queue's prefix sums, so a whole meeting's queries
        cost O(C log B) with no per-call array set-up.
        """
        return np.array(self._bytes_ahead(packets, now), dtype=np.float64)

    def _bytes_ahead(self, packets: Sequence[Packet], now: float) -> List[int]:
        """The one ``bytes_ahead`` loop behind the scalar and batched queries."""
        if self._slow_reference:
            return [self._bytes_ahead_scan(packet, now) for packet in packets]
        queues = self._by_destination
        ahead: List[int] = []
        for packet in packets:
            queue = queues.get(packet.destination)
            if queue is None or not queue.keys:
                ahead.append(0)
                continue
            keys = queue.keys
            created = packet.creation_time
            if created > now or keys[-1][0] > now:
                ahead.append(self._bytes_ahead_scan(packet, now))
                continue
            if queue.dirty:
                queue.prefix = [0]
                queue.prefix.extend(accumulate(queue.sizes))
                queue.dirty = False
            ahead.append(queue.prefix[bisect_left(keys, (created, packet.packet_id))])
        return ahead

    def _bytes_ahead_scan(self, packet: Packet, now: float) -> int:
        """Reference O(buffer) implementation of :meth:`bytes_ahead_of`."""
        ahead = 0
        packet_age = packet.age(now)
        for other in self._packets.values():
            if other.packet_id == packet.packet_id:
                continue
            if other.destination != packet.destination:
                continue
            other_age = other.age(now)
            if other_age > packet_age or (
                other_age == packet_age and other.packet_id < packet.packet_id
            ):
                ahead += other.size
        return ahead

    # ------------------------------------------------------------------
    # Invariant checking (tests and debugging)
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Verify occupancy and index invariants; raise ``BufferError_`` if broken."""
        expected_used = sum(p.size for p in self._packets.values())
        if expected_used != self._used:
            raise BufferError_(
                f"used-bytes drift: tracked {self._used}, actual {expected_used}"
            )
        if self._used > self.capacity:
            raise BufferError_("capacity invariant violated")
        indexed = {
            packet_id: destination
            for destination, queue in self._by_destination.items()
            for (_, packet_id) in queue.keys
        }
        stored = {p.packet_id: p.destination for p in self._packets.values()}
        if indexed != stored:
            missing = set(stored) - set(indexed)
            extra = set(indexed) - set(stored)
            raise BufferError_(
                f"destination index drift: missing {sorted(missing)}, stale {sorted(extra)}"
            )
        for destination, queue in self._by_destination.items():
            if sorted(queue.keys) != queue.keys:
                raise BufferError_(f"destination {destination} index is unsorted")
            for (creation_time, packet_id), size in zip(queue.keys, queue.sizes):
                packet = self._packets.get(packet_id)
                if packet is None or packet.size != size or packet.creation_time != creation_time:
                    raise BufferError_(
                        f"destination {destination} index entry for packet "
                        f"{packet_id} disagrees with the stored packet"
                    )
        if self._store is not None:
            for packet in self._packets.values():
                if packet.packet_id not in self._store:
                    raise BufferError_(
                        f"packet {packet.packet_id} buffered but unregistered in store"
                    )
                row = self._store.row_of(packet.packet_id)
                if self._store.packet_at(row) is not packet and (
                    self._store.packet_at(row) != packet
                ):
                    raise BufferError_(
                        f"store row {row} disagrees with buffered packet "
                        f"{packet.packet_id}"
                    )
