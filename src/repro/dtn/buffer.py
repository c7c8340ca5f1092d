"""Storage-constrained node buffer.

Nodes carry in-transit packets in a finite buffer (problem class P5 of the
paper: finite storage *and* finite bandwidth).  The buffer enforces the
capacity invariant; *which* packet to evict under pressure is a routing
decision and therefore belongs to the protocols, which call
:meth:`NodeBuffer.remove` before inserting.

RAPID's delay estimator asks, at every transfer opportunity, how many
bytes each destination has queued (:meth:`NodeBuffer.queued_bytes`) and,
for the packets whose queue outgrows one expected transfer, how many are
served ahead of them (``bytes_ahead_of``).  The buffer answers both from
a per-destination *serve-order index*: the same-destination packets
sorted by float creation time, ids in a parallel list breaking ties — the
static serve order of Algorithm 2 (oldest first, ties by id) — with
lazily rebuilt prefix sums of their sizes, whose last entry is the
queued total.  ``bytes_ahead_of`` is one binary search (more only inside
a run of equal times), with no tuple or list built, and
:meth:`bytes_ahead_batch` answers a whole meeting's queries the same way
into an array.  Protocols that never ask pay only the list surgery on
:meth:`NodeBuffer.add` and :meth:`NodeBuffer.remove`.  Setting
``REPRO_SLOW_ESTIMATES=1`` restores the original O(buffer) reference
scan; both paths return identical values (the golden tests assert
bit-identical simulation output).

The buffer is also the attachment point of the structure-of-arrays
:class:`~repro.dtn.packet_store.PacketStore`: every inserted packet is
registered in the (usually simulation-shared) store, and the snapshot
accessors — :meth:`packets`, :meth:`packets_for`, :meth:`destinations`,
:meth:`snapshot_rows` — return cached tuples/arrays invalidated on
mutation, so the meeting loop stops allocating fresh lists per call
(:data:`NodeBuffer.snapshot_stats` counts builds vs. cache hits).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import BufferError_
from ..profiling import slow_reference_mode
from .packet import Packet
from .packet_store import PacketStore


class _DestinationQueue:
    """Serve-order index of one destination's packets.

    ``times`` holds the creation times sorted ascending and ``ids`` the
    packet ids beside them, ascending within each run of equal times:
    the serve order (descending time-in-system, ties by smaller id).
    ``sizes`` is parallel too; ``prefix`` holds its prefix sums, rebuilt
    lazily (``None`` after a mutation) by the first query, so a burst of
    queries between meetings pays O(log n) each while adds/removes stay
    O(n) list surgery at worst.
    """

    __slots__ = ("times", "ids", "sizes", "prefix")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.ids: List[int] = []
        self.sizes: List[int] = []
        self.prefix: Optional[List[int]] = None

    def rank(self, created: float, packet_id: int) -> int:
        """Entries served before ``(created, packet_id)``, stored or not.

        Ids are bisected only past the first entry of a run of equal
        times (a stored packet usually heads its run).
        """
        times = self.times
        index = bisect_left(times, created)
        if index < len(times) and times[index] == created and self.ids[index] < packet_id:
            end = bisect_right(times, created, index)
            index = bisect_left(self.ids, packet_id, index + 1, end)
        return index

    def sums(self) -> List[int]:
        """The prefix sums of ``sizes``, rebuilt if a mutation dropped them."""
        prefix = self.prefix
        if prefix is None:
            prefix = self.prefix = [0, *accumulate(self.sizes)]
        return prefix

    def ahead(self, created: float, packet_id: int) -> int:
        """Bytes served before ``(created, packet_id)``."""
        return self.sums()[self.rank(created, packet_id)]

    def add(self, created: float, packet_id: int, size: int) -> None:
        index = self.rank(created, packet_id)
        self.times.insert(index, created)
        self.ids.insert(index, packet_id)
        self.sizes.insert(index, size)
        self.prefix = None

    def remove(self, created: float, packet_id: int) -> None:
        index = self.rank(created, packet_id)
        if index >= len(self.ids) or self.ids[index] != packet_id:  # pragma: no cover
            raise BufferError_(f"destination index out of sync for packet {packet_id}")
        del self.times[index]
        del self.ids[index]
        del self.sizes[index]
        self.prefix = None


class NodeBuffer:
    """A byte-capacity-limited container of packet replicas.

    The buffer tracks per-packet arrival times (used by protocols that
    prioritise by queueing order) and maintains the occupancy invariant
    ``used_bytes <= capacity`` at all times.  The hot per-packet paths
    read the plain attributes :attr:`by_id` and :attr:`used_bytes`
    directly; mutate only through :meth:`add` and :meth:`remove`.
    """

    #: Class-wide snapshot-cache statistics (profiling: the satellite goal
    #: of cutting per-meeting garbage churn is observable here — ``hits``
    #: dwarfing ``builds`` means the meeting loop reuses cached tuples
    #: instead of allocating fresh lists per call).
    snapshot_stats: Dict[str, int] = {"builds": 0, "hits": 0}

    def __init__(
        self, capacity: float = float("inf"), store: Optional[PacketStore] = None
    ) -> None:
        if not capacity > 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        #: Stored packets by id, in insertion order (read-only to callers).
        self.by_id: Dict[int, Packet] = {}
        self._arrival_times: Dict[int, float] = {}
        #: Total size in bytes of the packets currently stored.
        self.used_bytes = 0
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
            self._store = PacketStore(self.by_id.values())
        return self._store

    def attach_store(self, store: PacketStore) -> None:
        """Attach the (simulation-shared) store, registering current contents."""
        if store is self._store:
            return
        store.register_all(self.by_id.values())
        self._store = store
        self._rows_snapshot = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self.by_id

    def __len__(self) -> int:
        return len(self.by_id)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets())

    @property
    def free_bytes(self) -> float:
        """Remaining capacity in bytes."""
        return self.capacity - self.used_bytes

    @property
    def peak_used_bytes(self) -> int:
        """Highest :attr:`used_bytes` ever reached by this buffer."""
        return self._peak

    @property
    def packet_ids(self) -> List[int]:
        """Identifiers of stored packets (insertion order)."""
        return list(self.by_id.keys())

    def packets(self) -> Tuple[Packet, ...]:
        """Snapshot of stored packets (cached tuple, insertion order)."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = tuple(self.by_id.values())
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
        return self.by_id.get(packet_id)

    def arrival_time(self, packet_id: int) -> Optional[float]:
        """Return the time the packet entered this buffer, or ``None``."""
        return self._arrival_times.get(packet_id)

    def occupancy(self) -> float:
        """Return the fraction of capacity in use (0 when unlimited)."""
        if self.capacity == float("inf"):
            return 0.0
        return self.used_bytes / self.capacity

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
        packet_id = packet.packet_id
        if packet_id in self.by_id:
            raise BufferError_(f"packet {packet_id} is already buffered at this node")
        size = packet.size
        if size > self.capacity - self.used_bytes:
            raise BufferError_(
                f"packet {packet_id} ({size} B) does not fit: "
                f"{self.free_bytes:.0f} B free of {self.capacity:.0f} B"
            )
        self.by_id[packet_id] = packet
        self._arrival_times[packet_id] = now
        used = self.used_bytes = self.used_bytes + size
        if used > self._peak:
            self._peak = used
        queue = self._by_destination.get(packet.destination)
        if queue is None:
            queue = self._by_destination[packet.destination] = _DestinationQueue()
        queue.add(packet.creation_time, packet_id, size)
        if self._store is not None:
            self._store.register(packet)
        self._invalidate_snapshots()

    def remove(self, packet_id: int) -> Packet:
        """Remove and return the packet with *packet_id*.

        Raises:
            BufferError_: when no such packet is stored.
        """
        packet = self.by_id.pop(packet_id, None)
        if packet is None:
            raise BufferError_(f"packet {packet_id} is not buffered at this node")
        del self._arrival_times[packet_id]
        self.used_bytes -= packet.size
        queue = self._by_destination[packet.destination]
        queue.remove(packet.creation_time, packet_id)
        if not queue.ids:
            del self._by_destination[packet.destination]
        self._invalidate_snapshots()
        return packet

    def discard(self, packet_id: int) -> Optional[Packet]:
        """Remove the packet if present; return it or ``None``."""
        if packet_id in self.by_id:
            return self.remove(packet_id)
        return None

    def clear(self) -> None:
        """Remove every packet."""
        self.by_id.clear()
        self._arrival_times.clear()
        self._by_destination.clear()
        self.used_bytes = 0
        self._invalidate_snapshots()

    # ------------------------------------------------------------------
    # Queries used by routing protocols
    # ------------------------------------------------------------------
    def packets_for(self, destination: int) -> Tuple[Packet, ...]:
        """Packets destined to *destination* (cached tuple, insertion order)."""
        cached = self._for_destination.get(destination)
        if cached is None:
            cached = tuple(
                p for p in self.by_id.values() if p.destination == destination
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
            for packet in self.by_id.values():
                seen.setdefault(packet.destination, None)
            cached = self._dest_snapshot = tuple(seen.keys())
            NodeBuffer.snapshot_stats["builds"] += 1
        else:
            NodeBuffer.snapshot_stats["hits"] += 1
        return cached

    def queued_bytes(self, destination: int) -> int:
        """Total size of the stored packets destined to *destination*.

        No :meth:`bytes_ahead_of` answer for that destination exceeds it,
        whether the queried packet is held or not.  It is the last of the
        serve-order index's prefix sums, so the protocols that never ask
        pay nothing for it on :meth:`add` and :meth:`remove`.
        """
        queue = self._by_destination.get(destination)
        return 0 if queue is None else queue.sums()[-1]

    def bytes_ahead_of(self, packet: Packet, now: float) -> int:
        """Return ``b(i)``: bytes of same-destination packets served before *packet*.

        Following Algorithm 2 (Step 1-2), packets destined to the same node
        are served in descending order of time-in-system ``T(s)`` — i.e.
        oldest first.  The returned value is the total size of packets that
        precede *packet* in that order, used to compute how many meetings
        with the destination are needed before *packet* can be delivered
        directly.

        The fast path answers from the per-destination serve-order index
        in O(log n) without allocating; the reference scan remains for
        ``REPRO_SLOW_ESTIMATES=1`` and for the degenerate case where
        ``now`` precedes a stored packet's creation time (age clamping can
        then reorder the queue, which the static index cannot represent).
        """
        queue = self._by_destination.get(packet.destination)
        if queue is None:
            return 0
        created = packet.creation_time
        if self._slow_reference or created > now or queue.times[-1] > now:
            return self._bytes_ahead_scan(packet, now)
        return queue.ahead(created, packet.packet_id)

    def bytes_ahead_batch(self, packets: Sequence[Packet], now: float) -> np.ndarray:
        """:meth:`bytes_ahead_of` over many packets at once, as a float array.

        The queried packets need not reside in this buffer (the RAPID
        kernel also asks "what would the queue position be at this
        holder" for the peer).  Each query is a binary search into its
        destination queue's prefix sums, so a whole meeting's queries
        cost O(C log B) with no per-call array set-up.
        """
        if self._slow_reference:
            ahead = [self._bytes_ahead_scan(packet, now) for packet in packets]
            return np.array(ahead, dtype=np.float64)
        queues = self._by_destination
        ahead = []
        append = ahead.append
        for packet in packets:
            queue = queues.get(packet.destination)
            if queue is None:
                append(0)
                continue
            created = packet.creation_time
            times = queue.times
            if created > now or times[-1] > now:
                append(self._bytes_ahead_scan(packet, now))
                continue
            # _DestinationQueue.ahead, inlined: this loop runs per query.
            prefix = queue.prefix
            if prefix is None:
                prefix = queue.prefix = [0, *accumulate(queue.sizes)]
            index = bisect_left(times, created)
            if index < len(times) and times[index] == created and queue.ids[index] < packet.packet_id:
                end = bisect_right(times, created, index)
                index = bisect_left(queue.ids, packet.packet_id, index + 1, end)
            append(prefix[index])
        return np.array(ahead, dtype=np.float64)

    def _bytes_ahead_scan(self, packet: Packet, now: float) -> int:
        """Reference O(buffer) implementation of :meth:`bytes_ahead_of`."""
        ahead = 0
        packet_age = packet.age(now)
        for other in self.by_id.values():
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
        expected_used = sum(p.size for p in self.by_id.values())
        if expected_used != self.used_bytes:
            raise BufferError_(
                f"used-bytes drift: tracked {self.used_bytes}, actual {expected_used}"
            )
        if self.used_bytes > self.capacity:
            raise BufferError_("capacity invariant violated")
        indexed = {
            packet_id: destination
            for destination, queue in self._by_destination.items()
            for packet_id in queue.ids
        }
        stored = {p.packet_id: p.destination for p in self.by_id.values()}
        if indexed != stored:
            missing = set(stored) - set(indexed)
            extra = set(indexed) - set(stored)
            raise BufferError_(
                f"destination index drift: missing {sorted(missing)}, stale {sorted(extra)}"
            )
        for destination, queue in self._by_destination.items():
            keys = list(zip(queue.times, queue.ids))
            if sorted(keys) != keys:
                raise BufferError_(f"destination {destination} index is unsorted")
            for (creation_time, packet_id), size in zip(keys, queue.sizes):
                packet = self.by_id.get(packet_id)
                if packet is None or packet.size != size or packet.creation_time != creation_time:
                    raise BufferError_(
                        f"destination {destination} index entry for packet "
                        f"{packet_id} disagrees with the stored packet"
                    )
        if self._store is not None:
            for packet in self.by_id.values():
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
