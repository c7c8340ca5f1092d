"""Structure-of-arrays registry of packet attributes (the SoA kernel base).

The simulator's hot loops — RAPID's candidate ranking, batched
``bytes_ahead_of`` queries and the eviction cascade — operate on *columns*
of packet attributes (creation times, sizes, destinations), not on packet
objects.  The :class:`PacketStore` keeps those columns as contiguous numpy
arrays so a whole meeting's worth of per-packet math runs as array kernels,
while the immutable :class:`~repro.dtn.packet.Packet` objects remain the
API at the edges (traces, results, observability, tests).

One store is shared per simulation (via
:class:`~repro.routing.base.ProtocolContext`); every
:class:`~repro.dtn.buffer.NodeBuffer` attaches to it and registers packets
on insertion, so a packet's *row* is a simulation-global identity that any
node's kernel can index with.  Buffers that are used standalone (unit
tests) lazily create a private store — the object API never requires the
caller to know the store exists.

Registration is idempotent and append-only: rows are never reclaimed
during a run (packet ids are globally unique and the store's columns are
a few dozen bytes per packet), which keeps every previously handed-out
row index valid for the lifetime of the simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .packet import Packet

#: Initial column capacity; grown geometrically on demand.
_INITIAL_CAPACITY = 256


class PacketStore:
    """Append-only structure-of-arrays view over the simulation's packets."""

    __slots__ = (
        "_rows",
        "_objects",
        "_count",
        "_capacity",
        "_ids",
        "_sources",
        "_destinations",
        "_sizes",
        "_creation_times",
        "_deadlines",
    )

    def __init__(self, packets: Iterable[Packet] = ()) -> None:
        self._rows: Dict[int, int] = {}
        self._objects: List[Packet] = []
        self._count = 0
        self._capacity = 0
        self._ids = np.empty(0, dtype=np.int64)
        self._sources = np.empty(0, dtype=np.int64)
        self._destinations = np.empty(0, dtype=np.int64)
        self._sizes = np.empty(0, dtype=np.float64)
        self._creation_times = np.empty(0, dtype=np.float64)
        self._deadlines = np.empty(0, dtype=np.float64)
        self.register_all(packets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self._rows

    @property
    def ids(self) -> np.ndarray:
        """Packet ids by row (int64)."""
        return self._ids[: self._count]

    @property
    def sources(self) -> np.ndarray:
        """Source node ids by row (int64)."""
        return self._sources[: self._count]

    @property
    def destinations(self) -> np.ndarray:
        """Destination node ids by row (int64)."""
        return self._destinations[: self._count]

    @property
    def sizes(self) -> np.ndarray:
        """Packet sizes in bytes by row (float64; sizes are exact integers)."""
        return self._sizes[: self._count]

    @property
    def creation_times(self) -> np.ndarray:
        """Creation times by row (float64)."""
        return self._creation_times[: self._count]

    @property
    def deadlines(self) -> np.ndarray:
        """Relative deadlines by row (float64; ``nan`` when the packet has none)."""
        return self._deadlines[: self._count]

    def row_of(self, packet_id: int) -> int:
        """Row index of *packet_id* (raises ``KeyError`` when unregistered)."""
        return self._rows[packet_id]

    def packet_at(self, row: int) -> Packet:
        """The :class:`Packet` object stored at *row* (the thin object view)."""
        return self._objects[row]

    def rows_for(self, packets: Iterable[Packet]) -> np.ndarray:
        """Rows of already-registered *packets*, in iteration order."""
        rows = self._rows
        return np.fromiter(
            (rows[p.packet_id] for p in packets),
            dtype=np.int64,
            count=len(packets) if hasattr(packets, "__len__") else -1,
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _grow(self, minimum: int) -> None:
        capacity = max(_INITIAL_CAPACITY, self._capacity * 2, minimum)

        def enlarge(array: np.ndarray) -> np.ndarray:
            grown = np.empty(capacity, dtype=array.dtype)
            grown[: self._count] = array[: self._count]
            return grown

        self._ids = enlarge(self._ids)
        self._sources = enlarge(self._sources)
        self._destinations = enlarge(self._destinations)
        self._sizes = enlarge(self._sizes)
        self._creation_times = enlarge(self._creation_times)
        self._deadlines = enlarge(self._deadlines)
        self._capacity = capacity

    def register(self, packet: Packet) -> int:
        """Register *packet* (idempotent); return its row index."""
        row = self._rows.get(packet.packet_id)
        if row is not None:
            return row
        row = self._count
        if row >= self._capacity:
            self._grow(row + 1)
        self._ids[row] = packet.packet_id
        self._sources[row] = packet.source
        self._destinations[row] = packet.destination
        self._sizes[row] = packet.size
        self._creation_times[row] = packet.creation_time
        self._deadlines[row] = np.nan if packet.deadline is None else packet.deadline
        self._objects.append(packet)
        self._rows[packet.packet_id] = row
        self._count = row + 1
        return row

    def register_all(self, packets: Iterable[Packet]) -> None:
        """Register every packet in *packets* (idempotent per packet)."""
        for packet in packets:
            self.register(packet)

    # ------------------------------------------------------------------
    # Invariant checking (tests and debugging)
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Verify columns agree with the object view; raise ``ValueError`` if not."""
        if len(self._objects) != self._count or len(self._rows) != self._count:
            raise ValueError("packet store row bookkeeping out of sync")
        for row, packet in enumerate(self._objects):
            if self._rows.get(packet.packet_id) != row:
                raise ValueError(f"row map disagrees for packet {packet.packet_id}")
            if (
                self._ids[row] != packet.packet_id
                or self._sources[row] != packet.source
                or self._destinations[row] != packet.destination
                or self._sizes[row] != packet.size
                or self._creation_times[row] != packet.creation_time
            ):
                raise ValueError(f"column drift at row {row} (packet {packet.packet_id})")
            deadline = self._deadlines[row]
            if packet.deadline is None:
                if not np.isnan(deadline):
                    raise ValueError(f"deadline column drift at row {row}")
            elif deadline != packet.deadline:
                raise ValueError(f"deadline column drift at row {row}")
