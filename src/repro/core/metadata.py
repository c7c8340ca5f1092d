"""Replica metadata maintained by RAPID's control plane (Section 4.2).

For every packet it has encountered, a RAPID node keeps the nodes
believed to carry a replica and each holder's own estimate of its
direct-delivery delay, timestamped so that only fresher information
overwrites older information and the in-band channel sends only records
that changed since the last exchange with a peer.

The store keeps one *slot* per live (packet, holder) record in parallel
columns: the packet id, the holder, the estimate, ``updated_at`` (the
estimate's own timestamp), ``changed_at`` (when this node last learned
something meaningful about it) and a *rank*, ``seq * 2**32 + order``:
entries take ``seq`` in creation order and slots take ``order`` from one
store-wide counter, so rank order is the order of a per-packet dict of
per-holder records (a holder removed and re-added goes last).  That order
decides which records fit when a metadata budget cuts an exchange.  The
third-party send selects changed slots with one mask
(:meth:`MetadataStore.entries_changed_since`) and merges them into the
receiver in one vectorised pass (:meth:`MetadataStore.merge`); the scalar
entry points (:meth:`~MetadataStore.update_replica`, also taking the
buffer-state send's records, :meth:`~MetadataStore.remove_replica`) write
single slots.  A dict of dicts, packet -> holder -> slot in holder order,
indexes the slots.  Freed slots are reused, and the columns double only
when none is free.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import constants
from ..dtn.packet import Packet

_INF = math.inf

#: A slot's rank is ``seq * _ORDER_SPAN + order``.
_ORDER_SPAN = 1 << 32

#: The holder -> slot map of an unknown packet (never written).
_NO_SLOTS: Dict[int, int] = {}

#: The slot columns: name, dtype and the value of a new slot (``changed_at``
#: ``-inf`` marks a free slot, so no mask selects one).
_COLUMNS = (
    ("ids", np.int64, 0),
    ("holders", np.int64, 0),
    ("estimates", np.float64, 0.0),
    ("updated", np.float64, 0.0),
    ("changed", np.float64, -_INF),
    ("ranks", np.int64, 0),
)


class ReplicaBlock(NamedTuple):
    """Replica records in flight between two stores, one array per field."""

    packet_ids: np.ndarray
    holders: np.ndarray
    estimates: np.ndarray
    updated: np.ndarray


class MetadataStore:
    """Per-node store of packet replica metadata, kept as slot columns.

    Each column is a numpy array (``_ids``, ``_holders``, ...) for the
    block operations, with a memoryview beside it (``_ids_cells``, ...)
    for the scalar entry points: a memoryview item read or write costs
    about half a numpy scalar access.
    """

    def __init__(self) -> None:
        #: Known packets -> entry ``seq`` (insertion order is ``seq`` order).
        self._seq_of: Dict[int, int] = {}
        #: Known packets -> holder -> slot, in holder order.
        self._slots_of: Dict[int, Dict[int, int]] = {}
        self._next_seq = 0
        self._next_order = 0
        self._free: List[int] = []
        for name, dtype, _ in _COLUMNS:
            self._set_column(name, np.empty(0, dtype))

    def _set_column(self, name: str, column: np.ndarray) -> None:
        setattr(self, "_" + name, column)
        setattr(self, f"_{name}_cells", memoryview(column))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self._seq_of

    def __len__(self) -> int:
        return len(self._seq_of)

    def holders(self, packet_id: int) -> List[int]:
        """Believed holders of *packet_id*, in holder order."""
        return list(self._slots_of.get(packet_id, _NO_SLOTS))

    def estimates(self, packet_id: int, exclude_holder: int = -1) -> List[float]:
        """Delay estimates of the holders of *packet_id* other than *exclude_holder*."""
        estimates = self._estimates_cells
        return [
            estimates[slot]
            for holder, slot in self._slots_of.get(packet_id, _NO_SLOTS).items()
            if holder != exclude_holder
        ]

    def entries_changed_since(
        self, timestamp: float, exclude_holder: Optional[int] = None
    ) -> np.ndarray:
        """Slots whose record changed after *timestamp*, in rank order.

        Records of *exclude_holder* are left out.  Freed slots carry a
        ``changed_at`` of ``-inf``, so the one mask skips them.
        """
        mask = self._changed > timestamp
        if exclude_holder is not None:
            mask &= self._holders != exclude_holder
        slots = np.flatnonzero(mask)
        if len(slots) > 1:
            slots = slots[np.argsort(self._ranks[slots])]
        return slots

    def replica_block(self, slots: np.ndarray) -> ReplicaBlock:
        """The records at *slots*, gathered for a peer's :meth:`merge`."""
        return ReplicaBlock(
            self._ids[slots], self._holders[slots], self._estimates[slots], self._updated[slots]
        )

    def replica_estimates(
        self, packet_ids: Sequence[int], exclude_holder: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every holder's estimate of each of *packet_ids*, as ``(rows, estimates)``.

        ``estimates[k]`` is the estimate of a holder of ``packet_ids[rows[k]]``
        other than *exclude_holder*.  Rows ascend and each packet's holders
        come in holder order: the delivery-rate fold is a float sum whose
        order matters for bit identity.
        """
        slots_of = self._slots_of
        groups = [slots_of.get(packet_id, _NO_SLOTS) for packet_id in packet_ids]
        slots = np.fromiter(chain.from_iterable(map(dict.values, groups)), dtype=np.int64)
        rows = np.arange(len(groups)).repeat(list(map(len, groups)))
        keep = self._holders[slots] != exclude_holder
        return rows[keep], self._estimates[slots[keep]]

    # ------------------------------------------------------------------
    # Scalar updates (packet creation, transfer, eviction, acks)
    # ------------------------------------------------------------------
    def _grow(self, count: int) -> None:
        """Make room for *count* more slots: double the columns if needed.

        New slots start freed and go under the free list, handed out in
        order.
        """
        free = self._free
        if len(free) >= count:
            return
        size = len(self._holders)
        extra = max(size, count - len(free), 64)
        for name, dtype, fill in _COLUMNS:
            column = np.full(size + extra, fill, dtype)
            column[:size] = getattr(self, "_" + name)
            self._set_column(name, column)
        free[:0] = range(size + extra - 1, size - 1, -1)

    def update_replica(
        self,
        packet: Packet,
        holder_id: int,
        delay_estimate: float,
        now: float,
        tolerance: float = constants.RAPID_ESTIMATE_TOLERANCE,
        learned_at: Optional[float] = None,
    ) -> bool:
        """Record that *holder_id* carries *packet* with the given estimate.

        Args:
            packet: The packet the record describes.
            holder_id: The node believed to carry a replica.
            delay_estimate: The holder's direct-delivery delay estimate.
            now: Timestamp of the estimate itself (origin time).
            tolerance: Relative drift below which the update is not treated
                as a meaningful change (and hence not re-flooded).
            learned_at: Local time at which this node learned the record;
                defaults to *now*.

        Returns True when the stored information meaningfully changed —
        i.e. the holder is new, or its delay estimate moved by more than
        *tolerance* (relative).  Older information never overwrites newer
        information for the same holder; newer information always
        overwrites the estimate and its timestamp, meaningful or not.
        """
        packet_id = packet.packet_id
        slots = self._slots_of.get(packet_id, _NO_SLOTS)
        slot = slots.get(holder_id)
        if slot is not None:
            updated = self._updated_cells
            if updated[slot] > now:
                return False
            updated[slot] = now
            estimates = self._estimates_cells
            previous = estimates[slot]
            if previous == delay_estimate:
                return False
            estimates[slot] = delay_estimate
            if 0 < previous != _INF and abs(delay_estimate - previous) <= tolerance * previous:
                return False
            self._changed_cells[slot] = now if learned_at is None else learned_at
            return True
        if not self._free:
            self._grow(1)
        slot = self._free.pop()
        if slots is _NO_SLOTS:
            seq = self._seq_of[packet_id] = self._next_seq
            self._next_seq = seq + 1
            self._slots_of[packet_id] = {holder_id: slot}
        else:
            seq = self._seq_of[packet_id]
            slots[holder_id] = slot
        self._ids_cells[slot] = packet_id
        self._holders_cells[slot] = holder_id
        self._estimates_cells[slot] = delay_estimate
        self._updated_cells[slot] = now
        self._changed_cells[slot] = now if learned_at is None else learned_at
        self._ranks_cells[slot] = seq * _ORDER_SPAN + self._next_order
        self._next_order += 1
        return True

    def remove_replica(self, packet_id: int, holder_id: int) -> None:
        """Forget that *holder_id* carries *packet_id* (e.g. it evicted it)."""
        slot = self._slots_of.get(packet_id, _NO_SLOTS).pop(holder_id, None)
        if slot is not None:
            self._changed_cells[slot] = -_INF
            self._free.append(slot)

    def remove_packet(self, packet_id: int) -> None:
        """Forget a packet entirely (called when an ack is received)."""
        if self._seq_of.pop(packet_id, None) is not None:
            slots = self._slots_of.pop(packet_id).values()
            changed = self._changed_cells
            for slot in slots:
                changed[slot] = -_INF
            self._free.extend(slots)

    # ------------------------------------------------------------------
    # Block merge (the control channel)
    # ------------------------------------------------------------------
    def merge(
        self,
        block: ReplicaBlock,
        learned_at: float,
        tolerance: float = constants.RAPID_ESTIMATE_TOLERANCE,
    ) -> np.ndarray:
        """Merge a peer's records, learned at *learned_at*, in one pass.

        Equivalent to :meth:`update_replica` on each record in block order
        (a block holds each (packet, holder) at most once, so the records
        do not interact): new entries take ``seq`` and new holders take
        ``order`` in block order.  Returns whether each record meaningfully
        changed this store.
        """
        ids, holders, estimates, updated = block
        entries = map(self._slots_of.get, ids.tolist(), repeat(_NO_SLOTS))
        slots = np.fromiter(
            map(dict.get, entries, holders.tolist(), repeat(-1)), dtype=np.int64, count=len(ids)
        )
        fresh = np.flatnonzero(slots < 0)
        if len(fresh):
            self._allocate(fresh, slots, ids[fresh], holders[fresh])
        newer = ~(self._updated[slots] > updated)
        previous = self._estimates[slots]
        # Only a finite positive previous estimate bounds the drift;
        # skipping the other rows avoids inf - inf.
        finite = (previous > 0) & (previous != _INF)
        drift = np.subtract(estimates, previous, out=np.zeros(len(slots)), where=finite)
        meaningful = newer & ~(
            (previous == estimates) | (finite & (np.abs(drift) <= tolerance * previous))
        )
        self._changed[slots[meaningful]] = learned_at
        slots = slots[newer]
        self._estimates[slots] = estimates[newer]
        self._updated[slots] = updated[newer]
        return meaningful

    def _allocate(self, fresh, slots, ids, holders) -> None:
        """Give the block's new records (at *fresh*) slots, in block order.

        Slots come off the free list as :meth:`update_replica` takes them.
        New entries take ``seq`` and new slots take ``order`` in block
        order, and each new slot joins the end of its entry.  A new slot
        starts older than any record and with no estimate, so :meth:`merge`
        takes its record and calls it meaningful.
        """
        count = len(fresh)
        self._grow(count)
        free = self._free
        slot_list = free[: -count - 1 : -1]
        del free[-count:]
        # The holder maps take the Python ints; every column write indexes
        # through one int64 array, not the list.
        fresh_slots = np.array(slot_list, dtype=np.int64)
        slots[fresh] = fresh_slots
        fresh_ids = ids.tolist()
        seq_of = self._seq_of
        slots_of = self._slots_of
        new_ids = [packet_id for packet_id in dict.fromkeys(fresh_ids) if packet_id not in seq_of]
        if new_ids:
            seq_of.update(zip(new_ids, range(self._next_seq, self._next_seq + len(new_ids))))
            slots_of.update((packet_id, {}) for packet_id in new_ids)
            self._next_seq += len(new_ids)
        entries = map(slots_of.__getitem__, fresh_ids)
        deque(map(dict.__setitem__, entries, holders.tolist(), slot_list), 0)
        seqs = np.fromiter(map(seq_of.__getitem__, fresh_ids), dtype=np.int64, count=count)
        orders = np.arange(self._next_order, self._next_order + count)
        self._next_order += count
        self._ranks[fresh_slots] = seqs * _ORDER_SPAN + orders
        self._ids[fresh_slots] = ids
        self._holders[fresh_slots] = holders
        self._estimates[fresh_slots] = np.nan
        self._updated[fresh_slots] = -_INF
