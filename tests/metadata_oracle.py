"""Reference replica-metadata store and scalar control-channel loops.

The test oracle for :mod:`repro.core.metadata` and the in-band channel's
column-block sends: a per-node dict of per-packet entries, each a dict of
per-holder records, merged one record at a time.  Its dict orders are the
behaviour the columnar store must reproduce exactly — entries iterate in
creation order, holders in insertion order (a removed-then-re-added
holder goes last) — because which records fit a metadata budget depends
on that order.  :func:`columnar_entries` and :func:`columnar_replica`
read a columnar store's private columns back into the same shape, for
tests that check its contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import constants
from repro.dtn.packet import Packet


@dataclass(slots=True)
class ReplicaInfo:
    """What one node is believed to know about one replica of a packet."""

    node_id: int
    delay_estimate: float
    updated_at: float
    changed_at: float = 0.0


@dataclass(slots=True)
class PacketMetadata:
    """Everything a node knows about one packet's replicas."""

    packet: Packet
    replicas: Dict[int, ReplicaInfo] = field(default_factory=dict)
    last_change: float = 0.0
    seq: int = 0

    @property
    def packet_id(self) -> int:
        return self.packet.packet_id


class ReferenceMetadataStore:
    """Per-node store of packet replica metadata, one object per record."""

    def __init__(self) -> None:
        self._entries: Dict[int, PacketMetadata] = {}
        self._next_seq = 0

    def __contains__(self, packet_id: int) -> bool:
        return packet_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, packet_id: int) -> Optional[PacketMetadata]:
        return self._entries.get(packet_id)

    def entries(self) -> List[PacketMetadata]:
        return list(self._entries.values())

    def entries_changed_since(self, timestamp: float) -> List[PacketMetadata]:
        """Entries whose replica information changed after *timestamp*."""
        return [entry for entry in self._entries.values() if entry.last_change > timestamp]

    def ensure_entry(self, packet: Packet) -> PacketMetadata:
        entry = self._entries.get(packet.packet_id)
        if entry is None:
            entry = PacketMetadata(packet=packet, seq=self._next_seq)
            self._next_seq += 1
            self._entries[packet.packet_id] = entry
        return entry

    def update_replica(
        self,
        packet: Packet,
        holder_id: int,
        delay_estimate: float,
        now: float,
        tolerance: float = constants.RAPID_ESTIMATE_TOLERANCE,
        learned_at: Optional[float] = None,
    ) -> bool:
        entry = self.ensure_entry(packet)
        existing = entry.replicas.get(holder_id)
        if existing is not None and existing.updated_at > now:
            return False
        learned_at = now if learned_at is None else learned_at
        meaningful = True
        if existing is not None:
            previous = existing.delay_estimate
            if previous == delay_estimate:
                meaningful = False
            elif previous > 0 and previous != float("inf") and delay_estimate != float("inf"):
                if abs(delay_estimate - previous) <= tolerance * previous:
                    meaningful = False
            existing.delay_estimate = delay_estimate
            existing.updated_at = now
            if meaningful:
                existing.changed_at = learned_at
        else:
            entry.replicas[holder_id] = ReplicaInfo(
                node_id=holder_id,
                delay_estimate=delay_estimate,
                updated_at=now,
                changed_at=learned_at,
            )
        if not meaningful:
            return False
        if learned_at > entry.last_change:
            entry.last_change = learned_at
        return True

    def remove_replica(self, packet_id: int, holder_id: int, now: float) -> None:
        entry = self._entries.get(packet_id)
        if entry is None:
            return
        if holder_id in entry.replicas:
            del entry.replicas[holder_id]
            if now > entry.last_change:
                entry.last_change = now

    def remove_packet(self, packet_id: int) -> None:
        self._entries.pop(packet_id, None)

    def merge_replica_record(self, packet: Packet, info: ReplicaInfo, now: float) -> bool:
        return self.update_replica(
            packet, info.node_id, info.delay_estimate, info.updated_at, learned_at=now
        )


Record = Tuple[int, int, float, float]


def columnar_entries(store) -> List[Tuple[int, int, List[Tuple[int, float, float, float]]]]:
    """Each entry of a :class:`~repro.core.metadata.MetadataStore`, in ``seq`` order.

    An entry is ``(packet id, seq, [(holder, estimate, updated_at,
    changed_at), ...])`` with its holders in holder order.
    """
    estimates, updated, changed = (
        store._estimates_cells,
        store._updated_cells,
        store._changed_cells,
    )
    return [
        (
            packet_id,
            seq,
            [
                (holder, estimates[slot], updated[slot], changed[slot])
                for holder, slot in store._slots_of[packet_id].items()
            ],
        )
        for packet_id, seq in store._seq_of.items()
    ]


def columnar_replica(store, packet_id: int, holder: int) -> Optional[Tuple[float, float, float]]:
    """``(estimate, updated_at, changed_at)`` of one record of a columnar store."""
    for entry_id, _, records in columnar_entries(store):
        for record in records:
            if (entry_id, record[0]) == (packet_id, holder):
                return record[1:]
    return None


def send_third_party(
    sender: ReferenceMetadataStore,
    receiver: ReferenceMetadataStore,
    receiver_id: int,
    last: float,
    now: float,
    budget: int,
) -> Tuple[List[Record], List[bool]]:
    """The scalar third-party send: records changed since *last*, cut to *budget*.

    Returns the emitted ``(packet, holder, estimate, updated_at)`` records
    and the receiver's per-record merge results.
    """
    pending = []
    for entry in sender.entries_changed_since(last):
        for info in entry.replicas.values():
            if info.changed_at > last and info.node_id != receiver_id:
                pending.append((entry.packet, info))
    records = [
        (packet.packet_id, info.node_id, info.delay_estimate, info.updated_at)
        for packet, info in pending[:budget]
    ]
    results = [
        receiver.merge_replica_record(packet, info, now) for packet, info in pending[:budget]
    ]
    return records, results


def send_buffer_state(
    sender_id: int,
    buffered: List[Tuple[Packet, float]],
    previously_sent: Dict[int, float],
    receiver: ReferenceMetadataStore,
    now: float,
    budget: int,
) -> List[Tuple[int, float]]:
    """The scalar buffer-state send: own estimates that moved, cut to *budget*.

    Returns the emitted ``(packet, estimate)`` records.
    """
    tolerance = constants.RAPID_ESTIMATE_TOLERANCE
    changed = []
    for packet, estimate in buffered:
        estimate = float(estimate)
        last = previously_sent.get(packet.packet_id)
        if last is not None and last > 0 and abs(estimate - last) <= tolerance * last:
            continue
        changed.append((packet, estimate))
    for packet, estimate in changed[:budget]:
        receiver.update_replica(packet, sender_id, estimate, now)
        previously_sent[packet.packet_id] = estimate
    return [(packet.packet_id, estimate) for packet, estimate in changed[:budget]]
