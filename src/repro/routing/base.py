"""Routing protocol interface.

The simulator is protocol-agnostic: at every meeting it asks the two
participating protocol instances (one per node) for

1. a **control exchange** (acknowledgments and protocol metadata, which may
   consume transfer-opportunity bytes — RAPID's in-band control channel
   does, Section 4.2);
2. a **direct-delivery order** for packets destined to the peer (Protocol
   RAPID, step 2);
3. a stream of **replication candidates** in priority order (step 3); and
4. storage decisions via :meth:`RoutingProtocol.accept_replica` and
   :meth:`RoutingProtocol.choose_eviction_victim`.

All baselines (MaxProp, Spray and Wait, PRoPHET, Random, Epidemic, Direct)
and RAPID itself implement this interface, so every protocol is evaluated
under exactly the same bandwidth and storage constraints.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

import numpy as np

from .. import constants

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..dtn.node import Node
    from ..dtn.packet import Packet
    from ..dtn.packet_store import PacketStore
    from ..mobility.schedule import Contact


def _default_packet_store() -> "PacketStore":
    # Imported lazily: repro.dtn's package init pulls the simulator, which
    # imports this module — a module-level import would be circular.
    from ..dtn.packet_store import PacketStore

    return PacketStore()

#: Tolerance for floating-point byte/time comparisons in link sessions
#: and the simulator's contact pipeline.
_EPS = 1e-9


@dataclass
class TransferBudget:
    """Byte accounting for one transfer opportunity.

    The total of data and metadata bytes never exceeds the opportunity's
    capacity; metadata is tracked separately so experiments can report the
    control-channel overhead (Figures 8 and 9).
    """

    capacity: float
    data_bytes: float = 0.0
    metadata_bytes: float = 0.0

    @property
    def remaining(self) -> float:
        """Bytes of the opportunity still available."""
        return max(0.0, self.capacity - (self.data_bytes + self.metadata_bytes))

    def can_send(self, num_bytes: float) -> bool:
        """Return True when *num_bytes* more bytes fit in the opportunity."""
        return num_bytes <= self.remaining

    def metadata_capacity(self) -> float:
        """Bytes of metadata that can still be carried.

        Equal to :attr:`remaining` for a plain byte budget; time-metered
        sessions narrow it to what fits the remaining contact window, so
        whole-entry clipping (acks, control records) agrees with what
        :meth:`charge_metadata` will actually charge.
        """
        return self.remaining

    def charge_data(self, num_bytes: float) -> None:
        """Consume *num_bytes* of the opportunity for a data transfer."""
        if num_bytes > self.remaining + _EPS:
            raise ValueError("data transfer exceeds the remaining opportunity")
        self.data_bytes += num_bytes

    def charge_metadata(self, num_bytes: float) -> float:
        """Charge up to *num_bytes* of metadata; return the bytes charged.

        Metadata is clipped to the remaining budget rather than rejected —
        a node sends whatever metadata fits at the start of the opportunity.
        """
        charged = min(num_bytes, self.remaining)
        self.metadata_bytes += charged
        return charged


@dataclass
class LinkSession(TransferBudget):
    """Byte *and time* accounting for one contact session.

    The generalisation of :class:`TransferBudget` used by the simulator's
    contact pipeline: besides the byte budget it meters transfers against
    the elapsed contact time through a shared serial stream whose
    bandwidth profile is the contact's :class:`~repro.mobility.schedule.LinkModel`
    (constant rate by default).  The stream opens at ``opened_at`` and
    dies at ``cutoff`` — the contact's scheduled end, or earlier when the
    contact is interrupted.  A transfer that cannot finish before the
    cutoff is *cut*: the bytes that fit are charged (they really crossed
    the link), the replica is **not** committed, and the simulator rolls
    the transfer back — or resumes it on the next contact of the same
    pair when resume is enabled.

    Protocols keep talking to the :class:`TransferBudget` interface
    (``remaining``, ``charge_metadata``); the session transparently makes
    metadata consume stream time too.  A session without a contact (or a
    zero-duration contact) degenerates to pure byte accounting, i.e.
    classic :class:`TransferBudget` behaviour: the simulator runs every
    instantaneous meeting as such a window-less session.
    """

    contact: Optional["Contact"] = None
    opened_at: float = 0.0
    #: When the link dies: scheduled contact end, or earlier on interruption.
    cutoff: float = float("inf")
    #: Factor applied to the profile's byte counts (deployment-noise
    #: capacity jitter scales the whole bandwidth profile).
    capacity_scale: float = 1.0
    #: When the shared serial stream is next free (transfers queue on it).
    stream_clock: float = 0.0
    #: The contact was cut short: its window by an interruption or a
    #: kill, or (window-less) its byte budget by a kill.
    interrupted: bool = False
    #: A transfer was cut mid-flight by the cutoff.
    transfer_cut: bool = False

    def __post_init__(self) -> None:
        self.stream_clock = max(self.stream_clock, self.opened_at)
        #: Whether this session meters time at all (window with extent).
        #: Zero-duration windows and unbounded capacities degenerate to
        #: pure byte accounting — there is no finite rate to stream against.
        self._timed = (
            self.contact is not None
            and self.contact.duration > 0.0
            and not math.isinf(self.contact.capacity)
        )

    # ------------------------------------------------------------------
    # Profile plumbing
    # ------------------------------------------------------------------
    def _cumulative_bytes(self, at_time: float) -> float:
        """Bytes the link can have carried from the window start to *at_time*."""
        contact = self.contact
        return self.capacity_scale * contact.profile.bytes_within(
            contact, at_time - contact.start
        )

    def _time_for_cumulative(self, cumulative_bytes: float) -> float:
        """Absolute time at which *cumulative_bytes* have been carried."""
        contact = self.contact
        return contact.start + contact.profile.time_to_transfer(
            contact, cumulative_bytes / self.capacity_scale
        )

    # ------------------------------------------------------------------
    # Time-aware metering
    # ------------------------------------------------------------------
    def sendable_bytes(self, now: float) -> float:
        """Bytes that can still stream to completion starting at *now*."""
        if self.transfer_cut:
            return 0.0
        if not self._timed:
            return self.remaining
        begin = max(now, self.stream_clock)
        window_bytes = self._cumulative_bytes(self.cutoff) - self._cumulative_bytes(begin)
        return min(self.remaining, max(0.0, window_bytes))

    def can_complete(self, num_bytes: float, now: float) -> bool:
        """Would a *num_bytes* transfer started at *now* finish in time?"""
        return num_bytes <= self.sendable_bytes(now) + _EPS

    def transmit(self, num_bytes: float, now: float) -> Tuple[float, float, bool]:
        """Stream *num_bytes* starting at *now*.

        Returns ``(bytes_sent, finish_time, completed)``.  A complete
        transfer advances the stream clock to its finish time; a cut
        transfer charges only the bytes that fit before the cutoff, marks
        the session ``transfer_cut`` and exhausts the stream.  Charged
        bytes count as data either way — partial bytes really crossed the
        link, they just carried no committed replica.
        """
        begin = max(now, self.stream_clock)
        if not self._timed:
            self.charge_data(num_bytes)
            self.stream_clock = begin
            return num_bytes, begin, True
        sendable = self.sendable_bytes(now)
        if num_bytes <= sendable + _EPS:
            sent = min(num_bytes, sendable)
            finish = max(begin, self._time_for_cumulative(self._cumulative_bytes(begin) + sent))
            self.stream_clock = finish
            self.charge_data(sent)
            return sent, finish, True
        sent = max(0.0, sendable)
        if sent > 0:
            self.charge_data(sent)
        self.stream_clock = self.cutoff
        self.transfer_cut = True
        return sent, self.cutoff, False

    def metadata_capacity(self) -> float:
        """Metadata bytes that both the byte budget and the window allow."""
        if not self._timed:
            return self.remaining
        begin = max(self.stream_clock, self.opened_at)
        window_bytes = self._cumulative_bytes(self.cutoff) - self._cumulative_bytes(begin)
        return min(self.remaining, max(0.0, window_bytes))

    def charge_metadata(self, num_bytes: float) -> float:
        """Charge metadata against the byte budget *and* the stream time."""
        if not self._timed:
            return super().charge_metadata(num_bytes)
        begin = max(self.stream_clock, self.opened_at)
        charged = min(num_bytes, self.metadata_capacity())
        if charged <= 0:
            return 0.0
        self.metadata_bytes += charged
        self.stream_clock = max(
            begin, self._time_for_cumulative(self._cumulative_bytes(begin) + charged)
        )
        return charged

    @property
    def exhausted(self) -> bool:
        """True when no further transfer can complete on this session."""
        return self.transfer_cut or self.sendable_bytes(self.stream_clock) <= _EPS


@dataclass
class ProtocolContext:
    """Per-simulation shared state handed to every protocol instance."""

    nodes: Dict[int, Node]
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    options: Dict[str, object] = field(default_factory=dict)
    #: Lifecycle-event recorder shared with the simulator
    #: (:class:`~repro.observability.trace.TraceRecorder`); ``None`` —
    #: the zero-overhead default — unless tracing was requested.
    tracer: Optional[object] = None
    #: Decision-audit recorder
    #: (:class:`~repro.observability.decisions.DecisionRecorder`);
    #: ``None`` — the zero-overhead default — unless a ``decision_sink``
    #: was requested.  Protocols emit replication-ranking and
    #: eviction-choice events through it.
    decisions: Optional[object] = None
    #: Simulation-wide structure-of-arrays packet registry.  Every node
    #: buffer attaches to it (see :class:`RoutingProtocol`), so a packet's
    #: store row is one global identity all array kernels can index with.
    packet_store: "PacketStore" = field(default_factory=_default_packet_store)


class RoutingProtocol(abc.ABC):
    """Per-node routing protocol instance.

    Subclasses override the candidate-selection hooks; the base class
    provides buffer insertion with eviction, acknowledgment bookkeeping and
    hop-count tracking shared by every protocol.
    """

    #: Human-readable protocol name (overridden by subclasses).
    name: str = "base"
    #: Whether delivered-packet acknowledgments are flooded at meetings.
    uses_acks: bool = False
    #: Whether control metadata is charged against the transfer opportunity.
    counts_control_bytes: bool = False

    def __init__(self, node: Node, context: ProtocolContext) -> None:
        self.node = node
        self.context = context
        #: Identifier of the node this protocol instance runs on.
        self.node_id: int = node.node_id
        #: The node's packet buffer (:class:`~repro.dtn.buffer.NodeBuffer`).
        self.buffer = node.buffer
        # Share one structure-of-arrays packet store per simulation: all
        # buffers register into it, so any holder's array kernels can
        # index any packet's columns by its store row.
        self.buffer.attach_store(context.packet_store)
        #: Packet ids this node knows to have been delivered.
        self.acked: Set[int] = set()
        #: Hops traversed by the local replica of each buffered packet.
        self.hop_counts: Dict[int, int] = {}
        #: Drops due to storage pressure (reported per node).
        self.storage_drops: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(node={self.node_id})"

    # ------------------------------------------------------------------
    # Packet lifecycle
    # ------------------------------------------------------------------
    def on_packet_created(self, packet: Packet, now: float) -> bool:
        """Buffer a packet generated at this node; return True on success."""
        return self.insert_packet(packet, now, hop_count=0)

    def on_meeting_start(self, peer: "RoutingProtocol", now: float) -> None:
        """Called when a contact with *peer* opens (before any exchange).

        Called once per contact under every contact model, so protocol
        state (meeting-time estimators, delivery predictabilities, ...)
        updates the same way whether the contact has a window or not.
        """

    def exchange_control(self, peer: "RoutingProtocol", now: float, budget: TransferBudget) -> None:
        """Send control information (acks, metadata) from *self* to *peer*."""
        if self.uses_acks:
            self.send_acks(peer, budget)

    def send_acks(self, peer: "RoutingProtocol", budget: TransferBudget) -> None:
        """Flood delivered-packet acknowledgments to the peer.

        When acknowledgments are charged against the transfer opportunity,
        only whole ack entries that actually fit the remaining budget are
        transferred (and learned by the peer) — an exhausted opportunity
        carries no acks.  Acks are sent in packet-id order so the subset
        that fits is deterministic.
        """
        new_acks = self.acked - peer.acked
        if not new_acks:
            return
        if self.counts_control_bytes:
            entry_bytes = constants.RAPID_ACK_ENTRY_BYTES
            # metadata_capacity narrows to the contact window for
            # time-metered sessions, so the peer only learns acks whose
            # bytes actually fit before the cutoff.
            remaining = budget.metadata_capacity()
            if math.isinf(remaining):
                sendable = len(new_acks)
            else:
                sendable = min(len(new_acks), int(remaining // entry_bytes))
            if sendable <= 0:
                return
            budget.charge_metadata(sendable * entry_bytes)
        else:
            sendable = len(new_acks)
        peer.learn_acks(sorted(new_acks)[:sendable], now=None)

    def learn_ack(self, packet_id: int, now: Optional[float]) -> None:
        """Record that *packet_id* was delivered; purge the local replica."""
        self.learn_acks((packet_id,), now)

    def learn_acks(self, packet_ids: Sequence[int], now: Optional[float]) -> None:
        """Record that each of *packet_ids* was delivered; purge the local replicas.

        Senders pass the ids in packet-id order, so ``ack_learned``
        events come out in that order too.
        """
        tracer = self.context.tracer
        acked = self.acked
        held = self.buffer.by_id
        hop_counts = self.hop_counts
        for packet_id in packet_ids:
            if tracer is not None and packet_id not in acked:
                # Ack propagation: this node just learned of the delivery
                # (via a control exchange or by witnessing it).  The
                # recorder clock stamps the event — control exchanges do
                # not thread an explicit timestamp down to this hook.
                tracer.ack_learned(self.node_id, packet_id)
            acked.add(packet_id)
            if packet_id in held:
                self.buffer.remove(packet_id)
            hop_counts.pop(packet_id, None)

    def direct_delivery_order(self, peer_id: int, now: float) -> List[Packet]:
        """Packets destined to *peer_id*, in the order they should be sent."""
        return sorted(self.buffer.packets_for(peer_id), key=lambda p: p.creation_time)

    @abc.abstractmethod
    def replication_candidates(self, peer: "RoutingProtocol", now: float) -> Iterator[Packet]:
        """Yield buffered packets to replicate to *peer*, best first.

        The simulator stops pulling candidates when the transfer opportunity
        is exhausted; implementations therefore need not track bandwidth.
        Packets already present at the peer are filtered by the simulator,
        but implementations may skip them proactively for efficiency.
        """

    def accept_replica(self, packet: Packet, sender: "RoutingProtocol", now: float) -> bool:
        """Decide whether to accept (and store) an incoming replica."""
        packet_id = packet.packet_id
        if packet_id in self.acked or packet_id in self.buffer.by_id:
            return False
        return self.insert_packet(packet, now, hop_count=sender.hop_counts.get(packet_id, 0) + 1)

    def on_replica_sent(self, packet: Packet, peer: "RoutingProtocol", now: float) -> None:
        """Called after the simulator copies *packet* to *peer*."""

    def on_delivery(self, packet: Packet, now: float) -> None:
        """Called on both meeting participants when *packet* reaches its destination."""
        self.learn_acks((packet.packet_id,), now)

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------
    def insert_packet(self, packet: Packet, now: float, hop_count: int = 0) -> bool:
        """Insert a replica, evicting lower-priority packets if needed."""
        buffer = self.buffer
        if packet.packet_id in buffer.by_id:
            return False
        if packet.size > buffer.capacity - buffer.used_bytes and not self.make_room(packet, now):
            self.storage_drops += 1
            self.node.counters.packets_dropped += 1
            return False
        buffer.add(packet, now)
        self.hop_counts[packet.packet_id] = hop_count
        return True

    def make_room(self, incoming: Packet, now: float) -> bool:
        """Evict packets until *incoming* fits; return False when impossible.

        One call is one *eviction cascade*: victims are chosen one at a
        time until the incoming packet fits.  All bookkeeping for an
        evicted replica happens here, in one place — buffer entry, hop
        count, then the ``on_replica_evicted`` hook for protocol-side state
        (e.g. RAPID's replica metadata) — so the three can never disagree.
        """
        tracer = self.context.tracer
        buffer = self.buffer
        while incoming.size > buffer.capacity - buffer.used_bytes:
            victim = self.choose_eviction_victim(incoming, now)
            if victim is None:
                return False
            packet = buffer.remove(victim)
            self.hop_counts.pop(victim, None)
            self.storage_drops += 1
            self.node.counters.packets_dropped += 1
            self.on_replica_evicted(packet, now)
            if tracer is not None:
                tracer.packet_evicted(packet, self.node_id, now)
        return True

    def wipe_buffer(self, now: float) -> List[Packet]:
        """Drop every buffered replica (a node crash), returning the losses.

        Mirrors the eviction bookkeeping of :meth:`make_room` — buffer
        entry, hop count, then the ``on_replica_evicted`` hook — so
        protocol-side replica state (e.g. RAPID's metadata) stays
        consistent with the emptied buffer.  Crash losses are *not*
        storage drops: they are accounted by the fault subsystem
        (``replicas_lost_to_crashes``), not as storage pressure.
        Packets are wiped in sorted packet-id order so the loss sequence
        is deterministic.
        """
        wiped: List[Packet] = []
        for packet_id in sorted(self.buffer.packet_ids):
            packet = self.buffer.remove(packet_id)
            self.hop_counts.pop(packet_id, None)
            self.on_replica_evicted(packet, now)
            wiped.append(packet)
        return wiped

    def on_replica_evicted(self, packet: Packet, now: float) -> None:
        """Called after *packet* was evicted (buffer and hop count dropped)."""

    def choose_eviction_victim(self, incoming: Packet, now: float) -> Optional[int]:
        """Return the packet id to evict, or ``None`` to refuse *incoming*.

        The default policy drops a uniformly random relayed packet, never a
        packet sourced at this node (a source keeps its own packet until it
        is acknowledged, Section 3.4).  The one exception is when the
        incoming packet is itself sourced here and only own packets remain:
        refusing every new local packet would deadlock the source, so the
        oldest own packet is displaced instead.
        """
        recorder = self.context.decisions
        relayed = [
            p.packet_id
            for p in self.buffer
            if p.source != self.node_id and p.packet_id != incoming.packet_id
        ]
        if relayed:
            index = int(self.context.rng.integers(len(relayed)))
            if recorder is not None:
                recorder.eviction_choice(
                    self.node_id, now, self.name, incoming.packet_id,
                    candidates=relayed, score=[], victim=relayed[index],
                    reason="random_relayed",
                )
            return relayed[index]
        if incoming.source != self.node_id:
            if recorder is not None:
                recorder.eviction_choice(
                    self.node_id, now, self.name, incoming.packet_id,
                    candidates=[], score=[], victim=None,
                    reason="own_packets_protected" if len(self.buffer) else "no_candidates",
                )
            return None
        own = [
            p for p in self.buffer
            if p.packet_id != incoming.packet_id
        ]
        if not own:
            if recorder is not None:
                recorder.eviction_choice(
                    self.node_id, now, self.name, incoming.packet_id,
                    candidates=[], score=[], victim=None, reason="no_candidates",
                )
            return None
        oldest = min(own, key=lambda p: p.creation_time)
        if recorder is not None:
            recorder.eviction_choice(
                self.node_id, now, self.name, incoming.packet_id,
                candidates=[p.packet_id for p in own],
                score=[p.creation_time for p in own],
                victim=oldest.packet_id, reason="oldest_own_fallback",
            )
        return oldest.packet_id

    # ------------------------------------------------------------------
    # Utilities shared by subclasses
    # ------------------------------------------------------------------
    def transferable_packets(self, peer: "RoutingProtocol") -> List[Packet]:
        """Buffered packets that the peer does not already hold."""
        acked, held, destination = self.acked, peer.buffer.by_id, peer.node_id
        return [
            p
            for p in self.buffer.packets()
            if p.packet_id not in acked and p.packet_id not in held and p.destination != destination
        ]


class ProtocolFactory:
    """Creates one protocol instance per node, with fixed keyword options."""

    def __init__(self, protocol_cls: type, name: Optional[str] = None, **kwargs) -> None:
        if not issubclass(protocol_cls, RoutingProtocol):
            raise TypeError("protocol_cls must derive from RoutingProtocol")
        self.protocol_cls = protocol_cls
        self.kwargs = kwargs
        self._name = name or protocol_cls.name

    @property
    def name(self) -> str:
        """Registry name of the protocol this factory builds."""
        return self._name

    def create(self, node: Node, context: ProtocolContext) -> RoutingProtocol:
        """Instantiate the protocol for *node*."""
        return self.protocol_cls(node, context, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProtocolFactory({self._name})"
