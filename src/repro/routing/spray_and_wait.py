"""Binary Spray and Wait (Spyropoulos et al., WDTN 2005).

The source creates ``L`` logical copies of each packet.  When a node
carrying ``c > 1`` copies meets a node without the packet, it hands over
``floor(c / 2)`` copies and keeps the rest (binary spraying).  A node left
with a single copy enters the *wait* phase and only delivers directly to
the destination.  The paper configures ``L = 12`` (Section 6.1, footnote 2).

Spray and Wait bounds replication but is agnostic to the routing metric:
it neither prioritises older packets nor accounts for bandwidth or storage
constraints, which is why RAPID outperforms it most visibly on the
maximum-delay metric.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

from .. import constants
from ..dtn.node import Node
from ..dtn.packet import Packet
from .base import ProtocolContext, RoutingProtocol


class SprayAndWaitProtocol(RoutingProtocol):
    """Binary Spray and Wait with a configurable copy budget ``L``."""

    name = "spray-and-wait"
    uses_acks = False

    def __init__(
        self,
        node: Node,
        context: ProtocolContext,
        copies: int = constants.SPRAY_AND_WAIT_COPIES,
    ) -> None:
        super().__init__(node, context)
        if copies < 1:
            raise ValueError("copies (L) must be at least 1")
        self.copies = copies
        #: Logical copy tokens held locally for each buffered packet.
        self.tokens: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_packet_created(self, packet: Packet, now: float) -> bool:
        created = super().on_packet_created(packet, now)
        if created:
            self.tokens[packet.packet_id] = self.copies
        return created

    def learn_acks(self, packet_ids: Sequence[int], now: Optional[float]) -> None:
        super().learn_acks(packet_ids, now)
        for packet_id in packet_ids:
            self.tokens.pop(packet_id, None)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def replication_candidates(self, peer: RoutingProtocol, now: float) -> Iterator[Packet]:
        candidates = [
            p for p in self.transferable_packets(peer) if self.tokens.get(p.packet_id, 1) > 1
        ]
        if not candidates:
            return
        # Spray and Wait does not prioritise older packets; offer copies in
        # a random order so no age class is systematically favoured.
        order = self.context.rng.permutation(len(candidates))
        for index in order:
            yield candidates[int(index)]

    def accept_replica(self, packet: Packet, sender: RoutingProtocol, now: float) -> bool:
        accepted = super().accept_replica(packet, sender, now)
        if accepted:
            if isinstance(sender, SprayAndWaitProtocol):
                sender_tokens = sender.tokens.get(packet.packet_id, 1)
                self.tokens[packet.packet_id] = max(1, sender_tokens // 2)
            else:
                self.tokens[packet.packet_id] = 1
        return accepted

    def on_replica_sent(self, packet: Packet, peer: RoutingProtocol, now: float) -> None:
        current = self.tokens.get(packet.packet_id, 1)
        handed_over = max(1, current // 2)
        self.tokens[packet.packet_id] = max(1, current - handed_over)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def choose_eviction_victim(self, incoming: Packet, now: float) -> Optional[int]:
        """Spray and Wait drops a uniformly random packet under pressure."""
        candidates = [p.packet_id for p in self.buffer if p.packet_id != incoming.packet_id]
        if not candidates:
            return None
        victim = candidates[int(self.context.rng.integers(len(candidates)))]
        return victim

    def make_room(self, incoming: Packet, now: float) -> bool:
        fits = super().make_room(incoming, now)
        return fits
