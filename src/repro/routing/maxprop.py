"""MaxProp (Burgess et al., INFOCOM 2006).

MaxProp is the closest prior protocol to RAPID's operating point: it
assumes finite storage *and* bandwidth, replicates packets, floods
delivery acknowledgments, and ranks packets by an estimated delivery
likelihood.  The paper classifies it as *incidental* because the ranking
is not derived from any specific routing metric.

The implementation follows the MaxProp design:

* each node maintains incrementally averaged meeting probabilities to its
  peers, exchanged at every meeting;
* the cost of a path is the sum of ``1 - p`` over its hops; destination
  cost is the cheapest such path over the learned probability graph
  (one single-source Dijkstra per graph change, memoized until the next
  meeting or control exchange rewrites the graph);
* packets that have travelled fewer than ``hopcount_threshold`` hops are
  transmitted first (lowest hop count first) — the "head start" for new
  packets — and the remainder are ordered by increasing destination cost;
* buffer eviction removes packets from the tail of the same ordering
  (highest cost / most-travelled first);
* delivery acknowledgments are flooded and purge delivered packets.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Tuple

from .. import constants
from ..dtn.node import Node
from ..dtn.packet import Packet
from .base import ProtocolContext, RoutingProtocol, TransferBudget


class MaxPropProtocol(RoutingProtocol):
    """MaxProp with ack flooding and likelihood-ranked replication."""

    name = "maxprop"
    uses_acks = True

    def __init__(
        self,
        node: Node,
        context: ProtocolContext,
        hopcount_threshold: int = constants.MAXPROP_HOPCOUNT_THRESHOLD,
    ) -> None:
        super().__init__(node, context)
        if hopcount_threshold < 0:
            raise ValueError("hopcount_threshold must be non-negative")
        self.hopcount_threshold = hopcount_threshold
        self._path_costs: Optional[Dict[int, float]] = None
        self.meeting_probs = {}
        self.known_vectors = {}
        self._meetings_seen = 0

    @property
    def meeting_probs(self) -> Dict[int, float]:
        """Own incremental meeting probabilities, ``peer -> probability``."""
        return self._meeting_probs

    @meeting_probs.setter
    def meeting_probs(self, value: Dict[int, float]) -> None:
        self._meeting_probs = value
        self._path_costs = None

    @property
    def known_vectors(self) -> Dict[int, Dict[int, float]]:
        """Meeting-probability vectors learned from peers, ``node -> vector``."""
        return self._known_vectors

    @known_vectors.setter
    def known_vectors(self, value: Dict[int, Dict[int, float]]) -> None:
        self._known_vectors = value
        self._path_costs = None

    # ------------------------------------------------------------------
    # Meeting probability maintenance
    # ------------------------------------------------------------------
    def on_meeting_start(self, peer: RoutingProtocol, now: float) -> None:
        """Incremental averaging of meeting probabilities (MaxProp Section 4)."""
        self._meetings_seen += 1
        peer_id = peer.node_id
        self.meeting_probs[peer_id] = self.meeting_probs.get(peer_id, 0.0) + 1.0
        total = sum(self.meeting_probs.values())
        if total > 0:
            # Reassigning through the setter drops the path-cost memo.
            self.meeting_probs = {k: v / total for k, v in self.meeting_probs.items()}
        self.known_vectors[self.node_id] = dict(self.meeting_probs)

    def exchange_control(self, peer: RoutingProtocol, now: float, budget: TransferBudget) -> None:
        super().exchange_control(peer, now, budget)
        if isinstance(peer, MaxPropProtocol):
            # The peer learns this node's vectors (and everything it relayed).
            for owner, vector in self.known_vectors.items():
                peer.known_vectors[owner] = dict(vector)
            peer.known_vectors[self.node_id] = dict(self.meeting_probs)
            peer._path_costs = None

    # ------------------------------------------------------------------
    # Path cost estimation
    # ------------------------------------------------------------------
    def destination_cost(self, destination: int) -> float:
        """Cheapest known path cost to *destination* (sum of ``1 - p``)."""
        costs = self._path_costs
        if costs is None:
            costs = self._path_costs = self._shortest_path_costs()
        return costs.get(destination, float("inf"))

    def _shortest_path_costs(self) -> Dict[int, float]:
        """Single-source Dijkstra over the learned probability graph.

        Edge costs ``1 - p`` are non-negative, so a node's distance is
        final once popped and the full run yields exactly the floats an
        early exit at any destination would.
        """
        node_id = self.node_id
        own = self._meeting_probs
        vectors = self._known_vectors
        distances: Dict[int, float] = {node_id: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, node_id)]
        while heap:
            cost, node = heapq.heappop(heap)
            if cost > distances[node]:
                continue
            edges = own if node == node_id else vectors.get(node, {})
            for neighbor, prob in edges.items():
                edge_cost = 1.0 - min(max(prob, 0.0), 1.0)
                new_cost = cost + edge_cost
                if new_cost < distances.get(neighbor, float("inf")):
                    distances[neighbor] = new_cost
                    heapq.heappush(heap, (new_cost, neighbor))
        return distances

    # ------------------------------------------------------------------
    # Packet ordering
    # ------------------------------------------------------------------
    def _priority_order(self, packets: List[Packet]) -> List[Packet]:
        """MaxProp transmission order: new packets first, then by cost."""
        fresh: List[Tuple[int, float, Packet]] = []
        ranked: List[Tuple[float, Packet]] = []
        for packet in packets:
            hops = self.hop_counts.get(packet.packet_id, 0)
            cost = self.destination_cost(packet.destination)
            if hops < self.hopcount_threshold:
                fresh.append((hops, cost, packet))
            else:
                ranked.append((cost, packet))
        fresh.sort(key=lambda item: (item[0], item[1]))
        ranked.sort(key=lambda item: item[0])
        return [item[2] for item in fresh] + [item[1] for item in ranked]

    def replication_candidates(self, peer: RoutingProtocol, now: float) -> Iterator[Packet]:
        candidates = self.transferable_packets(peer)
        ordered = self._priority_order(candidates)
        recorder = self.context.decisions
        if recorder is not None and ordered:
            recorder.replication_rank(
                self.node_id, peer.node_id, now, self.name,
                candidates=[p.packet_id for p in ordered],
                score=[self.destination_cost(p.destination) for p in ordered],
                hops=[self.hop_counts.get(p.packet_id, 0) for p in ordered],
            )
        yield from ordered

    def direct_delivery_order(self, peer_id: int, now: float) -> List[Packet]:
        packets = self.buffer.packets_for(peer_id)
        return self._priority_order(packets)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def choose_eviction_victim(self, incoming: Packet, now: float) -> Optional[int]:
        """Drop from the tail of the priority order (worst likelihood first)."""
        recorder = self.context.decisions
        reason = "highest_cost"
        candidates = [
            p for p in self.buffer
            if p.packet_id != incoming.packet_id and p.source != self.node_id
        ]
        if not candidates:
            if incoming.source != self.node_id:
                if recorder is not None:
                    recorder.eviction_choice(
                        self.node_id, now, self.name, incoming.packet_id,
                        candidates=[], score=[], victim=None,
                        reason="own_packets_protected" if len(self.buffer) else "no_candidates",
                    )
                return None
            candidates = [p for p in self.buffer if p.packet_id != incoming.packet_id]
            if not candidates:
                if recorder is not None:
                    recorder.eviction_choice(
                        self.node_id, now, self.name, incoming.packet_id,
                        candidates=[], score=[], victim=None, reason="no_candidates",
                    )
                return None
            reason = "own_fallback_highest_cost"
        ordered = self._priority_order(candidates)
        if recorder is not None:
            recorder.eviction_choice(
                self.node_id, now, self.name, incoming.packet_id,
                candidates=[p.packet_id for p in ordered],
                score=[self.destination_cost(p.destination) for p in ordered],
                victim=ordered[-1].packet_id, reason=reason,
            )
        return ordered[-1].packet_id
