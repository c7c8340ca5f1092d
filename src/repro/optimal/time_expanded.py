"""Earliest-arrival analysis over the time-expanded meeting graph.

Ignoring bandwidth and storage contention, the earliest a packet can reach
its destination is found by sweeping meetings in time order and tracking
the earliest time each node can possess the packet.  This is a *lower
bound* on every protocol's delivery delay (and an upper bound on what any
protocol can deliver), it is exact when contention is negligible (the
small loads of Figure 13), and it is cheap enough to run at any scale.

A networkx time-expanded graph builder is also provided for path
extraction and for users who want to run other graph algorithms on the
same structure.  networkx is imported by the builder and the path lookup
only, so the earliest-arrival sweep never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..dtn.packet import Packet
from ..mobility.schedule import MeetingSchedule

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class EarliestArrival:
    """Earliest possible delivery of one packet, ignoring contention."""

    packet: Packet
    delivery_time: Optional[float]

    @property
    def delivered(self) -> bool:
        return self.delivery_time is not None

    def delay(self, horizon: float) -> float:
        """Delay, counting undelivered packets as in-system until *horizon*."""
        if self.delivery_time is None:
            return max(0.0, horizon - self.packet.creation_time)
        return self.delivery_time - self.packet.creation_time


def earliest_arrival(schedule: MeetingSchedule, packet: Packet) -> EarliestArrival:
    """Earliest time *packet* could reach its destination over *schedule*."""
    possession: Dict[int, float] = {packet.source: packet.creation_time}
    destination = packet.destination
    for meeting in schedule:
        if meeting.time < packet.creation_time:
            continue
        if destination in possession and possession[destination] <= meeting.time:
            break
        time_a = possession.get(meeting.node_a)
        time_b = possession.get(meeting.node_b)
        if time_a is not None and time_a <= meeting.time:
            if time_b is None or time_b > meeting.time:
                possession[meeting.node_b] = meeting.time
        if time_b is not None and time_b <= meeting.time:
            if time_a is None or time_a > meeting.time:
                possession[meeting.node_a] = meeting.time
    delivery = possession.get(destination)
    if delivery is not None and delivery < packet.creation_time:
        delivery = packet.creation_time
    return EarliestArrival(packet=packet, delivery_time=delivery)


def earliest_arrival_all(
    schedule: MeetingSchedule, packets: Sequence[Packet]
) -> List[EarliestArrival]:
    """Earliest arrivals for every packet (independent, contention-free)."""
    return [earliest_arrival(schedule, packet) for packet in packets]


@dataclass
class TimeExpandedGraph:
    """A time-expanded graph of the meeting schedule.

    Nodes are ``(node_id, time)`` pairs; *waiting* edges connect consecutive
    times at the same node and *transfer* edges connect the two endpoints
    of each meeting at the meeting time.  Edge attribute ``capacity`` holds
    the transfer-opportunity size for transfer edges.
    """

    graph: nx.DiGraph
    times: List[float] = field(default_factory=list)

    def earliest_path(self, source: int, destination: int, start_time: float) -> Optional[List[Tuple[int, float]]]:
        """A time-respecting path from *source* to *destination*, if any."""
        import networkx as nx

        candidates = [t for t in self.times if t >= start_time]
        if not candidates:
            return None
        entry = (source, candidates[0])
        if entry not in self.graph:
            return None
        targets = [
            (destination, t) for t in candidates if (destination, t) in self.graph
        ]
        for target in targets:
            if nx.has_path(self.graph, entry, target):
                return nx.shortest_path(self.graph, entry, target)
        return None


def build_time_expanded_graph(schedule: MeetingSchedule) -> TimeExpandedGraph:
    """Build the time-expanded graph of *schedule*."""
    import networkx as nx

    times = sorted({meeting.time for meeting in schedule})
    graph = nx.DiGraph()
    for node in schedule.nodes:
        previous = None
        for time in times:
            current = (node, time)
            graph.add_node(current)
            if previous is not None:
                graph.add_edge(previous, current, kind="wait", capacity=float("inf"))
            previous = current
    for meeting in schedule:
        a = (meeting.node_a, meeting.time)
        b = (meeting.node_b, meeting.time)
        graph.add_edge(a, b, kind="transfer", capacity=meeting.capacity)
        graph.add_edge(b, a, kind="transfer", capacity=meeting.capacity)
    return TimeExpandedGraph(graph=graph, times=times)
