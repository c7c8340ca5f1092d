"""Inter-node meeting-time estimation (Section 4.1.2).

Every node tabulates the average time between its own meetings with every
other node, exchanges this table as metadata, and combines everything it
has learned into a meeting-time adjacency matrix.  The expected time for
node ``X`` to reach node ``Z`` is then the cheapest path in that matrix
using at most ``h`` hops (the paper uses ``h = 3``); nodes unreachable
within ``h`` hops are assigned an infinite expected meeting time.

The matrix is kept up to date in place: a recorded meeting or a merged
table refreshes only the pairs whose entries it touched, and the h-hop
search reruns lazily, on the next query after an edge actually moved.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import constants


class MeetingTimeEstimator:
    """Tracks mean inter-meeting times and computes h-hop expected delays."""

    def __init__(self, node_id: int, max_hops: int = constants.RAPID_MEETING_HOPS) -> None:
        if max_hops < 1:
            raise ValueError("max_hops must be at least 1")
        self.node_id = node_id
        self.max_hops = max_hops
        #: Mean direct inter-meeting time observed by ``owner`` towards ``peer``.
        self._tables: Dict[int, Dict[int, float]] = {node_id: {}}
        #: Last time this node met each peer (for gap computation).
        self._last_meeting: Dict[int, float] = {}
        #: Number of gaps averaged per peer.
        self._gap_counts: Dict[int, int] = {}
        self._version = 0
        #: Symmetrised adjacency: ``min`` of the positive entries of both
        #: directions of each pair, kept current pair by pair as tables change.
        self._adjacency: Dict[int, Dict[int, float]] = {}
        self._cache: Dict[int, float] = {}
        self._stale = False

    # ------------------------------------------------------------------
    # Local observations
    # ------------------------------------------------------------------
    def record_meeting(self, peer_id: int, now: float) -> None:
        """Record a meeting with *peer_id* at time *now*."""
        own = self._tables[self.node_id]
        last = self._last_meeting.get(peer_id)
        if last is None:
            # First meeting: use the elapsed time since the start of the
            # experiment as a coarse first estimate of the meeting interval.
            initial = max(now, 1.0)
            own[peer_id] = initial
            self._gap_counts[peer_id] = 1
        else:
            gap = max(now - last, 1e-6)
            count = self._gap_counts.get(peer_id, 0)
            previous = own.get(peer_id, gap)
            own[peer_id] = (previous * count + gap) / (count + 1)
            self._gap_counts[peer_id] = count + 1
        self._last_meeting[peer_id] = now
        self._version += 1
        self._refresh_pair(self.node_id, peer_id)

    # ------------------------------------------------------------------
    # Metadata exchange
    # ------------------------------------------------------------------
    def own_table(self) -> Dict[int, float]:
        """The table of this node's direct mean meeting times (a copy)."""
        return dict(self._tables[self.node_id])

    def known_tables(self) -> Dict[int, Dict[int, float]]:
        """Every table known to this node, keyed by owner (copies)."""
        return {owner: dict(table) for owner, table in self._tables.items()}

    def merge_table(self, owner: int, table: Dict[int, float]) -> None:
        """Incorporate the meeting-time table reported by *owner*."""
        if owner == self.node_id:
            return
        current = self._tables.get(owner)
        if current == table:
            return
        self._tables[owner] = dict(table)
        self._version += 1
        for peer in table.keys() | (current or {}).keys():
            self._refresh_pair(owner, peer)

    def merge_from(self, other: "MeetingTimeEstimator") -> None:
        """Incorporate everything *other* knows (used at metadata exchange)."""
        for owner, table in other._tables.items():
            if owner != self.node_id:
                self.merge_table(owner, table)

    def table_size_entries(self) -> int:
        """Number of adjacency entries known (for metadata byte accounting)."""
        return sum(len(table) for table in self._tables.values())

    # ------------------------------------------------------------------
    # Expected meeting times
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter incremented whenever any table entry changes."""
        return self._version

    def _refresh_pair(self, a: int, b: int) -> None:
        """Re-derive the ``a``–``b`` edge from both tables' entries for it.

        The edge is the smaller positive entry of the two directions; it
        is dropped when neither direction has one.  A moved edge marks
        the cached search stale.
        """
        best = float("inf")
        for owner, peer in ((a, b), (b, a)):
            mean_time = self._tables.get(owner, {}).get(peer)
            if mean_time is not None and 0 < mean_time < best:
                best = mean_time
        edges_a = self._adjacency.setdefault(a, {})
        edges_b = self._adjacency.setdefault(b, {})
        if best < float("inf"):
            if edges_a.get(b) != best:
                edges_a[b] = edges_b[a] = best
                self._stale = True
        elif b in edges_a:
            del edges_a[b]
            edges_b.pop(a, None)
            self._stale = True

    def _recompute(self) -> None:
        """Bellman-Ford limited to ``max_hops`` edges from this node."""
        adjacency = self._adjacency
        distances: Dict[int, float] = {self.node_id: 0.0}
        frontier = dict(distances)
        for _ in range(self.max_hops):
            next_frontier: Dict[int, float] = {}
            for node, dist in frontier.items():
                for neighbor, mean_time in adjacency.get(node, {}).items():
                    candidate = dist + mean_time
                    if candidate < distances.get(neighbor, float("inf")):
                        distances[neighbor] = candidate
                        next_frontier[neighbor] = candidate
            if not next_frontier:
                break
            frontier = next_frontier
        self._cache = distances
        self._stale = False

    def expected_meeting_time(self, destination: int) -> float:
        """``E(M_XZ)``: expected time for this node to reach *destination*.

        Returns :data:`~repro.constants.NEVER_MEET` (infinity) when the
        destination is unreachable within ``max_hops`` hops.
        """
        if destination == self.node_id:
            return 0.0
        if self._stale:
            self._recompute()
        return self._cache.get(destination, constants.NEVER_MEET)

    def direct_mean(self, peer_id: int) -> Optional[float]:
        """Mean direct inter-meeting time with *peer_id*, if observed."""
        return self._tables[self.node_id].get(peer_id)

