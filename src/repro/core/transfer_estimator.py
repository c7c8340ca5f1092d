"""Average transfer-opportunity size estimation (Algorithm 2, Step 3).

RAPID nodes locally compute the expected transfer opportunity (in bytes)
with every other node as a moving average of past transfers; the estimate
determines how many meetings are needed to flush the bytes queued ahead of
a packet.  A global average serves as a fallback for peers never met.
"""

from __future__ import annotations

from typing import Dict, Optional


class TransferSizeEstimator:
    """Exponentially weighted moving average of transfer-opportunity sizes."""

    def __init__(self, smoothing: float = 0.25, initial_estimate: Optional[float] = None) -> None:
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self._per_peer: Dict[int, float] = {}
        self._global: Optional[float] = initial_estimate
        self._observations = 0

    def record(self, peer_id: int, size_bytes: float) -> None:
        """Record a transfer opportunity of *size_bytes* with *peer_id*."""
        if size_bytes <= 0:
            return
        previous = self._per_peer.get(peer_id)
        if previous is None:
            self._per_peer[peer_id] = float(size_bytes)
        else:
            self._per_peer[peer_id] = (
                (1.0 - self.smoothing) * previous + self.smoothing * float(size_bytes)
            )
        if self._global is None:
            self._global = float(size_bytes)
        else:
            self._global = (1.0 - self.smoothing) * self._global + self.smoothing * float(size_bytes)
        self._observations += 1

    def expected_bytes_or_none(self, peer_id: Optional[int] = None) -> Optional[float]:
        """Expected transfer opportunity with *peer_id* (or overall) in bytes.

        Falls back to the global average when the peer has not been met,
        and is ``None`` before any observation at all: RAPID's delay
        estimate then lets the packet's own size stand in.
        """
        if peer_id is not None and peer_id in self._per_peer:
            return self._per_peer[peer_id]
        return self._global

    @property
    def observations(self) -> int:
        """Total number of recorded transfer opportunities."""
        return self._observations

    def snapshot(self) -> Dict[int, float]:
        """Copy of the per-peer averages (used for metadata exchange)."""
        return dict(self._per_peer)

    def merge_snapshot(self, snapshot: Dict[int, float]) -> None:
        """Merge a peer's averages for peers this node has never met."""
        for peer_id, value in snapshot.items():
            if peer_id not in self._per_peer and value > 0:
                self._per_peer[peer_id] = float(value)
