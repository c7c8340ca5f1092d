"""Reference RAPID delay estimation, ranking and eviction scoring.

The test oracle for RAPID's Estimate Delay step (Section 4.1, with
Algorithm 2's oldest-first serve order for ``b(i)``) and for the scoring
built on it.  Production answers these from a serve-order index, a
one-pass delay loop, a lazy heap and array kernels; the reference
computes every value the way the paper states it, one packet at a time:

* ``b(i)`` by the O(buffer) scan ``NodeBuffer._bytes_ahead_scan``, for
  single queries and batches alike;
* ``d(i) = E(M) * max(ceil((b + s) / B), 1)`` in full, with no
  queued-bytes shortcut;
* the per-holder delay pass as one such estimate per packet, which also
  serves ``buffer_delay_estimates`` and the in-band buffer-state send;
* replication ranking by the per-packet scoring loop, eagerly sorted;
* eviction by the per-packet scoring loop.

:func:`reference_paths` swaps these in for the duration of a ``with``
block, so a test runs the same simulation both ways and compares the
outputs byte for byte.  The per-packet scoring loops and the scan are
production code (the global control channel and out-of-order queries
use them); the oracle calls them rather than copying them.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.rapid import RapidProtocol
from repro.dtn.buffer import NodeBuffer
from repro.dtn.packet import Packet


def _bytes_ahead_of(self: NodeBuffer, packet: Packet, now: float) -> int:
    return self._bytes_ahead_scan(packet, now)


def _bytes_ahead_batch(self: NodeBuffer, packets: Sequence[Packet], now: float) -> np.ndarray:
    return np.array([self._bytes_ahead_scan(packet, now) for packet in packets], dtype=np.float64)


def _own_delay_estimate(self: RapidProtocol, packet: Packet, now: float) -> float:
    destination = packet.destination
    meeting = self.meetings.expected_meeting_time(destination)
    transfer = self.transfer_sizes.expected_bytes_or_none(destination)
    if transfer is None:
        transfer = packet.size
    if transfer > 0:
        meetings = math.ceil((self.buffer.bytes_ahead_of(packet, now) + packet.size) / transfer)
        if meetings > 1:
            return meeting * meetings
    return meeting


def _direct_delays_for_holder(
    self: RapidProtocol, holder: RapidProtocol, packets: Sequence[Packet], now: float
) -> np.ndarray:
    return np.array(
        [holder.own_delay_estimate(packet, now) for packet in packets], dtype=np.float64
    )


def _candidate_scores(
    self: RapidProtocol, peer: RapidProtocol, now: float
) -> List[Tuple[Tuple[int, float], int, Packet]]:
    return self._per_packet_candidate_scores(peer, self.transferable_packets(peer), now)


def ranked_candidates(
    protocol: RapidProtocol, peer: RapidProtocol, now: float
) -> List[Tuple[Tuple[int, float], Packet]]:
    """*protocol*'s candidates for *peer*, eagerly sorted by decreasing rank.

    The stable sort keeps candidate order among equal ranks, which the
    production lazy heap reproduces through its index tie-break.
    """
    ranked = [(rank, packet) for rank, _, packet in protocol._candidate_scores(peer, now)]
    ranked.sort(key=lambda item: item[0], reverse=True)
    return ranked


def _replication_candidates(
    self: RapidProtocol, peer: RapidProtocol, now: float
) -> Iterator[Packet]:
    if not isinstance(peer, RapidProtocol):
        return
    if self._use_oracle:
        self._purge_globally_acked(now)
    for _, packet in ranked_candidates(self, peer, now):
        yield packet


def _eviction_scores(
    self: RapidProtocol, candidates: List[Packet], now: float
) -> Tuple[List[float], int]:
    return self._per_packet_eviction_scores(candidates, now)


#: ``(class, attribute, reference)`` for every swapped method.
REFERENCE_METHODS = (
    (NodeBuffer, "bytes_ahead_of", _bytes_ahead_of),
    (NodeBuffer, "bytes_ahead_batch", _bytes_ahead_batch),
    (RapidProtocol, "own_delay_estimate", _own_delay_estimate),
    (RapidProtocol, "_direct_delays_for_holder", _direct_delays_for_holder),
    (RapidProtocol, "_candidate_scores", _candidate_scores),
    (RapidProtocol, "replication_candidates", _replication_candidates),
    (RapidProtocol, "_eviction_scores", _eviction_scores),
)


@contextlib.contextmanager
def reference_paths() -> Iterator[None]:
    """Run RAPID on the reference methods inside the ``with`` block.

    Every swapped attribute is restored on exit, also when the block
    raises.
    """
    originals = [(cls, name, cls.__dict__[name]) for cls, name, _ in REFERENCE_METHODS]
    try:
        for cls, name, reference in REFERENCE_METHODS:
            setattr(cls, name, reference)
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
