"""The RAPID routing protocol (Sections 3 and 4).

RAPID treats DTN routing as a resource allocation problem: the configured
routing metric is translated into a per-packet utility, and at every
transfer opportunity packets are replicated in decreasing order of
marginal utility per byte.  The protocol has three components, all
implemented here or in sibling modules:

* the **selection algorithm** (Protocol RAPID, Section 3.4):
  :meth:`RapidProtocol.direct_delivery_order` and
  :meth:`RapidProtocol.replication_candidates`;
* the **inference algorithm** (Estimate Delay, Section 4.1):
  :mod:`repro.core.delay` fed with per-replica state from the metadata
  store, meeting-time estimator and transfer-size estimator;
* the **control channel** (Section 4.2): :mod:`repro.core.control`.
"""

from __future__ import annotations

import heapq
import math
import weakref
from typing import Dict, Iterator, List, MutableMapping, Optional, Sequence, Set, Tuple

import numpy as np

from .. import constants
from ..dtn.node import Node
from ..dtn.packet import Packet
from ..profiling import slow_reference_mode
from ..routing.base import ProtocolContext, RoutingProtocol, TransferBudget
from . import delay as delay_module
from .control import ControlChannel, GlobalControlChannel, make_channel
from .meeting_estimator import MeetingTimeEstimator
from .metadata import MetadataStore
from .transfer_estimator import TransferSizeEstimator
from .utility import (
    AverageDelayMetric,
    DeadlineMetric,
    MaximumDelayMetric,
    UtilityMetric,
    make_metric,
)

#: Keys used in the shared protocol context options.
_REGISTRY_KEY = "rapid_registry"
_GLOBAL_ACKS_KEY = "rapid_global_acks"

#: Marginal utilities below this threshold do not justify replication.
_MIN_MARGINAL_UTILITY = 1e-12


class RapidProtocol(RoutingProtocol):
    """Per-node RAPID instance.

    Args:
        node: The node this instance controls.
        context: Shared per-simulation context.
        metric: Routing metric name (``average_delay``, ``deadline`` or
            ``max_delay``) or a ready :class:`UtilityMetric` instance.
        control_channel: ``in-band`` (default), ``local``, ``global`` or
            ``none``; or a ready :class:`ControlChannel` instance.
        metadata_fraction_cap: Optional cap on metadata as a fraction of
            each transfer opportunity (Figure 8).
        max_hops: Horizon ``h`` for expected meeting-time estimation
            (Section 4.1.2; the paper uses 3).
        default_deadline: Deadline (seconds) applied by the deadline metric
            to packets that carry none of their own.
    """

    name = "rapid"
    uses_acks = True

    def __init__(
        self,
        node: Node,
        context: ProtocolContext,
        metric: object = "average_delay",
        control_channel: object = "in-band",
        metadata_fraction_cap: Optional[float] = None,
        max_hops: int = constants.RAPID_MEETING_HOPS,
        default_deadline: Optional[float] = None,
        planning_horizon: Optional[float] = None,
        metadata_byte_scale: float = 1.0,
    ) -> None:
        super().__init__(node, context)
        self.metric = self._resolve_metric(metric, default_deadline)
        if planning_horizon is not None:
            self.metric.set_horizon(planning_horizon)
        self.planning_horizon = planning_horizon
        self.channel = self._resolve_channel(
            control_channel, metadata_fraction_cap, metadata_byte_scale
        )
        self.counts_control_bytes = self.channel.counts_bytes

        self.meetings = MeetingTimeEstimator(node.node_id, max_hops=max_hops)
        self.transfer_sizes = TransferSizeEstimator()
        self.metadata = MetadataStore()
        self.last_metadata_exchange: Dict[int, float] = {}
        #: Per peer, the last delivery-delay estimate sent for each packet —
        #: used by the in-band channel to send only changed information
        #: (Section 4.2: "only sends information about packets whose
        #: information changed since the last exchange").
        self.sent_buffer_estimates: Dict[int, Dict[int, float]] = {}
        #: Per peer, the meeting-table version last shared (delta encoding).
        self.sent_table_versions: Dict[int, int] = {}

        self._use_oracle = isinstance(self.channel, GlobalControlChannel)
        #: ``REPRO_SLOW_ESTIMATES=1`` selects the reference (pre-incremental)
        #: ranking and eviction paths; output must match the fast path bit
        #: for bit, which the golden tests assert.
        self._slow_reference = slow_reference_mode()
        # Weak values: the registry sits in the context every instance
        # holds, so strong values would make each simulation's protocols
        # (and their metadata columns) a reference cycle that outlives the
        # run until the cyclic collector happens to run.
        registry: MutableMapping[int, "RapidProtocol"] = context.options.setdefault(
            _REGISTRY_KEY, weakref.WeakValueDictionary()
        )
        registry[self.node_id] = self
        self._registry = registry
        self._global_acks: Set[int] = context.options.setdefault(_GLOBAL_ACKS_KEY, set())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_metric(metric: object, default_deadline: Optional[float]) -> UtilityMetric:
        if isinstance(metric, UtilityMetric):
            return metric
        if metric == DeadlineMetric.name or metric in ("missed_deadlines",):
            return make_metric("deadline", default_deadline=default_deadline)
        resolved = make_metric(str(metric))
        if isinstance(resolved, DeadlineMetric) and default_deadline is not None:
            resolved.default_deadline = default_deadline
        return resolved

    @staticmethod
    def _resolve_channel(
        channel: object, fraction_cap: Optional[float], byte_scale: float = 1.0
    ) -> ControlChannel:
        if isinstance(channel, ControlChannel):
            return channel
        return make_channel(str(channel), fraction_cap=fraction_cap, byte_scale=byte_scale)

    @property
    def _vector_rank(self) -> bool:
        """Whether the whole-meeting array kernels apply to this metric.

        Only the plain average-delay metric (the default) has exact
        vectorised counterparts of its fold; other metrics, subclasses and
        wrapped/instrumented metrics keep the scalar scoring so customised
        utilities cannot silently diverge from the kernels.  Evaluated per
        call because tests (and callers) may swap ``self.metric`` at run
        time.
        """
        return type(self.metric) is AverageDelayMetric

    # ------------------------------------------------------------------
    # Delay estimation (the inference algorithm)
    # ------------------------------------------------------------------
    def own_delay_estimate(self, packet: Packet, now: float) -> float:
        """This node's direct-delivery delay estimate ``d_X(i)``."""
        expected_meeting = self.meetings.expected_meeting_time(packet.destination)
        bytes_ahead = self.buffer.bytes_ahead_of(packet, now)
        expected_transfer = self.transfer_sizes.expected_bytes(
            packet.destination, default=float(packet.size)
        )
        return delay_module.direct_delivery_delay(
            expected_meeting, bytes_ahead, packet.size, expected_transfer
        )

    def _estimate_for_holder(self, holder: "RapidProtocol", packet: Packet, now: float) -> float:
        """Delay estimate for *packet* if held (or newly received) by *holder*."""
        expected_meeting = holder.meetings.expected_meeting_time(packet.destination)
        bytes_ahead = holder.buffer.bytes_ahead_of(packet, now)
        expected_transfer = holder.transfer_sizes.expected_bytes(
            packet.destination, default=float(packet.size)
        )
        return delay_module.direct_delivery_delay(
            expected_meeting, bytes_ahead, packet.size, expected_transfer
        )

    def replica_delays(self, packet: Packet, now: float) -> List[float]:
        """Per-replica delay estimates for every replica this node knows of."""
        if self._use_oracle:
            estimates = []
            for holder in self._registry.values():
                if packet.packet_id in holder.buffer:
                    estimates.append(self._estimate_for_holder(holder, packet, now))
            if not estimates and packet.packet_id in self.buffer:
                estimates.append(self.own_delay_estimate(packet, now))
            return estimates

        estimates: List[float] = []
        if packet.packet_id in self.buffer:
            estimates.append(self.own_delay_estimate(packet, now))
        estimates.extend(self.metadata.estimates(packet.packet_id, self.node_id))
        return estimates

    def expected_remaining_delay(self, packet: Packet, now: float) -> float:
        """``A(i)``: expected remaining delay considering all known replicas."""
        return delay_module.combined_remaining_delay(self.replica_delays(packet, now))

    def expected_delay(self, packet: Packet, now: float) -> float:
        """``D(i) = T(i) + A(i)``."""
        return packet.age(now) + self.expected_remaining_delay(packet, now)

    def packet_utility(self, packet: Packet, now: float) -> float:
        """``U_i`` under the configured metric."""
        return self.metric.utility(packet, self.expected_remaining_delay(packet, now), now)

    def peer_delay_estimate(self, packet: Packet, peer: "RapidProtocol", now: float) -> float:
        """Estimate ``d_Y(i)`` if *packet* were replicated to *peer* now."""
        return self._estimate_for_holder(peer, packet, now)

    def marginal_utility(self, packet: Packet, peer: "RapidProtocol", now: float) -> float:
        """``dU_i`` of replicating *packet* to *peer*."""
        delays_before = self.replica_delays(packet, now)
        extra = self.peer_delay_estimate(packet, peer, now)
        return self.metric.marginal_utility(packet, delays_before, extra, now)

    # ------------------------------------------------------------------
    # Protocol RAPID step 1: metadata / control exchange
    # ------------------------------------------------------------------
    def on_meeting_start(self, peer: RoutingProtocol, now: float) -> None:
        self.meetings.record_meeting(peer.node_id, now)
        if self._use_oracle:
            self._purge_globally_acked(now)

    def exchange_control(self, peer: RoutingProtocol, now: float, budget: TransferBudget) -> None:
        self.transfer_sizes.record(peer.node_id, budget.capacity)
        if isinstance(peer, RapidProtocol):
            self.channel.exchange(self, peer, now, budget)

    def _purge_globally_acked(self, now: float) -> None:
        for packet_id in list(self._global_acks):
            if packet_id in self.buffer or packet_id in self.metadata:
                self.learn_ack(packet_id, now)

    # ------------------------------------------------------------------
    # Protocol RAPID step 2: direct delivery
    # ------------------------------------------------------------------
    def direct_delivery_order(self, peer_id: int, now: float) -> List[Packet]:
        return sorted(
            self.buffer.packets_for(peer_id),
            key=lambda p: self.metric.direct_delivery_key(p, now),
            reverse=True,
        )

    # ------------------------------------------------------------------
    # Protocol RAPID step 3: replication in marginal-utility order
    # ------------------------------------------------------------------
    def replication_candidates(self, peer: RoutingProtocol, now: float) -> Iterator[Packet]:
        if not isinstance(peer, RapidProtocol):
            return
        if self._use_oracle:
            self._purge_globally_acked(now)

        if self._slow_reference:
            for _, packet in self._ranked_candidates(peer, now):
                yield packet
            return

        # Lazy heap: scoring every candidate is unavoidable (the rank is a
        # total order over all of them), but the full O(n log n) sort is
        # not — the simulator usually pulls only the few candidates that
        # fit the transfer opportunity.  The heap key reproduces the eager
        # sort's exact total order: descending (improves, key), ties by
        # candidate position (= the stable sort's insertion order).
        heap = [
            (-rank[0], -rank[1], index, packet)
            for rank, index, packet in self._candidate_scores(peer, now)
        ]
        heapq.heapify(heap)
        while heap:
            yield heapq.heappop(heap)[3]

    def _ranked_candidates(
        self, peer: "RapidProtocol", now: float
    ) -> List[Tuple[Tuple[int, float], Packet]]:
        """Candidates eagerly ranked for replication (reference path).

        Packets are ordered by decreasing marginal utility per byte (the
        selection algorithm of Section 3.4).  Packets whose replication
        cannot improve the metric at all — e.g. the peer cannot reach the
        destination within ``h`` hops, or the deadline has already passed —
        are not dropped but pushed to the very end of the order: the cutoff
        the paper describes emerges from the limited transfer opportunity,
        not from an explicit filter.
        """
        ranked = [(rank, packet) for rank, _, packet in self._candidate_scores(peer, now)]
        ranked.sort(key=lambda item: item[0], reverse=True)
        return ranked

    def _candidate_scores(
        self, peer: "RapidProtocol", now: float
    ) -> List[Tuple[Tuple[int, float], int, Packet]]:
        """Score every transferable candidate: ``((improves, key), index, packet)``.

        Both ranking paths share this scoring; they differ only in how the
        order is materialised (eager sort vs. lazy heap).  The fast path
        computes each participant's direct-delivery delays for all
        candidates in one pass (:meth:`_direct_delays_for_holder`); the
        reference path (``REPRO_SLOW_ESTIMATES=1``) and the global-channel
        oracle — whose per-replica estimates depend on every holder's live
        buffer — use the original per-packet scalar calls.
        """
        candidates = self.transferable_packets(peer)
        use_max_delay = isinstance(self.metric, MaximumDelayMetric)
        scored: List[Tuple[Tuple[int, float], int, Packet]] = []
        marginals: List[float] = []
        if self._slow_reference or self._use_oracle or not candidates:
            for index, packet in enumerate(candidates):
                delays_before = self.replica_delays(packet, now)
                extra = self.peer_delay_estimate(packet, peer, now)
                rank, marginal = self._rank_key(
                    packet, delays_before, extra, now, use_max_delay
                )
                scored.append((rank, index, packet))
                marginals.append(marginal)
            self._audit_replication_rank(peer, now, candidates, scored, marginals)
            return scored

        own_delays = self._direct_delays_for_holder(self, candidates, now)
        peer_delays = self._direct_delays_for_holder(peer, candidates, now)
        if self._vector_rank:
            # Whole-meeting array kernel: fold the per-replica rates, the
            # before/after combined delays and the marginal utilities for
            # every candidate in a handful of numpy passes.  Each element
            # is bit-identical to the scalar rank (the golden tests hold
            # the fast path to the REPRO_SLOW_ESTIMATES=1 reference).
            rate, degenerate = self._fold_replica_rates(candidates, own_delays)
            before = delay_module.combined_remaining_delay_array(rate, degenerate)
            rate_after, degenerate_after = delay_module.fold_extra_delay(
                rate, degenerate, peer_delays
            )
            after = delay_module.combined_remaining_delay_array(
                rate_after, degenerate_after
            )
            marginal = self.metric.marginal_utility_array(before, after, now)
            improves = marginal > _MIN_MARGINAL_UTILITY
            store = self.buffer.store
            rows = store.rows_for(candidates)
            ages = np.maximum(0.0, now - store.creation_times[rows])
            keys = np.where(improves, marginal / store.sizes[rows], ages)
            recorder = self.context.decisions
            if recorder is not None:
                # The kernel outputs are handed over wholesale (one
                # tolist() each inside the recorder) — the audit adds no
                # per-candidate arithmetic to the scoring pass.
                recorder.replication_rank(
                    self.node_id,
                    peer.node_id,
                    now,
                    self.name,
                    candidates=[p.packet_id for p in candidates],
                    score=keys,
                    marginal=marginal,
                    improves=improves,
                )
            return [
                ((1 if improves[index] else 0, keys[index]), index, packet)
                for index, packet in enumerate(candidates)
            ]

        for index, packet in enumerate(candidates):
            delays_before: List[float] = [float(own_delays[index])]
            delays_before.extend(self.metadata.estimates(packet.packet_id, self.node_id))
            extra = float(peer_delays[index])
            rank, marginal = self._rank_key(packet, delays_before, extra, now, use_max_delay)
            scored.append((rank, index, packet))
            marginals.append(marginal)
        self._audit_replication_rank(peer, now, candidates, scored, marginals)
        return scored

    def _audit_replication_rank(
        self,
        peer: "RapidProtocol",
        now: float,
        candidates: Sequence[Packet],
        scored: List[Tuple[Tuple[int, float], int, Packet]],
        marginals: Sequence[float],
    ) -> None:
        """Record one scalar-path ranking pass in the decision audit.

        The vector-kernel branch emits directly from its arrays; the
        scalar branches (slow reference, oracle, non-average-delay
        metrics) go through this helper so every path produces the same
        event: candidates, score, marginal and improves.
        """
        recorder = self.context.decisions
        if recorder is None or not candidates:
            return
        recorder.replication_rank(
            self.node_id,
            peer.node_id,
            now,
            self.name,
            candidates=[p.packet_id for p in candidates],
            score=[rank[1] for rank, _, _ in scored],
            marginal=marginals,
            improves=[bool(rank[0]) for rank, _, _ in scored],
        )

    def _direct_delays_for_holder(
        self, holder: "RapidProtocol", packets: Sequence[Packet], now: float
    ) -> np.ndarray:
        """``d_holder(i) = E(M) * max(ceil((b + s) / B), 1)`` for every packet.

        One pass over the packets.  The holder's ``(E(M_XZ), B_X(Z))``
        depend only on the destination, so they are looked up once per
        distinct destination; the queue positions ``b`` come from one
        ``bytes_ahead_batch`` call.  Element ``k`` equals the scalar
        :meth:`own_delay_estimate` chain bit for bit: the same quotient,
        ceil and product, an infinite ``E(M)`` multiplying through to
        :data:`~repro.constants.NEVER_MEET`, the packet's own size standing
        in for a missing transfer estimate and one meeting for ``B <= 0``.
        """
        meeting_time = holder.meetings.expected_meeting_time
        transfer_bytes = holder.transfer_sizes.expected_bytes_or_none
        ceil = math.ceil
        per_destination: Dict[int, Tuple[float, Optional[float]]] = {}
        delays: List[float] = []
        append = delays.append
        ahead = holder.buffer.bytes_ahead_batch(packets, now).tolist()
        for packet, bytes_ahead in zip(packets, ahead):
            destination = packet.destination
            if destination in per_destination:
                meeting, transfer = per_destination[destination]
            else:
                meeting, transfer = per_destination[destination] = (
                    meeting_time(destination),
                    transfer_bytes(destination),
                )
            size = packet.size
            if transfer is None:
                transfer = size
            if transfer > 0:
                meetings = ceil((bytes_ahead + size) / transfer)
                append(meeting * (meetings if meetings > 1 else 1))
            else:
                append(meeting)
        return np.array(delays, dtype=np.float64)

    def _fold_replica_rates(
        self, packets: Sequence[Packet], own_delays: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold ``[own, *metadata replicas]`` delivery rates per packet.

        The own delays go first and every packet's other holders follow
        in holder order, so the one sequential sum reproduces the scalar
        :func:`~repro.core.delay.delivery_rate` left fold bit for bit.
        """
        rows, others = self.metadata.replica_estimates(
            [packet.packet_id for packet in packets], self.node_id
        )
        count = len(own_delays)
        return delay_module.delivery_rate_sum(
            np.concatenate((own_delays, others)),
            np.concatenate((np.arange(count), rows)),
            count,
        )

    def buffer_delay_estimates(self, now: float) -> np.ndarray:
        """Own direct-delivery delay estimates for every buffered packet.

        One pass aligned with ``buffer.packets()`` — the batched
        equivalent of calling :meth:`own_delay_estimate` per packet, used
        by the in-band control channel's buffer-state exchange.
        """
        return self._direct_delays_for_holder(self, self.buffer.packets(), now)

    def _rank_key(
        self,
        packet: Packet,
        delays_before: Sequence[float],
        extra: float,
        now: float,
        use_max_delay: bool,
    ) -> Tuple[Tuple[int, float], float]:
        """The ``(improves, key)`` replication rank of one candidate, and
        the marginal utility it was derived from (for the decision audit)."""
        marginal = self.metric.marginal_utility(packet, delays_before, extra, now)
        improves = 1 if marginal > _MIN_MARGINAL_UTILITY else 0
        if use_max_delay:
            # Work-conserving max-delay ordering: the packet whose
            # expected delay is currently largest goes first.
            before = delay_module.combined_remaining_delay(delays_before)
            key = packet.age(now) + (before if not math.isinf(before) else self._horizon_delay(now))
        else:
            key = self.metric.replication_priority(packet, marginal, now)
            if improves == 0:
                # Order the "cannot help" tail by age so older packets
                # still get the spare bandwidth first.
                key = packet.age(now)
        return (improves, key), marginal

    def _horizon_delay(self, now: float) -> float:
        """Finite stand-in for an infinite expected delay when ranking."""
        return now + 1e9

    # ------------------------------------------------------------------
    # Metadata bookkeeping on packet movement
    # ------------------------------------------------------------------
    def on_packet_created(self, packet: Packet, now: float) -> bool:
        created = super().on_packet_created(packet, now)
        if created:
            self.metadata.update_replica(
                packet, self.node_id, self.own_delay_estimate(packet, now), now
            )
        return created

    def accept_replica(self, packet: Packet, sender: RoutingProtocol, now: float) -> bool:
        accepted = super().accept_replica(packet, sender, now)
        if accepted:
            self.metadata.update_replica(
                packet, self.node_id, self.own_delay_estimate(packet, now), now
            )
            if isinstance(sender, RapidProtocol):
                self.metadata.update_replica(
                    packet, sender.node_id, sender.own_delay_estimate(packet, now), now
                )
        return accepted

    def on_replica_sent(self, packet: Packet, peer: RoutingProtocol, now: float) -> None:
        if isinstance(peer, RapidProtocol):
            estimate = self._estimate_for_holder(peer, packet, now)
            self.metadata.update_replica(packet, peer.node_id, estimate, now)
        self.metadata.update_replica(
            packet, self.node_id, self.own_delay_estimate(packet, now), now
        )

    def learn_ack(self, packet_id: int, now: Optional[float]) -> None:
        super().learn_ack(packet_id, now)
        self.metadata.remove_packet(packet_id)
        self._global_acks.add(packet_id)

    # ------------------------------------------------------------------
    # Storage management (Section 3.4: lowest utility evicted first)
    # ------------------------------------------------------------------
    def on_replica_evicted(self, packet: Packet, now: float) -> None:
        """Forget this node's replica record of the evicted *packet*.

        Called by ``make_room`` right after the victim left the buffer (and
        its hop count was dropped), so buffer, hop counts and metadata can
        never disagree.
        """
        self.metadata.remove_replica(packet.packet_id, self.node_id)

    def choose_eviction_victim(self, incoming: Packet, now: float) -> Optional[int]:
        recorder = self.context.decisions
        reason = "lowest_score"
        candidates = [
            p
            for p in self.buffer
            if p.packet_id != incoming.packet_id
            and not (p.source == self.node_id and p.packet_id not in self.acked)
        ]
        if not candidates:
            # Only own unacknowledged packets remain.  An incoming relay may
            # not displace them (Section 3.4), but a newly created local
            # packet must not deadlock the source: the lowest-utility own
            # packet yields instead.
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
            reason = "own_fallback_lowest_score"
        if self._vector_rank and not (self._use_oracle or self._slow_reference):
            # argmin takes the first minimum, as the scalar loop's strict
            # ``<`` does.
            audit_scores = self._eviction_score_array(candidates, now)
            victim_id = candidates[int(np.argmin(audit_scores))].packet_id
        else:
            best_score: Optional[float] = None
            audit_scores = []
            for packet in candidates:
                remaining = self.expected_remaining_delay(packet, now)
                score = self.metric.eviction_score(packet, remaining, now)
                audit_scores.append(score)
                if best_score is None or score < best_score:
                    best_score = score
                    victim_id = packet.packet_id
        if recorder is not None:
            recorder.eviction_choice(
                self.node_id, now, self.name, incoming.packet_id,
                candidates=[p.packet_id for p in candidates],
                score=audit_scores, victim=victim_id, reason=reason,
            )
        return victim_id

    def _eviction_score_array(self, candidates: List[Packet], now: float) -> np.ndarray:
        """Eviction scores of all *candidates* in one array-kernel pass.

        Values are bit-identical to :meth:`expected_remaining_delay` +
        ``metric.eviction_score`` per packet (all candidates sit in this
        buffer, so the own estimate leads each fold exactly as
        ``replica_delays`` does).
        """
        own_delays = self._direct_delays_for_holder(self, candidates, now)
        rate, degenerate = self._fold_replica_rates(candidates, own_delays)
        remaining = delay_module.combined_remaining_delay_array(rate, degenerate)
        store = self.buffer.store
        ages = np.maximum(0.0, now - store.creation_times[store.rows_for(candidates)])
        return self.metric.eviction_score_array(ages, remaining, now)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and examples)
    # ------------------------------------------------------------------
    def known_replica_count(self, packet_id: int) -> int:
        """Number of replicas this node believes exist for *packet_id*."""
        holders = set(self.metadata.holders(packet_id))
        if packet_id in self.buffer:
            holders.add(self.node_id)
        return len(holders)

    def describe_buffer(self, now: float) -> List[Dict[str, float]]:
        """Per-packet view of the buffer (id, age, utility, replicas)."""
        description = []
        for packet in self.buffer:
            description.append(
                {
                    "packet_id": packet.packet_id,
                    "age": packet.age(now),
                    "expected_delay": self.expected_delay(packet, now),
                    "utility": self.packet_utility(packet, now),
                    "known_replicas": self.known_replica_count(packet.packet_id),
                }
            )
        return description
