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

Estimates and scores are computed for a whole meeting at once: one pass
per holder for the direct-delivery delays, and array kernels or a scalar
fold, picked by candidate count, for ranking and eviction.  All of it is
bit-identical to the per-packet formulas of the paper; the test oracle
``tests/rapid_oracle.py`` swaps those formulas back in
(``reference_paths()``) so the golden tests and the hot-path benchmark can
compare whole simulations.
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

#: Candidate counts from which the array kernels score a set faster than
#: the scalar fold (per-call timings in ``docs/performance.md``): below
#: them a kernel call costs more in numpy set-up than it saves.
_EVICTION_KERNEL_MIN = 20
_RANK_KERNEL_MIN = 24


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
        #: ``(packet, sender, time, d_self, d_sender)`` of the replica just
        #: accepted, for the sender's :meth:`on_replica_sent`.
        self._accepted_estimates: Optional[Tuple[int, int, float, float, float]] = None

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
        """Whether the whole-meeting array kernels may score for this metric.

        Only the plain average-delay metric (the default) has exact
        vectorised counterparts of its fold; other metrics, subclasses and
        wrapped/instrumented metrics keep the scalar scoring so customised
        utilities cannot silently diverge from the kernels.  Even then the
        kernels score only sets of at least ``_EVICTION_KERNEL_MIN`` or
        ``_RANK_KERNEL_MIN`` candidates (:meth:`_scalar_replica_delays`).
        Evaluated per call because tests (and callers) may swap
        ``self.metric`` at run time.
        """
        return type(self.metric) is AverageDelayMetric

    # ------------------------------------------------------------------
    # Delay estimation (the inference algorithm)
    # ------------------------------------------------------------------
    def own_delay_estimate(self, packet: Packet, now: float) -> float:
        """This node's delay estimate ``d_X(i)``, held or not ("if it received it now").

        The scalar twin of :meth:`_direct_delays_for_holder`, bit for bit,
        edge cases and queue-position shortcut included.
        """
        destination = packet.destination
        meeting = self.meetings.expected_meeting_time(destination)
        transfer = self.transfer_sizes.expected_bytes_or_none(destination)
        size = packet.size
        if transfer is None:
            transfer = size
        buffer = self.buffer
        if transfer > 0 and buffer.queued_bytes(destination) + size > transfer:
            meetings = math.ceil((buffer.bytes_ahead_of(packet, now) + size) / transfer)
            if meetings > 1:
                return meeting * meetings
        return meeting

    def replica_delays(self, packet: Packet, now: float) -> List[float]:
        """Per-replica delay estimates for every replica this node knows of."""
        packet_id = packet.packet_id
        if self._use_oracle:
            estimates = [
                holder.own_delay_estimate(packet, now)
                for holder in self._registry.values()
                if packet_id in holder.buffer.by_id
            ]
            if not estimates and packet_id in self.buffer.by_id:
                estimates.append(self.own_delay_estimate(packet, now))
            return estimates
        estimates = self.metadata.estimates(packet_id, self.node_id)
        if packet_id in self.buffer.by_id:
            estimates.insert(0, self.own_delay_estimate(packet, now))
        return estimates

    def expected_remaining_delay(self, packet: Packet, now: float) -> float:
        """``A(i)``: expected remaining delay considering all known replicas."""
        return delay_module.combined_remaining_delay(self.replica_delays(packet, now))

    def packet_utility(self, packet: Packet, now: float) -> float:
        """``U_i`` under the configured metric."""
        return self.metric.utility(packet, self.expected_remaining_delay(packet, now), now)

    def marginal_utility(self, packet: Packet, peer: "RapidProtocol", now: float) -> float:
        """``dU_i`` of replicating *packet* to *peer*."""
        delays_before = self.replica_delays(packet, now)
        extra = peer.own_delay_estimate(packet, now)
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
        held, known = self.buffer.by_id, self.metadata
        self.learn_acks([i for i in self._global_acks if i in held or i in known], now)

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

    def _candidate_scores(
        self, peer: "RapidProtocol", now: float
    ) -> List[Tuple[Tuple[int, float], int, Packet]]:
        """Score every transferable candidate: ``((improves, key), index, packet)``.

        Packets rank by decreasing marginal utility per byte (the
        selection algorithm of Section 3.4).  Packets whose replication
        cannot improve the metric at all — e.g. the peer cannot reach the
        destination within ``h`` hops, or the deadline has already passed —
        are not dropped but rank after every packet that can: the cutoff
        the paper describes emerges from the limited transfer opportunity,
        not from an explicit filter.

        Each participant's direct-delivery delays for all candidates come
        from one pass (:meth:`_direct_delays_for_holder`), then the
        candidate count picks an arm (:meth:`_scalar_replica_delays`): the
        array kernel (:meth:`_rank_score_arrays`) from ``_RANK_KERNEL_MIN``
        candidates on, the scalar fold below it.  Both arms give the same
        ranks and audit.  The global-channel oracle, whose per-replica
        estimates depend on every holder's live buffer, scores packet by
        packet (:meth:`_per_packet_candidate_scores`).
        """
        candidates = self.transferable_packets(peer)
        if self._use_oracle or not candidates:
            return self._per_packet_candidate_scores(peer, candidates, now)
        delay_lists = self._scalar_replica_delays(candidates, now, _RANK_KERNEL_MIN)
        if delay_lists is None:
            return self._rank_score_arrays(peer, candidates, now)
        peer_delays = self._direct_delays_for_holder(peer, candidates, now).tolist()
        return self._rank_scalar(peer, candidates, delay_lists, peer_delays, now)

    def _per_packet_candidate_scores(
        self, peer: "RapidProtocol", candidates: Sequence[Packet], now: float
    ) -> List[Tuple[Tuple[int, float], int, Packet]]:
        """:meth:`_candidate_scores` by one scalar estimate call per replica."""
        delay_lists = [self.replica_delays(packet, now) for packet in candidates]
        peer_delays = [peer.own_delay_estimate(packet, now) for packet in candidates]
        return self._rank_scalar(peer, candidates, delay_lists, peer_delays, now)

    def _rank_scalar(
        self,
        peer: "RapidProtocol",
        candidates: Sequence[Packet],
        delay_lists: Sequence[Sequence[float]],
        peer_delays: Sequence[float],
        now: float,
    ) -> List[Tuple[Tuple[int, float], int, Packet]]:
        """The scalar fold of :meth:`_candidate_scores` over known delays."""
        use_max_delay = isinstance(self.metric, MaximumDelayMetric)
        scored: List[Tuple[Tuple[int, float], int, Packet]] = []
        marginals: List[float] = []
        for index, (packet, delays_before, extra) in enumerate(
            zip(candidates, delay_lists, peer_delays)
        ):
            rank, marginal = self._rank_key(packet, delays_before, extra, now, use_max_delay)
            scored.append((rank, index, packet))
            marginals.append(marginal)
        self._audit_replication_rank(peer, now, candidates, scored, marginals)
        return scored

    def _rank_score_arrays(
        self, peer: "RapidProtocol", candidates: Sequence[Packet], now: float
    ) -> List[Tuple[Tuple[int, float], int, Packet]]:
        """The kernel arm of :meth:`_candidate_scores` (average delay only).

        Folds the per-replica rates, the before/after combined delays and
        the marginal utilities of every candidate in a handful of numpy
        passes.  Each element is bit-identical to the scalar rank (the
        golden tests hold the fast path to the per-packet reference of
        ``tests/rapid_oracle.py``).
        """
        own_delays = self._direct_delays_for_holder(self, candidates, now)
        peer_delays = self._direct_delays_for_holder(peer, candidates, now)
        rate, degenerate = self._fold_replica_rates(candidates, own_delays)
        before = delay_module.combined_remaining_delay_array(rate, degenerate)
        rate_after, degenerate_after = delay_module.fold_extra_delay(
            rate, degenerate, peer_delays
        )
        after = delay_module.combined_remaining_delay_array(rate_after, degenerate_after)
        marginal = self.metric.marginal_utility_array(before, after, now)
        improves = marginal > _MIN_MARGINAL_UTILITY
        store = self.buffer.store
        rows = store.rows_for(candidates)
        ages = np.maximum(0.0, now - store.creation_times[rows])
        keys = np.where(improves, marginal / store.sizes[rows], ages)
        recorder = self.context.decisions
        if recorder is not None:
            # The kernel outputs are handed over wholesale (one tolist()
            # each inside the recorder) — the audit adds no per-candidate
            # arithmetic to the scoring pass.
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

    def _scalar_replica_delays(
        self, candidates: Sequence[Packet], now: float, kernel_min: int
    ) -> Optional[List[List[float]]]:
        """Pick the scoring arm for *candidates*, all in this node's buffer.

        Returns ``None`` for the array-kernel arm: a metric with kernels
        (:attr:`_vector_rank`) and at least *kernel_min* candidates.
        Otherwise runs the first step of the scalar arm and returns each
        candidate's ``[own, *other holders]`` delays in the order
        :meth:`replica_delays` lists them: one own-delay pass
        (:meth:`_direct_delays_for_holder`), then the metadata estimates
        in holder order, ready for ``combined_remaining_delay`` and the
        metric's scalar fold.  A kernel call costs tens of microseconds
        of numpy set-up, so small sets score faster one by one.
        """
        if self._vector_rank and len(candidates) >= kernel_min:
            return None
        estimates = self.metadata.estimates
        node_id = self.node_id
        return [
            [own, *estimates(packet.packet_id, node_id)]
            for own, packet in zip(
                self._direct_delays_for_holder(self, candidates, now).tolist(), candidates
            )
        ]

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
        scalar branches (per-packet scoring, small sets, non-average-delay
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

        One pass over the packets.  The holder's ``E(M_XZ)``, ``B_X(Z)``
        and bytes queued for ``Z`` depend only on the destination, so they
        are looked up once per distinct destination.  The queue position
        ``b`` never exceeds the queued bytes, so a packet whose queue plus
        own size fits one expected transfer (``queued + s <= B``, an exact
        int/float comparison) needs one meeting wherever it stands; only
        the other packets' ``b`` come from one ``bytes_ahead_batch`` call.
        Element ``k`` equals the scalar :meth:`own_delay_estimate` bit for
        bit: the same quotient, ceil and product, an infinite ``E(M)``
        multiplying through to :data:`~repro.constants.NEVER_MEET`, the
        packet's own size standing in for a missing transfer estimate and
        one meeting for ``B <= 0``.
        """
        meeting_time = holder.meetings.expected_meeting_time
        transfer_bytes = holder.transfer_sizes.expected_bytes_or_none
        queued_bytes = holder.buffer.queued_bytes
        per_destination: Dict[int, Tuple[float, Optional[float], int]] = {}
        delays: List[float] = []
        positioned: List[Tuple[int, Packet, float]] = []
        for packet in packets:
            destination = packet.destination
            if destination in per_destination:
                meeting, transfer, queued = per_destination[destination]
            else:
                meeting, transfer, queued = per_destination[destination] = (
                    meeting_time(destination),
                    transfer_bytes(destination),
                    queued_bytes(destination),
                )
            size = packet.size
            if transfer is None:
                transfer = size
            if transfer > 0 and queued + size > transfer:
                positioned.append((len(delays), packet, transfer))
            delays.append(meeting)
        if positioned:
            ahead = holder.buffer.bytes_ahead_batch([p for _, p, _ in positioned], now)
            ceil = math.ceil
            for (k, packet, transfer), bytes_ahead in zip(positioned, ahead.tolist()):
                meetings = ceil((bytes_ahead + packet.size) / transfer)
                if meetings > 1:
                    delays[k] *= meetings
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
            own = self.own_delay_estimate(packet, now)
            self.metadata.update_replica(packet, self.node_id, own, now)
            if isinstance(sender, RapidProtocol):
                theirs = sender.own_delay_estimate(packet, now)
                self.metadata.update_replica(packet, sender.node_id, theirs, now)
                if not self._use_oracle:
                    # The sender's on_replica_sent follows with nothing in
                    # between that moves either estimate: hand it the pair.
                    self._accepted_estimates = (packet.packet_id, sender.node_id, now, own, theirs)
        return accepted

    def on_replica_sent(self, packet: Packet, peer: RoutingProtocol, now: float) -> None:
        if isinstance(peer, RapidProtocol):
            handed = peer._accepted_estimates
            peer._accepted_estimates = None
            if handed is not None and handed[:3] == (packet.packet_id, self.node_id, now):
                _, _, _, estimate, own = handed
            else:
                estimate = peer.own_delay_estimate(packet, now)
                own = self.own_delay_estimate(packet, now)
            self.metadata.update_replica(packet, peer.node_id, estimate, now)
        else:
            own = self.own_delay_estimate(packet, now)
        self.metadata.update_replica(packet, self.node_id, own, now)

    def learn_acks(self, packet_ids: Sequence[int], now: Optional[float]) -> None:
        super().learn_acks(packet_ids, now)
        forget = self.metadata.remove_packet
        for packet_id in packet_ids:
            forget(packet_id)
        self._global_acks.update(packet_ids)

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
        """The lowest-scoring evictable packet, or ``None`` to refuse *incoming*.

        The candidates are scored on the arm their count picks
        (:meth:`_scalar_replica_delays`): the array kernel
        (:meth:`_eviction_score_array`) from ``_EVICTION_KERNEL_MIN`` on,
        the scalar fold below it.  A lone candidate is taken unscored
        unless a decision recorder wants its score.  The global-channel
        oracle scores packet by packet
        (:meth:`_per_packet_eviction_scores`).  Every path evicts the first
        minimum and records the same audit event.
        """
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
        if self._use_oracle:
            audit_scores, lowest = self._per_packet_eviction_scores(candidates, now)
        elif len(candidates) == 1 and recorder is None:
            # A lone candidate is the victim whatever its score.
            return candidates[0].packet_id
        else:
            audit_scores, lowest = self._eviction_scores(candidates, now)
        victim_id = candidates[lowest].packet_id
        if recorder is not None:
            recorder.eviction_choice(
                self.node_id, now, self.name, incoming.packet_id,
                candidates=[p.packet_id for p in candidates],
                score=audit_scores, victim=victim_id, reason=reason,
            )
        return victim_id

    def _eviction_scores(
        self, candidates: List[Packet], now: float
    ) -> Tuple[Sequence[float], int]:
        """Every candidate's eviction score and the index of the first minimum.

        The candidate count picks the arm (:meth:`_scalar_replica_delays`);
        both take the first minimum.
        """
        delay_lists = self._scalar_replica_delays(candidates, now, _EVICTION_KERNEL_MIN)
        if delay_lists is None:
            scores = self._eviction_score_array(candidates, now)
            return scores, int(np.argmin(scores))
        return self._evict_scalar(candidates, delay_lists, now)

    def _per_packet_eviction_scores(
        self, candidates: List[Packet], now: float
    ) -> Tuple[List[float], int]:
        """:meth:`_eviction_scores` by one scalar estimate call per replica."""
        delay_lists = [self.replica_delays(packet, now) for packet in candidates]
        return self._evict_scalar(candidates, delay_lists, now)

    def _evict_scalar(
        self, candidates: List[Packet], delay_lists: Sequence[Sequence[float]], now: float
    ) -> Tuple[List[float], int]:
        """The scalar fold of :meth:`_eviction_scores` over known delays."""
        score = self.metric.eviction_score
        combined = delay_module.combined_remaining_delay
        scores = [
            score(packet, combined(delays), now)
            for packet, delays in zip(candidates, delay_lists)
        ]
        return scores, min(range(len(scores)), key=scores.__getitem__)

    def _eviction_score_array(self, candidates: List[Packet], now: float) -> np.ndarray:
        """Eviction scores of all *candidates* in one array-kernel pass.

        The kernel arm of :meth:`choose_eviction_victim`, taken from
        ``_EVICTION_KERNEL_MIN`` candidates on under the average-delay
        metric; smaller sets take the scalar fold.

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
