"""Per-packet utility functions for RAPID's three routing metrics.

RAPID translates an administrator-specified routing metric into a
per-packet utility ``U_i`` (Section 3.5); the protocol replicates packets
in decreasing order of marginal utility per byte ``dU_i / s_i``.  This
module provides one :class:`UtilityMetric` per metric in the paper:

* :class:`AverageDelayMetric` — minimise average delay (Eq. 1);
* :class:`DeadlineMetric` — maximise packets delivered within a deadline /
  minimise missed deadlines (Eq. 2);
* :class:`MaximumDelayMetric` — minimise the worst-case delay (Eq. 3).

Each metric answers three questions given a packet and delay estimates:
its current utility, the marginal gain of adding a replica, and how
packets should be ranked for direct delivery and for eviction.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..dtn.packet import Packet
from ..exceptions import ConfigurationError
from . import delay as delay_module


class UtilityMetric(abc.ABC):
    """Strategy object describing one routing metric."""

    #: Registry name of the metric.
    name: str = "base"

    def __init__(self) -> None:
        #: Optional absolute end-of-experiment time.  Delay reductions that
        #: fall beyond the horizon cannot materialise (the paper's
        #: evaluation treats each day as a separate experiment and counts
        #: undelivered packets as lost), so delay-based utilities clip the
        #: expected remaining delay at the time left before the horizon.
        self.horizon: Optional[float] = None

    def set_horizon(self, horizon: Optional[float]) -> None:
        """Set the absolute planning-horizon time (``None`` disables clipping)."""
        self.horizon = horizon

    def clip_delay(self, value: float, now: float) -> float:
        """Clip a remaining-delay estimate at the time left before the horizon."""
        if self.horizon is None:
            return value
        remaining = max(1.0, self.horizon - now)
        return min(value, remaining)

    def clip_delay_array(self, values: np.ndarray, now: float) -> np.ndarray:
        """Vectorised :meth:`clip_delay` (bit-identical per element)."""
        if self.horizon is None:
            return values
        remaining = max(1.0, self.horizon - now)
        return np.minimum(values, remaining)

    #: Whether this metric supports the whole-meeting array kernels
    #: (:meth:`marginal_utility_array` / :meth:`eviction_score_array`).
    #: Metrics without kernels are scored by the scalar reference path.
    supports_array_kernels: bool = False

    # ------------------------------------------------------------------
    # Core utility definitions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def utility(self, packet: Packet, remaining_delay: float, now: float) -> float:
        """``U_i`` given the current expected remaining delay ``A(i)``."""

    @abc.abstractmethod
    def marginal_utility(
        self,
        packet: Packet,
        delays_before: Sequence[float],
        extra_replica_delay: float,
        now: float,
    ) -> float:
        """``dU_i`` of adding a replica with delay *extra_replica_delay*."""

    # ------------------------------------------------------------------
    # Orderings derived from the utility
    # ------------------------------------------------------------------
    def replication_priority(
        self, packet: Packet, marginal_utility: float, now: float
    ) -> float:
        """Sort key (higher first) for replication: marginal utility per byte."""
        return marginal_utility / packet.size

    def direct_delivery_key(self, packet: Packet, now: float) -> float:
        """Sort key (higher first) for direct delivery.

        The default follows Algorithm 2: packets destined to the peer are
        served oldest-first.
        """
        return packet.age(now)

    def eviction_score(self, packet: Packet, remaining_delay: float, now: float) -> float:
        """Score for eviction: the packet with the *lowest* score is dropped.

        Following Section 3.4, packets with the lowest utility are deleted
        first, so the default score is the utility itself.
        """
        return self.utility(packet, remaining_delay, now)


class AverageDelayMetric(UtilityMetric):
    """Minimise the average delay of packets (Eq. 1): ``U_i = -D(i)``."""

    name = "average_delay"
    supports_array_kernels = True

    def utility(self, packet: Packet, remaining_delay: float, now: float) -> float:
        return -(packet.age(now) + self.clip_delay(remaining_delay, now))

    def marginal_utility(
        self,
        packet: Packet,
        delays_before: Sequence[float],
        extra_replica_delay: float,
        now: float,
    ) -> float:
        rate = delay_module.delivery_rate(delays_before)
        before = delay_module.remaining_delay_from_rate(rate)
        after = delay_module.remaining_delay_from_rate(
            delay_module.add_delay_to_rate(rate, extra_replica_delay)
        )
        if before == float("inf") and after == float("inf"):
            return 0.0
        if before == float("inf"):
            # A previously undeliverable packet becomes deliverable: treat
            # the gain as the (finite) new expected delay being reached at
            # all, i.e. a very large but finite improvement dominated only
            # by other newly-deliverable packets with smaller delay.
            after = self.clip_delay(after, now)
            return 1.0 / max(after, 1e-9)
        return max(0.0, self.clip_delay(before, now) - self.clip_delay(after, now))

    def marginal_utility_array(
        self, before: np.ndarray, after: np.ndarray, now: float
    ) -> np.ndarray:
        """Vectorised :meth:`marginal_utility` from combined before/after delays.

        Element ``i`` reproduces the scalar branch structure bit for bit:
        both-infinite rows yield 0, newly-deliverable rows yield the
        reciprocal of the clipped new delay, and the common case is the
        clipped delay reduction floored at zero.
        """
        before_inf = np.isinf(before)
        after_clipped = self.clip_delay_array(after, now)
        before_clipped = self.clip_delay_array(before, now)
        newly_deliverable = 1.0 / np.maximum(after_clipped, 1e-9)
        # Only finite rows take the reduction; skipping the rest avoids inf - inf.
        gain = np.subtract(before_clipped, after_clipped, out=np.zeros(len(before)), where=~before_inf)
        reduction = np.maximum(0.0, gain)
        return np.where(
            before_inf & np.isinf(after), 0.0, np.where(before_inf, newly_deliverable, reduction)
        )

    def eviction_score_array(
        self, ages: np.ndarray, remaining_delays: np.ndarray, now: float
    ) -> np.ndarray:
        """Vectorised :meth:`eviction_score` (= :meth:`utility`) per packet."""
        return -(ages + self.clip_delay_array(remaining_delays, now))


class DeadlineMetric(UtilityMetric):
    """Maximise packets delivered within their deadline (Eq. 2)."""

    name = "deadline"

    def __init__(self, default_deadline: Optional[float] = None) -> None:
        super().__init__()
        self.default_deadline = default_deadline

    def _window(self, packet: Packet, now: float) -> Optional[float]:
        """Remaining time before the packet's deadline, or ``None`` if expired."""
        deadline = packet.deadline if packet.deadline is not None else self.default_deadline
        if deadline is None:
            return None
        remaining = deadline - packet.age(now)
        if remaining <= 0:
            return 0.0
        return remaining

    def utility(self, packet: Packet, remaining_delay: float, now: float) -> float:
        window = self._window(packet, now)
        if window is None:
            # No deadline: fall back to delivery probability over an
            # arbitrarily long horizon, i.e. deliverable == 1.
            return 1.0 if remaining_delay != float("inf") else 0.0
        if window <= 0:
            return 0.0
        return delay_module.delivery_probability_within([remaining_delay], window)

    def marginal_utility(
        self,
        packet: Packet,
        delays_before: Sequence[float],
        extra_replica_delay: float,
        now: float,
    ) -> float:
        window = self._window(packet, now)
        if window is not None and window <= 0:
            return 0.0
        rate = delay_module.delivery_rate(delays_before)
        rate_after = delay_module.add_delay_to_rate(rate, extra_replica_delay)
        if window is None:
            before = delay_module.remaining_delay_from_rate(rate)
            after = delay_module.remaining_delay_from_rate(rate_after)
            return 1.0 if before == float("inf") and after != float("inf") else 0.0
        p_before = delay_module.probability_within_from_rate(rate, window)
        p_after = delay_module.probability_within_from_rate(rate_after, window)
        return max(0.0, p_after - p_before)

    def direct_delivery_key(self, packet: Packet, now: float) -> float:
        """Unexpired packets first, tighter deadlines first."""
        window = self._window(packet, now)
        if window is None:
            return 0.0
        if window <= 0:
            return -float("inf")
        return 1.0 / window

    def eviction_score(self, packet: Packet, remaining_delay: float, now: float) -> float:
        """Expired packets are dropped first, then the least likely to make it."""
        return self.utility(packet, remaining_delay, now)


class MaximumDelayMetric(UtilityMetric):
    """Minimise the maximum delay across packets (Eq. 3).

    Only the packet with the largest expected delay in the buffer has a
    non-zero utility; the replication order therefore ranks packets by
    expected delay, largest first (the work-conserving recomputation of
    Section 3.5.3 reduces to exactly this ordering because replicating one
    packet does not change the expected delay of the others).
    """

    name = "max_delay"

    def utility(self, packet: Packet, remaining_delay: float, now: float) -> float:
        return -(packet.age(now) + self.clip_delay(remaining_delay, now))

    # The marginal gain of a replica is average delay's: the same delay
    # reduction, ranked by expected delay instead (see the protocol).
    marginal_utility = AverageDelayMetric.marginal_utility

    def expected_delay(self, packet: Packet, remaining_delay: float, now: float) -> float:
        """``D(i) = T(i) + A(i)`` — exposed for the max-delay ordering."""
        return packet.age(now) + self.clip_delay(remaining_delay, now)

    def replication_priority(self, packet: Packet, marginal_utility: float, now: float) -> float:
        # Ranking for the max-delay metric happens on D(i) directly in the
        # protocol; the per-byte normalisation is kept for tie-breaking.
        return marginal_utility / packet.size

    def eviction_score(self, packet: Packet, remaining_delay: float, now: float) -> float:
        """Evict the packet with the smallest expected delay first.

        Dropping the packet that is *least* likely to define the maximum
        delay sacrifices the least for this metric.
        """
        return self.expected_delay(packet, remaining_delay, now)


_METRICS = {
    AverageDelayMetric.name: AverageDelayMetric,
    DeadlineMetric.name: DeadlineMetric,
    MaximumDelayMetric.name: MaximumDelayMetric,
}

#: Aliases accepted by :func:`make_metric` (CLI / experiment configs).
_ALIASES = {
    "avg_delay": "average_delay",
    "average-delay": "average_delay",
    "avg": "average_delay",
    "delay": "average_delay",
    "max-delay": "max_delay",
    "maximum_delay": "max_delay",
    "worst_case_delay": "max_delay",
    "deadline": "deadline",
    "missed_deadlines": "deadline",
}


def available_metrics() -> list:
    """Names of the supported routing metrics."""
    return sorted(_METRICS)


def make_metric(name: str, **kwargs) -> UtilityMetric:
    """Build a :class:`UtilityMetric` by name.

    Args:
        name: One of ``average_delay``, ``deadline``, ``max_delay`` (or an
            accepted alias).
        **kwargs: Metric-specific options, e.g. ``default_deadline`` for the
            deadline metric.
    """
    canonical = _ALIASES.get(name, name)
    try:
        metric_cls = _METRICS[canonical]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown routing metric {name!r}; available: {', '.join(available_metrics())}"
        ) from exc
    return metric_cls(**kwargs)
