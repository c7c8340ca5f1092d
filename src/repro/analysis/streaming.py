"""Bounded-memory streaming result aggregation for long-horizon runs.

Every run historically materialised one :class:`~repro.dtn.packet.PacketRecord`
per packet on the :class:`~repro.dtn.results.SimulationResult`, which caps
simulated horizons at short transients: a million-packet, week-long cell
would hold a million record objects just to compute a handful of summary
metrics.  This module provides the online-aggregation layer behind the
simulator's ``result_mode="streaming"`` option: instead of records, the
result carries a :class:`StreamingSummary` whose size is bounded by the
*value range* of the observed delays and a fixed window budget — never by
the number of packets.

The summary is built from three deterministic, exactly-mergeable pieces:

``QuantileSketch``
    A DDSketch-style logarithmic-bucket quantile sketch over delivery
    delays with a documented relative error bound (default 1%).  Buckets
    merge exactly (bucket-wise addition), so merged summaries answer
    quantile queries as if the sketch had seen the concatenated stream.

``ClassTally``
    Exact integer/float counters per traffic class (packets, deliveries,
    deadline hits, delay sums, replicas, drops, residence times).  Every
    count-based headline metric — delivery rate, average delay with or
    without undelivered packets, deadline success rate, the per-class
    breakdown — is computed *exactly* from these tallies; only quantile
    queries are approximate.

``DeliveryRateWindows``
    A bounded windowed time series of packet creations and deliveries.
    When the horizon outgrows the window budget, adjacent windows merge
    pairwise and the window doubles (the decimation scheme used by the
    observability metrics registry), keeping the series at a fixed
    maximum length for any horizon.

Determinism contract: all three structures are pure functions of the
event stream (values and arrival order for the tallies and windows;
values only for the sketch), contain no wall-clock or randomness, and
serialise with sorted bucket keys — so a fixed seed yields byte-identical
streaming payloads across serial, multiprocess and cached engine
backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..dtn.packet import Packet

__all__ = [
    "DEFAULT_RELATIVE_ERROR",
    "DEFAULT_WINDOW_S",
    "DEFAULT_MAX_WINDOWS",
    "MIN_TRACKABLE_DELAY",
    "QuantileSketch",
    "ClassTally",
    "DeliveryRateWindows",
    "StreamingSummary",
    "StreamingCollector",
]

#: Default relative error bound of :class:`QuantileSketch` quantile
#: estimates (1%): for any quantile ``q`` the estimate ``v̂`` satisfies
#: ``|v̂ - v| <= relative_error * v`` where ``v`` is the exact
#: nearest-rank quantile of the stream.
DEFAULT_RELATIVE_ERROR = 0.01

#: Positive delays below this many seconds collapse into the sketch's
#: zero bucket and are reported as ``0.0`` — an absolute (not relative)
#: error of at most one nanosecond.
MIN_TRACKABLE_DELAY = 1e-9

#: Default width in seconds of the first delivery-rate window.
DEFAULT_WINDOW_S = 60.0

#: Default window budget of :class:`DeliveryRateWindows`; beyond it the
#: window width doubles and adjacent windows merge pairwise.
DEFAULT_MAX_WINDOWS = 512


class QuantileSketch:
    """Deterministic logarithmic-bucket quantile sketch (DDSketch family).

    Values are non-negative floats (delivery delays in seconds).  A value
    ``v > MIN_TRACKABLE_DELAY`` lands in bucket ``i = ceil(log_γ(v))``
    where ``γ = (1 + α) / (1 - α)`` and ``α`` is the relative error
    bound; bucket ``i`` covers ``(γ^(i-1), γ^i]`` and is represented by
    its γ-midpoint ``2·γ^i / (γ + 1)``, which guarantees the documented
    relative error.  Values in ``[0, MIN_TRACKABLE_DELAY]`` share an
    exact zero bucket reported as ``0.0``.

    The sketch size is bounded by the value *range*, never the stream
    length: delays spanning nanoseconds to weeks need fewer than ~2500
    buckets at the default 1% error.  Count, sum, minimum and maximum are
    tracked exactly on the side, so :meth:`sum`/:meth:`min`/:meth:`max`
    carry no sketch error.

    Two sketches built with the same ``relative_error`` merge exactly:
    bucket-wise addition makes :meth:`merge` indistinguishable from a
    single sketch fed the concatenated stream.
    """

    __slots__ = (
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error!r}"
            )
        self.relative_error = float(relative_error)
        self._gamma = (1.0 + self.relative_error) / (1.0 - self.relative_error)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add(self, value: float, count: int = 1) -> None:
        """Add *count* occurrences of *value* (a non-negative delay)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"sketch values must be finite and >= 0, got {value!r}")
        if value <= MIN_TRACKABLE_DELAY:
            self._zero_count += count
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Add every value of an iterable."""
        for value in values:
            self.add(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of values observed (exact)."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values (exact, no sketch error)."""
        return self._sum

    @property
    def min(self) -> float:
        """Smallest observed value (exact; 0.0 on an empty sketch)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observed value (exact; 0.0 on an empty sketch)."""
        return self._max if self._count else 0.0

    def mean(self) -> float:
        """Exact mean of the observed values (0.0 on an empty sketch)."""
        if not self._count:
            return 0.0
        return self._sum / self._count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate within the relative error bound.

        Follows the ``numpy.quantile(..., method="inverted_cdf")``
        convention: the estimate targets the value of rank
        ``max(1, ceil(q·n))`` of the sorted stream.  The estimate ``v̂``
        of the exact rank value ``v`` satisfies
        ``|v̂ - v| <= relative_error · v`` (plus at most
        :data:`MIN_TRACKABLE_DELAY` of absolute error for values in the
        zero bucket).  Returns 0.0 on an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        if rank <= self._zero_count:
            return 0.0
        cumulative = self._zero_count
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                return 2.0 * self._gamma**index / (self._gamma + 1.0)
        # Unreachable when the bucket counts are consistent with _count;
        # fall back to the exact maximum for safety.
        return self.max

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        """Vector form of :meth:`quantile`."""
        return [self.quantile(q) for q in qs]

    @property
    def num_buckets(self) -> int:
        """Number of occupied log buckets (bounds the serialized size)."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other* into this sketch (exact bucket-wise addition)."""
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge sketches with different error bounds: "
                f"{self.relative_error} vs {other.relative_error}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        if other._count:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dict (bucket keys sorted)."""
        return {
            "relative_error": self.relative_error,
            "count": self._count,
            "sum": self._sum,
            "min": self.min,
            "max": self.max,
            "zero_count": self._zero_count,
            "buckets": {str(index): self._buckets[index] for index in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuantileSketch":
        """Rebuild a sketch serialized by :meth:`to_dict`."""
        sketch = cls(relative_error=float(data["relative_error"]))
        sketch._count = int(data["count"])
        sketch._sum = float(data["sum"])
        sketch._zero_count = int(data["zero_count"])
        sketch._buckets = {int(index): int(count) for index, count in data["buckets"].items()}
        if sketch._count:
            sketch._min = float(data["min"])
            sketch._max = float(data["max"])
        return sketch


@dataclass
class ClassTally:
    """Exact per-traffic-class counters maintained online.

    Attributes:
        packets: Packets generated in this class.
        delivered: Packets delivered at least once (first copy counts).
        delivered_in_deadline: Delivered packets that met their deadline
            (packets without a deadline always count once delivered).
        delay_sum: Sum of first-delivery delays in seconds.
        delay_max: Largest first-delivery delay in seconds.
        replicas_created: Replications of packets of this class.
        drops: Creation-time drops (buffer refusals and fault refusals).
        residence_sum: Sum over *all* packets of
            ``max(0, horizon - creation_time)`` — the time each packet
            could have spent in the system.
        delivered_residence_sum: Same sum restricted to delivered
            packets.  ``residence_sum - delivered_residence_sum`` is the
            exact total system time of the undelivered packets, which
            makes ``average_delay(include_undelivered=True)`` exact in
            streaming mode.
    """

    packets: int = 0
    delivered: int = 0
    delivered_in_deadline: int = 0
    delay_sum: float = 0.0
    delay_max: float = 0.0
    replicas_created: int = 0
    drops: int = 0
    residence_sum: float = 0.0
    delivered_residence_sum: float = 0.0

    def merge(self, other: "ClassTally") -> None:
        """Fold *other* into this tally (all counters are additive)."""
        self.packets += other.packets
        self.delivered += other.delivered
        self.delivered_in_deadline += other.delivered_in_deadline
        self.delay_sum += other.delay_sum
        self.delay_max = max(self.delay_max, other.delay_max)
        self.replicas_created += other.replicas_created
        self.drops += other.drops
        self.residence_sum += other.residence_sum
        self.delivered_residence_sum += other.delivered_residence_sum

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dict."""
        return {
            "packets": self.packets,
            "delivered": self.delivered,
            "delivered_in_deadline": self.delivered_in_deadline,
            "delay_sum": self.delay_sum,
            "delay_max": self.delay_max,
            "replicas_created": self.replicas_created,
            "drops": self.drops,
            "residence_sum": self.residence_sum,
            "delivered_residence_sum": self.delivered_residence_sum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClassTally":
        """Rebuild a tally serialized by :meth:`to_dict`."""
        return cls(
            packets=int(data["packets"]),
            delivered=int(data["delivered"]),
            delivered_in_deadline=int(data["delivered_in_deadline"]),
            delay_sum=float(data["delay_sum"]),
            delay_max=float(data["delay_max"]),
            replicas_created=int(data["replicas_created"]),
            drops=int(data["drops"]),
            residence_sum=float(data["residence_sum"]),
            delivered_residence_sum=float(data["delivered_residence_sum"]),
        )


class DeliveryRateWindows:
    """Bounded windowed creation/delivery counts over simulation time.

    Events land in window ``floor(t / window)``.  When an event index
    would exceed ``max_windows`` the window width doubles and adjacent
    windows merge pairwise (counts add exactly), so the series length
    never exceeds the budget regardless of the horizon.  Two series
    merge by doubling the finer one until the widths match — widths are
    always ``window · 2^k``, so any two series built from the same base
    width are mergeable, and the merge is exact.
    """

    __slots__ = ("base_window", "max_windows", "window", "_created", "_delivered")

    def __init__(
        self,
        window: float = DEFAULT_WINDOW_S,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if max_windows < 2:
            raise ValueError(f"max_windows must be at least 2, got {max_windows}")
        self.base_window = float(window)
        self.max_windows = int(max_windows)
        self.window = float(window)
        self._created: List[int] = []
        self._delivered: List[int] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add_creation(self, time: float) -> None:
        """Count one packet creation at simulation time *time*."""
        self._add(self._created, time)

    def add_delivery(self, time: float) -> None:
        """Count one first delivery at simulation time *time*."""
        self._add(self._delivered, time)

    def _add(self, series: List[int], time: float) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time!r}")
        index = int(time // self.window)
        while index >= self.max_windows:
            self._halve()
            index = int(time // self.window)
        if index >= len(series):
            series.extend([0] * (index + 1 - len(series)))
        series[index] += 1

    def _halve(self) -> None:
        """Double the window width, merging adjacent windows pairwise.

        Mutates the series in place: ``_add`` holds a reference to one of
        them across the halving loop, and rebinding the attribute would
        silently drop the event that triggered the decimation.
        """
        self.window *= 2.0
        self._created[:] = _pairwise_sum(self._created)
        self._delivered[:] = _pairwise_sum(self._delivered)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_windows(self) -> int:
        """Length of the longer of the two series."""
        return max(len(self._created), len(self._delivered))

    def created_counts(self) -> List[int]:
        """Per-window creation counts (a copy)."""
        return list(self._created)

    def delivered_counts(self) -> List[int]:
        """Per-window first-delivery counts (a copy)."""
        return list(self._delivered)

    def delivery_rates(self) -> List[float]:
        """Per-window deliveries per second (the delivery-rate series)."""
        return [count / self.window for count in self._delivered]

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------
    def merge(self, other: "DeliveryRateWindows") -> None:
        """Fold *other* into this series (exact, width-aligned addition)."""
        if other.base_window != self.base_window:
            raise ValueError(
                "cannot merge rate windows with different base widths: "
                f"{self.base_window} vs {other.base_window}"
            )
        other_created = list(other._created)
        other_delivered = list(other._delivered)
        other_window = other.window
        while self.window < other_window:
            self._halve()
        while other_window < self.window:
            other_created = _pairwise_sum(other_created)
            other_delivered = _pairwise_sum(other_delivered)
            other_window *= 2.0
        self._created = _elementwise_sum(self._created, other_created)
        self._delivered = _elementwise_sum(self._delivered, other_delivered)
        while self.num_windows > self.max_windows:
            self._halve()

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dict."""
        return {
            "base_window": self.base_window,
            "window": self.window,
            "max_windows": self.max_windows,
            "created": list(self._created),
            "delivered": list(self._delivered),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeliveryRateWindows":
        """Rebuild a series serialized by :meth:`to_dict`."""
        series = cls(
            window=float(data["base_window"]),
            max_windows=int(data["max_windows"]),
        )
        series.window = float(data["window"])
        series._created = [int(count) for count in data["created"]]
        series._delivered = [int(count) for count in data["delivered"]]
        return series


def _pairwise_sum(series: List[int]) -> List[int]:
    """Merge adjacent elements pairwise (the decimation step)."""
    return [
        series[i] + (series[i + 1] if i + 1 < len(series) else 0)
        for i in range(0, len(series), 2)
    ]


def _elementwise_sum(left: List[int], right: List[int]) -> List[int]:
    """Element-wise sum of two count series of possibly different length."""
    if len(left) < len(right):
        left, right = right, left
    merged = list(left)
    for i, count in enumerate(right):
        merged[i] += count
    return merged


class StreamingSummary:
    """The bounded-size result payload of a ``result_mode="streaming"`` run.

    Bundles the delay :class:`QuantileSketch`, the per-class
    :class:`ClassTally` map and the :class:`DeliveryRateWindows` series,
    plus the exact maximum residence time of undelivered packets (needed
    for ``max_delay(include_undelivered=True)``).  All pieces merge
    exactly, so :meth:`merge` of per-day summaries equals the summary of
    the concatenated run up to floating-point addition order.
    """

    __slots__ = ("delay_sketch", "class_tallies", "rate_windows", "undelivered_residence_max")

    def __init__(
        self,
        delay_sketch: Optional[QuantileSketch] = None,
        class_tallies: Optional[Dict[str, ClassTally]] = None,
        rate_windows: Optional[DeliveryRateWindows] = None,
        undelivered_residence_max: float = 0.0,
    ) -> None:
        self.delay_sketch = delay_sketch if delay_sketch is not None else QuantileSketch()
        self.class_tallies = class_tallies if class_tallies is not None else {}
        self.rate_windows = (
            rate_windows if rate_windows is not None else DeliveryRateWindows()
        )
        self.undelivered_residence_max = float(undelivered_residence_max)

    # ------------------------------------------------------------------
    # Aggregate counters (exact)
    # ------------------------------------------------------------------
    @property
    def num_packets(self) -> int:
        """Total packets generated (exact)."""
        return sum(tally.packets for tally in self.class_tallies.values())

    @property
    def num_delivered(self) -> int:
        """Total packets delivered at least once (exact)."""
        return sum(tally.delivered for tally in self.class_tallies.values())

    @property
    def num_delivered_in_deadline(self) -> int:
        """Total delivered packets that met their deadline (exact)."""
        return sum(tally.delivered_in_deadline for tally in self.class_tallies.values())

    @property
    def delay_sum(self) -> float:
        """Sum of first-delivery delays in seconds (exact)."""
        return sum(tally.delay_sum for tally in self.class_tallies.values())

    @property
    def delay_max(self) -> float:
        """Largest first-delivery delay in seconds (exact)."""
        return max(
            (tally.delay_max for tally in self.class_tallies.values()), default=0.0
        )

    @property
    def residence_sum(self) -> float:
        """Total potential system time over all packets (exact)."""
        return sum(tally.residence_sum for tally in self.class_tallies.values())

    @property
    def delivered_residence_sum(self) -> float:
        """Potential system time of the delivered packets (exact)."""
        return sum(
            tally.delivered_residence_sum for tally in self.class_tallies.values()
        )

    def traffic_classes(self) -> List[str]:
        """Class names present, sorted (empty on a packet-less run)."""
        return sorted(self.class_tallies)

    def tally(self, traffic_class: str) -> ClassTally:
        """The tally of one class (a fresh zero tally when absent)."""
        return self.class_tallies.get(traffic_class, ClassTally())

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingSummary") -> None:
        """Fold *other* into this summary (exact for every counter)."""
        self.delay_sketch.merge(other.delay_sketch)
        for name, tally in other.class_tallies.items():
            if name in self.class_tallies:
                self.class_tallies[name].merge(tally)
            else:
                self.class_tallies[name] = ClassTally(**tally.to_dict())
        self.rate_windows.merge(other.rate_windows)
        self.undelivered_residence_max = max(
            self.undelivered_residence_max, other.undelivered_residence_max
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a JSON-compatible dict (class keys sorted)."""
        return {
            "delay_sketch": self.delay_sketch.to_dict(),
            "classes": {
                name: self.class_tallies[name].to_dict()
                for name in sorted(self.class_tallies)
            },
            "rate_windows": self.rate_windows.to_dict(),
            "undelivered_residence_max": self.undelivered_residence_max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingSummary":
        """Rebuild a summary serialized by :meth:`to_dict`."""
        return cls(
            delay_sketch=QuantileSketch.from_dict(data["delay_sketch"]),
            class_tallies={
                str(name): ClassTally.from_dict(tally)
                for name, tally in data["classes"].items()
            },
            rate_windows=DeliveryRateWindows.from_dict(data["rate_windows"]),
            undelivered_residence_max=float(data["undelivered_residence_max"]),
        )


class StreamingCollector:
    """Simulator-side accumulator that builds a :class:`StreamingSummary`.

    The simulator drives it with one call per lifecycle event:
    :meth:`register` for every generated packet (before the event loop),
    :meth:`on_drop` for creation-time refusals, :meth:`on_delivery` for
    every delivery attempt (it deduplicates copies and returns whether
    this was the first), and :meth:`on_replication` for replica
    creations.  :meth:`finalize` seals the summary.

    Deduplication uses one byte per packet (a numpy bool array indexed
    by the shared :class:`~repro.dtn.packet_store.PacketStore` row), the
    only per-packet state streaming mode keeps.
    """

    def __init__(
        self,
        horizon: float,
        num_packets: int,
        row_of: Callable[[int], int],
        creation_times: np.ndarray,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        window: float = DEFAULT_WINDOW_S,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        self._horizon = float(horizon)
        self._row_of = row_of
        self._delivered = np.zeros(num_packets, dtype=bool)
        self._sketch = QuantileSketch(relative_error=relative_error)
        self._tallies: Dict[str, ClassTally] = {}
        self._windows = DeliveryRateWindows(window=window, max_windows=max_windows)
        # A *view* of the shared PacketStore creation-time column, row
        # aligned with the dedup array — no per-packet state duplicated.
        self._creation_times = creation_times

    def _tally(self, packet: Packet) -> ClassTally:
        tally = self._tallies.get(packet.traffic_class)
        if tally is None:
            tally = ClassTally()
            self._tallies[packet.traffic_class] = tally
        return tally

    def register(self, packet: Packet) -> None:
        """Account one generated packet (called for every packet upfront)."""
        tally = self._tally(packet)
        tally.packets += 1
        tally.residence_sum += max(0.0, self._horizon - packet.creation_time)
        self._windows.add_creation(packet.creation_time)

    def on_drop(self, packet: Packet) -> None:
        """Account one creation-time drop (buffer or fault refusal)."""
        self._tally(packet).drops += 1

    def on_delivery(self, packet: Packet, delivery_time: float) -> bool:
        """Account a delivery; returns True when it was the first copy."""
        row = self._row_of(packet.packet_id)
        if self._delivered[row]:
            return False
        self._delivered[row] = True
        delay = delivery_time - packet.creation_time
        tally = self._tally(packet)
        tally.delivered += 1
        tally.delay_sum += delay
        tally.delay_max = max(tally.delay_max, delay)
        tally.delivered_residence_sum += max(0.0, self._horizon - packet.creation_time)
        deadline = packet.absolute_deadline()
        if deadline is None or delivery_time <= deadline:
            tally.delivered_in_deadline += 1
        self._sketch.add(max(0.0, delay))
        self._windows.add_delivery(delivery_time)
        return True

    def on_replication(self, packet: Packet) -> None:
        """Account one replica creation."""
        self._tally(packet).replicas_created += 1

    def is_delivered(self, packet_id: int) -> bool:
        """Whether the packet has been delivered (for end-of-run tracing)."""
        return bool(self._delivered[self._row_of(packet_id)])

    def finalize(self) -> StreamingSummary:
        """Seal and return the summary (computes undelivered residence)."""
        undelivered = ~self._delivered
        if undelivered.any():
            creation = np.asarray(self._creation_times, dtype=np.float64)
            residences = np.maximum(0.0, self._horizon - creation[: len(undelivered)][undelivered])
            residence_max = float(residences.max())
        else:
            residence_max = 0.0
        return StreamingSummary(
            delay_sketch=self._sketch,
            class_tallies=self._tallies,
            rate_windows=self._windows,
            undelivered_residence_max=residence_max,
        )
