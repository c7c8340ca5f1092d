"""Declarative traffic-workload parameters.

Every knob of the traffic subsystem — which arrival model generates
packets, how bursty the arrivals are, how skewed the destination
popularity is, and how the packet population splits into traffic
classes — lives in one frozen dataclass that serializes with the
experiment configuration, exactly like
:class:`~repro.mobility.spatial.SpatialParameters` does for the spatial
mobility models.  The defaults describe the paper's workload (uniform
per-pair Poisson traffic, one default class), so a configuration that
never touches :class:`WorkloadParameters` generates byte-identical
traffic to the pre-subsystem harness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

from .. import units
from ..dtn.packet import DEFAULT_TRAFFIC_CLASS

__all__ = ["DEFAULT_TRAFFIC_CLASS", "TrafficClass", "WorkloadParameters"]


@dataclass(frozen=True)
class TrafficClass:
    """One class of a multi-class traffic mix.

    Attributes:
        name: Class label carried on every packet of the class (and the
            key of the per-class metric breakdowns).
        weight: Relative share of generated packets assigned to the
            class (weights are normalised over the mix).
        size: Packet size in bytes; ``None`` inherits the workload's
            packet size.
        deadline: Relative packet lifetime (TTL) in seconds; ``None``
            inherits the workload's deadline.
        priority: Informational priority tag carried on the packets.
            The buffer and eviction machinery treat all classes alike —
            priority exists so analyses (and future schedulers) can
            split results by class, not to change routing behaviour.
    """

    name: str
    weight: float = 1.0
    size: Optional[int] = None
    deadline: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("traffic class name must be non-empty")
        if self.weight <= 0:
            raise ValueError("traffic class weight must be positive")
        if self.size is not None and self.size <= 0:
            raise ValueError("traffic class size must be positive when given")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("traffic class deadline must be positive when given")

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used by the experiment engine)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrafficClass":
        """Rebuild a class from its :meth:`to_dict` form."""
        return cls(**data)


@dataclass(frozen=True)
class WorkloadParameters:
    """Arrival, popularity and class-mix knobs of the traffic subsystem.

    Attributes:
        model: Name of the arrival model (a key of
            :data:`~repro.workloads.WORKLOAD_MODELS`).  The default
            ``uniform`` is the paper's per-pair Poisson generator and is
            byte-identical to the historic ``PoissonWorkload``.
        zipf_alpha: Skew exponent of the ``zipf`` destination
            popularity (larger = more skewed; 0 degenerates to uniform).
        hotspot_fraction: Fraction of nodes that are hotspots under the
            ``hotspot`` popularity (at least one node).
        hotspot_weight: Probability mass concentrated on the hotspot
            nodes (the remainder spreads uniformly over the others).
        burstiness: Peak-to-mean rate ratio of the ``bursty`` MMPP
            model; the ON-state rate is ``burstiness`` times the mean
            rate and the duty cycle is ``1 / burstiness``, so the mean
            load is preserved whatever the burstiness.
        burst_cycle: Mean length of one ON+OFF cycle in seconds.
        diurnal_amplitude: Relative amplitude of the ``diurnal`` rate
            profile in ``[0, 1)``; the instantaneous rate oscillates
            between ``(1 - a)`` and ``(1 + a)`` times the mean.
        diurnal_period: Period of the diurnal profile in seconds.
        classes: The multi-class traffic mix; empty means the single
            default class (every packet tagged
            :data:`DEFAULT_TRAFFIC_CLASS`, inheriting the workload's
            size and deadline).
    """

    model: str = "uniform"
    zipf_alpha: float = 0.8
    hotspot_fraction: float = 0.1
    hotspot_weight: float = 0.7
    burstiness: float = 4.0
    burst_cycle: float = 600.0
    diurnal_amplitude: float = 0.5
    diurnal_period: float = 24 * units.HOUR
    classes: Tuple[TrafficClass, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # The model name itself is validated against the registry by
        # the callers that resolve it (configs, specs, the factory) so
        # this module stays import-cycle free.
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative")
        if not 0.0 < self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in (0, 1]")
        if not 0.0 < self.hotspot_weight < 1.0:
            raise ValueError("hotspot_weight must be in (0, 1)")
        if self.burstiness <= 1.0:
            raise ValueError("burstiness must exceed 1 (1 = not bursty)")
        if self.burst_cycle <= 0:
            raise ValueError("burst_cycle must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        if not isinstance(self.classes, tuple):
            object.__setattr__(self, "classes", tuple(self.classes))
        names = [cls.name for cls in self.classes]
        if len(names) != len(set(names)):
            raise ValueError("traffic class names must be unique")

    def with_model(self, model: str) -> "WorkloadParameters":
        """Return a copy using the named arrival model."""
        return replace(self, model=str(model))

    def is_default(self) -> bool:
        """True when these parameters generate the historic default traffic."""
        return self == WorkloadParameters()

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used by the experiment engine)."""
        data = asdict(self)
        data["classes"] = [cls.to_dict() for cls in self.classes]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadParameters":
        """Rebuild parameters from their :meth:`to_dict` form."""
        kwargs = dict(data)
        kwargs["classes"] = tuple(
            entry if isinstance(entry, TrafficClass) else TrafficClass.from_dict(entry)
            for entry in kwargs.get("classes", ())
        )
        return cls(**kwargs)
