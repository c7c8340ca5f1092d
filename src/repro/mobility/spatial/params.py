"""Shared parameters of the position-based mobility models.

Every spatial model moves nodes on a bounded rectangular arena and feeds
the same radio-range contact extractor, so the geometry, radio and
kinematics knobs live in one frozen dataclass that serializes with the
experiment configuration.  The defaults describe a campus-scale arena
(1 km square, 100 m radio range, pedestrian-to-vehicle speeds) in which
the default 15-minute synthetic experiment produces a few hundred
contacts — the same order as the paper's synthetic meeting processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict

from ... import units


@dataclass(frozen=True)
class SpatialParameters:
    """Geometry, radio and kinematics of a position-based mobility model.

    Attributes:
        arena_width: Arena width in metres (nodes stay inside ``[0, width]``).
        arena_height: Arena height in metres.
        radio_range: Two nodes are in contact while their distance is at
            most this many metres.
        speed_min: Lower bound of the per-leg node speed draw (m/s).
        speed_max: Upper bound of the per-leg node speed draw (m/s).
        pause_max: Random-waypoint pause time upper bound in seconds
            (0 disables pausing).
        heading_epoch: Random-walk mean seconds between heading redraws
            (epoch lengths are exponential with this mean).
        time_step: Seconds between position samples; contact windows are
            resolved on this grid.
        grid_spacing: Street spacing in metres for :class:`GridRoutes`.
        turn_probability: Probability that a grid-routed vehicle turns at
            an intersection where going straight is possible.
        link_rate: Link bandwidth while in range, in bytes per second;
            a contact's capacity is the integral of the rate over its
            window.
        distance_rate: When true, the link rate degrades quadratically
            with distance (``rate * (1 - (d / radio_range)^2)``) and each
            contact carries a sampled per-step bandwidth profile instead
            of the constant-rate default.
    """

    arena_width: float = 1000.0
    arena_height: float = 1000.0
    radio_range: float = 100.0
    speed_min: float = 2.0
    speed_max: float = 12.0
    pause_max: float = 0.0
    heading_epoch: float = 30.0
    time_step: float = 1.0
    grid_spacing: float = 200.0
    turn_probability: float = 0.35
    link_rate: float = 25 * units.KB
    distance_rate: bool = False

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: the latter lets nan through.
        if not (self.arena_width > 0 and self.arena_height > 0):
            raise ValueError("arena dimensions must be positive")
        if not self.radio_range > 0:
            raise ValueError("radio_range must be positive")
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if not self.pause_max >= 0:
            raise ValueError("pause_max must be non-negative")
        if not self.heading_epoch > 0:
            raise ValueError("heading_epoch must be positive")
        if not self.time_step > 0:
            raise ValueError("time_step must be positive")
        if not self.grid_spacing > 0:
            raise ValueError("grid_spacing must be positive")
        if not 0.0 <= self.turn_probability <= 1.0:
            raise ValueError("turn_probability must be in [0, 1]")
        if not self.link_rate > 0:
            raise ValueError("link_rate must be positive")

    def with_arena(self, side: float) -> "SpatialParameters":
        """Return a copy with a square arena of the given side (metres)."""
        return replace(self, arena_width=float(side), arena_height=float(side))

    def with_radio_range(self, radio_range: float) -> "SpatialParameters":
        """Return a copy with the given radio range (metres)."""
        return replace(self, radio_range=float(radio_range))

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used by the experiment engine)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpatialParameters":
        """Rebuild parameters from their :meth:`to_dict` form."""
        return cls(**data)
