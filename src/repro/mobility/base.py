"""Mobility model interface.

A mobility model is anything that can produce a :class:`MeetingSchedule`
for a given duration.  The simulator never looks at positions or speeds —
only at the resulting meeting schedule — which matches the paper's system
model of discrete, short-lived transfer opportunities.  Models may still
*derive* the schedule from positions internally: the spatial family
(:mod:`repro.mobility.spatial`) steps nodes on an arena and extracts
radio-range contact windows, but hands the simulator the same schedule
abstraction as the inter-meeting-time samplers here.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from .schedule import MeetingSchedule


class MobilityModel(abc.ABC):
    """Abstract base class for meeting-schedule generators."""

    def __init__(self, num_nodes: int, seed: Optional[int] = None) -> None:
        if num_nodes < 2:
            raise ValueError("a DTN needs at least two nodes")
        self.num_nodes = num_nodes
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def node_ids(self) -> range:
        """Node identifiers, ``0 .. num_nodes - 1``."""
        return range(self.num_nodes)

    @abc.abstractmethod
    def generate(self, duration: float) -> MeetingSchedule:
        """Generate a meeting schedule covering ``[0, duration)`` seconds."""

    def expected_pair_rate(self, node_a: int, node_b: int) -> float:
        """Expected meetings per second for the pair, if the model knows it.

        Models that cannot provide an analytic rate return ``nan``; the
        value is used only by diagnostics and tests.
        """
        return float("nan")
