"""Radio-range contact extraction from swept node positions.

The extractor consumes a stream of ``(time, positions)`` snapshots on a
fixed time grid and emits *durational* :class:`~repro.mobility.schedule.Contact`
windows: a contact opens at the first sample where a pair's distance is
within the radio range and closes at the first sample where it is not
(or at the end of the sweep).  Windows of the same pair therefore never
overlap, and extraction is symmetric in the pair by construction — the
distance matrix knows no direction.

Capacity is the integral of the link rate over the window.  With the
constant-rate default that is ``link_rate * duration`` carried by the
schedule-wide :data:`~repro.mobility.schedule.CONSTANT_RATE` profile;
with ``distance_rate`` each contact carries a
:class:`SampledRateLinkModel` whose per-step rates degrade quadratically
with the sampled pair distance.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..schedule import Contact, LinkModel
from .params import SpatialParameters

#: Fraction of the nominal link rate used as a floor for sampled rates,
#: keeping every cumulative byte curve strictly increasing (invertible).
_RATE_FLOOR_FRACTION = 1e-6


class SampledRateLinkModel(LinkModel):
    """A piecewise-constant bandwidth profile sampled on the sweep grid.

    Args:
        time_step: Seconds covered by each rate sample.
        rates: Bytes per second during each consecutive step of the
            contact window, in order.  Rates are floored at a tiny
            positive value so the cumulative byte curve stays strictly
            increasing and both directions of the profile are well
            defined.
    """

    __slots__ = ("time_step", "_knots", "_cumulative")

    def __init__(self, time_step: float, rates: Iterable[float]) -> None:
        rate_array = np.asarray(list(rates), dtype=float)
        if rate_array.size == 0:
            raise ValueError("a sampled profile needs at least one rate")
        floor = _RATE_FLOOR_FRACTION * float(rate_array.max(initial=1.0))
        rate_array = np.maximum(rate_array, max(floor, 1e-12))
        self.time_step = float(time_step)
        self._knots = np.arange(rate_array.size + 1, dtype=float) * self.time_step
        self._cumulative = np.concatenate(
            ([0.0], np.cumsum(rate_array) * self.time_step)
        )

    @property
    def total_bytes(self) -> float:
        """Bytes carried over the full sampled window."""
        return float(self._cumulative[-1])

    def bytes_within(self, contact: Contact, elapsed: float) -> float:
        """Cumulative bytes the profile carries in the first *elapsed* seconds."""
        if elapsed <= 0.0:
            return 0.0
        return float(np.interp(elapsed, self._knots, self._cumulative))

    def time_to_transfer(self, contact: Contact, cumulative_bytes: float) -> float:
        """Elapsed seconds until *cumulative_bytes* have been carried."""
        if cumulative_bytes <= 0.0:
            return 0.0
        return float(np.interp(cumulative_bytes, self._cumulative, self._knots))


class ContactExtractor:
    """Sweeps position snapshots into durational contact windows.

    Args:
        params: The spatial parameters supplying the radio range, the
            sweep ``time_step``, the link rate and the distance-rate
            switch.
    """

    def __init__(self, params: SpatialParameters) -> None:
        self.params = params

    # ------------------------------------------------------------------
    # Per-snapshot geometry
    # ------------------------------------------------------------------
    @staticmethod
    def _squared_distances(positions: np.ndarray) -> np.ndarray:
        """Pairwise squared-distance matrix of one ``(num_nodes, 2)`` snapshot."""
        deltas = positions[:, None, :] - positions[None, :, :]
        return np.einsum("ijk,ijk->ij", deltas, deltas)

    def adjacency(self, positions: np.ndarray) -> np.ndarray:
        """Boolean in-range matrix for one ``(num_nodes, 2)`` snapshot."""
        return self._adjacency_from(self._squared_distances(positions))

    def _adjacency_from(self, squared: np.ndarray) -> np.ndarray:
        """Boolean in-range matrix from a squared-distance matrix."""
        within = squared <= self.params.radio_range**2
        np.fill_diagonal(within, False)
        return within

    def _rates_from(self, squared: np.ndarray) -> np.ndarray:
        """Distance-degraded link rates from a squared-distance matrix."""
        fraction = 1.0 - squared / self.params.radio_range**2
        return self.params.link_rate * np.clip(fraction, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Sweep
    # ------------------------------------------------------------------
    def extract(
        self,
        snapshots: Iterator[Tuple[float, np.ndarray]],
        duration: float,
    ) -> List[Contact]:
        """Extract all contact windows from a position sweep.

        Args:
            snapshots: Ordered ``(time, positions)`` samples on a fixed
                grid spaced ``params.time_step`` apart, starting at 0.
            duration: End of the sweep; still-open windows are closed
                (clipped) here.

        Returns:
            Contacts sorted by ``(start, node_a, node_b)``; per pair the
            windows are disjoint and each spans at least one time step.
        """
        params = self.params
        open_contacts: Dict[Tuple[int, int], "_OpenWindow"] = {}
        contacts: List[Contact] = []
        previous = None
        for time, positions in snapshots:
            squared = self._squared_distances(positions)
            adjacency = self._adjacency_from(squared)
            rates: Optional[np.ndarray] = None
            if params.distance_rate:
                rates = self._rates_from(squared)
            if previous is None:
                changed = np.argwhere(np.triu(adjacency, k=1))
            else:
                changed = np.argwhere(np.triu(adjacency ^ previous, k=1))
            for a, b in changed:
                pair = (int(a), int(b))
                if adjacency[a, b]:
                    open_contacts[pair] = _OpenWindow(entry=time)
                else:
                    closed = self._close(pair, open_contacts.pop(pair), end=time)
                    if closed is not None:
                        contacts.append(closed)
            if rates is not None:
                for pair, window in open_contacts.items():
                    window.rates.append(float(rates[pair[0], pair[1]]))
            previous = adjacency
        for pair in sorted(open_contacts):
            contact = self._close(pair, open_contacts[pair], end=duration)
            if contact is not None:
                contacts.append(contact)
        contacts.sort(key=lambda c: (c.time, c.node_a, c.node_b))
        return contacts

    def _close(
        self, pair: Tuple[int, int], window: "_OpenWindow", end: float
    ) -> Optional[Contact]:
        """Turn one open window into a finished :class:`Contact`.

        Returns ``None`` for the degenerate window that opens exactly at
        the end of the sweep (its span would be zero).
        """
        params = self.params
        span = end - window.entry
        if span <= 0.0:
            return None
        link_model: Optional[LinkModel] = None
        if params.distance_rate and window.rates:
            # One rate sample covers one time step of the window; a sweep
            # that ends mid-window sampled one snapshot more than the
            # clipped span covers, so trim to the span's step count.
            steps = max(1, int(round(span / params.time_step)))
            link_model = SampledRateLinkModel(
                params.time_step, window.rates[:steps]
            )
            capacity = link_model.total_bytes
        else:
            capacity = params.link_rate * span
        return Contact(
            time=window.entry,
            node_a=pair[0],
            node_b=pair[1],
            capacity=capacity,
            duration=span,
            link_model=link_model,
        )


class _OpenWindow:
    """Mutable state of one in-progress contact window."""

    __slots__ = ("entry", "rates")

    def __init__(self, entry: float) -> None:
        self.entry = entry
        self.rates: List[float] = []
