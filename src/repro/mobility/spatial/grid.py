"""Grid-constrained routes: vehicles on a street grid (DieselNet-like).

Nodes are vehicles confined to a Manhattan street grid with spacing
``grid_spacing``: they drive along streets at a per-vehicle speed and
choose, at every intersection, whether to continue straight or turn.
Contacts therefore cluster along shared street segments and at
intersections — the geometric analogue of the route-affinity structure
the synthetic DieselNet trace generator postulates statistically.

Positions are tracked as exact grid state (intersection indices plus
metres of progress along the current block), so no floating-point drift
accumulates over long sweeps and the position stream is bit-reproducible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import SpatialModel
from .params import SpatialParameters

#: Numerical slack when deciding whether a step reaches an intersection.
_EPS = 1e-9


class GridRoutes(SpatialModel):
    """Vehicles constrained to a street grid with random turns.

    Args:
        num_nodes: Number of vehicles.
        params: Spatial parameters; ``grid_spacing`` sets the street
            spacing and ``turn_probability`` how often a vehicle turns at
            an intersection where going straight is possible.
        seed: Random seed of the position stream.

    Raises:
        ValueError: When the arena is smaller than one grid block.
    """

    def __init__(
        self,
        num_nodes: int,
        params: Optional[SpatialParameters] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(num_nodes=num_nodes, params=params, seed=seed)
        spacing = self.params.grid_spacing
        self._nx = int(np.floor(self.params.arena_width / spacing + _EPS))
        self._ny = int(np.floor(self.params.arena_height / spacing + _EPS))
        if self._nx < 1 or self._ny < 1:
            raise ValueError(
                "arena must span at least one grid block; "
                f"got {self.params.arena_width}x{self.params.arena_height} m "
                f"at {spacing} m spacing"
            )
        self._ix: Optional[np.ndarray] = None
        self._iy: Optional[np.ndarray] = None
        self._axis: Optional[np.ndarray] = None
        self._direction: Optional[np.ndarray] = None
        self._progress: Optional[np.ndarray] = None
        self._speeds: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Grid state
    # ------------------------------------------------------------------
    def _heading_valid(self, ix: int, iy: int, axis: int, direction: int) -> bool:
        """Whether a vehicle at intersection (ix, iy) can head this way."""
        if axis == 0:
            return 0 <= ix + direction <= self._nx
        return 0 <= iy + direction <= self._ny

    def _choose_heading(self, node: int, straight: bool) -> None:
        """Pick the heading leaving the node's current intersection.

        Candidates are considered in a fixed order (straight, the two
        cross-street turns, U-turn) and drawn from the model RNG, so the
        choice sequence is part of the deterministic position stream.
        """
        assert self._axis is not None and self._direction is not None
        assert self._ix is not None and self._iy is not None
        ix, iy = int(self._ix[node]), int(self._iy[node])
        axis, direction = int(self._axis[node]), int(self._direction[node])
        ahead = (axis, direction)
        turns = [
            (1 - axis, 1),
            (1 - axis, -1),
        ]
        valid_turns = [h for h in turns if self._heading_valid(ix, iy, *h)]
        straight_ok = straight and self._heading_valid(ix, iy, *ahead)
        if straight_ok and (
            not valid_turns or self._rng.random() >= self.params.turn_probability
        ):
            choice = ahead
        elif valid_turns:
            choice = valid_turns[int(self._rng.integers(len(valid_turns)))]
        else:
            choice = (axis, -direction)  # dead end: U-turn
        self._axis[node], self._direction[node] = choice

    def _positions_from_state(self) -> np.ndarray:
        """Compute metric positions from the exact grid state."""
        assert self._ix is not None and self._progress is not None
        spacing = self.params.grid_spacing
        x = self._ix * spacing
        y = self._iy * spacing
        along_x = self._axis == 0
        offset = self._progress * self._direction
        return np.column_stack(
            (x + np.where(along_x, offset, 0.0), y + np.where(along_x, 0.0, offset))
        )

    # ------------------------------------------------------------------
    # SpatialModel hooks
    # ------------------------------------------------------------------
    def initial_positions(self) -> np.ndarray:
        """Scatter vehicles over intersections with random headings."""
        self._ix = self._rng.integers(0, self._nx + 1, self.num_nodes)
        self._iy = self._rng.integers(0, self._ny + 1, self.num_nodes)
        self._axis = self._rng.integers(0, 2, self.num_nodes)
        self._direction = np.where(
            self._rng.random(self.num_nodes) < 0.5, -1, 1
        ).astype(np.int64)
        self._progress = np.zeros(self.num_nodes)
        self._speeds = self._draw_speeds(self.num_nodes)
        # Initial headings drawn blind may point off the grid; re-choose
        # those through the intersection rule (ascending node order).
        for node in range(self.num_nodes):
            if not self._heading_valid(
                int(self._ix[node]),
                int(self._iy[node]),
                int(self._axis[node]),
                int(self._direction[node]),
            ):
                self._choose_heading(node, straight=False)
        return self._positions_from_state()

    def advance(self, positions: np.ndarray, time: float, dt: float) -> np.ndarray:
        """Drive every vehicle along its street, turning at intersections."""
        assert self._progress is not None and self._speeds is not None
        spacing = self.params.grid_spacing
        step = self._speeds * dt
        reaches = self._progress + step >= spacing - _EPS
        self._progress[~reaches] += step[~reaches]
        for node in np.nonzero(reaches)[0]:
            remaining = step[node]
            while remaining > 0.0:
                to_next = spacing - self._progress[node]
                if remaining < to_next - _EPS:
                    self._progress[node] += remaining
                    break
                remaining -= to_next
                # Arrive at the next intersection, then choose a heading.
                if self._axis[node] == 0:
                    self._ix[node] += self._direction[node]
                else:
                    self._iy[node] += self._direction[node]
                self._progress[node] = 0.0
                self._choose_heading(int(node), straight=True)
        return self._positions_from_state()
