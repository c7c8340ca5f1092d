"""Declarative fault-injection parameters.

Every knob of the fault subsystem — which fault model disrupts the
deployment, how often, for how long, and whether a crashed node keeps
its buffered replicas — lives in one frozen dataclass that serializes
with the experiment configuration, exactly like
:class:`~repro.workloads.WorkloadParameters` does for traffic.  The
default (``model=None``) disables injection entirely, so a
configuration that never touches :class:`FaultParameters` runs the
byte-identical fault-free path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

__all__ = ["FaultParameters"]


@dataclass(frozen=True)
class FaultParameters:
    """Intensity and shape knobs shared by all fault models.

    Attributes:
        model: Name of the fault model (a key of
            :data:`~repro.faults.FAULT_MODELS`), or ``None`` to disable
            fault injection — the default, and the only setting that
            keeps result payloads wire-identical to a fault-free build.
        rate: Per-model intensity in ``[0, 1]``.  For ``crash`` and
            ``churn`` it is the probability that a given node is
            faulted at all; for ``contact`` it is the per-contact
            no-show *and* mid-transfer-kill probability; for
            ``metadata`` it is the per-contact probability that the
            control exchange (acks / delay metadata) is lost.
        mean_downtime: Mean length of one down-window as a fraction of
            the simulation horizon, in ``(0, 1]``.
        wipe_buffers: Whether a ``crash`` loses the node's buffered
            replicas (``True``, the paper-relevant case) or persists
            them across the restart (``False``).
        max_windows: Upper bound on down-windows per node drawn by the
            ``churn`` model.
        seed_offset: Extra offset mixed into the fault stream seed so
            replications can decorrelate fault draws without touching
            the simulation seed.
    """

    model: Optional[str] = None
    rate: float = 0.2
    mean_downtime: float = 0.1
    wipe_buffers: bool = True
    max_windows: int = 4
    seed_offset: int = 0

    def __post_init__(self) -> None:
        # The model name itself is validated against the registry by
        # the callers that resolve it (configs, specs, the factory) so
        # this module stays import-cycle free.
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        if not 0.0 < self.mean_downtime <= 1.0:
            raise ValueError("mean_downtime must be in (0, 1]")
        if self.max_windows < 1:
            raise ValueError("max_windows must be at least 1")

    @property
    def enabled(self) -> bool:
        """Whether these parameters request any fault injection."""
        return self.model is not None

    def with_model(self, model: Optional[str]) -> "FaultParameters":
        """A copy selecting a different fault model (or ``None``)."""
        return replace(self, model=model)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used by the experiment engine)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultParameters":
        """Rebuild parameters from their :meth:`to_dict` form."""
        return cls(**data)
