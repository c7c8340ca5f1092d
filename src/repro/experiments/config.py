"""Experiment configuration.

Two families of experiments exist in the paper (Table 4): trace-driven
experiments over the DieselNet day traces and synthetic-mobility
experiments (exponential and power-law).  The configuration dataclasses
capture the paper-scale defaults and offer reduced "CI-scale" variants used
by the test suite and the benchmark harness, where only the *shape* of the
results matters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from .. import constants, units
from ..dtn.results import RESULT_MODE_RECORDS, RESULT_MODES
from ..dtn.simulator import CONTACT_MODELS
from ..exceptions import ConfigurationError
from ..mobility import MOBILITY_MODEL_NAMES
from ..mobility.spatial import SpatialParameters
from ..routing.registry import create_factory
from ..traces.dieselnet import DieselNetParameters
from ..faults import FAULT_MODEL_NAMES, FaultParameters
from ..workloads import WORKLOAD_MODEL_NAMES, WorkloadParameters


def _validate_positive(name: str, value: float) -> None:
    # ``value <= 0`` alone would let nan through.
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")


def _validate_buffer_capacity(value: float) -> None:
    # ``value <= 0`` alone would let nan through; ``inf`` means unlimited.
    if not value > 0:
        raise ConfigurationError(f"buffer_capacity must be positive, got {value!r}")


def _validate_seed(seed: int) -> None:
    # numpy's generators refuse a negative seed with a bare ValueError.
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed!r}")


def _validate_contact_model(contact_model: str) -> None:
    if contact_model not in CONTACT_MODELS:
        raise ConfigurationError(
            f"unknown contact_model {contact_model!r}; "
            f"expected one of {', '.join(CONTACT_MODELS)}"
        )


def _validate_mobility(mobility: str) -> None:
    if mobility not in MOBILITY_MODEL_NAMES:
        raise ConfigurationError(
            f"unknown mobility model {mobility!r}; "
            f"expected one of {', '.join(MOBILITY_MODEL_NAMES)}"
        )


def _validate_faults(faults: FaultParameters) -> None:
    if faults.model is not None and faults.model not in FAULT_MODEL_NAMES:
        raise ConfigurationError(
            f"unknown fault model {faults.model!r}; "
            f"expected one of {', '.join(FAULT_MODEL_NAMES)}"
        )


def _validate_workload(workload: WorkloadParameters) -> None:
    if workload.model not in WORKLOAD_MODEL_NAMES:
        raise ConfigurationError(
            f"unknown workload model {workload.model!r}; "
            f"expected one of {', '.join(WORKLOAD_MODEL_NAMES)}"
        )


def _validate_result_mode(result_mode: str) -> None:
    if result_mode not in RESULT_MODES:
        raise ConfigurationError(
            f"unknown result_mode {result_mode!r}; "
            f"expected one of {', '.join(RESULT_MODES)}"
        )


@dataclass(frozen=True)
class ProtocolSpec:
    """How to build one protocol curve of a figure."""

    label: str
    registry_name: str
    options: Dict[str, object] = field(default_factory=dict)

    def factory(self, **extra):
        """Build the protocol factory, merging per-experiment options."""
        merged = {**self.options, **extra}
        return create_factory(self.registry_name, **merged)

    def with_options(self, **extra) -> "ProtocolSpec":
        """Return a copy with *extra* merged into the factory options."""
        return ProtocolSpec(self.label, self.registry_name, {**self.options, **extra})

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used by the experiment engine)."""
        return {
            "label": self.label,
            "registry_name": self.registry_name,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProtocolSpec":
        """Rebuild a protocol spec from its :meth:`to_dict` form."""
        return cls(
            label=str(data["label"]),
            registry_name=str(data["registry_name"]),
            options=dict(data.get("options", {})),
        )


def standard_protocols(metric: str = "average_delay") -> List[ProtocolSpec]:
    """The four protocols compared throughout Section 6.2 / 6.3.

    RAPID is instantiated with the requested routing *metric*; the paper's
    figures use the metric matching the quantity on the y axis.
    """
    return [
        ProtocolSpec("Rapid", "rapid", {"metric": metric, "label": "Rapid"}),
        ProtocolSpec("MaxProp", "maxprop"),
        ProtocolSpec("Spray and Wait", "spray-and-wait"),
        ProtocolSpec("Random", "random"),
    ]


def component_protocols() -> List[ProtocolSpec]:
    """The component-value protocols of Figure 14 (cumulative additions)."""
    return [
        ProtocolSpec("Rapid", "rapid", {"metric": "average_delay", "label": "Rapid"}),
        ProtocolSpec("Rapid: Local", "rapid-local", {"metric": "average_delay"}),
        ProtocolSpec("Random: With Acks", "random-acks"),
        ProtocolSpec("Random", "random"),
    ]


def global_channel_protocols(metric: str = "average_delay") -> List[ProtocolSpec]:
    """In-band versus instant-global control channel (Figures 10-12)."""
    return [
        ProtocolSpec("In-band control channel", "rapid", {"metric": metric, "label": "rapid-inband"}),
        ProtocolSpec("Instant global control channel", "rapid-global", {"metric": metric}),
    ]


@dataclass
class TraceExperimentConfig:
    """Configuration of the trace-driven (DieselNet) experiments."""

    trace_parameters: DieselNetParameters = field(default_factory=DieselNetParameters)
    num_days: int = constants.TRACE_NUM_DAYS
    buffer_capacity: float = constants.TRACE_BUFFER_CAPACITY
    packet_size: int = constants.DEFAULT_PACKET_SIZE
    deadline: float = constants.TRACE_DEADLINE
    load_packets_per_hour: float = constants.TRACE_DEFAULT_LOAD_PER_HOUR
    runs_per_day: int = 1
    seed: int = 7
    #: Factor applied to RAPID's per-record metadata byte costs.  Reduced
    #: configurations scale it together with the transfer-opportunity sizes
    #: so the metadata-to-opportunity ratio of the deployment is preserved.
    metadata_byte_scale: float = 1.0
    #: Contact model for every cell of this experiment: ``instantaneous``
    #: (the paper's Section 3.1 default), ``durational`` or
    #: ``interruptible``.  Individual :class:`~repro.engine.ScenarioSpec`
    #: cells may override it, which is how grids sweep the axis.
    contact_model: str = "instantaneous"
    #: With the interruptible model: resume cut transfers on the next
    #: contact of the same pair instead of discarding the partial bytes.
    contact_resume: bool = False
    #: Traffic workload of every cell: arrival model, burstiness,
    #: destination popularity and class mix (see :mod:`repro.workloads`).
    #: The default generates the paper's uniform per-pair Poisson traffic
    #: byte-identically to the pre-subsystem harness.  Individual
    #: :class:`~repro.engine.ScenarioSpec` cells may override the model
    #: name, which is how grids sweep the workload axis.
    workload: WorkloadParameters = field(default_factory=WorkloadParameters)
    #: Fault injection of every cell (see :mod:`repro.faults`).  The
    #: default (``model=None``) disables injection and keeps the run
    #: byte-identical to a fault-free build.  Individual
    #: :class:`~repro.engine.ScenarioSpec` cells may override the model
    #: name, which is how grids sweep the fault axis.
    faults: FaultParameters = field(default_factory=FaultParameters)
    #: Result layer of every cell: ``"records"`` (the byte-identical
    #: default — one per-packet record each) or ``"streaming"``
    #: (bounded-size online summaries, :mod:`repro.analysis.streaming`,
    #: for long-horizon runs).  Individual
    #: :class:`~repro.engine.ScenarioSpec` cells may override it.
    result_mode: str = RESULT_MODE_RECORDS

    def __post_init__(self) -> None:
        if self.num_days < 1:
            raise ConfigurationError("num_days must be at least 1")
        _validate_positive("load", self.load_packets_per_hour)
        _validate_buffer_capacity(self.buffer_capacity)
        _validate_seed(self.seed)
        _validate_contact_model(self.contact_model)
        _validate_workload(self.workload)
        _validate_faults(self.faults)
        _validate_result_mode(self.result_mode)

    def with_load(self, load_packets_per_hour: float) -> "TraceExperimentConfig":
        """Return a copy at the given load (packets/hour/destination)."""
        return replace(self, load_packets_per_hour=load_packets_per_hour)

    def with_contact_model(self, contact_model: str) -> "TraceExperimentConfig":
        """Return a copy using the named contact model."""
        return replace(self, contact_model=contact_model)

    def with_workload(self, workload: WorkloadParameters) -> "TraceExperimentConfig":
        """Return a copy using the given workload parameters."""
        return replace(self, workload=workload)

    def with_faults(self, faults: FaultParameters) -> "TraceExperimentConfig":
        """Return a copy using the given fault-injection parameters."""
        return replace(self, faults=faults)

    def with_result_mode(self, result_mode: str) -> "TraceExperimentConfig":
        """Return a copy using the named result mode."""
        return replace(self, result_mode=result_mode)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used by the experiment engine)."""
        data = asdict(self)
        data["workload"] = self.workload.to_dict()
        data["faults"] = self.faults.to_dict()
        data["family"] = "trace"
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceExperimentConfig":
        """Rebuild a configuration from its :meth:`to_dict` form."""
        kwargs = {k: v for k, v in data.items() if k != "family"}
        kwargs["trace_parameters"] = DieselNetParameters(**kwargs["trace_parameters"])
        if isinstance(kwargs.get("workload"), dict):
            kwargs["workload"] = WorkloadParameters.from_dict(kwargs["workload"])
        if isinstance(kwargs.get("faults"), dict):
            kwargs["faults"] = FaultParameters.from_dict(kwargs["faults"])
        return cls(**kwargs)

    @classmethod
    def paper_scale(cls, seed: int = 7) -> "TraceExperimentConfig":
        """The deployment-scale configuration (40 buses, 58 x 19-hour days)."""
        return cls(seed=seed)

    @classmethod
    def ci_scale(cls, seed: int = 7, num_days: int = 3) -> "TraceExperimentConfig":
        """A reduced configuration for tests and benchmarks.

        A smaller fleet over a two-hour "day".  The transfer-opportunity
        sizes are scaled down together with the load range so that, as in
        the real traces, bandwidth becomes the binding constraint at the
        upper end of the load sweep (that is where the protocols separate);
        storage stays effectively unconstrained as in the paper's
        trace-driven experiments.
        """
        parameters = DieselNetParameters(
            num_buses=12,
            avg_buses_per_day=8,
            day_duration=2 * units.HOUR,
            avg_meetings_per_day=70,
            avg_bytes_per_day=70 * 80 * units.KB,
            num_routes=3,
            same_route_affinity=6.0,
            capacity_sigma=1.2,
            min_capacity=2 * units.KB,
        )
        return cls(
            trace_parameters=parameters,
            num_days=num_days,
            deadline=parameters.day_duration * 0.15,
            seed=seed,
            # Opportunities are ~20x smaller than the deployment's; scale
            # the metadata record costs by the same factor so the control
            # channel keeps the deployment's metadata:bandwidth ratio.
            metadata_byte_scale=0.05,
        )


@dataclass
class SyntheticExperimentConfig:
    """Configuration of the synthetic-mobility experiments (Table 4, left)."""

    num_nodes: int = constants.SYNTHETIC_NUM_NODES
    mean_inter_meeting: float = constants.SYNTHETIC_MEAN_INTERMEETING
    transfer_opportunity: float = constants.SYNTHETIC_TRANSFER_OPPORTUNITY
    duration: float = constants.SYNTHETIC_DURATION
    buffer_capacity: float = constants.SYNTHETIC_BUFFER_CAPACITY
    packet_size: int = constants.DEFAULT_PACKET_SIZE
    #: Packet deadline in seconds; ``None`` creates packets without one.
    deadline: Optional[float] = constants.SYNTHETIC_DEADLINE
    packet_interval: float = constants.SYNTHETIC_PACKET_INTERVAL
    #: Mobility model of every cell: an abstract inter-meeting sampler
    #: (``powerlaw``, ``exponential``) or a position-based spatial model
    #: (``waypoint``, ``walk``, ``grid`` — see :mod:`repro.mobility.spatial`).
    #: Individual :class:`~repro.engine.ScenarioSpec` cells may override
    #: it, which is how grids sweep the mobility axis.
    mobility: str = "powerlaw"
    #: Arena geometry, radio range and kinematics of the spatial models;
    #: ignored by the abstract samplers.
    spatial: SpatialParameters = field(default_factory=SpatialParameters)
    num_runs: int = 10
    seed: int = 11
    #: Contact model for every cell (see :class:`TraceExperimentConfig`).
    contact_model: str = "instantaneous"
    #: Resume cut transfers across contacts (see :class:`TraceExperimentConfig`).
    contact_resume: bool = False
    #: Traffic workload of every cell (see :class:`TraceExperimentConfig`).
    workload: WorkloadParameters = field(default_factory=WorkloadParameters)
    #: Fault injection of every cell (see :class:`TraceExperimentConfig`).
    faults: FaultParameters = field(default_factory=FaultParameters)
    #: Result layer of every cell (see :class:`TraceExperimentConfig`).
    result_mode: str = RESULT_MODE_RECORDS

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigurationError("num_nodes must be at least 2 (a DTN needs two nodes)")
        _validate_positive("duration", self.duration)
        _validate_positive("mean_inter_meeting", self.mean_inter_meeting)
        _validate_buffer_capacity(self.buffer_capacity)
        _validate_mobility(self.mobility)
        if self.num_runs < 1:
            raise ConfigurationError("num_runs must be at least 1")
        _validate_seed(self.seed)
        _validate_contact_model(self.contact_model)
        _validate_workload(self.workload)
        _validate_faults(self.faults)
        _validate_result_mode(self.result_mode)

    def with_contact_model(self, contact_model: str) -> "SyntheticExperimentConfig":
        """Return a copy using the named contact model."""
        return replace(self, contact_model=contact_model)

    def with_workload(self, workload: WorkloadParameters) -> "SyntheticExperimentConfig":
        """Return a copy using the given workload parameters."""
        return replace(self, workload=workload)

    def with_faults(self, faults: FaultParameters) -> "SyntheticExperimentConfig":
        """Return a copy using the given fault-injection parameters."""
        return replace(self, faults=faults)

    def with_result_mode(self, result_mode: str) -> "SyntheticExperimentConfig":
        """Return a copy using the named result mode."""
        return replace(self, result_mode=result_mode)

    def load_to_packets_per_hour(self, packets_per_interval: float) -> float:
        """Convert the paper's load axis (packets per ``packet_interval`` per
        destination) into packets per hour per destination."""
        return packets_per_interval * (units.HOUR / self.packet_interval)

    def with_mobility(self, mobility: str) -> "SyntheticExperimentConfig":
        """Return a copy using the named mobility model."""
        return replace(self, mobility=mobility)

    def with_spatial(self, spatial: SpatialParameters) -> "SyntheticExperimentConfig":
        """Return a copy using the given spatial parameters."""
        return replace(self, spatial=spatial)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (used by the experiment engine)."""
        data = asdict(self)
        data["workload"] = self.workload.to_dict()
        data["faults"] = self.faults.to_dict()
        data["family"] = "synthetic"
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SyntheticExperimentConfig":
        """Rebuild a configuration from its :meth:`to_dict` form."""
        kwargs = {k: v for k, v in data.items() if k != "family"}
        if isinstance(kwargs.get("spatial"), dict):
            kwargs["spatial"] = SpatialParameters.from_dict(kwargs["spatial"])
        if isinstance(kwargs.get("workload"), dict):
            kwargs["workload"] = WorkloadParameters.from_dict(kwargs["workload"])
        if isinstance(kwargs.get("faults"), dict):
            kwargs["faults"] = FaultParameters.from_dict(kwargs["faults"])
        return cls(**kwargs)

    def with_buffer(self, buffer_capacity: float) -> "SyntheticExperimentConfig":
        """Return a copy with the given per-node buffer capacity (bytes)."""
        return replace(self, buffer_capacity=buffer_capacity)

    @classmethod
    def paper_scale(cls, mobility: str = "powerlaw", seed: int = 11) -> "SyntheticExperimentConfig":
        """The Table 4 synthetic configuration (20 nodes, 15 minutes)."""
        return cls(mobility=mobility, seed=seed)

    @classmethod
    def ci_scale(cls, mobility: str = "powerlaw", seed: int = 11) -> "SyntheticExperimentConfig":
        """Reduced synthetic configuration for tests and benchmarks.

        The spatial arena is shrunk together with the node count so the
        position-based models keep a comparable contact density at the
        reduced scale.
        """
        return cls(
            num_nodes=10,
            mean_inter_meeting=80.0,
            duration=6 * units.MINUTE,
            buffer_capacity=40 * units.KB,
            deadline=30.0,
            packet_interval=50.0,
            mobility=mobility,
            spatial=SpatialParameters(
                arena_width=500.0, arena_height=500.0, radio_range=100.0
            ),
            num_runs=2,
            seed=seed,
        )
