"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one simulation *cell* — everything needed to
run a single ``run_simulation`` call — as plain, JSON-compatible data:
the experiment family and configuration, the protocol, the load, the
run/day index and the optional overrides (buffer capacity, metadata cap,
deployment noise).  Because a spec is pure data it can be

* shipped to a worker process without pickling live simulator objects,
* hashed into a stable content address for the on-disk result cache, and
* expanded from a :class:`ScenarioGrid` (protocols x loads x runs)
  without touching the simulator.

The heavy inputs (meeting schedules, packet workloads) are **not** part of
the spec; they are rebuilt deterministically from the configuration seeds
by :mod:`repro.engine.worker`, which is what makes process fan-out cheap
and serial/parallel runs bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..dtn.node import DeploymentNoise
from ..dtn.results import RESULT_MODE_RECORDS, RESULT_MODES, RESULT_SCHEMA_VERSION
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from ..experiments.config import (
        ProtocolSpec,
        SyntheticExperimentConfig,
        TraceExperimentConfig,
    )

#: Version of the cell-spec wire format.  It is mixed into every cache key
#: (together with :data:`~repro.dtn.results.RESULT_SCHEMA_VERSION`) so that
#: cached entries written by an incompatible engine are never served.
#: Version 2 added the ``contact_model`` axis; version 3 added the
#: ``mobility`` axis and the spatial parameters of synthetic configs;
#: version 4 added the ``workload`` axis and the workload parameters of
#: both config families; version 5 added the ``faults`` axis and the
#: fault parameters of both config families; version 6 added the
#: ``result_mode`` axis (bounded-memory streaming summaries) to the
#: spec and both config families.
SPEC_SCHEMA_VERSION = 6

ExperimentConfig = Union["TraceExperimentConfig", "SyntheticExperimentConfig"]

FAMILY_TRACE = "trace"
FAMILY_SYNTHETIC = "synthetic"


def canonical_json(data: object) -> str:
    """Render *data* as canonical (sorted-key, compact) JSON."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_key(config: ExperimentConfig) -> str:
    """A canonical string identity for an experiment configuration."""
    return canonical_json(config.to_dict())


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell, described as plain data.

    Attributes:
        family: ``"trace"`` or ``"synthetic"``.
        config: The experiment configuration as its ``to_dict()`` form.
        protocol: The protocol as its ``to_dict()`` form.
        load: The resolved load for this cell — packets per hour per
            destination for trace cells, packets per ``packet_interval``
            per destination for synthetic cells.  Always concrete: grid
            expansion resolves config defaults before building specs so
            that equal cells always hash equally.
        run_index: Day index (trace) or random-run index (synthetic).
        buffer_capacity: Optional override of the config's buffer size.
        metadata_fraction_cap: Optional RAPID control-channel cap.
        noise: Optional :class:`DeploymentNoise` as its ``to_dict()`` form.
        contact_model: Optional override of the config's contact model
            (``instantaneous`` | ``durational`` | ``interruptible``);
            ``None`` defers to the configuration.  This is the engine-level
            handle that lets a grid sweep the contact-model axis.
        contact_options: Optional extra simulator options for the contact
            layer (``contact_resume``, ``contact_interrupt_probability``).
        mobility: Optional override of a synthetic configuration's
            mobility model (``powerlaw`` | ``exponential`` | ``waypoint``
            | ``walk`` | ``grid``); ``None`` defers to the configuration.
            This is the engine-level handle that lets a grid sweep the
            mobility axis.  Trace cells replay fixed day traces and
            reject the override.
        workload: Optional override of the configuration's traffic
            workload model (a :data:`~repro.workloads.WORKLOAD_MODEL_NAMES`
            entry); ``None`` defers to the configuration.  This is the
            engine-level handle that lets a grid sweep the workload
            axis; unlike mobility it applies to both families.
        faults: Optional override of the configuration's fault model (a
            :data:`~repro.faults.FAULT_MODEL_NAMES` entry); ``None``
            defers to the configuration (whose default injects nothing).
            This is the engine-level handle that lets a grid sweep the
            fault axis across both families.
        result_mode: Optional override of the configuration's result
            mode (a :data:`~repro.dtn.results.RESULT_MODES` entry);
            ``None`` defers to the configuration (whose default,
            ``"records"``, keeps per-packet records).  ``"streaming"``
            swaps the record list for bounded-size online summaries
            (:mod:`repro.analysis.streaming`) so long-horizon cells run
            in bounded memory.
    """

    family: str
    config: Dict[str, object]
    protocol: Dict[str, object]
    load: float
    run_index: int
    buffer_capacity: Optional[float] = None
    metadata_fraction_cap: Optional[float] = None
    noise: Optional[Dict[str, object]] = None
    contact_model: Optional[str] = None
    contact_options: Optional[Dict[str, object]] = None
    mobility: Optional[str] = None
    workload: Optional[str] = None
    faults: Optional[str] = None
    result_mode: Optional[str] = None

    def __post_init__(self) -> None:
        from ..dtn.simulator import CONTACT_MODELS
        from ..faults import FAULT_MODEL_NAMES
        from ..mobility import MOBILITY_MODEL_NAMES
        from ..workloads import WORKLOAD_MODEL_NAMES

        if self.family not in (FAMILY_TRACE, FAMILY_SYNTHETIC):
            raise ConfigurationError(
                f"unknown scenario family {self.family!r}; "
                f"expected {FAMILY_TRACE!r} or {FAMILY_SYNTHETIC!r}"
            )
        if not 0 < self.load < math.inf:
            raise ConfigurationError(
                f"scenario load must be a positive finite number, got {self.load!r}"
            )
        if self.run_index < 0:
            raise ConfigurationError("run_index must be non-negative")
        if self.buffer_capacity is not None and not self.buffer_capacity > 0:
            raise ConfigurationError(
                f"buffer_capacity must be positive, got {self.buffer_capacity!r}"
            )
        if self.contact_model is not None and self.contact_model not in CONTACT_MODELS:
            raise ConfigurationError(
                f"unknown contact_model {self.contact_model!r}; "
                f"expected one of {', '.join(CONTACT_MODELS)}"
            )
        if self.mobility is not None:
            if self.family != FAMILY_SYNTHETIC:
                raise ConfigurationError(
                    "the mobility override applies only to synthetic cells; "
                    "trace cells replay fixed day traces"
                )
            if self.mobility not in MOBILITY_MODEL_NAMES:
                raise ConfigurationError(
                    f"unknown mobility model {self.mobility!r}; "
                    f"expected one of {', '.join(MOBILITY_MODEL_NAMES)}"
                )
        if self.workload is not None and self.workload not in WORKLOAD_MODEL_NAMES:
            raise ConfigurationError(
                f"unknown workload model {self.workload!r}; "
                f"expected one of {', '.join(WORKLOAD_MODEL_NAMES)}"
            )
        if self.faults is not None and self.faults not in FAULT_MODEL_NAMES:
            raise ConfigurationError(
                f"unknown fault model {self.faults!r}; "
                f"expected one of {', '.join(FAULT_MODEL_NAMES)}"
            )
        if self.result_mode is not None and self.result_mode not in RESULT_MODES:
            raise ConfigurationError(
                f"unknown result_mode {self.result_mode!r}; "
                f"expected one of {', '.join(RESULT_MODES)}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_cell(
        cls,
        config: ExperimentConfig,
        protocol: "ProtocolSpec",
        load: float,
        run_index: int,
        buffer_capacity: Optional[float] = None,
        metadata_fraction_cap: Optional[float] = None,
        noise: Optional[DeploymentNoise] = None,
        contact_model: Optional[str] = None,
        contact_options: Optional[Dict[str, object]] = None,
        mobility: Optional[str] = None,
        workload: Optional[str] = None,
        faults: Optional[str] = None,
        result_mode: Optional[str] = None,
    ) -> "ScenarioSpec":
        """Build a spec from live configuration objects."""
        from ..experiments.config import TraceExperimentConfig

        family = (
            FAMILY_TRACE if isinstance(config, TraceExperimentConfig) else FAMILY_SYNTHETIC
        )
        config_dict = config.to_dict()
        # Contact options only mean anything under a durational model;
        # dropping them from instantaneous cells keeps such a cell's cache
        # address identical to the plain instantaneous cell it is.
        resolved_model = (
            contact_model
            if contact_model is not None
            else str(config_dict.get("contact_model", "instantaneous"))
        )
        if resolved_model == "instantaneous":
            contact_options = None
        return cls(
            family=family,
            config=config_dict,
            protocol=protocol.to_dict(),
            load=float(load),
            run_index=int(run_index),
            buffer_capacity=buffer_capacity,
            metadata_fraction_cap=metadata_fraction_cap,
            noise=noise.to_dict() if noise is not None else None,
            contact_model=contact_model,
            contact_options=dict(contact_options) if contact_options else None,
            mobility=mobility,
            workload=workload,
            faults=faults,
            result_mode=result_mode,
        )

    # ------------------------------------------------------------------
    # Rehydration
    # ------------------------------------------------------------------
    def experiment_config(self) -> ExperimentConfig:
        """Rebuild the live experiment configuration object."""
        from ..experiments.config import SyntheticExperimentConfig, TraceExperimentConfig

        if self.family == FAMILY_TRACE:
            return TraceExperimentConfig.from_dict(self.config)
        return SyntheticExperimentConfig.from_dict(self.config)

    def protocol_spec(self) -> "ProtocolSpec":
        """Rebuild the live :class:`ProtocolSpec`."""
        from ..experiments.config import ProtocolSpec

        return ProtocolSpec.from_dict(self.protocol)

    def deployment_noise(self) -> Optional[DeploymentNoise]:
        """Rebuild the optional :class:`DeploymentNoise`."""
        if self.noise is None:
            return None
        return DeploymentNoise.from_dict(self.noise)

    def resolved_contact_model(self) -> str:
        """The contact model in force: the cell's override or the config's."""
        if self.contact_model is not None:
            return self.contact_model
        return str(self.config.get("contact_model", "instantaneous"))

    def resolved_mobility(self) -> Optional[str]:
        """The mobility model in force: the cell's override or the config's.

        Returns ``None`` for trace cells, whose meetings come from day
        traces rather than a mobility model.
        """
        if self.family != FAMILY_SYNTHETIC:
            return None
        if self.mobility is not None:
            return self.mobility
        return str(self.config.get("mobility", "powerlaw"))

    def resolved_workload(self) -> str:
        """The workload model in force: the cell's override or the config's."""
        if self.workload is not None:
            return self.workload
        workload_params = self.config.get("workload") or {}
        if isinstance(workload_params, dict):
            return str(workload_params.get("model", "uniform"))
        return str(getattr(workload_params, "model", "uniform"))

    def resolved_faults(self) -> Optional[str]:
        """The fault model in force: the cell's override or the config's.

        ``None`` means fault injection is disabled for the cell — the
        byte-identical default path.
        """
        if self.faults is not None:
            return self.faults
        fault_params = self.config.get("faults") or {}
        if isinstance(fault_params, dict):
            model = fault_params.get("model")
        else:
            model = getattr(fault_params, "model", None)
        return None if model is None else str(model)

    def resolved_result_mode(self) -> str:
        """The result mode in force: the cell's override or the config's.

        ``"records"`` — the byte-identical default path — unless the
        cell or its configuration opted into ``"streaming"``.
        """
        if self.result_mode is not None:
            return self.result_mode
        return str(self.config.get("result_mode", RESULT_MODE_RECORDS))

    @property
    def label(self) -> str:
        """The protocol label of this cell (a figure's series name)."""
        return str(self.protocol["label"])

    # ------------------------------------------------------------------
    # Wire format and content address
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible wire form of the cell (cache/worker transport)."""
        return {
            "family": self.family,
            "config": dict(self.config),
            "protocol": dict(self.protocol),
            "load": self.load,
            "run_index": self.run_index,
            "buffer_capacity": self.buffer_capacity,
            "metadata_fraction_cap": self.metadata_fraction_cap,
            "noise": dict(self.noise) if self.noise is not None else None,
            "contact_model": self.contact_model,
            "contact_options": (
                dict(self.contact_options) if self.contact_options is not None else None
            ),
            "mobility": self.mobility,
            "workload": self.workload,
            "faults": self.faults,
            "result_mode": self.result_mode,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Unknown keys are rejected rather than silently dropped: a
        typoed override (``workloads`` for ``workload``, say) would
        otherwise vanish and the cell would quietly run the default.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioSpec field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        return cls(
            family=str(data["family"]),
            config=dict(data["config"]),
            protocol=dict(data["protocol"]),
            load=float(data["load"]),
            run_index=int(data["run_index"]),
            buffer_capacity=data.get("buffer_capacity"),
            metadata_fraction_cap=data.get("metadata_fraction_cap"),
            noise=data.get("noise"),
            contact_model=data.get("contact_model"),
            contact_options=data.get("contact_options"),
            mobility=data.get("mobility"),
            workload=data.get("workload"),
            faults=data.get("faults"),
            result_mode=data.get("result_mode"),
        )

    def cache_key(self) -> str:
        """A stable content address of this cell.

        The key covers the canonical spec plus the spec and result schema
        versions, so any change to the cell *or* to the serialized result
        format yields a different address.
        """
        payload = canonical_json(
            {
                "spec_schema": SPEC_SCHEMA_VERSION,
                "result_schema": RESULT_SCHEMA_VERSION,
                "spec": self.to_dict(),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioGrid:
    """A declarative grid over every experiment axis.

    The full expansion is contact models x mobilities x workloads x
    faults x loads x protocols x runs.  ``run_indices`` defaults to
    every day of a trace configuration or every random run of a
    synthetic configuration, which is what the paper's figures sweep
    over.  ``contact_models``, ``mobilities``, ``workloads`` and
    ``faults`` are optional outer axes (``None`` entries defer to the
    configuration); leaving them unset yields the classic three-axis
    grid.  The mobility axis applies only to synthetic configurations;
    the workload and fault axes apply to both families.
    """

    config: ExperimentConfig
    protocols: Sequence["ProtocolSpec"]
    loads: Sequence[float]
    run_indices: Optional[Sequence[int]] = None
    buffer_capacity: Optional[float] = None
    metadata_fraction_cap: Optional[float] = None
    noise: Optional[DeploymentNoise] = None
    contact_models: Optional[Sequence[Optional[str]]] = None
    contact_options: Optional[Dict[str, object]] = None
    mobilities: Optional[Sequence[Optional[str]]] = None
    workloads: Optional[Sequence[Optional[str]]] = None
    faults: Optional[Sequence[Optional[str]]] = None

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ConfigurationError("grid needs at least one protocol")
        if not self.loads:
            raise ConfigurationError("grid needs at least one load")
        if self.contact_models is not None and not self.contact_models:
            raise ConfigurationError(
                "contact_models must be omitted or name at least one model"
            )
        if self.mobilities is not None and not self.mobilities:
            raise ConfigurationError(
                "mobilities must be omitted or name at least one model"
            )
        if self.workloads is not None and not self.workloads:
            raise ConfigurationError(
                "workloads must be omitted or name at least one model"
            )
        if self.faults is not None and not self.faults:
            raise ConfigurationError(
                "faults must be omitted or name at least one model"
            )

    def default_run_indices(self) -> List[int]:
        """The run indices swept: explicit ones, else every day/run."""
        if self.run_indices is not None:
            return [int(i) for i in self.run_indices]
        from ..experiments.config import TraceExperimentConfig

        if isinstance(self.config, TraceExperimentConfig):
            return list(range(self.config.num_days))
        return list(range(self.config.num_runs))

    def _contact_model_axis(self) -> List[Optional[str]]:
        if self.contact_models is None:
            return [None]
        return list(self.contact_models)

    def _mobility_axis(self) -> List[Optional[str]]:
        if self.mobilities is None:
            return [None]
        return list(self.mobilities)

    def _workload_axis(self) -> List[Optional[str]]:
        if self.workloads is None:
            return [None]
        return list(self.workloads)

    def _fault_axis(self) -> List[Optional[str]]:
        if self.faults is None:
            return [None]
        return list(self.faults)

    def cells(self) -> List[ScenarioSpec]:
        """Expand the grid into its cells.

        The expansion order is contact models, then mobilities, then
        workloads, then faults (when swept), then loads then protocols
        then run indices — the inner nesting is the same as the serial ``sweep``
        loop used, so progress reporting advances the way a reader of
        the figures expects.
        """
        run_indices = self.default_run_indices()
        out: List[ScenarioSpec] = []
        for contact_model in self._contact_model_axis():
            for mobility in self._mobility_axis():
                for workload in self._workload_axis():
                    for fault in self._fault_axis():
                        for load in self.loads:
                            for protocol in self.protocols:
                                for run_index in run_indices:
                                    out.append(
                                        ScenarioSpec.for_cell(
                                            config=self.config,
                                            protocol=protocol,
                                            load=load,
                                            run_index=run_index,
                                            buffer_capacity=self.buffer_capacity,
                                            metadata_fraction_cap=self.metadata_fraction_cap,
                                            noise=self.noise,
                                            contact_model=contact_model,
                                            contact_options=self.contact_options,
                                            mobility=mobility,
                                            workload=workload,
                                            faults=fault,
                                        )
                                    )
        return out

    def __len__(self) -> int:
        return (
            len(self._contact_model_axis())
            * len(self._mobility_axis())
            * len(self._workload_axis())
            * len(self._fault_axis())
            * len(self.protocols)
            * len(self.loads)
            * len(self.default_run_indices())
        )
