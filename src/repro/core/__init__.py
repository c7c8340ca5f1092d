"""RAPID: the paper's primary contribution.

The public surface mirrors the three protocol components described in
Section 3.3: the selection algorithm (:class:`RapidProtocol`), the
inference algorithm (:mod:`repro.core.delay`, :class:`MeetingTimeEstimator`,
:class:`TransferSizeEstimator`) and the control channel
(:mod:`repro.core.control`).
"""

from .control import (
    ControlChannel,
    GlobalControlChannel,
    InBandControlChannel,
    LocalControlChannel,
    NoControlChannel,
    available_channels,
    make_channel,
)
from .dag_delay import (
    build_dependency_graph,
    dag_delay_estimates,
    estimate_delay_baseline,
    estimation_gap,
)
from .delay import (
    combined_remaining_delay,
    delivery_probability_within,
    uniform_exponential_remaining_delay,
)
from .meeting_estimator import MeetingTimeEstimator
from .metadata import MetadataStore, ReplicaBlock
from .rapid import RapidProtocol
from .transfer_estimator import TransferSizeEstimator
from .utility import (
    AverageDelayMetric,
    DeadlineMetric,
    MaximumDelayMetric,
    UtilityMetric,
    available_metrics,
    make_metric,
)

__all__ = [
    "RapidProtocol",
    "MeetingTimeEstimator",
    "TransferSizeEstimator",
    "MetadataStore",
    "ReplicaBlock",
    "UtilityMetric",
    "AverageDelayMetric",
    "DeadlineMetric",
    "MaximumDelayMetric",
    "make_metric",
    "available_metrics",
    "ControlChannel",
    "InBandControlChannel",
    "LocalControlChannel",
    "GlobalControlChannel",
    "NoControlChannel",
    "make_channel",
    "available_channels",
    "combined_remaining_delay",
    "delivery_probability_within",
    "uniform_exponential_remaining_delay",
    "build_dependency_graph",
    "dag_delay_estimates",
    "estimate_delay_baseline",
    "estimation_gap",
]
