"""Simulation results and per-run summary metrics.

The :class:`SimulationResult` gathers per-packet records plus the traffic
counters needed by the evaluation: delivery rate, average/maximum delay
(optionally counting undelivered packets as in the ILP comparison),
deadline success rate, channel utilization and metadata overhead.
Cross-run aggregation (mean over 58 days, confidence intervals, t-tests)
lives in :mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

import numpy as np

from ..exceptions import RecordsUnavailableError
from .columns import RecordColumns
from .node import NodeCounters
from .packet import DEFAULT_TRAFFIC_CLASS, Packet, PacketRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> results)
    from ..analysis.streaming import StreamingSummary

#: Version of the canonical :meth:`SimulationResult.to_dict` format (and
#: of the header :meth:`SimulationResult.to_wire` derives from it).  Bump
#: it whenever the serialized shape (or the semantics of a field) changes
#: so that on-disk caches keyed on it are invalidated rather than misread.
RESULT_SCHEMA_VERSION = 1

#: Valid values of the simulator ``result_mode`` option: ``"records"``
#: (the default — one :class:`PacketRecord` per packet, exact
#: everything) and ``"streaming"`` (bounded-size online summaries for
#: long-horizon runs; see :mod:`repro.analysis.streaming`).
RESULT_MODE_RECORDS = "records"
RESULT_MODE_STREAMING = "streaming"
RESULT_MODES = (RESULT_MODE_RECORDS, RESULT_MODE_STREAMING)


class _Records:
    """The :attr:`SimulationResult.records` field: records held one way.

    A result holds its per-packet records either as a dict of
    :class:`PacketRecord` (what the simulator builds) or as
    :class:`RecordColumns` (what the worker pipe, the result cache and
    :meth:`SimulationResult.from_dict` decode to), never both.  The first
    read of ``records`` on a column-backed result builds the dict and
    drops the columns, so callers that mutate records stay correct.
    """

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass default: no records
        held = result._held
        if isinstance(held, RecordColumns):
            held = result._held = held.to_records()
        return held

    def __set__(self, result, records) -> None:
        result._held = {} if records is None else records


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    protocol_name: str
    duration: float
    records: Dict[int, PacketRecord] = _Records()
    node_counters: Dict[int, NodeCounters] = field(default_factory=dict)
    meetings_processed: int = 0
    meetings_missed: int = 0
    #: Sum of *finite* transfer-opportunity sizes.  Infinite-capacity
    #: contacts are counted separately (``infinite_capacity_contacts``)
    #: so the channel-utilization denominator stays meaningful.
    total_capacity_bytes: float = 0.0
    data_bytes: float = 0.0
    metadata_bytes: float = 0.0
    replications: int = 0
    deliveries: int = 0
    #: Contacts whose capacity was unbounded (excluded from utilization).
    infinite_capacity_contacts: int = 0
    #: Contact-layer accounting (durational/interruptible modes): contacts
    #: cut short of their scheduled window, transfers cut mid-flight,
    #: partially transferred bytes that carried no committed replica, and
    #: transfers completed by resuming earlier partial progress.
    contacts_interrupted: int = 0
    transfers_interrupted: int = 0
    transfers_resumed: int = 0
    partial_bytes_wasted: float = 0.0
    #: Fault-injection accounting (``repro.faults``): all-zero — and
    #: absent from :meth:`to_dict` — on a fault-free run, so default
    #: payloads stay wire-identical to the pre-fault format.
    node_outages: int = 0
    node_downtime_s: float = 0.0
    replicas_lost_to_crashes: int = 0
    bytes_lost_to_crashes: float = 0.0
    contacts_missed_down: int = 0
    deliveries_missed_down: int = 0
    creations_refused_down: int = 0
    contact_no_shows: int = 0
    transfers_killed: int = 0
    control_exchanges_lost: int = 0
    #: Per-phase wall times and call counters recorded when the simulation
    #: ran with profiling enabled (``--profile`` / ``REPRO_PROFILE=1``);
    #: empty — and absent from :meth:`to_dict` — otherwise, so profiling
    #: never perturbs byte-identity of unprofiled results.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Streaming time-series snapshot
    #: (:meth:`repro.observability.metrics.MetricsRegistry.to_dict`)
    #: attached when the run sampled metrics; ``None`` — and absent from
    #: :meth:`to_dict` — otherwise, so default payloads stay
    #: byte-identical to the wire format before metrics existed.
    metrics: Optional[Dict[str, object]] = None
    #: Bounded-size streaming summary
    #: (:class:`repro.analysis.streaming.StreamingSummary`) attached when
    #: the run executed with ``result_mode="streaming"``; ``None`` — and
    #: absent from :meth:`to_dict` — in the default record-keeping mode,
    #: so default payloads stay byte-identical to the pre-streaming wire
    #: format.  When set, :attr:`records` is empty and every headline
    #: metric is answered from the summary instead.
    streaming: Optional["StreamingSummary"] = None

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    @property
    def has_records(self) -> bool:
        """Whether per-packet records were retained (False in streaming mode)."""
        return self.streaming is None

    def _require_records(self, api: str) -> None:
        """Raise a clear error when *api* needs records a streaming run lacks."""
        if self.streaming is not None:
            raise RecordsUnavailableError(
                f"{api} needs per-packet records, but this result was produced "
                "with result_mode='streaming' which keeps only bounded-size "
                "summaries; use the streaming summary (result.streaming), the "
                "exact counters (summary(), per_class_summary()) or "
                "delay_quantile(), or re-run with result_mode='records'"
            )

    def record_for(self, packet_id: int) -> PacketRecord:
        self._require_records("record_for()")
        return self.records[packet_id]

    def packets(self) -> List[Packet]:
        self._require_records("packets()")
        return [r.packet for r in self.records.values()]

    def delivered_records(self) -> List[PacketRecord]:
        self._require_records("delivered_records()")
        return [r for r in self.records.values() if r.delivered]

    def undelivered_records(self) -> List[PacketRecord]:
        self._require_records("undelivered_records()")
        return [r for r in self.records.values() if not r.delivered]

    def _columns(self) -> RecordColumns:
        """The records as columns: the held ones, or built from the dict.

        Columns built from a dict are not kept, so later mutations of
        the records are always seen.
        """
        held = self._held
        if isinstance(held, RecordColumns):
            return held
        return RecordColumns.from_records(held.values())

    @property
    def num_packets(self) -> int:
        if self.streaming is not None:
            return self.streaming.num_packets
        return len(self._held)

    @property
    def num_delivered(self) -> int:
        if self.streaming is not None:
            return self.streaming.num_delivered
        return int(np.count_nonzero(self._columns()["delivered"]))

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    def delivery_rate(self) -> float:
        """Fraction of generated packets delivered by the end of the run."""
        if self.num_packets == 0:
            return 0.0
        return self.num_delivered / self.num_packets

    def delays(self, include_undelivered: bool = False) -> List[float]:
        """Per-packet delivery delays in seconds, in record order.

        With ``include_undelivered=True`` undelivered packets contribute the
        time they spent in the system until the end of the run — the
        convention used when comparing against the ILP optimum
        (Section 6.2.4).

        Raises:
            RecordsUnavailableError: in streaming mode, which keeps delay
                *summaries* (exact mean/max, sketched quantiles via
                :meth:`delay_quantile`) rather than per-packet delays.
        """
        self._require_records("delays()")
        return self._delays(self._columns(), include_undelivered).tolist()

    def _delays(self, columns: RecordColumns, include_undelivered: bool) -> np.ndarray:
        """:meth:`PacketRecord.delay` of every row that has one."""
        delays = columns["delivery_time"] - columns["creation_time"]
        has_delay = _has_delay(columns)
        if not include_undelivered:
            return delays[has_delay]
        residence = np.maximum(0.0, self.duration - columns["creation_time"])
        return np.where(has_delay, delays, residence)

    def average_delay(self, include_undelivered: bool = False) -> float:
        """Mean delivery delay in seconds (0 when nothing qualifies).

        Exact in both result modes: streaming mode keeps the delay and
        residence-time sums as exact counters.
        """
        if self.streaming is not None:
            summary = self.streaming
            if include_undelivered:
                if summary.num_packets == 0:
                    return 0.0
                undelivered_residence = (
                    summary.residence_sum - summary.delivered_residence_sum
                )
                return (summary.delay_sum + undelivered_residence) / summary.num_packets
            if summary.num_delivered == 0:
                return 0.0
            return summary.delay_sum / summary.num_delivered
        return _mean(self._delays(self._columns(), include_undelivered))

    def max_delay(self, include_undelivered: bool = False) -> float:
        """Maximum delivery delay in seconds (0 when nothing qualifies).

        Exact in both result modes (the streaming summary tracks the
        maxima outside the sketch).
        """
        if self.streaming is not None:
            summary = self.streaming
            if include_undelivered:
                return max(summary.delay_max, summary.undelivered_residence_max)
            return summary.delay_max
        values = self._delays(self._columns(), include_undelivered)
        if not values.size:
            return 0.0
        return float(values.max())

    def delay_quantile(self, q: float) -> float:
        """Nearest-rank quantile of the first-delivery delays.

        Exact (``numpy.quantile(..., method="inverted_cdf")``) when
        records were retained; within the sketch's documented relative
        error bound (``result.streaming.delay_sketch.relative_error``)
        in streaming mode.  Returns 0.0 when nothing was delivered.
        """
        if self.streaming is not None:
            return self.streaming.delay_sketch.quantile(q)
        values = self._delays(self._columns(), False)
        if not values.size:
            return 0.0
        return float(np.quantile(values, q, method="inverted_cdf"))

    def deadline_success_rate(self) -> float:
        """Fraction of all generated packets delivered within their deadline."""
        if self.num_packets == 0:
            return 0.0
        if self.streaming is not None:
            return self.streaming.num_delivered_in_deadline / self.num_packets
        return int(np.count_nonzero(_met_deadline(self._columns()))) / self.num_packets

    # ------------------------------------------------------------------
    # Per-class metrics (multi-class traffic workloads)
    # ------------------------------------------------------------------
    def traffic_classes(self) -> List[str]:
        """The traffic-class names present, sorted (``["default"]`` when
        the workload never assigned classes)."""
        if self.streaming is not None:
            return self.streaming.traffic_classes()
        return _traffic_classes(self._columns())

    def class_records(self, traffic_class: str) -> List[PacketRecord]:
        """All records of packets belonging to *traffic_class*.

        Raises:
            RecordsUnavailableError: in streaming mode; use
                :meth:`per_class_summary` (exact) instead.
        """
        self._require_records("class_records()")
        return [
            r for r in self.records.values() if r.packet.traffic_class == traffic_class
        ]

    def per_class_summary(self) -> Dict[str, Dict[str, float]]:
        """Headline metrics broken down by traffic class.

        Returns ``{class: {packets, delivered, delivery_rate,
        average_delay, deadline_success_rate}}`` with one entry per
        class present in the workload.  Counts conserve the totals: the
        per-class ``packets`` and ``delivered`` sum to
        :attr:`num_packets` and :attr:`num_delivered`.  Available — and
        exact — in both result modes: streaming runs answer it from the
        per-class tallies instead of the records.
        """
        breakdown: Dict[str, Dict[str, float]] = {}
        if self.streaming is not None:
            for traffic_class in self.streaming.traffic_classes():
                tally = self.streaming.class_tallies[traffic_class]
                breakdown[traffic_class] = {
                    "packets": float(tally.packets),
                    "delivered": float(tally.delivered),
                    "delivery_rate": tally.delivered / tally.packets if tally.packets else 0.0,
                    "average_delay": tally.delay_sum / tally.delivered if tally.delivered else 0.0,
                    "deadline_success_rate": (
                        tally.delivered_in_deadline / tally.packets if tally.packets else 0.0
                    ),
                }
            return breakdown
        columns = self._columns()
        labels = np.full(len(columns), DEFAULT_TRAFFIC_CLASS, dtype=object)
        for row, traffic_class in columns.traffic_classes.items():
            labels[row] = traffic_class
        delays = columns["delivery_time"] - columns["creation_time"]
        has_delay = _has_delay(columns)
        met = _met_deadline(columns)
        for traffic_class in _traffic_classes(columns):
            in_class = labels == traffic_class
            packets = int(np.count_nonzero(in_class))
            delivered = int(np.count_nonzero(in_class & columns["delivered"]))
            breakdown[traffic_class] = {
                "packets": float(packets),
                "delivered": float(delivered),
                "delivery_rate": delivered / packets,
                "average_delay": _mean(delays[in_class & has_delay]),
                "deadline_success_rate": int(np.count_nonzero(in_class & met)) / packets,
            }
        return breakdown

    # ------------------------------------------------------------------
    # Channel / overhead metrics
    # ------------------------------------------------------------------
    def channel_utilization(self) -> Optional[float]:
        """Fraction of finite transfer-opportunity bytes actually used.

        Infinite-capacity contacts are excluded from the denominator —
        an unbounded opportunity would silently drive the ratio to ``0.0``
        and masquerade as an idle channel.  When *no* finite capacity was
        observed at all the utilization is undefined and ``None`` is
        returned.
        """
        if self.total_capacity_bytes <= 0:
            return None
        return (self.data_bytes + self.metadata_bytes) / self.total_capacity_bytes

    def metadata_fraction_of_bandwidth(self) -> Optional[float]:
        """Metadata bytes as a fraction of finite available bandwidth.

        ``None`` when no finite-capacity contact was observed (see
        :meth:`channel_utilization`).
        """
        if self.total_capacity_bytes <= 0:
            return None
        return self.metadata_bytes / self.total_capacity_bytes

    def metadata_fraction_of_data(self) -> float:
        """Metadata bytes as a fraction of data bytes transferred."""
        if self.data_bytes <= 0:
            return 0.0
        return self.metadata_bytes / self.data_bytes

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """A flat dictionary of the headline metrics (for reports/tests).

        Undefined ratios (no finite-capacity contact observed) surface as
        ``nan`` so the flat mapping stays numeric.
        """
        utilization = self.channel_utilization()
        metadata_fraction = self.metadata_fraction_of_bandwidth()
        summary: Dict[str, float] = {
            "packets": float(self.num_packets),
            "delivered": float(self.num_delivered),
            "delivery_rate": self.delivery_rate(),
            "average_delay": self.average_delay(),
            "average_delay_with_undelivered": self.average_delay(include_undelivered=True),
            "max_delay": self.max_delay(),
            "deadline_success_rate": self.deadline_success_rate(),
            "channel_utilization": float("nan") if utilization is None else utilization,
            "metadata_fraction_of_bandwidth": (
                float("nan") if metadata_fraction is None else metadata_fraction
            ),
            "metadata_fraction_of_data": self.metadata_fraction_of_data(),
            "replications": float(self.replications),
            "meetings": float(self.meetings_processed),
            "contacts_interrupted": float(self.contacts_interrupted),
            "transfers_interrupted": float(self.transfers_interrupted),
            "transfers_resumed": float(self.transfers_resumed),
            "partial_bytes_wasted": float(self.partial_bytes_wasted),
        }
        faults = self._fault_accounting()
        if faults is not None:
            # Fault keys appear only when faults were injected, so the
            # default summary (and quicksim's printed output) is unchanged
            # on the fault-free path.
            summary.update({key: float(value) for key, value in faults.items()})
        return summary

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialize to the canonical JSON-compatible dictionary.

        The representation is complete: every metric of this class can be
        recomputed from the round-tripped result.  Its ``records`` list is
        read straight from the record columns, without building packet
        objects.  Profiling timings are included only when present,
        keeping unprofiled payloads byte-identical to schema version 1 as
        written before timings existed.
        """
        return self._payload(self._columns().payloads(), self._class_breakdown())

    def to_wire(self) -> Dict[str, object]:
        """The transport form: ``{"header", "columns"}``.

        ``header`` is the :meth:`to_dict` payload with its ``records``
        list replaced by the column descriptor (row count, layout, side
        tables) and without the derived ``classes`` block; ``columns`` is
        the packed column bytes.  This is what crosses the worker pipe and
        what the result cache stores; :meth:`from_wire` decodes it.
        """
        columns = self._columns()
        return {"header": self._payload(columns.descriptor()), "columns": columns.to_bytes()}

    def _payload(
        self, records: object, classes: Optional[Dict[str, Dict[str, float]]] = None
    ) -> Dict[str, object]:
        """The serialized result around *records* (and *classes*, if any)."""
        payload: Dict[str, object] = {
            "schema": RESULT_SCHEMA_VERSION,
            "protocol_name": self.protocol_name,
            "duration": self.duration,
            "meetings_processed": self.meetings_processed,
            "meetings_missed": self.meetings_missed,
            "total_capacity_bytes": self.total_capacity_bytes,
            "data_bytes": self.data_bytes,
            "metadata_bytes": self.metadata_bytes,
            "replications": self.replications,
            "deliveries": self.deliveries,
            "records": records,
            "node_counters": {
                str(node_id): asdict(counters)
                for node_id, counters in self.node_counters.items()
            },
        }
        if self.timings:
            payload["timings"] = {key: float(value) for key, value in self.timings.items()}
        if self.metrics is not None:
            # Included only when the run sampled metrics, so default
            # payloads stay byte-identical to the wire format as written
            # before the observability subsystem existed.
            payload["metrics"] = self.metrics
        contact = self._contact_accounting()
        if contact is not None:
            # Included only when some contact-layer counter is non-zero, so
            # default instantaneous payloads stay byte-identical to the wire
            # format as written before the durational contact layer existed.
            payload["contact"] = contact
        if classes is not None:
            # Included only when a non-default traffic class exists, so
            # single-class payloads stay byte-identical to the wire format
            # as written before the workload subsystem existed.
            payload["classes"] = classes
        faults = self._fault_accounting()
        if faults is not None:
            # Included only when a fault model actually disrupted the run,
            # so fault-free payloads stay byte-identical to the wire format
            # as written before the fault subsystem existed.
            payload["faults"] = faults
        if self.streaming is not None:
            # Included only for result_mode="streaming" runs, so default
            # record-keeping payloads stay byte-identical to the wire
            # format as written before streaming mode existed.
            payload["streaming"] = self.streaming.to_dict()
        return payload

    def _class_breakdown(self) -> Optional[Dict[str, Dict[str, float]]]:
        """The per-class metric block, or ``None`` for single-class runs.

        The block is derived entirely from the (class-tagged) records,
        so decoding recomputes rather than stores it — a round-trip
        therefore reproduces it byte for byte.
        """
        classes = self.traffic_classes()
        if classes in ([], [DEFAULT_TRAFFIC_CLASS]):
            return None
        return self.per_class_summary()

    def _contact_accounting(self) -> Optional[Dict[str, object]]:
        """The contact-layer counter block, or ``None`` when all-zero."""
        if not (
            self.infinite_capacity_contacts
            or self.contacts_interrupted
            or self.transfers_interrupted
            or self.transfers_resumed
            or self.partial_bytes_wasted
        ):
            return None
        return {
            "infinite_capacity_contacts": self.infinite_capacity_contacts,
            "contacts_interrupted": self.contacts_interrupted,
            "transfers_interrupted": self.transfers_interrupted,
            "transfers_resumed": self.transfers_resumed,
            "partial_bytes_wasted": self.partial_bytes_wasted,
        }

    def _fault_accounting(self) -> Optional[Dict[str, object]]:
        """The fault-injection counter block, or ``None`` when all-zero."""
        if not (
            self.node_outages
            or self.node_downtime_s
            or self.replicas_lost_to_crashes
            or self.bytes_lost_to_crashes
            or self.contacts_missed_down
            or self.deliveries_missed_down
            or self.creations_refused_down
            or self.contact_no_shows
            or self.transfers_killed
            or self.control_exchanges_lost
        ):
            return None
        return {
            "node_outages": self.node_outages,
            "node_downtime_s": self.node_downtime_s,
            "replicas_lost_to_crashes": self.replicas_lost_to_crashes,
            "bytes_lost_to_crashes": self.bytes_lost_to_crashes,
            "contacts_missed_down": self.contacts_missed_down,
            "deliveries_missed_down": self.deliveries_missed_down,
            "creations_refused_down": self.creations_refused_down,
            "contact_no_shows": self.contact_no_shows,
            "transfers_killed": self.transfers_killed,
            "control_exchanges_lost": self.control_exchanges_lost,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result serialized by :meth:`to_dict` (column-backed).

        Raises:
            ValueError: when the payload was written by an incompatible
                schema version.
            KeyError/TypeError: when the payload is structurally corrupt.
        """
        return cls._from_payload(data, RecordColumns.from_payloads(data["records"]))

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_wire`'s form.

        The column bytes are wrapped, not copied, and records are built
        only when a caller reads :attr:`records`.

        Raises:
            ValueError: on an incompatible schema, or when the column
                bytes disagree with the header's descriptor.
            KeyError/TypeError: when the header is structurally corrupt.
        """
        header = wire["header"]
        return cls._from_payload(
            header, RecordColumns.from_buffer(wire["columns"], header["records"])
        )

    @classmethod
    def _from_payload(
        cls, data: Dict[str, object], columns: RecordColumns
    ) -> "SimulationResult":
        """A column-backed result from a payload's non-record fields."""
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"incompatible result schema {schema!r} (expected {RESULT_SCHEMA_VERSION})"
            )
        result = cls(
            protocol_name=str(data["protocol_name"]),
            duration=float(data["duration"]),
            meetings_processed=int(data["meetings_processed"]),
            meetings_missed=int(data["meetings_missed"]),
            total_capacity_bytes=float(data["total_capacity_bytes"]),
            data_bytes=float(data["data_bytes"]),
            metadata_bytes=float(data["metadata_bytes"]),
            replications=int(data["replications"]),
            deliveries=int(data["deliveries"]),
        )
        result._held = columns
        for node_id, counters in data.get("node_counters", {}).items():
            result.node_counters[int(node_id)] = NodeCounters(**counters)
        result.timings = {
            str(key): float(value) for key, value in data.get("timings", {}).items()
        }
        metrics = data.get("metrics")
        if metrics is not None:
            result.metrics = dict(metrics)
        contact = data.get("contact")
        if contact:
            result.infinite_capacity_contacts = int(contact.get("infinite_capacity_contacts", 0))
            result.contacts_interrupted = int(contact.get("contacts_interrupted", 0))
            result.transfers_interrupted = int(contact.get("transfers_interrupted", 0))
            result.transfers_resumed = int(contact.get("transfers_resumed", 0))
            result.partial_bytes_wasted = float(contact.get("partial_bytes_wasted", 0.0))
        faults = data.get("faults")
        if faults:
            result.node_outages = int(faults.get("node_outages", 0))
            result.node_downtime_s = float(faults.get("node_downtime_s", 0.0))
            result.replicas_lost_to_crashes = int(faults.get("replicas_lost_to_crashes", 0))
            result.bytes_lost_to_crashes = float(faults.get("bytes_lost_to_crashes", 0.0))
            result.contacts_missed_down = int(faults.get("contacts_missed_down", 0))
            result.deliveries_missed_down = int(faults.get("deliveries_missed_down", 0))
            result.creations_refused_down = int(faults.get("creations_refused_down", 0))
            result.contact_no_shows = int(faults.get("contact_no_shows", 0))
            result.transfers_killed = int(faults.get("transfers_killed", 0))
            result.control_exchanges_lost = int(faults.get("control_exchanges_lost", 0))
        streaming = data.get("streaming")
        if streaming is not None:
            # Imported lazily: repro.analysis imports this module, so a
            # top-level import would be circular.
            from ..analysis.streaming import StreamingSummary

            result.streaming = StreamingSummary.from_dict(streaming)
        return result

    @staticmethod
    def merge(results: Iterable["SimulationResult"], protocol_name: Optional[str] = None) -> "SimulationResult":
        """Merge several runs into one result (e.g. the 58 day traces).

        Packet ids must be unique across the merged runs; the experiment
        harness guarantees this by sharing a :class:`PacketFactory`.
        Record-mode results verify uniqueness via the records, which the
        merged result holds as the runs' record columns one after another;
        streaming results carry no per-packet state, so they merge their
        summaries (exactly, bucket- and counter-wise) and rely on the
        harness guarantee.  Mixing the two modes in one merge is rejected.
        """
        results = list(results)
        if not results:
            raise ValueError("no results to merge")
        merged = SimulationResult(
            protocol_name=protocol_name or results[0].protocol_name,
            duration=max(r.duration for r in results),
        )
        streaming_runs = [r for r in results if r.streaming is not None]
        if streaming_runs and len(streaming_runs) != len(results):
            raise ValueError(
                "cannot merge streaming-mode and record-mode results; "
                "re-run the cells with one result_mode"
            )
        if streaming_runs:
            # Round-trip the first summary through its wire format to get
            # an independent deep copy, then fold the rest in.
            from ..analysis.streaming import StreamingSummary

            summary = StreamingSummary.from_dict(results[0].streaming.to_dict())
            for result in results[1:]:
                summary.merge(result.streaming)
            merged.streaming = summary
        columns = RecordColumns.concat([result._columns() for result in results])
        ids, counts = np.unique(columns["packet_id"], return_counts=True)
        if ids.size != len(columns):
            duplicates = ids[counts > 1].tolist()
            raise ValueError(f"duplicate packet ids across runs: {duplicates[:5]} ...")
        merged._held = columns
        for result in results:
            merged.meetings_processed += result.meetings_processed
            merged.meetings_missed += result.meetings_missed
            merged.total_capacity_bytes += result.total_capacity_bytes
            merged.data_bytes += result.data_bytes
            merged.metadata_bytes += result.metadata_bytes
            merged.replications += result.replications
            merged.deliveries += result.deliveries
            merged.infinite_capacity_contacts += result.infinite_capacity_contacts
            merged.contacts_interrupted += result.contacts_interrupted
            merged.transfers_interrupted += result.transfers_interrupted
            merged.transfers_resumed += result.transfers_resumed
            merged.partial_bytes_wasted += result.partial_bytes_wasted
            merged.node_outages += result.node_outages
            merged.node_downtime_s += result.node_downtime_s
            merged.replicas_lost_to_crashes += result.replicas_lost_to_crashes
            merged.bytes_lost_to_crashes += result.bytes_lost_to_crashes
            merged.contacts_missed_down += result.contacts_missed_down
            merged.deliveries_missed_down += result.deliveries_missed_down
            merged.creations_refused_down += result.creations_refused_down
            merged.contact_no_shows += result.contact_no_shows
            merged.transfers_killed += result.transfers_killed
            merged.control_exchanges_lost += result.control_exchanges_lost
            # Profiling timings (wall seconds and call counters alike) are
            # additive across the merged runs; dropping them here would
            # lose the per-phase breakdown of multi-day sweeps.
            for key, value in result.timings.items():
                merged.timings[key] = merged.timings.get(key, 0.0) + float(value)
            # Per-node counters add up node by node the same way.
            for node_id, counters in result.node_counters.items():
                total = merged.node_counters.setdefault(node_id, NodeCounters())
                for counter in fields(NodeCounters):
                    name = counter.name
                    setattr(total, name, getattr(total, name) + getattr(counters, name))
        return merged


def _has_delay(columns: RecordColumns) -> np.ndarray:
    """Rows whose :meth:`PacketRecord.delay` is defined without a horizon."""
    return columns["delivered"] & ~np.isnan(columns["delivery_time"])


def _met_deadline(columns: RecordColumns) -> np.ndarray:
    """:meth:`PacketRecord.met_deadline` of every row."""
    deadline = columns["creation_time"] + columns["deadline"]
    within = np.isnan(columns["deadline"]) | (columns["delivery_time"] <= deadline)
    return _has_delay(columns) & within


def _traffic_classes(columns: RecordColumns) -> List[str]:
    """The sorted traffic-class names present in *columns*."""
    names = set(columns.traffic_classes.values())
    if len(columns.traffic_classes) < len(columns):
        names.add(DEFAULT_TRAFFIC_CLASS)
    return sorted(names)


def _mean(values: np.ndarray) -> float:
    """Mean of *values* summed in order (0 when empty).

    Python's ``sum`` over the list keeps the left-to-right rounding of
    the per-record loop; ``ndarray.sum`` sums pairwise and can differ in
    the last bit.
    """
    if not values.size:
        return 0.0
    return sum(values.tolist()) / values.size
