"""The trace-driven, discrete-event DTN simulator.

The simulator consumes a meeting schedule (from a mobility model or a
trace), a packet workload, and a routing protocol factory.  At every
contact it enforces the two resource constraints of problem class P5:

* **bandwidth** — the total of data plus (for protocols that count it)
  control metadata transferred in a contact never exceeds the transfer
  opportunity's size in bytes;
* **storage** — nodes only accept replicas their buffer can hold, possibly
  after protocol-chosen evictions.

Contact models
--------------

How a contact's bytes are spread over time is selected by the
``contact_model`` option:

* ``instantaneous`` (default) — the paper's Section 3.1 treatment: every
  byte of the opportunity is available at the contact's start instant.
  Each :class:`~repro.dtn.events.MeetingEvent` is a window-less
  :class:`~repro.routing.base.LinkSession` that is opened, pumped and
  closed at one instant; without a window the session is pure byte
  accounting.  This mode is byte-identical to the simulator as it
  existed before the durational contact layer.
* ``durational`` — the contact is a window ``[start, end]`` bracketed by
  :class:`~repro.dtn.events.ContactStartEvent` /
  :class:`~repro.dtn.events.ContactEndEvent`.  Bytes stream across the
  window under the contact's :class:`~repro.mobility.schedule.LinkModel`;
  transfers complete at their streaming finish time, packets created
  *during* an open contact become transferable mid-contact, and a
  transfer that cannot finish before the window closes is cut (partial
  bytes are charged but the replica is rolled back).
* ``interruptible`` — ``durational`` plus random early cut-offs: each
  contact is interrupted at a uniform fraction of its window with
  probability ``contact_interrupt_probability`` (default 0.25).  With
  ``contact_resume`` set, partial progress carries over and the transfer
  resumes on the next contact of the same directed pair.

Both models run one contact pipeline: the same prelude (fault checks,
noise, endpoint check, counters) opens the session, then control
exchange, direct delivery and replication in priority order spend its
budget, and closing it does the byte accounting.  They differ only in
timing: a windowed session stays open between its start and end events
and can be interrupted, while a mid-transfer kill cuts a window-less
session's byte budget instead of its window.

A :class:`~repro.dtn.node.DeploymentNoise` option reproduces the
imperfections of the real deployment (jittered capacities, missed
meetings, processing delay) used to validate the simulator in Figure 3.
Noise is applied uniformly to every contact — including contacts between
nodes that carry no traffic endpoints — *before* any capacity accounting.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..faults import FaultModel, FaultSchedule
from ..mobility.schedule import Contact, Meeting, MeetingSchedule
from ..observability.decisions import DecisionRecorder
from ..observability.metrics import MetricsRegistry, metrics_interval_from
from ..observability.trace import TraceRecorder, TraceSink
from ..profiling import Profiler, profiling_requested
from ..routing.base import (
    _EPS,
    LinkSession,
    ProtocolContext,
    ProtocolFactory,
    RoutingProtocol,
)
from .columns import PacketOutcomes
from .events import (
    ContactEndEvent,
    ContactStartEvent,
    EndOfSimulationEvent,
    Event,
    MeetingEvent,
    NodeDownEvent,
    NodeUpEvent,
    PacketCreationEvent,
)
from .node import DeploymentNoise, Node
from .packet import Packet
from .results import (
    RESULT_MODE_RECORDS,
    RESULT_MODE_STREAMING,
    RESULT_MODES,
    SimulationResult,
)
from .scheduler import EventQueue

#: The three contact models (see the module docstring).
CONTACT_MODEL_INSTANTANEOUS = "instantaneous"
CONTACT_MODEL_DURATIONAL = "durational"
CONTACT_MODEL_INTERRUPTIBLE = "interruptible"
CONTACT_MODELS = (
    CONTACT_MODEL_INSTANTANEOUS,
    CONTACT_MODEL_DURATIONAL,
    CONTACT_MODEL_INTERRUPTIBLE,
)

#: Default probability that an interruptible contact is cut short.
DEFAULT_INTERRUPT_PROBABILITY = 0.25


class _OpenContact:
    """Live state of one contact session and its two participants."""

    __slots__ = ("contact", "session", "x", "y")

    def __init__(
        self, contact: Contact, session: LinkSession, x: RoutingProtocol, y: RoutingProtocol
    ) -> None:
        self.contact = contact
        self.session = session
        self.x = x
        self.y = y


class Simulator:
    """Runs one simulation of a routing protocol over a meeting schedule."""

    def __init__(
        self,
        schedule: MeetingSchedule,
        packets: Sequence[Packet],
        protocol_factory: ProtocolFactory,
        buffer_capacity: float = float("inf"),
        seed: Optional[int] = None,
        noise: Optional[DeploymentNoise] = None,
        options: Optional[Dict[str, object]] = None,
    ) -> None:
        if not buffer_capacity > 0:
            raise ConfigurationError(f"buffer_capacity must be positive, got {buffer_capacity!r}")
        self.schedule = schedule
        self.packets = sorted(packets, key=lambda p: p.creation_time)
        self.protocol_factory = protocol_factory
        self.buffer_capacity = buffer_capacity
        self.seed = seed
        self.noise = noise
        self.options = dict(options or {})

        self.contact_model = str(
            self.options.get("contact_model", CONTACT_MODEL_INSTANTANEOUS)
        )
        if self.contact_model not in CONTACT_MODELS:
            raise ConfigurationError(
                f"unknown contact_model {self.contact_model!r}; "
                f"expected one of {', '.join(CONTACT_MODELS)}"
            )
        self.contact_resume = bool(self.options.get("contact_resume", False))
        self.interrupt_probability = float(
            self.options.get(
                "contact_interrupt_probability", DEFAULT_INTERRUPT_PROBABILITY
            )
        )
        if not 0.0 <= self.interrupt_probability <= 1.0:
            raise ConfigurationError(
                "contact_interrupt_probability must be in [0, 1]"
            )

        #: Result-layer mode: ``"records"`` (default, per-packet records)
        #: or ``"streaming"`` (bounded-size online summaries for
        #: long-horizon runs; see :mod:`repro.analysis.streaming`).
        self.result_mode = str(self.options.get("result_mode", RESULT_MODE_RECORDS))
        if self.result_mode not in RESULT_MODES:
            raise ConfigurationError(
                f"unknown result_mode {self.result_mode!r}; "
                f"expected one of {', '.join(RESULT_MODES)}"
            )
        error = self.options.get("streaming_relative_error")
        if error is not None:
            error = float(error)
            if not 0.0 < error < 1.0:
                raise ConfigurationError(
                    "streaming_relative_error must be in (0, 1)"
                )
        self._streaming_relative_error: Optional[float] = error

        self._rng = np.random.default_rng(seed)
        self._noise_rng = np.random.default_rng(noise.seed if noise and noise.seed is not None else seed)
        #: Dedicated stream for interruption draws, so enabling the
        #: interruptible model never perturbs the noise or protocol RNGs.
        self._contact_rng = np.random.default_rng(None if seed is None else seed + 9173)
        self.nodes: Dict[int, Node] = {}
        self.protocols: Dict[int, RoutingProtocol] = {}
        self.result: Optional[SimulationResult] = None
        #: Open windowed sessions by contact id (durational modes only;
        #: a window-less session closes at the instant it opens).
        self._open_contacts: Dict[int, _OpenContact] = {}
        #: Partial-transfer progress surviving across contacts when
        #: ``contact_resume`` is set: ``(sender, receiver, packet) -> bytes``.
        self._partial_progress: Dict[Tuple[int, int, int], float] = {}
        self._horizon: float = 0.0
        #: Phase timers and call counters; ``None`` (zero overhead) unless
        #: profiling was requested via the ``profile`` option or
        #: ``REPRO_PROFILE=1`` (set by the CLI ``--profile`` flag and
        #: inherited by engine worker processes).
        self.profiler: Optional[Profiler] = (
            Profiler() if profiling_requested(self.options) else None
        )
        if self.profiler is not None:
            self._instrument(self.profiler)
        #: Lifecycle-event recorder; ``None`` (zero overhead) unless a
        #: ``trace_sink`` was passed in the options.  Events carry
        #: simulated time only, so the trace is a pure function of the
        #: cell's inputs regardless of which process runs it.
        sink = self.options.get("trace_sink")
        if sink is not None and not isinstance(sink, TraceSink):
            raise ConfigurationError(
                "trace_sink option must be a repro.observability TraceSink"
            )
        # A disabled sink (NullSink) is indistinguishable from no sink,
        # so it skips recorder construction entirely and the hot path
        # keeps its unhooked shape.
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(sink) if sink is not None and sink.enabled else None
        )
        #: Decision-audit recorder; ``None`` (zero overhead) unless a
        #: ``decision_sink`` was passed in the options.  Shares the sink
        #: family and gating of lifecycle tracing: a disabled sink skips
        #: recorder construction so the protocols stay unhooked.
        decision_sink = self.options.get("decision_sink")
        if decision_sink is not None and not isinstance(decision_sink, TraceSink):
            raise ConfigurationError(
                "decision_sink option must be a repro.observability TraceSink"
            )
        self.decisions: Optional[DecisionRecorder] = (
            DecisionRecorder(decision_sink)
            if decision_sink is not None and decision_sink.enabled
            else None
        )
        #: Streaming time-series registry; ``None`` unless the
        #: ``metrics_interval`` option requested sampling.
        try:
            interval = metrics_interval_from(self.options)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry(interval) if interval is not None else None
        )
        #: Fault injection (``repro.faults``): either a precomputed
        #: ``fault_schedule`` or a ``fault_model`` the simulator asks to
        #: build one from the deployment shape at event-build time.  Both
        #: ``None`` (the default) is the byte-identical fault-free path.
        fault_model = self.options.get("fault_model")
        if fault_model is not None and not isinstance(fault_model, FaultModel):
            raise ConfigurationError("fault_model option must be a repro.faults FaultModel")
        self._fault_model: Optional[FaultModel] = fault_model
        fault_schedule = self.options.get("fault_schedule")
        if fault_schedule is not None and not isinstance(fault_schedule, FaultSchedule):
            raise ConfigurationError(
                "fault_schedule option must be a repro.faults FaultSchedule"
            )
        self._fault_schedule: Optional[FaultSchedule] = fault_schedule
        #: Nodes currently offline, and when each went down (accounting).
        self._down: set = set()
        self._down_since: Dict[int, float] = {}
        #: Packets accepted into the system so far (delivery-rate gauge).
        self._packets_created = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _node_ids(self) -> List[int]:
        ids = set(self.schedule.nodes)
        for packet in self.packets:
            ids.add(packet.source)
            ids.add(packet.destination)
        return sorted(ids)

    def _build_nodes(self) -> None:
        self.nodes = {
            node_id: Node.with_capacity(node_id, self.buffer_capacity)
            for node_id in self._node_ids()
        }
        context = ProtocolContext(
            nodes=self.nodes,
            rng=self._rng,
            options=self.options,
            tracer=self.tracer,
            decisions=self.decisions,
        )
        # Pre-register the whole workload in the shared structure-of-arrays
        # store: columns are sized once and every packet's row identity
        # exists before the first meeting kernel runs.
        context.packet_store.register_all(self.packets)
        if len(context.packet_store) != len(self.packets):
            raise ConfigurationError("packet ids must be unique within a simulation")
        self.context = context
        #: Every packet's outcome, by store row: rows follow ``self.packets``.
        self._outcomes = PacketOutcomes(len(self.packets))
        self.protocols = {
            node_id: self.protocol_factory.create(node, context)
            for node_id, node in self.nodes.items()
        }

    def _build_events(self) -> EventQueue:
        queue = EventQueue()
        for packet in self.packets:
            queue.push(PacketCreationEvent(time=packet.creation_time, packet=packet))
        horizon = max(
            self.schedule.duration,
            max((p.creation_time for p in self.packets), default=0.0),
        )
        self._horizon = horizon
        if self._fault_schedule is None and self._fault_model is not None:
            # The schedule is a pure function of (model, seed, deployment
            # shape): sorted node ids, contact count, horizon.  Nothing
            # about the running simulation feeds back into the draws, so
            # identical seeds give byte-identical schedules on every
            # execution backend.
            self._fault_schedule = self._fault_model.build_schedule(
                self._node_ids(), len(self.schedule), horizon
            )
        if self._fault_schedule is not None:
            for window in self._fault_schedule.downtimes:
                if window.start >= horizon:
                    continue
                queue.push(
                    NodeDownEvent(time=window.start, node_id=window.node, wipe=window.wipe)
                )
                # NODE_UP sorts before everything else at its instant, so
                # an up clipped to the horizon still fires before the
                # END_OF_SIMULATION event and downtime accounting closes.
                queue.push(NodeUpEvent(time=min(window.end, horizon), node_id=window.node))
        if self.contact_model == CONTACT_MODEL_INSTANTANEOUS:
            for contact_id, meeting in enumerate(self.schedule):
                queue.push(
                    MeetingEvent(time=meeting.time, meeting=meeting, contact_id=contact_id)
                )
        else:
            # Durational modes bracket every contact window with a
            # start/end pair; windows reaching past the horizon are closed
            # at the horizon (CONTACT_END sorts before END_OF_SIMULATION
            # at equal times, so every session closes before the run ends).
            for contact_id, contact in enumerate(self.schedule):
                queue.push(
                    ContactStartEvent(
                        time=contact.start, contact=contact, contact_id=contact_id
                    )
                )
                queue.push(
                    ContactEndEvent(
                        time=min(contact.end, horizon), contact_id=contact_id
                    )
                )
        queue.push(EndOfSimulationEvent(time=horizon))
        return queue

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation and return the collected results."""
        self._build_nodes()
        result = SimulationResult(
            protocol_name=self.protocol_factory.name,
            duration=max(self.schedule.duration, 0.0),
        )
        self.result = result

        queue = self._build_events()
        handlers = self._handlers()
        profiler = self.profiler
        # One boolean decides whether the loop pays the observability
        # tick; with tracing and metrics both off (the default) the only
        # added cost per event is this flag test.
        observe = self.tracer is not None or self.metrics is not None
        with profiler.phase("total") if profiler is not None else nullcontext():
            while queue:
                event = queue.pop()
                if observe:
                    self._observe_tick(event.time)
                handler = handlers.get(type(event))
                if handler is None:
                    if type(event) is EndOfSimulationEvent:
                        break
                    raise SimulationError(f"unknown event type: {type(event)!r}")
                handler(event)
        if profiler is not None:
            result.timings = profiler.timings()

        # Defensive: close any session whose end event did not fire (all
        # ends are clipped to the horizon, so this is normally a no-op).
        for contact_id in sorted(self._open_contacts):
            self._close_contact(self._open_contacts[contact_id], self._horizon)
        self._open_contacts.clear()

        # Defensive: nodes still down at the horizon (all up events are
        # clipped to the horizon and sort before END_OF_SIMULATION, so
        # this is normally a no-op) still charge their downtime.
        for node_id in sorted(self._down_since):
            result.node_downtime_s += self._horizon - self._down_since[node_id]
        self._down_since.clear()
        self._down.clear()

        if observe:
            self._finalize_observability(result)

        if self.result_mode == RESULT_MODE_STREAMING:
            # Imported lazily: repro.analysis imports repro.dtn modules,
            # so a top-level import here would be circular.
            from ..analysis.streaming import StreamingCollector

            kwargs = {}
            if self._streaming_relative_error is not None:
                kwargs["relative_error"] = self._streaming_relative_error
            collector = StreamingCollector(horizon=result.duration, **kwargs)
            result.streaming = collector.collect(self.packets, self._outcomes)
        else:
            result.columns = self._outcomes.record_columns(self.packets)

        for node_id, node in self.nodes.items():
            result.node_counters[node_id] = node.counters
        return result

    def _handlers(self) -> Dict[type, Callable[[Event], None]]:
        """The handler of each event type (the end of the run has none).

        Handlers are looked up when the run starts, so a handler replaced
        on the instance beforehand is the one dispatched to.  A profiled
        run charges creations and windowed-session events to their
        phases here; the contact steps are timed by :meth:`_instrument`.
        """
        creation = self._handle_creation
        meeting = self._handle_meeting
        contact_start = self._handle_contact_start
        contact_end = self._handle_contact_end
        node_down = self._handle_node_down
        node_up = self._handle_node_up
        handlers: Dict[type, Callable[[Event], None]] = {
            PacketCreationEvent: lambda event: creation(event.packet, event.time),
            MeetingEvent: lambda event: meeting(event.meeting, event.time, event.contact_id),
            ContactStartEvent: lambda event: contact_start(
                event.contact, event.contact_id, event.time
            ),
            ContactEndEvent: lambda event: contact_end(event.contact_id, event.time),
            NodeDownEvent: lambda event: node_down(event.node_id, event.wipe, event.time),
            NodeUpEvent: lambda event: node_up(event.node_id, event.time),
        }
        profiler = self.profiler
        if profiler is not None:
            for event_type, phase in (
                (PacketCreationEvent, "packet_creation"),
                (ContactStartEvent, "contact_session"),
                (ContactEndEvent, "contact_session"),
            ):
                handlers[event_type] = profiler.timed(phase, handlers[event_type])
        return handlers

    def _instrument(self, profiler: Profiler) -> None:
        """Time the contact steps and count candidates (profiled runs only).

        The wrappers replace the steps on this instance once, at setup,
        so an unprofiled run pays nothing for profiling.
        """
        self._exchange_control = profiler.timed("control_exchange", self._exchange_control)
        self._deliver_direct = profiler.timed("direct_delivery", self._deliver_direct)
        self._replicate_session = profiler.timed("replication", self._replicate_session)
        candidates = self._candidates

        def counted_candidates(sender, receiver, now):
            for packet in candidates(sender, receiver, now):
                profiler.count("candidates_pulled")
                yield packet

        self._candidates = counted_candidates

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _observe_tick(self, now: float) -> None:
        """Advance the trace clock and take any due metric samples.

        Runs before the event at *now* is dispatched, so a sample at a
        boundary reflects the state the preceding events left behind —
        a deterministic function of event order, never of wall clock.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.now = now
        metrics = self.metrics
        if metrics is not None and metrics.due(now):
            while metrics.due(now):
                metrics.push(metrics.next_sample_time, self._metric_sample())

    def _metric_sample(self) -> Dict[str, float]:
        """One snapshot of every gauge (series keys are fixed per run)."""
        result = self.result
        sample: Dict[str, float] = {}
        total = 0
        replicas = 0
        for node_id in self.nodes:
            used = self.nodes[node_id].buffer.used_bytes
            sample[f"buffer_bytes.{node_id}"] = float(used)
            total += used
            replicas += len(self.nodes[node_id].buffer)
        sample["buffer_bytes_total"] = float(total)
        sample["replicas_in_flight"] = float(replicas)
        sample["delivery_rate"] = (
            result.deliveries / self._packets_created if self._packets_created else 0.0
        )
        used_bytes = result.data_bytes + result.metadata_bytes
        sample["channel_utilization"] = (
            used_bytes / result.total_capacity_bytes
            if result.total_capacity_bytes > 0
            else 0.0
        )
        return sample

    def _finalize_observability(self, result: SimulationResult) -> None:
        """Emit end-of-run events and attach the metrics snapshot."""
        tracer = self.tracer
        if tracer is not None:
            # Undelivered packets whose deadline fell inside the horizon
            # expired; stamped at the horizon so traces stay time-ordered.
            delivered = self._outcomes.delivered
            for row, packet in enumerate(self.packets):
                deadline = packet.absolute_deadline()
                if deadline is not None and deadline <= self._horizon and not delivered[row]:
                    tracer.packet_expired(packet, self._horizon)
        metrics = self.metrics
        if metrics is not None:
            # Close the series with one final sample at the horizon
            # (unless a boundary already landed exactly there), then
            # record the lifetime buffer high-water marks as counters.
            if not metrics.times or metrics.times[-1] != self._horizon:
                metrics.push(self._horizon, self._metric_sample())
            for node_id in sorted(self.nodes):
                metrics.count(
                    f"peak_buffer_bytes.{node_id}",
                    float(self.nodes[node_id].buffer.peak_used_bytes),
                )
            result.metrics = metrics.to_dict()

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------
    def _register_capacity(self, capacity: float) -> None:
        """Count one contact's opportunity size (finite capacities only).

        Infinite opportunities would drive the utilization denominator to
        ``inf`` (reading as a silent ``0.0`` utilization); they are
        tallied separately and excluded from the byte total.
        """
        result = self.result
        if math.isinf(capacity):
            result.infinite_capacity_contacts += 1
        else:
            result.total_capacity_bytes += capacity

    def _apply_noise(self, capacity: float) -> Tuple[bool, float, float]:
        """Apply deployment noise; return ``(missed, capacity, scale)``.

        Called once per contact *before* the endpoint check and any
        accounting, so endpoint-less contacts see exactly the same miss
        probability and capacity jitter as protocol-bearing ones.
        """
        if self.noise is None:
            return False, capacity, 1.0
        if float(self._noise_rng.random()) < self.noise.meeting_miss_probability:
            return True, capacity, 1.0
        scale = 1.0
        if self.noise.capacity_jitter > 0:
            scale = float(
                self._noise_rng.uniform(
                    1.0 - self.noise.capacity_jitter, 1.0 + self.noise.capacity_jitter
                )
            )
        return False, capacity * scale, scale

    # ------------------------------------------------------------------
    # Fault handlers
    # ------------------------------------------------------------------
    def _handle_node_down(self, node_id: int, wipe: bool, now: float) -> None:
        """Take *node_id* offline: cut its open sessions, maybe wipe it."""
        result = self.result
        self._down.add(node_id)
        self._down_since[node_id] = now
        result.node_outages += 1

        # Any open durational session the node participates in dies now —
        # the crash is an interruption from the link's point of view.
        for contact_id in sorted(self._open_contacts):
            state = self._open_contacts.get(contact_id)
            if state is not None and state.contact.involves(node_id):
                state.session.interrupted = True
                del self._open_contacts[contact_id]
                self._close_contact(state, now)

        wiped_replicas = 0
        wiped_bytes = 0.0
        if wipe:
            protocol = self.protocols.get(node_id)
            if protocol is not None:
                lost = protocol.wipe_buffer(now)
                wiped_replicas = len(lost)
                wiped_bytes = float(sum(p.size for p in lost))
                result.replicas_lost_to_crashes += wiped_replicas
                result.bytes_lost_to_crashes += wiped_bytes
        tracer = self.tracer
        if tracer is not None:
            tracer.node_down(node_id, now, wiped_replicas, wiped_bytes)

    def _handle_node_up(self, node_id: int, now: float) -> None:
        """Bring *node_id* back online and charge the elapsed downtime."""
        self._down.discard(node_id)
        went_down = self._down_since.pop(node_id, None)
        if went_down is not None:
            self.result.node_downtime_s += now - went_down
        tracer = self.tracer
        if tracer is not None:
            tracer.node_up(node_id, now)

    def _count_missed_deliveries(self, down_id: int, up_id: int) -> int:
        """Packets the up peer holds for the down node at a missed contact."""
        if down_id in self._down and up_id not in self._down:
            protocol = self.protocols.get(up_id)
            if protocol is not None:
                return len(protocol.buffer.packets_for(down_id))
        return 0

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_creation(self, packet: Packet, now: float) -> None:
        protocol = self.protocols.get(packet.source)
        if protocol is None:  # pragma: no cover - defensive
            raise SimulationError(f"packet source {packet.source} has no node")
        if packet.source in self._down:
            # The source is offline: the packet is generated but never
            # enters the system (it would need the node's application
            # stack).  Recorded as a refused creation, like a full buffer.
            self._packets_created += 1
            self.result.creations_refused_down += 1
            self._outcomes.drop(self.context.packet_store.row_of(packet.packet_id))
            tracer = self.tracer
            if tracer is not None:
                tracer.packet_created(packet, stored=False)
            return
        accepted = protocol.on_packet_created(packet, now)
        self._packets_created += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.packet_created(packet, stored=accepted)
        if not accepted:
            self._outcomes.drop(self.context.packet_store.row_of(packet.packet_id))
            return
        if self._open_contacts:
            # A packet created during an open contact becomes transferable
            # mid-contact: pump every open session its source participates
            # in, in deterministic contact-id order.
            for contact_id in sorted(self._open_contacts):
                state = self._open_contacts.get(contact_id)
                if state is not None and state.contact.involves(packet.source):
                    self._pump_contact(state, now)

    def _handle_meeting(self, meeting: Meeting, now: float, contact_id: int = -1) -> None:
        """Run an instantaneous meeting: a window-less session, open to close."""
        state = self._open_session(meeting, contact_id, now, windowed=False)
        if state is not None:
            self._pump_contact(state, now)
            self._close_contact(state, now)

    def _handle_contact_start(self, contact: Contact, contact_id: int, now: float) -> None:
        """Open a windowed session and pump it; its end event closes it."""
        state = self._open_session(contact, contact_id, now, windowed=True)
        if state is not None:
            self._open_contacts[contact_id] = state
            self._pump_contact(state, now)

    def _handle_contact_end(self, contact_id: int, now: float) -> None:
        state = self._open_contacts.pop(contact_id, None)
        if state is None:
            # Missed by noise, or never opened (no session to close).
            return
        self._close_contact(state, now)

    # ------------------------------------------------------------------
    # The contact pipeline: open -> exchange control -> pump -> close
    # ------------------------------------------------------------------
    def _open_session(
        self, contact: Contact, contact_id: int, now: float, windowed: bool
    ) -> Optional[_OpenContact]:
        """The prelude of every contact, up to a session ready to pump.

        Faults, noise, the endpoint check, counters and the control
        exchange are shared by both contact models; only the effect of
        timing differs.  A windowed session may be interrupted (the
        interruptible model's draw) and a mid-transfer kill moves its
        cutoff; a window-less session has no window, so a kill truncates
        its byte budget instead.  Returns ``None`` when the contact never
        happens or has no protocol endpoints.
        """
        result = self.result
        fault_schedule = self._fault_schedule
        control_lost = False
        kill_fraction: Optional[float] = None
        if fault_schedule is not None:
            # Fault checks precede the noise and interruption draws: a
            # contact that never happens (no-show, down endpoint) consumes
            # no randomness from the other streams (the fault process is
            # precomputed).
            if contact_id in fault_schedule.contact_no_shows:
                result.contact_no_shows += 1
                return None
            if self._down and (contact.node_a in self._down or contact.node_b in self._down):
                result.contacts_missed_down += 1
                result.deliveries_missed_down += self._count_missed_deliveries(
                    contact.node_a, contact.node_b
                ) + self._count_missed_deliveries(contact.node_b, contact.node_a)
                return None
            kill_fraction = fault_schedule.transfer_kills.get(contact_id)
            control_lost = contact_id in fault_schedule.control_losses

        missed, capacity, scale = self._apply_noise(contact.capacity)
        if missed:
            result.meetings_missed += 1
            return None

        cutoff = contact.end if windowed else float("inf")
        interrupted = False
        # A window with extent; a zero-duration window is one instant.
        timed = windowed and contact.duration > 0.0
        if timed:
            # Interruption draw (interruptible model): the contact dies at
            # a uniform fraction of its window with the configured
            # probability.
            if (
                self.contact_model == CONTACT_MODEL_INTERRUPTIBLE
                and self.interrupt_probability > 0.0
                and float(self._contact_rng.random()) < self.interrupt_probability
            ):
                fraction = float(self._contact_rng.uniform(0.05, 0.95))
                cutoff = contact.start + contact.duration * fraction
                interrupted = True
            if kill_fraction is not None:
                # Mid-transfer kill (fault process): the session dies at
                # the drawn fraction of the window — possibly earlier than
                # the interruptible model's own draw; the earlier cutoff
                # binds.
                kill_cutoff = contact.start + contact.duration * kill_fraction
                if kill_cutoff < cutoff:
                    cutoff = kill_cutoff
                interrupted = True
                result.transfers_killed += 1
        elif kill_fraction is not None:
            # Mid-transfer kill on a window-less session or a zero-duration
            # window: the whole contact is one transfer instant, so dying
            # at a fraction of it truncates the transferable bytes to that
            # fraction.
            if not math.isinf(capacity):
                capacity *= kill_fraction
            interrupted = True
            result.transfers_killed += 1

        result.meetings_processed += 1
        # The utilization denominator counts the capacity the channel can
        # actually offer: an interruption truncates the window, so only
        # the bytes streamable before the cutoff are registered (the same
        # denominator-honesty rule that excludes infinite capacities).
        achievable = capacity
        if timed and interrupted and not math.isinf(capacity):
            achievable = min(
                capacity,
                scale * contact.profile.bytes_within(contact, cutoff - contact.start),
            )
        self._register_capacity(achievable)

        if contact.node_a not in self.protocols or contact.node_b not in self.protocols:
            # Contacts of buses that carry no traffic endpoints are still
            # part of the schedule: capacity registered, nothing to run.
            return None

        x = self.protocols[contact.node_a]
        y = self.protocols[contact.node_b]
        x.node.counters.meetings += 1
        y.node.counters.meetings += 1

        tracer = self.tracer
        if tracer is not None:
            tracer.contact_open(contact.node_a, contact.node_b, now, capacity)

        session = LinkSession(
            capacity=capacity,
            contact=contact if windowed else None,
            opened_at=now,
            cutoff=cutoff,
            capacity_scale=scale,
            stream_clock=now,
            interrupted=interrupted,
        )
        x.on_meeting_start(y, now)
        y.on_meeting_start(x, now)

        state = _OpenContact(contact, session, x, y)
        if control_lost:
            # Metadata-loss fault: the control exchange never happens, so
            # acks and delay metadata stay stale on both sides.
            result.control_exchanges_lost += 1
        else:
            self._exchange_control(state, now)
        return state

    def _exchange_control(self, state: _OpenContact, now: float) -> None:
        """Control exchange (acks and protocol metadata), both ways."""
        state.x.exchange_control(state.y, now, state.session)
        state.y.exchange_control(state.x, now, state.session)

    def _close_contact(self, state: _OpenContact, now: float) -> None:
        """Finalize a session: byte accounting, interruption tally, trace.

        ``contacts_interrupted`` counts windows cut short.  A killed
        window-less session has no window, and a zero-duration window has
        no extent to cut, so their kills show only in the trace (and in
        ``transfers_killed``): every contact model counts the same killed
        instant alike.
        """
        result = self.result
        session = state.session
        result.data_bytes += session.data_bytes
        result.metadata_bytes += session.metadata_bytes
        state.x.node.counters.metadata_bytes_sent += session.metadata_bytes / 2.0
        state.y.node.counters.metadata_bytes_sent += session.metadata_bytes / 2.0
        if session.interrupted and session.contact is not None and session.contact.duration > 0.0:
            result.contacts_interrupted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.contact_close(
                state.contact.node_a,
                state.contact.node_b,
                now,
                session.data_bytes,
                session.metadata_bytes,
                interrupted=session.interrupted,
            )

    def _pump_contact(self, state: _OpenContact, now: float) -> None:
        """Run the data phases of a session at event time *now*.

        Called once when the session opens and, for a windowed session,
        again for every packet created at a participant while the window
        is open.  The session's stream clock serialises the transfers, so
        repeated pumping never double-spends window time.
        """
        if state.session.transfer_cut:
            return
        self._deliver_direct(state, now)
        self._replicate_session(state, now)

    # ------------------------------------------------------------------
    # Resume bookkeeping (interruptible model with contact_resume)
    # ------------------------------------------------------------------
    def _progress_key(
        self, sender: RoutingProtocol, receiver: RoutingProtocol, packet: Packet
    ) -> Tuple[int, int, int]:
        return (sender.node_id, receiver.node_id, packet.packet_id)

    def _remaining_size(
        self, sender: RoutingProtocol, receiver: RoutingProtocol, packet: Packet
    ) -> float:
        """Bytes still to send, net of resumable partial progress.

        Callers test ``_partial_progress`` first and use the packet size
        when it is empty, which it always is unless resume is on.
        """
        done = self._partial_progress.get(self._progress_key(sender, receiver, packet), 0.0)
        return max(0.0, float(packet.size) - done)

    def _note_resumed(
        self, sender: RoutingProtocol, receiver: RoutingProtocol, packet: Packet, now: float
    ) -> None:
        """Account (and trace) a transfer completed from resumed progress.

        Callers skip it while ``_partial_progress`` is empty.
        """
        key = self._progress_key(sender, receiver, packet)
        if self._partial_progress.pop(key, None) is not None:
            self.result.transfers_resumed += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.transfer_resume(packet, sender.node_id, receiver.node_id, now)

    def _transmit(
        self,
        session: LinkSession,
        sender: RoutingProtocol,
        receiver: RoutingProtocol,
        packet: Packet,
        num_bytes: float,
        now: float,
    ) -> Tuple[float, float, bool]:
        """Stream one transfer on *session*, tracing its start if windowed.

        A window-less session moves its bytes at one instant, so it has no
        transfer to trace apart from the delivery or replica it commits.
        """
        tracer = self.tracer
        if tracer is not None and session.contact is not None:
            tracer.transfer_start(packet, sender.node_id, receiver.node_id, now, num_bytes)
        return session.transmit(num_bytes, now)

    def _interrupt_transfer(
        self,
        session: LinkSession,
        sender: RoutingProtocol,
        receiver: RoutingProtocol,
        packet: Packet,
        remaining_size: float,
        now: float,
    ) -> None:
        """A transfer that cannot finish in time: start it, then cut it.

        It starts only when the byte budget would allow it and some window
        time is left; a window-less session never has budget to spare
        here, so it never interrupts.  The partial bytes crossed the link
        but carry no committed replica.  With resume enabled the progress
        is remembered for the next contact of the same directed pair;
        otherwise the bytes are wasted capacity (the rollback of the
        aborted transfer).
        """
        if not session.can_send(remaining_size) or session.sendable_bytes(now) <= _EPS:
            return
        sent, _, _ = self._transmit(session, sender, receiver, packet, remaining_size, now)
        result = self.result
        result.transfers_interrupted += 1
        if self.contact_resume and sent > 0:
            key = self._progress_key(sender, receiver, packet)
            self._partial_progress[key] = self._partial_progress.get(key, 0.0) + sent
        else:
            result.partial_bytes_wasted += sent
        tracer = self.tracer
        if tracer is not None:
            tracer.transfer_interrupt(packet, sender.node_id, receiver.node_id, now, sent)

    def _deliver(
        self,
        session: LinkSession,
        sender: RoutingProtocol,
        receiver: RoutingProtocol,
        packet: Packet,
        remaining_size: float,
        now: float,
    ) -> None:
        """Stream *packet* to its destination and record the delivery."""
        _, finish, _ = self._transmit(session, sender, receiver, packet, remaining_size, now)
        if self._partial_progress:
            self._note_resumed(sender, receiver, packet, finish)
        self._record_delivery(packet, sender, receiver, finish)

    # ------------------------------------------------------------------
    # Session data phases
    # ------------------------------------------------------------------
    def _deliver_direct(self, state: _OpenContact, now: float) -> None:
        """Direct delivery, both ways: each side's packets for its peer."""
        session = state.session
        progress = self._partial_progress
        for sender, receiver in ((state.x, state.y), (state.y, state.x)):
            held = sender.buffer.by_id
            for packet in sender.direct_delivery_order(receiver.node_id, now):
                if packet.packet_id not in held:
                    continue
                remaining_size = (
                    self._remaining_size(sender, receiver, packet)
                    if progress
                    else float(packet.size)
                )
                if not session.can_complete(remaining_size, now):
                    self._interrupt_transfer(
                        session, sender, receiver, packet, remaining_size, now
                    )
                    break
                self._deliver(session, sender, receiver, packet, remaining_size, now)

    def _candidates(self, sender: RoutingProtocol, receiver: RoutingProtocol, now: float):
        """*sender*'s replication candidates for *receiver*, best first."""
        return sender.replication_candidates(receiver, now)

    def _replicate_session(self, state: _OpenContact, now: float) -> None:
        """Replication, alternating directions until both sides stop."""
        x, y = state.x, state.y
        directions: List[Tuple[RoutingProtocol, RoutingProtocol]] = [(x, y), (y, x)]
        generators = [self._candidates(x, y, now), self._candidates(y, x, now)]
        active = [True, True]
        turn = 0
        idle_turns = 0
        while any(active) and idle_turns < 2 and not state.session.transfer_cut:
            if not active[turn]:
                turn = 1 - turn
                idle_turns += 1
                continue
            sender, receiver = directions[turn]
            sent = self._send_one_session(
                state, sender, receiver, generators[turn], now, active, turn
            )
            idle_turns = 0 if sent else idle_turns + 1
            turn = 1 - turn

    def _send_one_session(
        self,
        state: _OpenContact,
        sender: RoutingProtocol,
        receiver: RoutingProtocol,
        generator,
        now: float,
        active: List[bool],
        turn: int,
    ) -> bool:
        """Pull candidates until one transfer completes; return success."""
        session = state.session
        progress = self._partial_progress
        held = sender.buffer.by_id
        peer_held = receiver.buffer.by_id
        for packet in generator:
            packet_id = packet.packet_id
            if packet_id not in held or packet_id in peer_held:
                continue
            remaining_size = (
                self._remaining_size(sender, receiver, packet) if progress else float(packet.size)
            )
            if not session.can_complete(remaining_size, now):
                # Budget or window exhausted: this direction is done.
                self._interrupt_transfer(session, sender, receiver, packet, remaining_size, now)
                active[turn] = False
                return False
            if packet.destination == receiver.node_id:
                # Destined to the peer: deliver it now rather than replicate.
                self._deliver(session, sender, receiver, packet, remaining_size, now)
                return True
            if receiver.accept_replica(packet, sender, now):
                self._transmit(session, sender, receiver, packet, remaining_size, now)
                if progress:
                    self._note_resumed(sender, receiver, packet, now)
                self._register_replication(packet, sender, receiver, now)
                return True
            # Storage refusal: try the next candidate.
        active[turn] = False
        return False

    def _record_delivery(
        self,
        packet: Packet,
        sender: RoutingProtocol,
        receiver: RoutingProtocol,
        now: float,
    ) -> None:
        result = self.result
        delivery_time = now
        if self.noise is not None:
            delivery_time += self.noise.processing_delay
        hop_count = sender.hop_counts.get(packet.packet_id, 0) + 1
        row = self.context.packet_store.row_of(packet.packet_id)
        if self._outcomes.deliver(row, delivery_time, receiver.node_id, hop_count):
            result.deliveries += 1
        sender.node.counters.packets_sent += 1
        sender.node.counters.bytes_sent += packet.size
        receiver.node.counters.packets_received += 1
        receiver.node.counters.bytes_received += packet.size
        receiver.node.counters.packets_delivered_here += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.packet_delivered(
                packet, sender.node_id, receiver.node_id, now, hop_count
            )
        # Both participants learn of the delivery immediately.
        sender.on_delivery(packet, now)
        receiver.on_delivery(packet, now)

    def _register_replication(
        self, packet: Packet, sender: RoutingProtocol, receiver: RoutingProtocol, now: float
    ) -> None:
        result = self.result
        self._outcomes.replicate(self.context.packet_store.row_of(packet.packet_id))
        result.replications += 1
        sender.node.counters.packets_sent += 1
        sender.node.counters.bytes_sent += packet.size
        receiver.node.counters.packets_received += 1
        receiver.node.counters.bytes_received += packet.size
        tracer = self.tracer
        if tracer is not None:
            tracer.packet_replicated(packet, sender.node_id, receiver.node_id, now)
        metrics = self.metrics
        if metrics is not None:
            # RAPID's marginal-utility view of the replica just committed;
            # protocols without a utility (epidemic, prophet) skip the
            # histogram.  ``packet_utility`` is read-only estimator math,
            # so sampling it never perturbs the run.
            utility = getattr(sender, "packet_utility", None)
            if utility is not None:
                metrics.observe("rapid_utility", utility(packet, now))
        sender.on_replica_sent(packet, receiver, now)


def run_simulation(
    schedule: MeetingSchedule,
    packets: Iterable[Packet],
    protocol_factory: ProtocolFactory,
    buffer_capacity: float = float("inf"),
    seed: Optional[int] = None,
    noise: Optional[DeploymentNoise] = None,
    options: Optional[Dict[str, object]] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    simulator = Simulator(
        schedule=schedule,
        packets=list(packets),
        protocol_factory=protocol_factory,
        buffer_capacity=buffer_capacity,
        seed=seed,
        noise=noise,
        options=options,
    )
    return simulator.run()
