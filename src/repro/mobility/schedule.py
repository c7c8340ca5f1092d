"""Contact schedules: the DTN node-meeting multigraph.

The paper models a DTN as a directed multigraph ``G = (V, E)`` where every
edge is a meeting annotated with ``(t_e, s_e)`` — the meeting time and the
size of the transfer opportunity in bytes.  :class:`MeetingSchedule` is the
concrete container used by the simulator, mobility models and the offline
optimal router.

Since the durational contact layer, the edge type is :class:`Contact`: a
transfer opportunity with a *window* (``start``/``end``) and a bandwidth
profile described by a pluggable :class:`LinkModel`.  The paper's
short-lived treatment (Section 3.1: all bytes available at one instant) is
the default simulator mode, which reads only ``time`` and ``capacity``;
the durational modes also honour ``duration`` and the link model.
:data:`Meeting` remains as an alias for :class:`Contact` so the historic
name keeps working everywhere.
"""

from __future__ import annotations

import abc
import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import ScheduleError


class LinkModel(abc.ABC):
    """Bandwidth profile of a contact: cumulative bytes versus elapsed time.

    A link model maps the elapsed time into a contact's window to the
    cumulative number of bytes the link can have carried by then, plus the
    inverse (how long carrying a cumulative byte count takes).  The
    simulator uses it to timestamp when a transfer *completes* inside a
    contact window and to decide which transfers a cut-short contact can
    still finish.  Implementations must be monotone in both directions.
    """

    @abc.abstractmethod
    def bytes_within(self, contact: "Contact", elapsed: float) -> float:
        """Cumulative bytes the link carries in the first *elapsed* seconds."""

    @abc.abstractmethod
    def time_to_transfer(self, contact: "Contact", cumulative_bytes: float) -> float:
        """Elapsed seconds until *cumulative_bytes* have been carried."""


class ConstantRateLinkModel(LinkModel):
    """The default profile: capacity spread uniformly over the window.

    A zero-duration contact degenerates to the paper's short-lived model —
    every byte is available instantly at ``start``.
    """

    def rate(self, contact: "Contact") -> float:
        """Bytes per second (``inf`` for zero-duration contacts)."""
        if contact.duration <= 0.0 or math.isinf(contact.capacity):
            return float("inf")
        return contact.capacity / contact.duration

    def bytes_within(self, contact: "Contact", elapsed: float) -> float:
        """Cumulative bytes carried in the first *elapsed* seconds."""
        if elapsed <= 0.0:
            return 0.0
        rate = self.rate(contact)
        if math.isinf(rate):
            return contact.capacity
        return min(contact.capacity, rate * elapsed)

    def time_to_transfer(self, contact: "Contact", cumulative_bytes: float) -> float:
        """Elapsed seconds until *cumulative_bytes* have been carried."""
        if cumulative_bytes <= 0.0:
            return 0.0
        rate = self.rate(contact)
        if math.isinf(rate):
            return 0.0
        return cumulative_bytes / rate


#: Shared default profile instance (the model is stateless).
CONSTANT_RATE = ConstantRateLinkModel()


@dataclass(frozen=True, order=True)
class Contact:
    """A single transfer opportunity between two nodes.

    A contact opens at :attr:`start` (= :attr:`time`, the historic field
    name) and closes at :attr:`end` = ``start + duration``.  ``capacity``
    is the total transfer-opportunity size in bytes; how those bytes are
    spread over the window is described by :attr:`link_model`
    (constant-rate when ``None``).  The default *instantaneous* simulator
    mode reproduces the paper's short-lived treatment (Section 3.1) by
    making all bytes available at ``start`` and ignoring the window.
    """

    time: float
    node_a: int
    node_b: int
    capacity: float = float("inf")
    duration: float = 0.0
    #: Optional per-contact bandwidth profile; ``None`` selects the shared
    #: :data:`CONSTANT_RATE` model.  Excluded from ordering/equality so
    #: contacts stay comparable and hashable by their scheduling identity.
    link_model: Optional[LinkModel] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ScheduleError(f"meeting time must be non-negative, got {self.time}")
        if self.node_a == self.node_b:
            raise ScheduleError("a node cannot meet itself")
        if self.capacity < 0:
            raise ScheduleError("meeting capacity must be non-negative")
        if self.duration < 0:
            raise ScheduleError("meeting duration must be non-negative")

    # ------------------------------------------------------------------
    # The contact window
    # ------------------------------------------------------------------
    @property
    def start(self) -> float:
        """When the contact window opens (alias of :attr:`time`)."""
        return self.time

    @property
    def end(self) -> float:
        """When the contact window closes (``start`` for point contacts)."""
        return self.time + self.duration

    @property
    def profile(self) -> LinkModel:
        """The bandwidth profile (the constant-rate default when unset)."""
        return self.link_model if self.link_model is not None else CONSTANT_RATE

    def nominal_rate(self) -> float:
        """Bytes per second under the constant-rate reading of the window."""
        return CONSTANT_RATE.rate(self)

    def involves(self, node_id: int) -> bool:
        """Return True when *node_id* participates in this meeting."""
        return node_id in (self.node_a, self.node_b)

    def peer_of(self, node_id: int) -> int:
        """Return the other endpoint of the meeting."""
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ScheduleError(f"node {node_id} does not participate in this meeting")

    def pair(self) -> Tuple[int, int]:
        """Return the unordered meeting pair as a sorted tuple."""
        return (self.node_a, self.node_b) if self.node_a < self.node_b else (self.node_b, self.node_a)


#: Historic name: the paper calls contacts "meetings" and treats them as
#: short-lived point events.  Everything that constructed a ``Meeting``
#: keeps working; durational code reads the extra window attributes.
Meeting = Contact


class MeetingSchedule:
    """A time-ordered collection of meetings over a fixed set of nodes."""

    def __init__(
        self,
        meetings: Optional[Iterable[Meeting]] = None,
        nodes: Optional[Iterable[int]] = None,
        duration: Optional[float] = None,
    ) -> None:
        self._meetings: List[Meeting] = sorted(meetings or [], key=lambda m: (m.time, m.node_a, m.node_b))
        self._times: List[float] = [m.time for m in self._meetings]
        node_set: Set[int] = set(nodes or [])
        for meeting in self._meetings:
            node_set.add(meeting.node_a)
            node_set.add(meeting.node_b)
        self._nodes: List[int] = sorted(node_set)
        if duration is None:
            duration = self._meetings[-1].time if self._meetings else 0.0
        if self._meetings and duration < self._meetings[-1].time:
            raise ScheduleError(
                "schedule duration is shorter than the latest meeting time"
            )
        self.duration = duration

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._meetings)

    def __iter__(self) -> Iterator[Meeting]:
        return iter(self._meetings)

    def __getitem__(self, index: int) -> Meeting:
        return self._meetings[index]

    @property
    def nodes(self) -> List[int]:
        """Sorted list of node identifiers appearing in the schedule."""
        return list(self._nodes)

    @property
    def meetings(self) -> List[Meeting]:
        """The meetings sorted by time."""
        return list(self._meetings)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def meetings_between(self, start: float, end: float) -> List[Meeting]:
        """Meetings with ``start <= time < end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._meetings[lo:hi]

    def meetings_of(self, node_id: int) -> List[Meeting]:
        """All meetings that involve *node_id*."""
        return [m for m in self._meetings if m.involves(node_id)]

    def meetings_of_pair(self, node_a: int, node_b: int) -> List[Meeting]:
        """All meetings between the unordered pair ``(node_a, node_b)``."""
        pair = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        return [m for m in self._meetings if m.pair() == pair]

    def total_capacity(self) -> float:
        """Sum of transfer-opportunity sizes across all meetings (bytes)."""
        return float(sum(m.capacity for m in self._meetings))

    def mean_capacity(self) -> float:
        """Average transfer-opportunity size in bytes (0 for empty schedules)."""
        if not self._meetings:
            return 0.0
        return self.total_capacity() / len(self._meetings)

    def mean_inter_meeting_times(self) -> Dict[Tuple[int, int], float]:
        """Empirical mean inter-meeting time per unordered pair.

        Pairs that meet fewer than twice are omitted — a single meeting
        carries no inter-meeting interval.
        """
        by_pair: Dict[Tuple[int, int], List[float]] = {}
        for meeting in self._meetings:
            by_pair.setdefault(meeting.pair(), []).append(meeting.time)
        result: Dict[Tuple[int, int], float] = {}
        for pair, times in by_pair.items():
            if len(times) < 2:
                continue
            gaps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
            result[pair] = sum(gaps) / len(gaps)
        return result

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def restricted_to(self, node_ids: Sequence[int]) -> "MeetingSchedule":
        """Return a new schedule containing only meetings among *node_ids*."""
        allowed = set(node_ids)
        kept = [m for m in self._meetings if m.node_a in allowed and m.node_b in allowed]
        return MeetingSchedule(kept, nodes=allowed, duration=self.duration)

    def truncated(self, end_time: float) -> "MeetingSchedule":
        """Return a new schedule with meetings strictly before *end_time*."""
        kept = [m for m in self._meetings if m.time < end_time]
        return MeetingSchedule(kept, nodes=self._nodes, duration=end_time)

    def merged_with(self, other: "MeetingSchedule") -> "MeetingSchedule":
        """Return a schedule containing the meetings of both schedules."""
        return MeetingSchedule(
            self._meetings + other.meetings,
            nodes=set(self._nodes) | set(other.nodes),
            duration=max(self.duration, other.duration),
        )

    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[Tuple[float, int, int, float]],
        duration: Optional[float] = None,
    ) -> "MeetingSchedule":
        """Build a schedule from ``(time, node_a, node_b, capacity)`` rows."""
        meetings = [Meeting(time=t, node_a=a, node_b=b, capacity=c) for t, a, b, c in rows]
        return cls(meetings, duration=duration)


@dataclass
class ScheduleStatistics:
    """Summary statistics of a meeting schedule (used for trace validation)."""

    num_nodes: int
    num_meetings: int
    duration: float
    total_capacity: float
    mean_capacity: float
    meetings_per_node: float = field(default=0.0)

    @classmethod
    def of(cls, schedule: MeetingSchedule) -> "ScheduleStatistics":
        """Compute the summary statistics of *schedule*."""
        num_nodes = len(schedule.nodes)
        num_meetings = len(schedule)
        return cls(
            num_nodes=num_nodes,
            num_meetings=num_meetings,
            duration=schedule.duration,
            total_capacity=schedule.total_capacity(),
            mean_capacity=schedule.mean_capacity(),
            meetings_per_node=(2.0 * num_meetings / num_nodes) if num_nodes else 0.0,
        )
