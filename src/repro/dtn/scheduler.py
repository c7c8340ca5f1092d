"""Event queue used by the simulator.

A thin wrapper around :mod:`heapq` providing a *documented total order*
over events, so that every run of a schedule — serial or executed on any
worker process of the parallel experiment engine — pops events in exactly
the same sequence and produces bit-identical results.

Events at equal timestamps are ordered by kind, then by insertion order:

0. ``NODE_UP`` then ``NODE_DOWN`` — fault-injected availability
   transitions resolve before everything else at *t*: a node restarting
   at *t* participates in that instant's contacts, a node crashing at
   *t* misses them, and adjacent down-windows ``[a, b)`` ``[b, c)``
   keep the node down at *b*;
1. ``CONTACT_START`` — a contact window opening at *t* is open to every
   other event of the same instant;
2. ``PACKET_CREATION`` — a packet generated at time *t* is visible to a
   meeting at the same instant and to any contact window open at *t* (a
   bus that creates a packet right as it meets another bus may transfer
   it in that meeting, as in the deployment);
3. ``MEETING`` — instantaneous-mode contacts; meetings inserted earlier
   (i.e. earlier in the meeting schedule, which sorts by
   ``(time, node_a, node_b)``) are processed first;
4. ``CONTACT_END`` — a window closing at *t* sees same-instant creations
   before it interrupts in-flight transfers;
5. ``END_OF_SIMULATION`` — the horizon fires only after every same-time
   creation and contact event has been handled.

Within one ``(time, kind)`` class, FIFO insertion order breaks the final
ties via a monotonic sequence number; :class:`~repro.dtn.events.Event`
objects are never compared directly, so no event type needs to define an
ordering.  Keeping the queue behind a small class makes the simulator
loop easy to read and lets tests exercise these guarantees in isolation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, List, Optional, Tuple

from .events import Event


class EventQueue:
    """A time-ordered priority queue of :class:`Event` objects.

    The pop order is the deterministic total order documented in the
    module docstring: ``(time, kind priority, insertion order)``.
    """

    def __init__(self, events: Optional[Iterable[Event]] = None) -> None:
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, int, Event]] = []
        if events:
            for event in events:
                self.push(event)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: Event) -> None:
        """Insert an event at its ``(time, kind, insertion order)`` slot."""
        time_key, kind_key = event.sort_key()
        heapq.heappush(self._heap, (time_key, kind_key, next(self._counter), event))

    def push_all(self, events: Iterable[Event]) -> None:
        """Insert several events (preserving their relative FIFO order)."""
        for event in events:
            self.push(event)

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises:
            IndexError: when the queue is empty.
        """
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest event, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def drain(self) -> List[Event]:
        """Pop every remaining event in order (mainly for tests)."""
        out: List[Event] = []
        while self._heap:
            out.append(self.pop())
        return out
