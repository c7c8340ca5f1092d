"""ILP formulation of offline optimal DTN routing (Appendix D).

The paper formulates optimal (forwarding, single-copy) routing as an
integer linear program minimising total delay, where undelivered packets
contribute the time they spend in the system until the end of the horizon.
This module builds an equivalent, more compact formulation:

* one binary variable ``x[p, e]`` per packet and per *directed* meeting
  edge (two directions per meeting), present only when the meeting occurs
  after the packet's creation and does not originate at the packet's
  destination;
* *possession constraints* ensure a packet is only forwarded from a node
  that currently holds its single copy (these encode the appendix's
  ``N(p, n, i)`` state variables implicitly as running sums of ``x``);
* *bandwidth constraints* bound the bytes sent in each meeting by the
  transfer opportunity's size;
* each packet enters its destination at most once, and the objective
  rewards early delivery exactly as in the appendix.

The matrices are returned in a solver-agnostic form consumed by
:mod:`repro.optimal.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dtn.packet import Packet
from ..exceptions import OptimizationError
from ..mobility.schedule import MeetingSchedule

#: A directed edge: (meeting index, tail node, head node, time, capacity).
DirectedEdge = Tuple[int, int, int, float, float]


@dataclass
class LinearConstraintSpec:
    """One block of linear constraints ``lower <= A x <= upper`` (sparse rows)."""

    rows: List[Dict[int, float]] = field(default_factory=list)
    lower: List[float] = field(default_factory=list)
    upper: List[float] = field(default_factory=list)

    def add(self, coefficients: Dict[int, float], lower: float, upper: float) -> None:
        self.rows.append(coefficients)
        self.lower.append(lower)
        self.upper.append(upper)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ILPProblem:
    """A built ILP instance ready to be handed to the solver."""

    objective: np.ndarray
    constraints: LinearConstraintSpec
    objective_constant: float
    variable_index: Dict[Tuple[int, int], int]
    edges: List[DirectedEdge]
    packets: List[Packet]
    horizon: float

    @property
    def num_variables(self) -> int:
        return int(self.objective.size)



def _directed_edges(schedule: MeetingSchedule) -> List[DirectedEdge]:
    edges: List[DirectedEdge] = []
    for meeting_index, meeting in enumerate(schedule):
        edges.append((meeting_index, meeting.node_a, meeting.node_b, meeting.time, meeting.capacity))
        edges.append((meeting_index, meeting.node_b, meeting.node_a, meeting.time, meeting.capacity))
    return edges


def build_ilp(
    schedule: MeetingSchedule,
    packets: Sequence[Packet],
    horizon: Optional[float] = None,
) -> ILPProblem:
    """Build the ILP for *schedule* and *packets*.

    Args:
        schedule: The (fully known) meeting schedule.
        packets: The (fully known) workload.
        horizon: End of the experiment; defaults to the schedule duration.
            Undelivered packets are charged ``horizon - creation_time``.
    """
    packets = list(packets)
    if not packets:
        raise OptimizationError("the ILP needs at least one packet")
    if horizon is None:
        horizon = schedule.duration
    edges = _directed_edges(schedule)

    variable_index: Dict[Tuple[int, int], int] = {}
    objective_terms: List[float] = []
    for packet_index, packet in enumerate(packets):
        for edge_index, (_, tail, head, time, _) in enumerate(edges):
            if time < packet.creation_time:
                continue
            if tail == packet.destination:
                continue
            variable_index[(packet_index, edge_index)] = len(objective_terms)
            if head == packet.destination:
                # Delivering at time t changes the packet's contribution from
                # (horizon - t_p) to (t - t_p): coefficient (t - horizon) <= 0.
                objective_terms.append(time - horizon)
            else:
                objective_terms.append(0.0)

    objective = np.asarray(objective_terms, dtype=float)
    constant = float(sum(max(0.0, horizon - p.creation_time) for p in packets))
    constraints = LinearConstraintSpec()

    # 1. Each packet is delivered at most once.
    for packet_index in range(len(packets)):
        coefficients: Dict[int, float] = {}
        packet = packets[packet_index]
        for edge_index, (_, _, head, _, _) in enumerate(edges):
            key = (packet_index, edge_index)
            if key in variable_index and head == packet.destination:
                coefficients[variable_index[key]] = 1.0
        if coefficients:
            constraints.add(coefficients, 0.0, 1.0)

    # 2. Bandwidth per meeting (both directions share the opportunity).
    for meeting_index, meeting in enumerate(schedule):
        coefficients = {}
        for packet_index, packet in enumerate(packets):
            for edge_index, (m_index, _, _, _, _) in enumerate(edges):
                if m_index != meeting_index:
                    continue
                key = (packet_index, edge_index)
                if key in variable_index:
                    coefficients[variable_index[key]] = float(packet.size)
        if coefficients:
            constraints.add(coefficients, 0.0, float(meeting.capacity))

    # 3. Possession: a packet can only leave a node that currently holds it.
    #    x[p, e_out_of_u at k] + sum_{j<k} x[p, out of u] - sum_{j<k} x[p, into u]
    #      <= 1 if u is the packet's source else 0
    for packet_index, packet in enumerate(packets):
        incoming_by_node: Dict[int, List[Tuple[float, int]]] = {}
        outgoing_by_node: Dict[int, List[Tuple[float, int]]] = {}
        for edge_index, (_, tail, head, time, _) in enumerate(edges):
            key = (packet_index, edge_index)
            if key not in variable_index:
                continue
            outgoing_by_node.setdefault(tail, []).append((time, variable_index[key]))
            incoming_by_node.setdefault(head, []).append((time, variable_index[key]))

        for edge_index, (_, tail, _, time, _) in enumerate(edges):
            key = (packet_index, edge_index)
            if key not in variable_index:
                continue
            coefficients = {variable_index[key]: 1.0}
            for other_time, var in outgoing_by_node.get(tail, []):
                if other_time < time and var != variable_index[key]:
                    coefficients[var] = coefficients.get(var, 0.0) + 1.0
            for other_time, var in incoming_by_node.get(tail, []):
                if other_time < time:
                    coefficients[var] = coefficients.get(var, 0.0) - 1.0
            upper = 1.0 if tail == packet.source else 0.0
            constraints.add(coefficients, -float(len(edges)), upper)

    return ILPProblem(
        objective=objective,
        constraints=constraints,
        objective_constant=constant,
        variable_index=variable_index,
        edges=edges,
        packets=packets,
        horizon=float(horizon),
    )


def interpret_solution(problem: ILPProblem, solution: np.ndarray) -> Dict[int, Optional[float]]:
    """Map a 0/1 solution vector back to per-packet delivery times."""
    delivery_times: Dict[int, Optional[float]] = {}
    for packet_index, packet in enumerate(problem.packets):
        delivery: Optional[float] = None
        for edge_index, (_, _, head, time, _) in enumerate(problem.edges):
            key = (packet_index, edge_index)
            if key not in problem.variable_index:
                continue
            if head != packet.destination:
                continue
            if solution[problem.variable_index[key]] > 0.5:
                delivery = time if delivery is None else min(delivery, time)
        delivery_times[packet.packet_id] = delivery
    return delivery_times
