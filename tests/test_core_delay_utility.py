"""Tests for Estimate Delay, the utility metrics and the DAG estimator."""

import math

import pytest

from repro.core import dag_delay, delay
from repro.core.rapid import RapidProtocol
from repro.core.transfer_estimator import TransferSizeEstimator
from repro.core.utility import (
    AverageDelayMetric,
    DeadlineMetric,
    MaximumDelayMetric,
    available_metrics,
    make_metric,
)
from repro.dtn.node import Node
from repro.dtn.packet import Packet
from repro.exceptions import ConfigurationError
from repro.routing.base import ProtocolContext


def _holder(meeting: float, transfer: float, queued_ahead: int = 0) -> RapidProtocol:
    """A RAPID node with ``E(M)`` *meeting* and expected transfer *transfer*
    to destination 9, holding *queued_ahead* bytes for it (one packet)."""
    node = Node.with_capacity(0, float("inf"))
    holder = RapidProtocol(node, ProtocolContext(nodes={0: node}))
    holder.meetings.expected_meeting_time = lambda destination: meeting
    holder.transfer_sizes = TransferSizeEstimator(initial_estimate=transfer)
    if queued_ahead:
        holder.buffer.add(Packet(packet_id=1, source=0, destination=9, size=queued_ahead))
    return holder


#: The packet whose direct-delivery delay the holders above estimate.
QUERIED = Packet(packet_id=2, source=0, destination=9, size=1000, creation_time=1.0)


class TestDelayPrimitives:
    def test_meetings_needed_minimum_one(self):
        assert _holder(100.0, 100_000).own_delay_estimate(QUERIED, 5.0) == 100.0

    def test_meetings_needed_ceiling(self):
        # 2.5 opportunities needed -> 3 meetings.
        holder = _holder(1.0, 1000, queued_ahead=1500)
        assert holder.own_delay_estimate(QUERIED, 5.0) == 3.0

    def test_meetings_needed_invalid_packet_size(self):
        # A packet of no size never reaches the estimator.
        with pytest.raises(ValueError):
            Packet(packet_id=3, source=0, destination=9, size=0)

    def test_direct_delivery_delay(self):
        value = _holder(100.0, 1000, queued_ahead=1500).own_delay_estimate(QUERIED, 5.0)
        assert value == pytest.approx(300.0)

    def test_direct_delivery_delay_never_meet(self):
        holder = _holder(float("inf"), 1000, queued_ahead=1500)
        assert math.isinf(holder.own_delay_estimate(QUERIED, 5.0))

    def test_combined_remaining_delay_single(self):
        assert delay.combined_remaining_delay([120.0]) == pytest.approx(120.0)

    def test_combined_remaining_delay_matches_uniform_closed_form(self):
        # k identical replicas: A = mean / k (Section 4.1.1).
        mean = 300.0
        for k in (1, 2, 5):
            combined = delay.combined_remaining_delay([mean] * k)
            assert combined == pytest.approx(delay.uniform_exponential_remaining_delay(mean, k))

    def test_combined_ignores_unreachable_replicas(self):
        assert delay.combined_remaining_delay([float("inf"), 100.0]) == pytest.approx(100.0)
        assert math.isinf(delay.combined_remaining_delay([float("inf")]))
        assert math.isinf(delay.combined_remaining_delay([]))

    def test_delivery_probability(self):
        p = delay.delivery_probability_within([100.0], 100.0)
        assert p == pytest.approx(1 - math.exp(-1))
        assert delay.delivery_probability_within([100.0], 0.0) == 0.0
        assert delay.delivery_probability_within([float("inf")], 50.0) == 0.0

    def test_probability_increases_with_replicas(self):
        window = 60.0
        one = delay.delivery_probability_within([100.0], window)
        two = delay.delivery_probability_within([100.0, 100.0], window)
        assert two > one

    def test_extra_replica_reduces_delay(self):
        rate = delay.delivery_rate([200.0])
        before = delay.remaining_delay_from_rate(rate)
        after = delay.remaining_delay_from_rate(delay.add_delay_to_rate(rate, 200.0))
        assert after == pytest.approx(before / 2)

    def test_uniform_closed_form_validation(self):
        with pytest.raises(ValueError):
            delay.uniform_exponential_remaining_delay(0, 1)
        with pytest.raises(ValueError):
            delay.uniform_exponential_remaining_delay(10.0, 0)


class TestMetricFactory:
    def test_available(self):
        assert set(available_metrics()) == {"average_delay", "deadline", "max_delay"}

    def test_aliases(self):
        assert isinstance(make_metric("avg_delay"), AverageDelayMetric)
        assert isinstance(make_metric("max-delay"), MaximumDelayMetric)
        assert isinstance(make_metric("missed_deadlines"), DeadlineMetric)

    def test_unknown_metric(self):
        with pytest.raises(ConfigurationError):
            make_metric("throughput")


class TestAverageDelayMetric:
    metric = AverageDelayMetric()

    def _packet(self, age=100.0, size=1000, deadline=None):
        return Packet(packet_id=1, source=0, destination=9, size=size, creation_time=0.0, deadline=deadline)

    def test_utility_is_negative_expected_delay(self):
        packet = self._packet()
        assert self.metric.utility(packet, 200.0, now=100.0) == pytest.approx(-300.0)

    def test_marginal_utility_positive_for_helpful_replica(self):
        packet = self._packet()
        gain = self.metric.marginal_utility(packet, [200.0], 200.0, now=100.0)
        assert gain == pytest.approx(100.0)

    def test_marginal_utility_zero_for_useless_replica(self):
        packet = self._packet()
        assert self.metric.marginal_utility(packet, [200.0], float("inf"), now=100.0) == 0.0

    def test_marginal_utility_for_newly_reachable_packet(self):
        packet = self._packet()
        gain = self.metric.marginal_utility(packet, [float("inf")], 500.0, now=100.0)
        assert 0 < gain < 1  # large-but-finite improvements rank below real reductions

    def test_replication_priority_normalises_by_size(self):
        small = Packet(packet_id=1, source=0, destination=9, size=500)
        large = Packet(packet_id=2, source=0, destination=9, size=2000)
        assert self.metric.replication_priority(small, 100.0, 0.0) > self.metric.replication_priority(
            large, 100.0, 0.0
        )

    def test_direct_delivery_oldest_first(self):
        old = Packet(packet_id=1, source=0, destination=9, creation_time=0.0)
        new = Packet(packet_id=2, source=0, destination=9, creation_time=50.0)
        assert self.metric.direct_delivery_key(old, 100.0) > self.metric.direct_delivery_key(new, 100.0)

    def test_horizon_clipping(self):
        metric = AverageDelayMetric()
        metric.set_horizon(1000.0)
        packet = self._packet()
        # Both before and after exceed the remaining time -> no realisable gain.
        gain = metric.marginal_utility(packet, [5000.0], 5000.0, now=500.0)
        assert gain == 0.0
        # A reduction that crosses the horizon is partially realisable.
        gain = metric.marginal_utility(packet, [5000.0], 100.0, now=500.0)
        assert gain > 0


class TestDeadlineMetric:
    def test_utility_probability_within_deadline(self):
        metric = DeadlineMetric()
        packet = Packet(packet_id=1, source=0, destination=9, creation_time=0.0, deadline=100.0)
        utility = metric.utility(packet, 50.0, now=0.0)
        assert utility == pytest.approx(1 - math.exp(-2))

    def test_expired_packet_has_zero_utility(self):
        metric = DeadlineMetric()
        packet = Packet(packet_id=1, source=0, destination=9, creation_time=0.0, deadline=10.0)
        assert metric.utility(packet, 5.0, now=50.0) == 0.0
        assert metric.marginal_utility(packet, [100.0], 10.0, now=50.0) == 0.0

    def test_default_deadline_used_when_packet_has_none(self):
        metric = DeadlineMetric(default_deadline=100.0)
        packet = Packet(packet_id=1, source=0, destination=9, creation_time=0.0)
        assert 0 < metric.utility(packet, 50.0, now=0.0) < 1

    def test_no_deadline_at_all(self):
        metric = DeadlineMetric()
        packet = Packet(packet_id=1, source=0, destination=9)
        assert metric.utility(packet, 50.0, now=0.0) == 1.0
        assert metric.utility(packet, float("inf"), now=0.0) == 0.0

    def test_marginal_utility_is_probability_gain(self):
        metric = DeadlineMetric()
        packet = Packet(packet_id=1, source=0, destination=9, creation_time=0.0, deadline=100.0)
        gain = metric.marginal_utility(packet, [200.0], 200.0, now=0.0)
        expected = (1 - math.exp(-1.0)) - (1 - math.exp(-0.5))
        assert gain == pytest.approx(expected)

    def test_direct_delivery_prefers_tight_feasible_deadlines(self):
        metric = DeadlineMetric()
        tight = Packet(packet_id=1, source=0, destination=9, creation_time=0.0, deadline=20.0)
        loose = Packet(packet_id=2, source=0, destination=9, creation_time=0.0, deadline=200.0)
        expired = Packet(packet_id=3, source=0, destination=9, creation_time=0.0, deadline=5.0)
        now = 10.0
        keys = {
            "tight": metric.direct_delivery_key(tight, now),
            "loose": metric.direct_delivery_key(loose, now),
            "expired": metric.direct_delivery_key(expired, now),
        }
        assert keys["tight"] > keys["loose"] > keys["expired"]


class TestMaximumDelayMetric:
    def test_eviction_prefers_smallest_expected_delay(self):
        metric = MaximumDelayMetric()
        young = Packet(packet_id=1, source=0, destination=9, creation_time=90.0)
        old = Packet(packet_id=2, source=0, destination=9, creation_time=0.0)
        now = 100.0
        assert metric.eviction_score(young, 10.0, now) < metric.eviction_score(old, 10.0, now)

    def test_expected_delay(self):
        metric = MaximumDelayMetric()
        packet = Packet(packet_id=1, source=0, destination=9, creation_time=0.0)
        assert metric.expected_delay(packet, 50.0, now=100.0) == pytest.approx(150.0)


class TestDagDelay:
    def test_dependency_graph_structure(self):
        # Figure 2: W holds [a, b], X holds [b, d], Y holds [a, d, c].
        queues = {"W": ["a", "b"], "X": ["b", "d"], "Y": ["a", "d", "c"]}
        graph = dag_delay.build_dependency_graph(queues)
        # b at W depends on a at W and on a's replica at Y.
        assert set(graph[("W", "b")]) == {("W", "a"), ("Y", "a")}
        # Front-of-queue replicas have no dependencies.
        assert graph[("W", "a")] == []
        assert graph[("X", "b")] == []

    def test_single_replica_front_packet_matches_mean(self):
        queues = {0: ["p"]}
        means = {0: 100.0}
        estimates = dag_delay.dag_delay_estimates(queues, means, num_samples=4000, seed=1)
        assert estimates["p"] == pytest.approx(100.0, rel=0.1)

    def test_two_replica_packet_beats_single(self):
        single = dag_delay.dag_delay_estimates({0: ["p"]}, {0: 100.0, 1: 100.0}, num_samples=3000, seed=2)
        double = dag_delay.dag_delay_estimates({0: ["p"], 1: ["p"]}, {0: 100.0, 1: 100.0}, num_samples=3000, seed=2)
        assert double["p"] < single["p"]

    def test_estimate_delay_baseline_positions(self):
        queues = {0: ["a", "b"]}
        means = {0: 100.0}
        baseline = dag_delay.estimate_delay_baseline(queues, means)
        assert baseline["a"] == pytest.approx(100.0)
        assert baseline["b"] == pytest.approx(200.0)

    def test_estimate_delay_ignores_cross_buffer_dependencies(self):
        # Estimate Delay treats b's two replicas as independent even though
        # both wait behind a replica of a; DAG delay accounts for the race.
        queues = {0: ["a", "b"], 1: ["a", "b"]}
        means = {0: 100.0, 1: 100.0}
        baseline = dag_delay.estimate_delay_baseline(queues, means)
        idealized = dag_delay.dag_delay_estimates(queues, means, num_samples=4000, seed=3)
        assert baseline["b"] == pytest.approx(100.0)  # min of two 200s-mean exponentials
        assert idealized["b"] > baseline["b"] * 0.9  # the DAG value is not smaller

    def test_unreachable_holder_gives_infinite_delay(self):
        estimates = dag_delay.dag_delay_estimates({0: ["p"]}, {}, num_samples=10, seed=4)
        assert math.isinf(estimates["p"])

    def test_estimation_gap(self):
        queues = {0: ["a", "b"], 1: ["b"]}
        means = {0: 100.0, 1: 150.0}
        gaps = dag_delay.estimation_gap(queues, means, num_samples=1500, seed=5)
        assert set(gaps) == {"a", "b"}
        assert gaps["a"] == pytest.approx(1.0, rel=0.2)

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            dag_delay.dag_delay_estimates({0: ["p"]}, {0: 1.0}, num_samples=0)
