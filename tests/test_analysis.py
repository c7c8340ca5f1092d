"""Tests for the analysis helpers: fairness, statistics, aggregation."""

import math

import pytest

from repro.analysis.fairness import empirical_cdf, fraction_at_least, jain_fairness_index
from repro.analysis.metrics import (
    METRICS,
    aggregate,
    compare_protocols,
    improvement_over,
    mean_metric,
    metric_function,
)
from repro.analysis.stats import (
    matched_pair_delays,
    mean_confidence_interval,
    moving_average,
    paired_delay_test,
    per_pair_average_delays,
    relative_difference,
)
from repro.dtn.packet import PacketFactory, PacketRecord
from result_builders import result_with_records


def make_result(delays, duration=100.0, protocol="p"):
    """Build a result whose packets were all delivered with the given delays."""
    factory = PacketFactory()
    records = []
    for delay in delays:
        record = PacketRecord(factory.create(source=0, destination=1, creation_time=0.0))
        record.mark_delivered(delay, node_id=1, hop_count=1)
        records.append(record)
    return result_with_records(records, protocol_name=protocol, duration=duration)


class TestFairness:
    def test_jain_equal_values(self):
        assert jain_fairness_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_jain_single_dominant(self):
        index = jain_fairness_index([100, 0, 0, 0])
        assert index == pytest.approx(0.25)

    def test_jain_empty_and_zero(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0, 0]) == 1.0

    def test_jain_rejects_negative(self):
        with pytest.raises(ValueError):
            jain_fairness_index([-1, 2])

    def test_empirical_cdf(self):
        xs, ys = empirical_cdf([3, 1, 2])
        assert xs == [1, 2, 3]
        assert ys == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]
        assert empirical_cdf([]) == ([], [])

    def test_fraction_at_least(self):
        assert fraction_at_least([0.5, 0.9, 1.0], 0.9) == pytest.approx(2 / 3)
        assert fraction_at_least([], 0.5) == 0.0


class TestStats:
    def test_confidence_interval_contains_mean(self):
        interval = mean_confidence_interval([10.0, 12.0, 11.0, 9.0, 13.0])
        assert interval.low < 11.0 < interval.high
        assert interval.contains(interval.mean)
        assert interval.relative_half_width() > 0

    def test_confidence_interval_degenerate(self):
        interval = mean_confidence_interval([5.0])
        assert interval.mean == 5.0 and interval.half_width == 0.0
        constant = mean_confidence_interval([2.0, 2.0, 2.0])
        assert constant.half_width == 0.0
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_paired_test_detects_difference(self):
        first = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        second = [20.0, 21.5, 22.0, 23.5, 24.0, 25.5]
        outcome = paired_delay_test(first, second)
        assert outcome.p_value < 0.0005
        assert outcome.significant()
        assert outcome.mean_difference < 0

    def test_paired_test_validation(self):
        with pytest.raises(ValueError):
            paired_delay_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_delay_test([1.0], [1.0])

    def test_per_pair_average_delays(self):
        factory = PacketFactory()
        records = []
        for delay in (10.0, 20.0):
            packet = factory.create(source=0, destination=1, creation_time=0.0)
            record = PacketRecord(packet)
            record.mark_delivered(delay, node_id=1, hop_count=1)
            records.append(record)
        undelivered = PacketRecord(factory.create(source=2, destination=3))
        records.append(undelivered)
        pairs = per_pair_average_delays(records)
        assert pairs == {(0, 1): 15.0}

    def test_matched_pair_delays(self):
        first = make_result([10.0, 20.0]).records.values()
        second = make_result([30.0]).records.values()
        a, b = matched_pair_delays(first, second)
        assert len(a) == len(b) == 1

    def test_moving_average(self):
        assert moving_average([1, 2, 3, 4], window=2) == [1, 1.5, 2.5, 3.5]
        with pytest.raises(ValueError):
            moving_average([1], window=0)

    def test_relative_difference(self):
        assert relative_difference(110, 100) == pytest.approx(0.1)
        assert relative_difference(0, 0) == 0.0
        assert math.isinf(relative_difference(5, 0))


class TestAggregation:
    def test_metric_function_lookup(self):
        assert metric_function("delivery_rate")(make_result([10.0])) == 1.0
        with pytest.raises(KeyError):
            metric_function("nonexistent")

    def test_mean_metric(self):
        results = [make_result([10.0]), make_result([30.0])]
        assert mean_metric(results, "average_delay") == pytest.approx(20.0)
        assert mean_metric([], "average_delay") == 0.0

    def test_aggregate_all_metrics(self):
        aggregated = aggregate([make_result([10.0]), make_result([20.0])])
        assert set(aggregated) == set(METRICS)
        assert aggregated["average_delay"].mean == pytest.approx(15.0)
        interval = aggregated["average_delay"].confidence_interval()
        assert interval.low <= 15.0 <= interval.high

    def test_compare_and_improvement(self):
        by_protocol = {
            "rapid": [make_result([10.0])],
            "maxprop": [make_result([20.0])],
        }
        comparison = compare_protocols(by_protocol, "average_delay")
        assert comparison["rapid"] == 10.0
        improvement = improvement_over(by_protocol, "average_delay", "rapid", "maxprop")
        assert improvement == pytest.approx(0.5)
        gain = improvement_over(
            by_protocol, "delivery_rate", "rapid", "maxprop", lower_is_better=False
        )
        assert gain == 0.0
        with pytest.raises(KeyError):
            improvement_over(by_protocol, "average_delay", "rapid", "missing")
