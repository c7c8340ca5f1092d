"""Results as columns: the outcome collector, the wire and cache codec,
records built on demand, merge.

A records-mode result holds its per-packet records as numpy columns,
from the simulator's outcome columns to the worker pipe, the result
cache and a canonical dict.  These tests pin down that nothing
observable changes across those hops: the canonical ``to_dict()`` and
every metric survive each round trip exactly, and the metrics equal the
per-record reference loops below, run over the original records, bit
for bit.
"""

from __future__ import annotations

import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.dtn.columns import PacketOutcomes, RecordColumns
from repro.dtn.node import NodeCounters
from repro.dtn.packet import DEFAULT_TRAFFIC_CLASS, Packet, PacketRecord
from repro.dtn.results import SimulationResult
from repro.engine import ResultCache, ScenarioSpec
from repro.engine.cache import ENTRY_SUFFIX, LEGACY_SUFFIX
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig
from result_builders import result_with_records

QUANTILES = (0.0, 0.1, 0.5, 0.9, 1.0)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def cell_spec():
    config = SyntheticExperimentConfig(
        num_nodes=5,
        mean_inter_meeting=40.0,
        transfer_opportunity=50 * units.KB,
        duration=2 * units.MINUTE,
        buffer_capacity=20 * units.KB,
        deadline=30.0,
        packet_interval=50.0,
        mobility="exponential",
        num_runs=1,
        seed=3,
    )
    return ScenarioSpec.for_cell(config, ProtocolSpec("Random", "random"), 2.0, 0)


# ----------------------------------------------------------------------
# Reference: the per-record metric loops the columns replaced
# ----------------------------------------------------------------------
def _reference_delays(records, duration, include_undelivered=False):
    horizon = duration if include_undelivered else None
    values = [r.delay(horizon=horizon) for r in records]
    return [value for value in values if value is not None]


def _reference_metrics(records, duration):
    metrics = {
        "num_packets": len(records),
        "num_delivered": sum(1 for r in records if r.delivered),
        "deadline_success_rate": (
            sum(1 for r in records if r.met_deadline()) / len(records) if records else 0.0
        ),
    }
    for undelivered in (False, True):
        values = _reference_delays(records, duration, undelivered)
        metrics[f"delays{undelivered}"] = values
        metrics[f"average_delay{undelivered}"] = sum(values) / len(values) if values else 0.0
        metrics[f"max_delay{undelivered}"] = max(values) if values else 0.0
    delivered_delays = metrics["delaysFalse"]
    for q in QUANTILES:
        metrics[f"quantile{q}"] = (
            float(np.quantile(np.asarray(delivered_delays), q, method="inverted_cdf"))
            if delivered_delays
            else 0.0
        )
    classes = sorted({r.packet.traffic_class for r in records})
    metrics["traffic_classes"] = classes
    breakdown = {}
    for name in classes:
        members = [r for r in records if r.packet.traffic_class == name]
        delivered = [r for r in members if r.delivered]
        delays = [r.delay() for r in delivered if r.delay() is not None]
        breakdown[name] = {
            "packets": float(len(members)),
            "delivered": float(len(delivered)),
            "delivery_rate": len(delivered) / len(members),
            "average_delay": sum(delays) / len(delays) if delays else 0.0,
            "deadline_success_rate": sum(1 for r in members if r.met_deadline()) / len(members),
        }
    metrics["per_class_summary"] = breakdown
    return metrics


def _metrics(result):
    """Every column-backed metric, keyed like :func:`_reference_metrics`."""
    metrics = {
        "num_packets": result.num_packets,
        "num_delivered": result.num_delivered,
        "deadline_success_rate": result.deadline_success_rate(),
    }
    for undelivered in (False, True):
        metrics[f"delays{undelivered}"] = result.delays(include_undelivered=undelivered)
        metrics[f"average_delay{undelivered}"] = result.average_delay(undelivered)
        metrics[f"max_delay{undelivered}"] = result.max_delay(undelivered)
    for q in QUANTILES:
        metrics[f"quantile{q}"] = result.delay_quantile(q)
    metrics["traffic_classes"] = result.traffic_classes()
    metrics["per_class_summary"] = result.per_class_summary()
    return metrics


# ----------------------------------------------------------------------
# Strategies: records covering every field of the layout, and results
# ----------------------------------------------------------------------
times = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)
deadlines = st.one_of(
    st.none(), st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False)
)
small_ints = st.integers(min_value=0, max_value=50)


@st.composite
def records_strategy(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    records = []
    for packet_id in draw(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=count, max_size=count, unique=True)
    ):
        creation_time = draw(times)
        packet = Packet(
            packet_id=packet_id,
            source=draw(st.integers(min_value=0, max_value=9)),
            destination=draw(st.integers(min_value=10, max_value=19)),
            size=draw(st.integers(min_value=1, max_value=10**6)),
            creation_time=creation_time,
            deadline=draw(deadlines),
            traffic_class=draw(st.sampled_from([DEFAULT_TRAFFIC_CLASS, "bulk", "news"])),
            priority=draw(st.sampled_from([0, 0, 2, -1])),
        )
        record = PacketRecord(
            packet=packet,
            replicas_created=draw(small_ints),
            drops=draw(small_ints),
            extra=draw(st.sampled_from([{}, {}, {"note": "x", "hops": [1, 2]}])),
        )
        if draw(st.booleans()):
            record.mark_delivered(
                creation_time + draw(times), draw(small_ints), draw(small_ints)
            )
        records.append(record)
    return records


@st.composite
def results_strategy(draw):
    """``(records, result)``: drawn records and a result holding them."""
    records = draw(records_strategy())
    result = result_with_records(records, duration=draw(times))
    result.meetings_processed = draw(small_ints)
    result.replications = draw(small_ints)
    result.node_counters = {
        node: NodeCounters(packets_sent=draw(small_ints), bytes_sent=float(draw(small_ints)))
        for node in draw(st.lists(small_ints, max_size=3, unique=True))
    }
    if draw(st.booleans()):
        result.contacts_interrupted = draw(small_ints)
        result.partial_bytes_wasted = draw(times)
    if draw(st.booleans()):
        result.node_outages = draw(small_ints)
        result.node_downtime_s = draw(times)
    return records, result


def _wire_round_trip(result):
    """What crosses the worker pipe: pickled header plus column bytes."""
    return SimulationResult.from_wire(pickle.loads(pickle.dumps(result.to_wire())))


def _cache_round_trip(result, spec, cache_dir):
    cache = ResultCache(cache_dir)
    cache.put(spec, result)
    restored = cache.get(spec)
    assert restored is not None and cache.stats.corrupt_entries == 0
    return restored


class TestColumnBackedEqualsDictBacked:
    @given(drawn=results_strategy())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trips_and_metrics(self, drawn, cell_spec, tmp_path_factory):
        records, result = drawn
        reference = _reference_metrics(records, result.duration)
        expected = _canonical(result.to_dict())
        assert list(result.records.values()) == records
        assert _metrics(result) == reference
        cache_dir = tmp_path_factory.mktemp("cache")
        for restored in (
            _wire_round_trip(result),
            _cache_round_trip(result, cell_spec, cache_dir),
            SimulationResult.from_dict(json.loads(expected)),
        ):
            assert _canonical(restored.to_dict()) == expected
            assert _metrics(restored) == reference
            assert restored.summary().keys() == result.summary().keys()
            # Records built on demand equal the originals.
            assert restored.records == result.records

    def test_none_fields_come_back_as_none(self):
        packet = Packet(packet_id=7, source=0, destination=1, creation_time=2.0)
        result = result_with_records([PacketRecord(packet)], duration=10.0)
        record = _wire_round_trip(result).records[7]
        assert record.packet.deadline is None
        assert record.delivery_time is None
        assert record.delivering_node is None and record.hop_count is None
        assert type(record.packet.size) is int and type(record.packet.creation_time) is float

    def test_streaming_result_carries_no_columns(self, cell_spec, tmp_path):
        from repro.engine import worker as cell_worker

        streaming = cell_worker.run_cell(
            ScenarioSpec.from_dict(dict(cell_spec.to_dict(), result_mode="streaming"))
        )
        assert streaming.streaming is not None
        wire = streaming.to_wire()
        assert wire["columns"] == b"" and wire["header"]["records"]["rows"] == 0
        expected = _canonical(streaming.to_dict())
        for restored in (
            _wire_round_trip(streaming),
            _cache_round_trip(streaming, cell_spec, tmp_path),
        ):
            assert _canonical(restored.to_dict()) == expected
            assert restored.summary() == streaming.summary()


class TestRecordsHeldOneWay:
    def _column_backed(self):
        packets = [
            Packet(packet_id=i, source=0, destination=1, creation_time=float(i), deadline=50.0)
            for i in range(3)
        ]
        return _wire_round_trip(result_with_records([PacketRecord(p) for p in packets]))

    def test_metrics_read_columns_without_building_records(self, monkeypatch):
        result = self._column_backed()

        def _forbidden(self):  # pragma: no cover - must not run
            raise AssertionError("metrics must not build PacketRecord objects")

        monkeypatch.setattr(RecordColumns, "to_records", _forbidden)
        assert result.num_packets == 3 and result.num_delivered == 0
        assert result.summary()["delivery_rate"] == 0.0
        assert len(result.to_dict()["records"]) == 3


class TestPacketOutcomes:
    """The collector every run writes its packets' outcomes into."""

    def test_first_delivery_wins(self):
        outcomes = PacketOutcomes(3)
        assert outcomes.deliver(1, 10.0, 4, 2)
        assert not outcomes.deliver(1, 20.0, 5, 3)
        assert outcomes.deliver(0, 15.0, 6, 1)
        assert outcomes.delivered.tolist() == [True, True, False]
        assert outcomes.delivery_time[1] == 10.0
        assert outcomes.delivering_node[1] == 4 and outcomes.hop_count[1] == 2
        assert outcomes.delivery_order == [1, 0]

    def test_drops_and_replicas_accumulate_per_row(self):
        outcomes = PacketOutcomes(3)
        for row in (2, 0, 2):
            outcomes.drop(row)
        for row in (1, 1, 1, 2):
            outcomes.replicate(row)
        assert outcomes.drops.tolist() == [1, 0, 2]
        assert outcomes.replicas_created.tolist() == [0, 3, 1]

    def test_undelivered_rows_serialize_as_none(self):
        packets = [
            Packet(packet_id=10 + i, source=0, destination=1, creation_time=float(i))
            for i in range(2)
        ]
        outcomes = PacketOutcomes(2)
        outcomes.deliver(0, 5.0, 1, 1)
        result = SimulationResult(
            protocol_name="p", duration=10.0, columns=outcomes.record_columns(packets)
        )
        delivered, undelivered = result.to_dict()["records"]
        assert delivered["delivered"] and delivered["delivery_time"] == 5.0
        assert not undelivered["delivered"]
        assert undelivered["delivery_time"] is None
        assert undelivered["delivering_node"] is None and undelivered["hop_count"] is None
        assert result.records[11] == PacketRecord(packets[1])

    @pytest.mark.parametrize("result_mode", ["records", "streaming"])
    def test_deliveries_count_first_copies_when_creations_are_refused(self, result_mode):
        from repro.dtn.simulator import run_simulation
        from repro.faults import FaultSchedule, NodeDowntime
        from repro.mobility.exponential import ExponentialMobility
        from repro.dtn.workload import PoissonWorkload
        from repro.routing.registry import create_factory

        schedule = ExponentialMobility(
            num_nodes=5, mean_inter_meeting=40.0, transfer_opportunity=50 * units.KB, seed=3
        ).generate(240.0)
        packets = PoissonWorkload(packets_per_hour=240.0, seed=4).generate(range(5), 240.0)
        faults = FaultSchedule(downtimes=(NodeDowntime(node=0, start=0.0, end=120.0),))
        result = run_simulation(
            schedule,
            packets,
            create_factory("epidemic"),
            seed=7,
            options={"fault_schedule": faults, "result_mode": result_mode},
        )
        assert result.creations_refused_down > 0
        assert result.deliveries == result.num_delivered > 0

    def test_reading_records_changes_no_serialized_bytes(self, tiny_result):
        before = (_canonical(tiny_result.to_dict()), pickle.dumps(tiny_result.to_wire()))
        records = tiny_result.records
        first = next(iter(records.values()))
        first.mark_delivered(1.0, 0, 99)
        first.drops += 7
        assert tiny_result.records != records
        after = (_canonical(tiny_result.to_dict()), pickle.dumps(tiny_result.to_wire()))
        assert after == before


class TestMerge:
    def _run(self, start_id, sent):
        packets = [
            Packet(packet_id=start_id + i, source=0, destination=1, creation_time=float(i))
            for i in range(3)
        ]
        records = [PacketRecord(p) for p in packets]
        records[0].mark_delivered(20.0, 1, 1)
        result = result_with_records(records, duration=50.0)
        result.node_counters = {0: NodeCounters(packets_sent=sent, bytes_sent=1.5)}
        return result

    def test_node_counters_are_summed(self):
        merged = SimulationResult.merge([self._run(0, 3), self._run(10, 4)])
        assert merged.node_counters == {0: NodeCounters(packets_sent=7, bytes_sent=3.0)}

    def test_column_backed_inputs_concatenate_without_records(self, monkeypatch):
        built = [self._run(0, 3), self._run(10, 4)]
        expected = _canonical(SimulationResult.merge(built).to_dict())
        column_backed = [_wire_round_trip(result) for result in built]

        def _forbidden(self):  # pragma: no cover - must not run
            raise AssertionError("merge must not build PacketRecord objects")

        monkeypatch.setattr(RecordColumns, "to_records", _forbidden)
        merged = SimulationResult.merge(column_backed)
        assert _canonical(merged.to_dict()) == expected
        assert merged.num_packets == 6 and merged.num_delivered == 2
        with pytest.raises(ValueError, match="duplicate packet ids"):
            SimulationResult.merge([column_backed[0], column_backed[0]])


class TestCacheEntries:
    def _legacy_entry(self, cache, spec):
        """An entry of the one-JSON-file format for *spec*."""
        key = spec.cache_key()
        path = cache.cache_dir / key[:2] / f"{key}{LEGACY_SUFFIX}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spec": spec.to_dict(), "result": {}}), encoding="utf-8")
        return path

    def test_legacy_entry_is_a_plain_miss(self, tmp_path, cell_spec):
        cache = ResultCache(tmp_path)
        legacy = self._legacy_entry(cache, cell_spec)
        assert cache.get(cell_spec) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt_entries == 0
        assert legacy.exists()

    def test_len_and_clear_cover_new_and_legacy_entries(self, tmp_path, cell_spec, tiny_result):
        cache = ResultCache(tmp_path)
        other = ScenarioSpec.from_dict(dict(cell_spec.to_dict(), load=3.0))
        cache.put(cell_spec, tiny_result)
        cache.put(other, tiny_result)
        self._legacy_entry(cache, cell_spec)
        assert len(cache) == 2
        assert cache.clear() == 3
        assert len(cache) == 0
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]

    def test_entry_is_header_plus_column_bytes(self, tmp_path, cell_spec, tiny_result):
        path = ResultCache(tmp_path).put(cell_spec, tiny_result)
        assert path.suffix == ENTRY_SUFFIX
        data = path.read_bytes()
        (length,) = struct.unpack_from("<Q", data)
        header = json.loads(data[8 : 8 + length])
        assert header == ResultCache.read_header(path)
        assert header["spec"] == cell_spec.to_dict()
        rows = header["result"]["records"]["rows"]
        assert rows == tiny_result.num_packets > 0
        assert len(data) - 8 - length == len(tiny_result.to_wire()["columns"])


@pytest.fixture(scope="module")
def tiny_result(cell_spec):
    from repro.engine import worker as cell_worker

    return cell_worker.run_cell(cell_spec)
