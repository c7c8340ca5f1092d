"""Results as columns: the wire and cache codec, lazy records, merge.

A records-mode result decoded from the worker pipe, the result cache or
a canonical dict holds its per-packet records as numpy columns.  These
tests pin down that nothing observable changes with the backing: the
canonical ``to_dict()`` and every metric equal those of the dict-backed
original exactly, and the metrics equal the per-record reference loops
below bit for bit.
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
from repro.dtn.columns import RecordColumns
from repro.dtn.node import NodeCounters
from repro.dtn.packet import DEFAULT_TRAFFIC_CLASS, Packet, PacketRecord
from repro.dtn.results import SimulationResult
from repro.engine import ResultCache, ScenarioSpec
from repro.engine.cache import ENTRY_SUFFIX, LEGACY_SUFFIX
from repro.experiments.config import ProtocolSpec, SyntheticExperimentConfig

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
def _reference_delays(result, include_undelivered=False):
    horizon = result.duration if include_undelivered else None
    values = [r.delay(horizon=horizon) for r in result.records.values()]
    return [value for value in values if value is not None]


def _reference_metrics(result):
    records = list(result.records.values())
    metrics = {
        "num_packets": len(records),
        "num_delivered": sum(1 for r in records if r.delivered),
        "deadline_success_rate": (
            sum(1 for r in records if r.met_deadline()) / len(records) if records else 0.0
        ),
    }
    for undelivered in (False, True):
        values = _reference_delays(result, undelivered)
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
# Strategies: dict-backed results covering every field of the layout
# ----------------------------------------------------------------------
times = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)
deadlines = st.one_of(
    st.none(), st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False)
)
small_ints = st.integers(min_value=0, max_value=50)


@st.composite
def records_strategy(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    records = {}
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
        records[packet_id] = record
    return records


@st.composite
def results_strategy(draw):
    result = SimulationResult(
        protocol_name="p", duration=draw(times), records=draw(records_strategy())
    )
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
    return result


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
    @given(result=results_strategy())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trips_and_metrics(self, result, cell_spec, tmp_path_factory):
        reference = _reference_metrics(result)
        expected = _canonical(result.to_dict())
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
        result = SimulationResult(protocol_name="p", duration=10.0)
        result.records = {7: PacketRecord(packet)}
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
        result = SimulationResult(protocol_name="p", duration=100.0)
        result.records = {p.packet_id: PacketRecord(p) for p in packets}
        return _wire_round_trip(result)

    def test_metrics_read_columns_without_building_records(self, monkeypatch):
        result = self._column_backed()

        def _forbidden(self):  # pragma: no cover - must not run
            raise AssertionError("metrics must not build PacketRecord objects")

        monkeypatch.setattr(RecordColumns, "to_records", _forbidden)
        assert result.num_packets == 3 and result.num_delivered == 0
        assert result.summary()["delivery_rate"] == 0.0
        assert len(result.to_dict()["records"]) == 3

    def test_mutations_after_first_access_are_seen(self):
        result = self._column_backed()
        result.records[1].mark_delivered(11.0, 1, 2)
        result.records[2].drops += 4
        assert result.num_delivered == 1
        assert result.average_delay() == 10.0
        payload = result.to_dict()["records"]
        assert payload[1]["delivered"] and payload[2]["drops"] == 4


class TestMerge:
    def _run(self, start_id, sent):
        packets = [
            Packet(packet_id=start_id + i, source=0, destination=1, creation_time=float(i))
            for i in range(3)
        ]
        result = SimulationResult(protocol_name="p", duration=50.0)
        result.records = {p.packet_id: PacketRecord(p) for p in packets}
        result.records[start_id].mark_delivered(20.0, 1, 1)
        result.node_counters = {0: NodeCounters(packets_sent=sent, bytes_sent=1.5)}
        return result

    def test_node_counters_are_summed(self):
        merged = SimulationResult.merge([self._run(0, 3), self._run(10, 4)])
        assert merged.node_counters == {0: NodeCounters(packets_sent=7, bytes_sent=3.0)}

    def test_column_backed_inputs_concatenate_without_records(self, monkeypatch):
        dict_backed = [self._run(0, 3), self._run(10, 4)]
        expected = _canonical(SimulationResult.merge(dict_backed).to_dict())
        column_backed = [_wire_round_trip(result) for result in dict_backed]

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
