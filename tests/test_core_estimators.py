"""Tests for the meeting-time estimator, transfer-size estimator and metadata store."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadata_oracle import columnar_entries, columnar_replica
from repro import constants
from repro.core.meeting_estimator import MeetingTimeEstimator
from repro.core.metadata import MetadataStore
from repro.core.transfer_estimator import TransferSizeEstimator
from repro.dtn.packet import Packet, PacketFactory


def _reference_expected_times(estimator):
    """From-scratch ``expected_meeting_time`` for every node.

    Rebuilds the symmetrised adjacency from :meth:`known_tables` (each
    pair gets the ``min`` of the positive entries of both directions)
    and runs the same ``max_hops`` frontier search as the estimator.
    """
    adjacency = {}
    for owner, table in estimator.known_tables().items():
        for peer, mean_time in table.items():
            if mean_time <= 0:
                continue
            adjacency.setdefault(owner, {})
            adjacency.setdefault(peer, {})
            best = min(mean_time, adjacency[owner].get(peer, math.inf))
            adjacency[owner][peer] = best
            adjacency[peer][owner] = min(best, adjacency[peer].get(owner, math.inf))
    distances = {estimator.node_id: 0.0}
    frontier = dict(distances)
    for _ in range(estimator.max_hops):
        next_frontier = {}
        for node, dist in frontier.items():
            for neighbor, mean_time in adjacency.get(node, {}).items():
                candidate = dist + mean_time
                if candidate < distances.get(neighbor, math.inf):
                    distances[neighbor] = candidate
                    next_frontier[neighbor] = candidate
        if not next_frontier:
            break
        frontier = next_frontier
    return distances


_NODES = range(6)
_MEAN_TIMES = st.one_of(
    st.sampled_from([-4.0, -0.0, 0.0, 5.0, 10.0, 20.0]),
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
)
_TABLES = st.dictionaries(st.sampled_from(_NODES), _MEAN_TIMES, max_size=5)
_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(
                st.just("meet"),
                st.sampled_from(_NODES[1:]),
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            ),
            st.tuples(st.just("merge"), st.sampled_from(_NODES), _TABLES),
            st.tuples(st.just("remerge"), st.sampled_from(_NODES)),
            st.tuples(
                st.just("merge_from"),
                st.sampled_from(_NODES),
                st.dictionaries(st.sampled_from(_NODES), _TABLES, max_size=3),
            ),
        ),
        st.booleans(),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(max_hops=st.integers(min_value=1, max_value=3), steps=_STEPS)
def test_meeting_graph_matches_from_scratch_rebuild(max_hops, steps):
    """The in-place adjacency answers exactly like a full rebuild.

    Steps record meetings, merge tables that add, change and drop peers
    (zero and negative entries included), re-merge identical tables and
    merge whole peer estimators; checks run after a random subset of
    steps, so changes also accumulate between queries.
    """
    estimator = MeetingTimeEstimator(node_id=0, max_hops=max_hops)
    now = 0.0
    for step, check in steps:
        kind = step[0]
        if kind == "meet":
            now += step[2]
            estimator.record_meeting(step[1], now)
        elif kind == "merge":
            estimator.merge_table(step[1], step[2])
        elif kind == "remerge":
            owner = step[1]
            estimator.merge_table(owner, estimator.known_tables().get(owner, {}))
        else:
            other = MeetingTimeEstimator(node_id=step[1])
            for owner, table in step[2].items():
                other.merge_table(owner, table)
            estimator.merge_from(other)
        if check:
            reference = _reference_expected_times(estimator)
            for node in (*_NODES, 99):
                expected = reference.get(node, constants.NEVER_MEET)
                assert estimator.expected_meeting_time(node).hex() == expected.hex()


class TestMeetingTimeEstimator:
    def test_first_meeting_uses_elapsed_time(self):
        estimator = MeetingTimeEstimator(node_id=0)
        estimator.record_meeting(1, now=120.0)
        assert estimator.direct_mean(1) == pytest.approx(120.0)

    def test_average_of_gaps(self):
        estimator = MeetingTimeEstimator(node_id=0)
        estimator.record_meeting(1, now=100.0)
        estimator.record_meeting(1, now=200.0)
        estimator.record_meeting(1, now=260.0)
        # Gaps of 100 and 60 averaged with the initial estimate of 100.
        assert estimator.direct_mean(1) == pytest.approx((100.0 + 100.0 + 60.0) / 3)

    def test_expected_meeting_time_direct(self):
        estimator = MeetingTimeEstimator(node_id=0)
        estimator.record_meeting(1, now=50.0)
        assert estimator.expected_meeting_time(1) == pytest.approx(50.0)
        assert estimator.expected_meeting_time(0) == 0.0

    def test_unknown_destination_is_never_met(self):
        estimator = MeetingTimeEstimator(node_id=0)
        assert estimator.expected_meeting_time(9) == constants.NEVER_MEET

    def test_multi_hop_path(self):
        estimator = MeetingTimeEstimator(node_id=0, max_hops=3)
        estimator.record_meeting(1, now=100.0)
        estimator.merge_table(1, {2: 40.0})
        # 0 -> 1 (100) -> 2 (40).
        assert estimator.expected_meeting_time(2) == pytest.approx(140.0)

    def test_hop_limit_enforced(self):
        estimator = MeetingTimeEstimator(node_id=0, max_hops=2)
        estimator.record_meeting(1, now=10.0)
        estimator.merge_table(1, {2: 10.0})
        estimator.merge_table(2, {3: 10.0})
        estimator.merge_table(3, {4: 10.0})
        assert not math.isinf(estimator.expected_meeting_time(2))
        # Node 4 needs 4 hops (0-1-2-3-4) which exceeds max_hops=2... node 3
        # needs 3 hops and must already be unreachable.
        assert math.isinf(estimator.expected_meeting_time(4))
        assert math.isinf(estimator.expected_meeting_time(3))

    def test_merge_from_peer(self):
        a = MeetingTimeEstimator(node_id=0)
        b = MeetingTimeEstimator(node_id=1)
        a.record_meeting(1, now=30.0)
        b.record_meeting(5, now=20.0)
        a.merge_from(b)
        assert a.expected_meeting_time(5) == pytest.approx(50.0)

    def test_version_bumps_on_change(self):
        estimator = MeetingTimeEstimator(node_id=0)
        v0 = estimator.version
        estimator.record_meeting(1, now=10.0)
        assert estimator.version > v0
        v1 = estimator.version
        estimator.merge_table(1, {2: 5.0})
        assert estimator.version > v1
        # Merging an identical table does not bump the version.
        v2 = estimator.version
        estimator.merge_table(1, {2: 5.0})
        assert estimator.version == v2

    def test_own_table_copy(self):
        estimator = MeetingTimeEstimator(node_id=0)
        estimator.record_meeting(1, now=10.0)
        table = estimator.own_table()
        table[1] = 999.0
        assert estimator.direct_mean(1) != 999.0

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            MeetingTimeEstimator(node_id=0, max_hops=0)


class TestTransferSizeEstimator:
    def test_first_observation(self):
        estimator = TransferSizeEstimator()
        estimator.record(1, 1000.0)
        assert estimator.expected_bytes_or_none(1) == pytest.approx(1000.0)
        assert estimator.observations == 1

    def test_moving_average(self):
        estimator = TransferSizeEstimator(smoothing=0.5)
        estimator.record(1, 1000.0)
        estimator.record(1, 2000.0)
        assert estimator.expected_bytes_or_none(1) == pytest.approx(1500.0)

    def test_global_fallback(self):
        estimator = TransferSizeEstimator()
        estimator.record(1, 800.0)
        assert estimator.expected_bytes_or_none(7) == pytest.approx(800.0)

    def test_default_when_empty(self):
        estimator = TransferSizeEstimator()
        assert estimator.expected_bytes_or_none(3) is None

    def test_ignores_non_positive_sizes(self):
        estimator = TransferSizeEstimator()
        estimator.record(1, 0.0)
        assert estimator.observations == 0

    def test_merge_snapshot_only_fills_gaps(self):
        a = TransferSizeEstimator()
        a.record(1, 500.0)
        b = TransferSizeEstimator()
        b.record(1, 9999.0)
        b.record(2, 700.0)
        a.merge_snapshot(b.snapshot())
        assert a.expected_bytes_or_none(1) == pytest.approx(500.0)
        assert a.expected_bytes_or_none(2) == pytest.approx(700.0)

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            TransferSizeEstimator(smoothing=0.0)


class TestMetadataStore:
    def _packet(self, pid=1):
        return Packet(packet_id=pid, source=0, destination=9, size=1000)

    def test_update_and_query(self):
        store = MetadataStore()
        packet = self._packet()
        assert store.update_replica(packet, holder_id=3, delay_estimate=100.0, now=10.0)
        assert len(store.holders(packet.packet_id)) == 1
        assert store.holders(packet.packet_id) == [3]
        assert store.estimates(packet.packet_id) == [100.0]
        assert packet.packet_id in store
        assert len(store) == 1

    def test_small_drift_is_not_a_change(self):
        store = MetadataStore()
        packet = self._packet()
        store.update_replica(packet, 3, 100.0, now=10.0)
        assert not store.update_replica(packet, 3, 101.0, now=20.0, tolerance=0.25)
        # The stored value is still refreshed.
        assert columnar_replica(store, packet.packet_id, 3)[0] == 101.0

    def test_large_drift_is_a_change(self):
        store = MetadataStore()
        packet = self._packet()
        store.update_replica(packet, 3, 100.0, now=10.0)
        assert store.update_replica(packet, 3, 300.0, now=20.0, tolerance=0.25)

    def test_stale_information_rejected(self):
        store = MetadataStore()
        packet = self._packet()
        store.update_replica(packet, 3, 100.0, now=50.0)
        assert not store.update_replica(packet, 3, 999.0, now=10.0)
        assert columnar_replica(store, packet.packet_id, 3)[0] == 100.0

    def test_entries_changed_since(self):
        store = MetadataStore()
        early, late = self._packet(1), self._packet(2)
        store.update_replica(early, 3, 100.0, now=10.0)
        store.update_replica(late, 4, 100.0, now=50.0)
        changed = store.replica_block(store.entries_changed_since(20.0))
        assert changed.packet_ids.tolist() == [2]

    def test_remove_replica_and_packet(self):
        store = MetadataStore()
        packet = self._packet()
        store.update_replica(packet, 3, 100.0, now=10.0)
        store.update_replica(packet, 4, 200.0, now=10.0)
        store.remove_replica(packet.packet_id, 3)
        assert store.holders(packet.packet_id) == [4]
        store.remove_packet(packet.packet_id)
        assert packet.packet_id not in store

    def test_merge_entry_learned_at(self):
        store = MetadataStore()
        packet = self._packet()
        remote = MetadataStore()
        remote.update_replica(packet, 7, 42.0, now=5.0)
        block = remote.replica_block(remote.entries_changed_since(-1.0))
        assert store.merge(block, learned_at=30.0).tolist() == [True]
        estimate, updated_at, changed_at = columnar_replica(store, packet.packet_id, 7)
        assert updated_at == 5.0
        assert changed_at == 30.0  # local learning time drives re-flooding

    def test_total_replica_entries(self):
        store = MetadataStore()
        store.update_replica(self._packet(1), 3, 1.0, now=1.0)
        store.update_replica(self._packet(1), 4, 1.0, now=1.0)
        store.update_replica(self._packet(2), 3, 1.0, now=1.0)
        assert sum(len(records) for _, _, records in columnar_entries(store)) == 3
