"""The RAPID reference oracle swaps its methods in, and only inside its block.

A no-op oracle would make every fast-vs-reference check compare the fast
path with itself; one that leaked its patches would slow every later test
and hide fast-path faults behind the reference.  Both must fail here.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import units
from repro.core.rapid import RapidProtocol
from repro.dtn.buffer import NodeBuffer
from repro.dtn.simulator import run_simulation
from repro.dtn.workload import PoissonWorkload
from repro.mobility.exponential import ExponentialMobility
from repro.routing.registry import create_factory

from rapid_oracle import REFERENCE_METHODS, reference_paths


def _current():
    return {(cls, name): cls.__dict__[name] for cls, name, _ in REFERENCE_METHODS}


#: The production methods, captured when the module is imported.
PRODUCTION = _current()

#: Production methods every reference path goes through.
SPIED = (
    (NodeBuffer, "_bytes_ahead_scan"),
    (RapidProtocol, "_per_packet_candidate_scores"),
    (RapidProtocol, "_per_packet_eviction_scores"),
)


def _run_small_cell():
    mobility = ExponentialMobility(
        num_nodes=5, mean_inter_meeting=40.0, transfer_opportunity=20 * units.KB, seed=3
    )
    packets = PoissonWorkload(packets_per_hour=900.0, seed=4).generate(list(range(5)), 300.0)
    return run_simulation(
        mobility.generate(300.0),
        packets,
        create_factory("rapid"),
        buffer_capacity=10 * units.KB,
        seed=5,
    )


def test_every_method_is_swapped_inside_the_block():
    with reference_paths():
        inside = _current()
    assert set(inside) == set(PRODUCTION)
    for site, method in inside.items():
        assert method is not PRODUCTION[site], site
    assert _current() == PRODUCTION


def test_reference_paths_call_the_production_reference_pieces(monkeypatch):
    calls = Counter()
    for cls, name in SPIED:
        original = getattr(cls, name)

        def spy(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, spy)
    _run_small_cell()
    fast = dict(calls)
    calls.clear()
    with reference_paths():
        _run_small_cell()
    assert all(calls[name] > 0 for _, name in SPIED), calls
    # On the in-band channel the fast path never scores evictions packet
    # by packet (it does hand empty candidate sets to the per-packet loop).
    assert fast.get("_per_packet_eviction_scores", 0) == 0


def test_methods_are_restored_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with reference_paths():
            assert _current() != PRODUCTION
            raise RuntimeError("boom")
    assert _current() == PRODUCTION
