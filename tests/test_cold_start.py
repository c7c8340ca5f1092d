"""Cold start: scipy and networkx load on first use, not at import.

Only the offline optimum (Figure 13, the time-expanded graph) and the
t-based confidence intervals (Figure 3, Table 3) need a numerical
library, so nothing on the engine, experiment or CLI import path may
import scipy or networkx at module scope.  Each check runs in a fresh
interpreter, because this test process may already hold both libraries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])

HEAVY = ("scipy", "networkx")


def _run(code: str):
    """Run *code* in a fresh interpreter and decode the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_package_imports_load_neither_scipy_nor_networkx():
    loaded = _run(
        """
        import json, sys
        import repro, repro.engine, repro.experiments, repro.cli
        print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'})))
        """
    )
    assert loaded == []


_SCHEDULE = """
from repro.dtn.packet import PacketFactory
from repro.mobility.schedule import Meeting, MeetingSchedule
schedule = MeetingSchedule([
    Meeting(time=10.0, node_a=0, node_b=1, capacity=1024),
    Meeting(time=20.0, node_a=1, node_b=2, capacity=1024),
    Meeting(time=50.0, node_a=0, node_b=2, capacity=1024),
], duration=60.0)
factory = PacketFactory()
packets = [
    factory.create(source=0, destination=2, creation_time=0.0),
    factory.create(source=2, destination=0, creation_time=5.0),
]
"""

# name -> (module loaded on demand, set-up code, expression printed as JSON,
# the value it had when the libraries were imported eagerly)
CASES = {
    "mean_confidence_interval": (
        "scipy.stats",
        "from repro.analysis.stats import mean_confidence_interval",
        "(lambda ci: [ci.mean, ci.half_width])"
        "(mean_confidence_interval([1.0, 2.0, 4.0, 8.0]))",
        pytest.approx([3.75, 4.925943048230294], rel=1e-12),
    ),
    "paired_delay_test": (
        "scipy.stats",
        "from repro.analysis.stats import paired_delay_test",
        "(lambda t: [t.statistic, t.p_value, t.mean_difference, t.num_pairs])"
        "(paired_delay_test([10.0, 12.0, 9.0, 15.0], [8.0, 11.0, 9.5, 12.0]))",
        pytest.approx([1.8418803882136272, 0.16273310982429354, 1.375, 4], rel=1e-12),
    ),
    "OptimalRouter": (
        "scipy.optimize",
        "from repro import OptimalRouter\n" + _SCHEDULE,
        "(lambda r: [r.method, sorted(r.delivery_times.items()), r.average_delay()])"
        "(OptimalRouter(method='ilp').solve(schedule, packets))",
        ["ilp (milp)", [[0, 20.0], [1, 50.0]], 32.5],
    ),
    "earliest_path": (
        "networkx",
        "from repro.optimal import build_time_expanded_graph\n" + _SCHEDULE,
        "build_time_expanded_graph(schedule).earliest_path(0, 2, 0.0)",
        [[0, 10.0], [1, 10.0], [1, 20.0], [2, 20.0]],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_loads_on_first_call_with_unchanged_result(name):
    module, setup, expression, expected = CASES[name]
    before, value, after = _run(
        f"""
import json, sys
{setup}
before = {module!r} in sys.modules
value = {expression}
print(json.dumps([before, value, {module!r} in sys.modules]))
"""
    )
    assert before is False
    assert after is True
    assert value == expected
