"""Golden digests for the simulator's contact pipeline.

Every transfer opportunity runs the same steps: faults and noise decide
whether the contact happens, then control exchange, direct delivery and
replication in utility order spend its byte budget.  These cells pin the
observable outcome of those steps for each contact model crossed with
the fault processes that interrupt them:

* contact models: ``instantaneous``, ``durational`` and
  ``interruptible`` with ``contact_resume``;
* faults: none, contact faults (no-shows, mid-transfer kills and lost
  control exchanges in one schedule) and ``crash`` with buffer wipe;

plus deployment-noise cells (missed meetings, capacity jitter,
processing delay) and one epidemic cell, whose flooding makes the most
transfers per contact.  For each cell three SHA-256 digests are
compared: the canonical ``to_dict()``, the lifecycle-trace JSONL and the
decision-audit JSONL.  The trace digests catch what the result payload
cannot, such as transfer events a contact model must not emit.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_contact_pipeline_golden.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

import pytest

from repro import units
from repro.dtn.node import DeploymentNoise
from repro.dtn.simulator import run_simulation
from repro.engine import worker as cell_worker
from repro.experiments.config import TraceExperimentConfig
from repro.faults import (
    ContactFaults,
    FaultParameters,
    FaultSchedule,
    MetadataLossFaults,
    NodeCrashFaults,
)
from repro.observability import MemorySink
from repro.routing.registry import create_factory

_CONFIG = TraceExperimentConfig.ci_scale(seed=7, num_days=1)
_LOAD = 12.0
_BUFFER = 24 * units.KB
_SEED = 7

#: Simulator options of each contact model.
_MODELS: Dict[str, Dict[str, object]] = {
    "instantaneous": {},
    "durational": {"contact_model": "durational"},
    "interruptible-resume": {
        "contact_model": "interruptible",
        "contact_resume": True,
        "contact_interrupt_probability": 0.4,
    },
}

_NOISE = DeploymentNoise(
    capacity_jitter=0.3, meeting_miss_probability=0.15, processing_delay=5.0, seed=97
)

#: name -> (protocol, contact model, faults, noise, (result, trace, decisions) digests).
CELLS: Dict[str, Tuple[str, str, Optional[str], Optional[DeploymentNoise], Tuple[str, str, str]]] = {
    "instantaneous-clean": (
        "rapid", "instantaneous", None, None,
        (
            "c9abc0a740f9b791cdc5ca25490944af8e1093af3b746d711d04f07e3d3d55d2",
            "f1b431204f4076ac6262144a8cb8c2cc75ad13d24591cd429e66d508f5450223",
            "5a98866f08d32bea6d54b3a10b586c89b0030559d14b4550f665a5c1f17d7f97",
        ),
    ),
    "instantaneous-contact": (
        "rapid", "instantaneous", "contact", None,
        (
            "ad2b08ded277ca155315479c045742937fc8cc8a33d4abf7d7a4dc8d51743a7d",
            "7e40e8efb5bc73159cce259cab44d49db797b8f94d22934ce9f7876af23697f7",
            "96c20db1b89e7017d03a3a9f1d6cf79a2fb8e9f083100df506eae6d542e58f73",
        ),
    ),
    "instantaneous-crash": (
        "rapid", "instantaneous", "crash", None,
        (
            "3692dad103735b230020bb3e67b3cd96aa097216c0be4ba93580286273b12964",
            "26f86730b4837a2613569e46aec00623c3af288576a575a52f73b6f2e53a6dc6",
            "2e01fbae167929f8086f106a800c281c8504c948edf67729c8faf1fdf666c5c8",
        ),
    ),
    "durational-clean": (
        "rapid", "durational", None, None,
        (
            "136fece85025ca245026f2d704c024ab53c0c3b877be16ad9c8ddf2aa4175abe",
            "2c85799b763c743a47dab5146f0ee3a2b174cf03bb988a61afb06ec191684bfb",
            "a8fa6e9830a666283ce429905d4b363193985d6e4e2a00fdc5dcba5255db3064",
        ),
    ),
    "durational-contact": (
        "rapid", "durational", "contact", None,
        (
            "2470895e4d7eae827d7c58473c05fe5a2e068a0675379f8467d7eb797fd8f916",
            "15dffb6f6038f76414935a052bf5b08fdebf08e45453e6eb9503bbed9669634a",
            "915eb2970ce763c250af56c1ab3425b48f51e281dad55fc541c80b6c9b5e171e",
        ),
    ),
    "durational-crash": (
        "rapid", "durational", "crash", None,
        (
            "38341bdcc712035d97faf4bdc14ed598b64188bee002a5bf6e2ed04800d5e2df",
            "d7d236e0aeb61a7027bfc28c1881c95f3259a5b1822e2610017007b2c7c20c04",
            "aff9c396bbb9cf9d719f7d782cbbdef35981c1e3f90efd08266107febdd92b6b",
        ),
    ),
    "interruptible-resume-clean": (
        "rapid", "interruptible-resume", None, None,
        (
            "a197be160d5b9a0ffe5d2fc6894d910d5babd8575c74da7754e863c98db44047",
            "7dda2d8db440867a3e7c29721e8b23b7a9eabdc0e6694be9515bf128566319a2",
            "ef22fb26a42e3b5b050cdb0e42d6eadc7740e9d3a2b33515ad1b750b640549f7",
        ),
    ),
    "interruptible-resume-contact": (
        "rapid", "interruptible-resume", "contact", None,
        (
            "d10cfe1122b409bc8546516c57ea4009f4c446c04a6e7f3435bf06304b3b79b1",
            "56d5ea611976e84c52f6462497dfa273701629850736b4a6799a216e7f69d194",
            "c32390159b4c5051a883148922d5602fa12dcc5c4abef2f2e3cad09ce7a54353",
        ),
    ),
    "interruptible-resume-crash": (
        "rapid", "interruptible-resume", "crash", None,
        (
            "468189fffe3a5f0943fcadd9f85afd8194c726418139c9cf719ddf22d3dbeb12",
            "a20e10f513b503601341db0af89792f835e0d48fbcea431afc49646638122ccf",
            "349b290e7d091d5404b4361ba3328b8fb3e41fe23cb1ecbb1da9a06f54037e32",
        ),
    ),
    "instantaneous-noise": (
        "rapid", "instantaneous", None, _NOISE,
        (
            "163d1b71f7ca0bed678ed61357dd33831a1adebadb8d27fdfb7502aae480e170",
            "64f245ca224bf14952075b5bf861e3c12cae3a9c2e8288c2ddd6286eae2c5ab3",
            "ae56d71deb64a8a25309b0d6ab8e8d03fd6122ef55e696b7a90ed52782965dab",
        ),
    ),
    "interruptible-resume-noise": (
        "rapid", "interruptible-resume", None, _NOISE,
        (
            "019ee11f0cc6d10e7e4ca585c433d684dba987c3936902281d43d14958139a0d",
            "3152da52d1f247fe7a7de68bd962d97248ceaff3a429d6588ee6493db09bd34b",
            "1485f79bebf5115aabaff4e713156a7a8029cc7e0297d1ba7f5afb86b157a6c3",
        ),
    ),
    "epidemic-instantaneous-contact": (
        "epidemic", "instantaneous", "contact", None,
        (
            "a5489d7e1181e17c0a069a88087507fc940cb3673d63b14dfc897cf3428f9158",
            "a3c2f3af313ea0a1a2ffaddac5f165f12f8828cde5bdac578299694b1c64d4a6",
            "2068d37f0d403a04c83d5e4719b748e6a073678bf301f07d5591d1d19b2f23c5",
        ),
    ),
}


def _inputs():
    day = cell_worker.day_traces(_CONFIG)[0]
    packets = cell_worker.trace_workload(_CONFIG, 0, _LOAD)
    return day.schedule, packets


def _fault_schedule(faults: Optional[str], schedule, packets) -> Optional[FaultSchedule]:
    if faults is None:
        return None
    node_ids = sorted(set(schedule.nodes) | {p.source for p in packets} | {
        p.destination for p in packets
    })
    horizon = max(schedule.duration, max(p.creation_time for p in packets))
    if faults == "crash":
        params = FaultParameters(model="crash", rate=0.5, mean_downtime=0.15)
        return NodeCrashFaults(params, seed=11).build_schedule(node_ids, len(schedule), horizon)
    # One schedule carrying every per-contact fault: no-shows and kills
    # from the contact process, lost control exchanges from the metadata one.
    params = FaultParameters(model="contact", rate=0.2)
    contact = ContactFaults(params, seed=13).build_schedule(node_ids, len(schedule), horizon)
    losses = MetadataLossFaults(params.with_model("metadata"), seed=17).build_schedule(
        node_ids, len(schedule), horizon
    )
    return FaultSchedule(
        contact_no_shows=contact.contact_no_shows,
        transfer_kills=contact.transfer_kills,
        control_losses=losses.control_losses,
    )


def run_cell(name: str, profile: bool = False):
    """Run one cell; return ``(result, trace lines, decision lines)``."""
    protocol, model, faults, noise, _ = CELLS[name]
    schedule, packets = _inputs()
    trace, decisions = MemorySink(), MemorySink()
    options: Dict[str, object] = dict(_MODELS[model])
    options["trace_sink"] = trace
    options["decision_sink"] = decisions
    fault_schedule = _fault_schedule(faults, schedule, packets)
    if fault_schedule is not None:
        options["fault_schedule"] = fault_schedule
    if profile:
        options["profile"] = True
    # RAPID plans against the end of the operating day, as in the engine.
    kwargs = {"planning_horizon": schedule.duration} if protocol == "rapid" else {}
    factory = create_factory(protocol, **kwargs)
    result = run_simulation(
        schedule, packets, factory, buffer_capacity=_BUFFER, seed=_SEED, noise=noise,
        options=options,
    )
    return result, trace.lines(), decisions.lines()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    payload = result.to_dict()
    payload.pop("timings", None)
    return _sha(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def digests(name: str) -> Tuple[str, str, str]:
    result, trace, decisions = run_cell(name)
    return result_digest(result), _sha("\n".join(trace)), _sha("\n".join(decisions))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_contact_pipeline_cell_matches_golden_digests(name):
    assert digests(name) == CELLS[name][4]


def _events(lines: List[str], kind: str) -> List[dict]:
    return [event for event in map(json.loads, lines) if event.get("ev") == kind]


def test_instantaneous_sessions_emit_no_transfer_events():
    _, trace, _ = run_cell("instantaneous-contact")
    for kind in ("transfer_start", "transfer_interrupt", "transfer_resume"):
        assert not _events(trace, kind)


def test_killed_instantaneous_meeting_traces_interruption_without_counting_it():
    result, trace, _ = run_cell("instantaneous-contact")
    assert result.transfers_killed > 0
    assert result.contacts_interrupted == 0
    closes = _events(trace, "contact_close")
    assert sum(1 for event in closes if event["interrupted"]) == result.transfers_killed


def test_profiled_instantaneous_run_reports_phase_keys_and_same_result():
    result, _, _ = run_cell("instantaneous-clean", profile=True)
    for key in (
        "phase_total_s",
        "phase_packet_creation_s",
        "phase_control_exchange_s",
        "phase_direct_delivery_s",
        "phase_replication_s",
        "calls_candidates_pulled",
    ):
        assert key in result.timings, key
    assert result_digest(result) == CELLS["instantaneous-clean"][4][0]


def test_cells_exercise_their_faults():
    contact, _, _ = run_cell("durational-contact")
    assert contact.contact_no_shows > 0
    assert contact.transfers_killed > 0
    assert contact.control_exchanges_lost > 0
    crash, _, _ = run_cell("interruptible-resume-crash")
    assert crash.replicas_lost_to_crashes > 0
    assert crash.transfers_resumed > 0


if __name__ == "__main__":
    for cell in CELLS:
        print(f"{cell}: {digests(cell)}")
