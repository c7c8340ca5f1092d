"""Results built from hand-made :class:`PacketRecord` objects.

A :class:`SimulationResult` holds its per-packet records as columns and
``records`` has no setter, so tests that need a result with chosen
records build its columns the way a canonical payload carries them.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable

from repro.dtn.columns import RecordColumns
from repro.dtn.packet import PacketRecord
from repro.dtn.results import SimulationResult


def result_with_records(
    records: Iterable[PacketRecord], protocol_name: str = "p", duration: float = 100.0
) -> SimulationResult:
    """A result holding *records*, in iteration order."""
    columns = RecordColumns.from_payloads(asdict(record) for record in records)
    return SimulationResult(protocol_name=protocol_name, duration=duration, columns=columns)
