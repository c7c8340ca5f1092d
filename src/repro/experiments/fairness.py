"""Fairness of RAPID's resource allocation (Figure 15).

Batches of packets are created in parallel under contention and the
per-batch delays are summarised with Jain's fairness index; the paper
reports an index of 1 for 98% of batches even with 30-packet batches.
The figure is a CDF of the index, one curve per batch size.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.fairness import empirical_cdf, fraction_at_least, jain_fairness_index
from ..dtn.simulator import run_simulation
from ..dtn.workload import ParallelWorkload, PoissonWorkload
from .config import ProtocolSpec, TraceExperimentConfig
from .report import FigureResult
from .runner import TraceRunner

_RAPID = ProtocolSpec("Rapid", "rapid", {"metric": "average_delay", "label": "Rapid"})


def batch_fairness_indices(
    runner: TraceRunner,
    batch_size: int,
    background_load: float = 6.0,
    batches_per_day: int = 3,
) -> List[float]:
    """Jain's index of the delays of each parallel batch across day traces."""
    indices: List[float] = []
    config = runner.config
    for index, day in enumerate(runner.day_traces()):
        nodes = day.buses_on_road if len(day.buses_on_road) >= 2 else day.schedule.nodes
        # One shared factory so background and parallel packets never share ids.
        from ..dtn.packet import PacketFactory

        factory = PacketFactory()
        background = PoissonWorkload(
            packets_per_hour=background_load,
            packet_size=config.packet_size,
            deadline=config.deadline,
            seed=config.seed * 53 + index,
            factory=factory,
        ).generate(nodes, day.schedule.duration)
        parallel = ParallelWorkload(
            batch_size=batch_size,
            packet_size=config.packet_size,
            deadline=config.deadline,
            seed=config.seed * 67 + index,
            factory=factory,
        )
        interval = day.schedule.duration / (batches_per_day + 1)
        batches = parallel.generate(nodes, day.schedule.duration - interval, interval, start_time=interval / 2)
        all_parallel = [packet for batch in batches for packet in batch]
        # Give parallel packets ids that do not clash with the background's.
        result = run_simulation(
            schedule=day.schedule,
            packets=background + all_parallel,
            protocol_factory=_RAPID.factory(),
            buffer_capacity=config.buffer_capacity,
            seed=config.seed + index,
        )
        records = result.records
        for batch in batches:
            delays = []
            for packet in batch:
                record = records.get(packet.packet_id)
                delay = record.delay(horizon=result.duration) if record else None
                if delay is not None:
                    delays.append(delay)
            if len(delays) >= 2:
                indices.append(jain_fairness_index(delays))
    return indices


def run_figure15(
    batch_sizes: Sequence[int] = (20, 30),
    config: Optional[TraceExperimentConfig] = None,
    runner: Optional[TraceRunner] = None,
    background_load: float = 6.0,
) -> FigureResult:
    """Figure 15: CDF of Jain's fairness index for parallel packet batches."""
    runner = runner or TraceRunner(config)
    figure = FigureResult(
        figure_id="Figure 15",
        title="RAPID fairness: Jain's index of delays of parallel packets",
        x_label="Fairness index",
        y_label="CDF of batches",
    )
    notes = []
    for batch_size in batch_sizes:
        indices = batch_fairness_indices(runner, batch_size, background_load=background_load)
        xs, ys = empirical_cdf(indices)
        figure.add_series(f"Number of parallel packets: {batch_size}", xs, ys)
        notes.append(
            f"batch={batch_size}: fraction of batches with index >= 0.9 is "
            f"{fraction_at_least(indices, 0.9):.2f}"
        )
    figure.notes = "; ".join(notes)
    return figure
