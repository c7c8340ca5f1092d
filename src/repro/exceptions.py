"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError` so applications can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a simulation or experiment is configured inconsistently."""


class BufferError_(ReproError):
    """Raised on invalid buffer operations (duplicate insert, missing packet).

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`BufferError`.
    """


class SimulationError(ReproError):
    """Raised when the simulator reaches an inconsistent state."""


class ScheduleError(ReproError):
    """Raised for malformed meeting schedules (negative times, bad nodes)."""


class TraceFormatError(ReproError):
    """Raised when a trace file cannot be parsed."""


class RoutingError(ReproError):
    """Raised by routing protocols on invalid protocol-level operations."""


class OptimizationError(ReproError):
    """Raised when the offline optimal solver cannot produce a solution."""


class InfeasibleProblemError(OptimizationError):
    """Raised when the ILP instance has no feasible solution."""


class UnknownProtocolError(ReproError, KeyError):
    """Raised when a protocol name is not present in the registry."""


class RecordsUnavailableError(ReproError):
    """Raised when per-packet records are requested from a streaming result.

    Runs executed with ``result_mode="streaming"`` keep bounded-size
    summaries (:mod:`repro.analysis.streaming`) instead of per-packet
    :class:`~repro.dtn.packet.PacketRecord` objects; APIs that need the
    raw records raise this error with a pointer to the streaming-safe
    alternative instead of failing with an opaque ``KeyError``.
    """


class WorkerError(ReproError):
    """Raised when a worker process dies while running a cell.

    Only the engine's default failure policy raises it (no retries and no
    per-cell timeout); with either set, the dead worker's cell becomes a
    :class:`~repro.engine.resilient.CellFailure` instead.
    """
