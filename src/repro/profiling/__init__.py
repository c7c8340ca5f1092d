"""Phase timers and call counters for the simulation hot path.

The profiler answers "where does a simulation cell spend its time?"
without perturbing results: phases and counters are accounting only, and
the whole subsystem is off unless explicitly enabled, so the default hot
path pays nothing.

``REPRO_PROFILE=1`` (or the simulator option ``profile=True``) attaches a
:class:`Profiler` to each simulation; the per-phase wall times and call
counts land in ``SimulationResult.timings`` (and hence in
``SimulationResult.to_dict``).  The environment variable — set by the CLI
``--profile`` flag — is inherited by engine worker processes, so
fanned-out cells record their timings too.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, Optional

__all__ = [
    "ENV_PROFILE",
    "Profiler",
    "profiling_requested",
]

ENV_PROFILE = "REPRO_PROFILE"

_FALSEY = {"", "0", "false", "no", "off"}


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in _FALSEY


def profiling_requested(options: Optional[Dict[str, object]] = None) -> bool:
    """True when profiling is enabled via options or ``REPRO_PROFILE``."""
    if options and options.get("profile"):
        return True
    return _env_flag(ENV_PROFILE)


class _Phase:
    """Reusable context manager charging elapsed wall time to one phase."""

    __slots__ = ("_profiler", "_name", "_started")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Phase":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.add_time(self._name, perf_counter() - self._started)


class Profiler:
    """Accumulates wall time per phase and integer call counters.

    Phases nest freely (each charges only its own elapsed time) and the
    same phase name may be entered many times; times accumulate.  The
    flattened :meth:`timings` dictionary is what
    ``SimulationResult.to_dict`` serializes.
    """

    __slots__ = ("phase_seconds", "call_counts")

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {}
        self.call_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def phase(self, name: str) -> _Phase:
        """Context manager timing one entry into phase *name*.

        A fresh ``_Phase`` per call keeps re-entrant nesting of the same
        phase name correct (each holds its own start timestamp).
        """
        return _Phase(self, name)

    def timed(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped so that every call is charged to phase *name*.

        Lets a caller instrument its steps once, at setup, instead of
        testing for a profiler on every call.
        """
        add_time = self.add_time

        def timed_call(*args):
            started = perf_counter()
            try:
                return fn(*args)
            finally:
                add_time(name, perf_counter() - started)

        return timed_call

    def add_time(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.call_counts[name] = self.call_counts.get(name, 0) + 1

    def count(self, name: str, increment: int = 1) -> None:
        """Bump the call counter *name* (no timing attached)."""
        self.call_counts[name] = self.call_counts.get(name, 0) + increment

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def timings(self) -> Dict[str, float]:
        """Flat, JSON-friendly view: ``phase_<name>_s`` and ``calls_<name>``."""
        flat: Dict[str, float] = {}
        for name, seconds in sorted(self.phase_seconds.items()):
            flat[f"phase_{name}_s"] = round(seconds, 6)
        for name, count in sorted(self.call_counts.items()):
            flat[f"calls_{name}"] = float(count)
        return flat

    def report(self) -> str:
        """Human-readable per-phase table (used by ``--profile`` output)."""
        if not self.phase_seconds and not self.call_counts:
            return "no profiling data recorded"
        lines = [f"{'phase':<24} {'seconds':>10} {'calls':>10}"]
        for name in sorted(set(self.phase_seconds) | set(self.call_counts)):
            seconds = self.phase_seconds.get(name, 0.0)
            calls = self.call_counts.get(name, 0)
            lines.append(f"{name:<24} {seconds:>10.4f} {calls:>10d}")
        return "\n".join(lines)
