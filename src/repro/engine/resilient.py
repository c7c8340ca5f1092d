"""The engine's worker pool: crash isolation, timeouts, retries.

Every cell the :class:`~repro.engine.executor.Executor` does not run in
the calling process goes through one :class:`ResilientPool`, which the
executor keeps for its whole life.  ``--retries`` and ``--cell-timeout``
change only the pool's failure policy, never the dispatch path:

* **crash isolation** — every worker owns a private pipe; a worker that
  dies mid-cell (OOM kill, segfault, ``SIGKILL``) surfaces as a broken
  pipe on *its* cell only.  The dead worker is reaped, a replacement is
  spawned, and the cell is retried — the sweep keeps going.
* **per-cell timeout** — a cell that exceeds its deadline has its worker
  terminated (the only way to stop a stuck simulation) and is retried on
  a fresh one.
* **bounded deterministic backoff** — attempt *n* of a cell waits
  ``backoff_base * 2**(n-1)`` seconds before redispatch.  The delay is a
  pure function of the attempt number (no jitter), so retry schedules are
  reproducible.
* **partial results** — a cell that exhausts its retries settles as a
  :class:`CellFailure` instead of an exception (its slot in
  :meth:`ResilientPool.run`'s ordered result list is ``None``); the
  failure carries the worker's own exception when it raised one, so a
  caller may re-raise it instead.

Workers are spawned on the first batch and kept across batches, so they
keep their memoized inputs warm; :meth:`ResilientPool.close` (or leaving
the pool's ``with`` block) stops them.

Determinism is unaffected: a cell's result is a pure function of its
spec, so it does not matter which worker — or which attempt — produced
it.  A sweep with one worker SIGKILLed mid-run therefore yields results
byte-identical to an undisturbed run.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import pickle
import time
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError

__all__ = ["CellFailure", "RemoteTraceback", "ResilientPool"]


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its retry budget.

    ``index`` is the position of the cell in the submitted batch (the
    caller maps it back to grid coordinates); ``attempts`` counts every
    try including the first; ``error`` is a short human-readable cause
    (worker traceback tail, "worker died", or "timed out"); ``cause`` is
    the exception the worker raised, when it raised one that could be
    sent back, chained to a :class:`RemoteTraceback` of the worker.
    """

    index: int
    label: str
    attempts: int
    error: str
    cause: Optional[BaseException] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible row for telemetry reports."""
        return {
            "index": self.index,
            "label": self.label,
            "attempts": self.attempts,
            "error": self.error,
        }


class RemoteTraceback(Exception):
    """A worker's formatted traceback, chained to the error re-raised from it."""


def _portable(exc: BaseException) -> Optional[BaseException]:
    """*exc* if it survives the trip to the parent process, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _worker_main(conn, fn) -> None:
    """Worker loop: receive ``(index, payload)``, send ``(index, ok, value)``.

    Errors inside *fn* are caught and shipped back as ``(traceback text,
    exception or None)`` so the parent can decide to retry or re-raise;
    only a dead process (which cannot send anything) surfaces as a broken
    pipe.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, payload = message
        try:
            value = fn(payload)
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            conn.send((index, False, (traceback.format_exc(), _portable(exc))))
        else:
            conn.send((index, True, value))


class _WorkerSlot:
    """One worker process, its pipe, and what it is currently running."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[int] = None
        self.deadline: Optional[float] = None


class ResilientPool:
    """A persistent, self-healing worker pool with deadlines and retries.

    Unlike a pool that queues chunks of tasks, the dispatch window is one
    task per worker, which is what makes a deadline enforceable (the
    parent knows exactly which task a terminated worker was running).
    The pool is a context manager; workers left running when it is
    garbage-collected are stopped then.

    Args:
        fn: Top-level function each worker applies to a payload.
        workers: Number of worker processes.
        retries: Extra attempts per task after the first (``0`` = fail on
            the first error).
        cell_timeout: Per-attempt deadline in seconds (``None`` = none).
        backoff_base: Base of the deterministic exponential backoff.
    """

    def __init__(
        self,
        fn: Callable[[object], object],
        workers: int = 1,
        retries: int = 0,
        cell_timeout: Optional[float] = None,
        backoff_base: float = 0.5,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if retries < 0:
            raise ConfigurationError("retries must not be negative")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive")
        if backoff_base < 0:
            raise ConfigurationError("backoff_base must not be negative")
        self.fn = fn
        self.workers = workers
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.backoff_base = backoff_base
        self._slots: List[_WorkerSlot] = []
        weakref.finalize(self, self._stop, self._slots)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _WorkerSlot:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(child_conn, self.fn), daemon=True
        )
        process.start()
        child_conn.close()
        return _WorkerSlot(process, parent_conn)

    @staticmethod
    def _reap(slot: _WorkerSlot) -> None:
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=5.0)

    @classmethod
    def _stop(cls, slots: List[_WorkerSlot]) -> None:
        """Ask idle workers to exit, then reap every worker in *slots*."""
        for slot in slots:
            if slot.task is None and slot.process.is_alive():
                try:
                    slot.conn.send(None)
                except OSError:
                    pass
        for slot in slots:
            cls._reap(slot)
        slots.clear()

    def close(self) -> None:
        """Stop every worker (a later :meth:`run` spawns fresh ones)."""
        self._stop(self._slots)

    def __enter__(self) -> "ResilientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _backoff(self, attempts: int) -> float:
        """Deterministic delay before attempt ``attempts + 1`` of a task."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * (2.0 ** (attempts - 1))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Sequence[object],
        labels: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[int, int, int], None]] = None,
    ) -> Tuple[List[Optional[object]], List[CellFailure]]:
        """Run every payload; return ``(ordered results, failures)``.

        Results keep submission order; a task that exhausted its retries
        holds ``None`` in the result list and one :class:`CellFailure`
        (at the same index) in the failure list.  ``progress`` is called
        as ``(settled, total, index)`` each time a task settles, naming
        the task that just did.
        """
        payloads = list(payloads)
        results: List[Optional[object]] = [None] * len(payloads)
        failures: List[CellFailure] = []
        with contextlib.closing(self.imap_unordered(payloads, labels)) as settled:
            for done, (index, value, failure) in enumerate(settled, 1):
                if failure is None:
                    results[index] = value
                else:
                    failures.append(failure)
                if progress is not None:
                    progress(done, len(payloads), index)
        failures.sort(key=lambda failure: failure.index)
        return results, failures

    def imap_unordered(
        self, payloads: Sequence[object], labels: Optional[Sequence[str]] = None
    ) -> Iterator[Tuple[int, Optional[object], Optional[CellFailure]]]:
        """Run every payload, yielding ``(index, value, failure)`` as tasks settle.

        A task settles once: with its value (``failure`` is ``None``) or,
        after exhausting its retries, with a :class:`CellFailure` (``value``
        is ``None``).  A worker is handed its next task before its reply is
        yielded, so whatever the consumer does with a value overlaps the
        workers' next tasks.  Any exception inside the batch, and closing
        the iterator before it is exhausted (an exception in the consumer,
        ``KeyboardInterrupt`` included), terminates every worker, so an
        interrupted sweep leaves no orphaned processes behind and no stale
        reply for the next batch.
        """
        payloads = list(payloads)
        total = len(payloads)
        attempts = [0] * total
        # Tasks eligible for dispatch as (not_before_monotonic, index);
        # a retried task re-enters with its backoff deadline.
        pending: List[Tuple[float, int]] = [(0.0, index) for index in range(total)]
        settled = 0
        slots = self._slots
        while len(slots) < min(self.workers, total):
            slots.append(self._spawn())

        def dispatch() -> None:
            """Hand eligible tasks to idle workers."""
            now = time.monotonic()
            idle = [slot for slot in slots if slot.task is None]
            pending.sort()
            while idle and pending and pending[0][0] <= now:
                _, index = pending.pop(0)
                slot = idle.pop(0)
                slot.conn.send((index, payloads[index]))
                slot.task = index
                if self.cell_timeout is not None:
                    slot.deadline = now + self.cell_timeout

        def replace(slot: _WorkerSlot) -> int:
            """Reap *slot*'s worker, spawn a fresh one; return its task."""
            index = slot.task
            self._reap(slot)
            slots[slots.index(slot)] = self._spawn()
            return index

        def failed_attempt(
            index: int, error: str, cause: Optional[BaseException] = None
        ) -> Optional[CellFailure]:
            """Charge *index* one failed attempt: requeue it, or give up."""
            attempts[index] += 1
            if attempts[index] <= self.retries:
                not_before = time.monotonic() + self._backoff(attempts[index])
                pending.append((not_before, index))
                return None
            label = labels[index] if labels is not None else str(index)
            return CellFailure(index, label, attempts[index], error, cause)

        try:
            while settled < total:
                dispatch()
                busy = [slot for slot in slots if slot.task is not None]
                # How long to block: until the nearest deadline, a coarse
                # tick, or — only while a worker sits idle — the next
                # backed-off task becoming eligible.  A task waiting for a
                # worker is woken by that worker's reply, not by polling.
                timeout = 1.0
                now = time.monotonic()
                for slot in busy:
                    if slot.deadline is not None:
                        timeout = min(timeout, max(0.0, slot.deadline - now))
                if pending and len(busy) < len(slots):
                    timeout = min(timeout, max(0.0, pending[0][0] - now))
                if not busy:
                    if timeout > 0:
                        time.sleep(min(timeout, 0.05))
                    continue

                ready = multiprocessing.connection.wait(
                    [slot.conn for slot in busy], timeout=timeout
                )
                for conn in ready:
                    slot = next(s for s in busy if s.conn is conn)
                    try:
                        index, ok, value = conn.recv()
                    except (EOFError, OSError):
                        # The worker died mid-cell: reap it, spawn a
                        # replacement, and charge the cell one attempt.
                        failure = failed_attempt(replace(slot), "worker died mid-cell")
                    else:
                        slot.task = None
                        slot.deadline = None
                        dispatch()
                        if ok:
                            settled += 1
                            yield index, value, None
                            continue
                        text, cause = value
                        if cause is not None:
                            cause.__cause__ = RemoteTraceback(text)
                        failure = failed_attempt(
                            index, text.strip().splitlines()[-1], cause
                        )
                    if failure is not None:
                        settled += 1
                        yield failure.index, None, failure

                # Enforce deadlines on workers that stayed silent.
                now = time.monotonic()
                for slot in slots:
                    if (
                        slot.task is not None
                        and slot.deadline is not None
                        and now >= slot.deadline
                    ):
                        failure = failed_attempt(
                            replace(slot),
                            f"cell timed out after {self.cell_timeout:g}s",
                        )
                        if failure is not None:
                            settled += 1
                            yield failure.index, None, failure
        except BaseException:
            self.close()
            raise
