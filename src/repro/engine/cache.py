"""Content-addressed on-disk cache of simulation results.

Every cache entry is one file named by the cell's content address
(:meth:`ScenarioSpec.cache_key` — a SHA-256 over the canonical spec plus
the spec/result schema versions).  Changing anything about a cell — the
configuration, the protocol options, the load, a schema bump — changes
the address, so stale entries are never *served*; they are simply never
looked up again.

An entry holds :meth:`SimulationResult.to_wire`'s form, the same one the
worker pipe carries: an 8-byte little-endian length, that many bytes of
JSON header (``{"format", "spec", "result"}``, where ``result`` is the
wire header with the row count, column layout and side tables), then the
packed record columns.  Reading an entry parses only the header; the
columns are wrapped in place and records are built only on demand.
Entries of the older one-JSON-file format (``*.json``) are never looked
up; :meth:`ResultCache.clear` removes them too.

The cache is defensive about its own storage: a corrupted, truncated or
incompatibly-versioned entry (bad length prefix, header, column layout
or byte length) is treated as a miss, deleted, and recomputed — a cache
must never turn disk rot into wrong science.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..dtn.results import SimulationResult
from .spec import ScenarioSpec

#: Version of the entry layout (length prefix, header, column bytes).
ENTRY_FORMAT = 1
#: File suffix of current entries.
ENTRY_SUFFIX = ".cols"
#: File suffix of entries written by the one-JSON-file format.
LEGACY_SUFFIX = ".json"
_PREFIX = struct.Struct("<Q")


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_entries: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_entries": self.corrupt_entries,
        }


def _split_entry(data: bytes) -> Tuple[Dict[str, object], memoryview]:
    """An entry's ``(header, column bytes)``.

    Raises:
        ValueError: on a short prefix, a header that is not a JSON object
            of this entry format, or a length running past the end.
    """
    if len(data) < _PREFIX.size:
        raise ValueError("entry shorter than its length prefix")
    (length,) = _PREFIX.unpack_from(data)
    end = _PREFIX.size + length
    if end > len(data):
        raise ValueError("entry header runs past the end of the entry")
    header = json.loads(data[_PREFIX.size:end])
    if not isinstance(header, dict) or header.get("format") != ENTRY_FORMAT:
        raise ValueError("not a result cache entry of this format")
    return header, memoryview(data)[end:]


class ResultCache:
    """Persists per-cell :class:`SimulationResult` objects as header plus columns."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def entry_path(self, spec: ScenarioSpec) -> Path:
        """The on-disk location of *spec*'s entry (sharded by key prefix)."""
        key = spec.cache_key()
        return self.cache_dir / key[:2] / f"{key}{ENTRY_SUFFIX}"

    @staticmethod
    def read_header(path: Union[str, Path]) -> Dict[str, object]:
        """The JSON header of the entry at *path* (for inspection).

        Raises:
            ValueError: when the file is not a readable entry.
        """
        return _split_entry(Path(path).read_bytes())[0]

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, spec: ScenarioSpec) -> Optional[SimulationResult]:
        """Return the cached result of *spec*, or ``None`` on a miss.

        Unreadable entries (bad prefix or header, incompatible format or
        schema, column bytes that disagree with the header) count as
        misses and are removed so the slot heals itself.
        """
        path = self.entry_path(spec)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        try:
            header, columns = _split_entry(data)
            result = SimulationResult.from_wire({"header": header["result"], "columns": columns})
        except (KeyError, TypeError, ValueError):
            self.stats.corrupt_entries += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, spec: ScenarioSpec, result: SimulationResult) -> Path:
        """Store *result* under *spec*'s content address (atomically).

        Profiling timings and sampled metrics are stripped before
        persisting: they describe one instrumented run, not the cell, and
        neither flag is part of the cache key — persisting them would make
        a later uninstrumented run emit another run's telemetry from a
        warm cache.
        """
        path = self.entry_path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        wire = result.to_wire()
        result_header = wire["header"]
        result_header.pop("timings", None)
        result_header.pop("metrics", None)
        header = json.dumps(
            {"format": ENTRY_FORMAT, "spec": spec.to_dict(), "result": result_header}
        ).encode("utf-8")
        # Write-then-rename so concurrent readers never observe a torn file.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_PREFIX.pack(len(header)))
                handle.write(header)
                handle.write(wire["columns"])
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob(f"*/*{ENTRY_SUFFIX}"))

    def clear(self) -> int:
        """Delete every entry, legacy ones included; return how many."""
        removed = 0
        for suffix in (ENTRY_SUFFIX, LEGACY_SUFFIX):
            for entry in self.cache_dir.glob(f"*/*{suffix}"):
                entry.unlink()
                removed += 1
        return removed
