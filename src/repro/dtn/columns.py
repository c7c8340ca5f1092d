"""Per-packet records as fixed-layout numpy columns.

A records-mode :class:`~repro.dtn.results.SimulationResult` crosses the
worker pipe and the result cache as a JSON-compatible header plus the
raw bytes of the columns below, and its metrics are computed over them.
This module owns that layout: building columns from live records or
canonical record payloads, packing them to bytes and wrapping bytes
without copying, concatenating, and turning rows back into payloads or
records.

Rows follow packet creation order (the order of the record dict they
were built from).  ``None`` is stored as NaN in the float columns and as
:data:`NULL_INT` in the integer columns that may hold it.  The two
per-packet fields that are almost always at their default live in sparse
side tables keyed by row: a non-default ``traffic_class`` and a non-empty
``extra`` dict.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .packet import DEFAULT_TRAFFIC_CLASS, Packet, PacketRecord

#: Column names and little-endian dtypes, in storage order (the 8-byte
#: columns first, so every column of a packed buffer stays aligned).
LAYOUT: Tuple[Tuple[str, str], ...] = (
    ("packet_id", "<i8"),
    ("source", "<i8"),
    ("destination", "<i8"),
    ("size", "<i8"),
    ("creation_time", "<f8"),
    ("deadline", "<f8"),
    ("priority", "<i8"),
    ("delivery_time", "<f8"),
    ("delivering_node", "<i8"),
    ("hop_count", "<i8"),
    ("replicas_created", "<i8"),
    ("drops", "<i8"),
    ("delivered", "|b1"),
)
#: Bytes one row occupies across all columns.
ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in LAYOUT)
#: ``None`` in the integer columns that may hold it.
NULL_INT = int(np.iinfo(np.int64).min)
#: The stored value of ``None``, per column that may hold it.
_NULLS = {
    "deadline": float("nan"),
    "delivery_time": float("nan"),
    "delivering_node": NULL_INT,
    "hop_count": NULL_INT,
}


class RecordColumns:
    """The per-packet records of one result, one numpy array per field.

    Attributes:
        arrays: Column name to 1-D array, every one :func:`len` rows long.
        traffic_classes: Row to class name, for rows not in
            :data:`~repro.dtn.packet.DEFAULT_TRAFFIC_CLASS`.
        extras: Row to the record's ``extra`` dict, for non-empty ones.
    """

    __slots__ = ("arrays", "traffic_classes", "extras")

    def __init__(
        self,
        arrays: Dict[str, np.ndarray],
        traffic_classes: Dict[int, str],
        extras: Dict[int, dict],
    ) -> None:
        self.arrays = arrays
        self.traffic_classes = traffic_classes
        self.extras = extras

    def __len__(self) -> int:
        return len(self.arrays["packet_id"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def _from_rows(
        cls, rows: List[tuple], traffic_classes: Dict[int, str], extras: Dict[int, dict]
    ) -> "RecordColumns":
        """Columns from row tuples of Python values in :data:`LAYOUT` order."""
        values = zip(*rows) if rows else [()] * len(LAYOUT)
        arrays = {}
        for (name, dtype), column in zip(LAYOUT, values):
            if name in _NULLS:
                null = _NULLS[name]
                column = [null if value is None else value for value in column]
            arrays[name] = np.array(column, dtype=dtype)
        return cls(arrays, traffic_classes, extras)

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "RecordColumns":
        """Columns of live records, in iteration order."""
        rows: List[tuple] = []
        traffic_classes: Dict[int, str] = {}
        extras: Dict[int, dict] = {}
        for row, record in enumerate(records):
            packet = record.packet
            rows.append((
                packet.packet_id, packet.source, packet.destination, packet.size,
                packet.creation_time, packet.deadline, packet.priority,
                record.delivery_time, record.delivering_node, record.hop_count,
                record.replicas_created, record.drops, record.delivered,
            ))
            if packet.traffic_class != DEFAULT_TRAFFIC_CLASS:
                traffic_classes[row] = packet.traffic_class
            if record.extra:
                extras[row] = dict(record.extra)
        return cls._from_rows(rows, traffic_classes, extras)

    @classmethod
    def from_payloads(cls, entries: Iterable[Dict[str, object]]) -> "RecordColumns":
        """Columns of canonical record payloads (``to_dict()["records"]``).

        Raises:
            KeyError/TypeError/ValueError: when an entry is malformed.
        """
        rows: List[tuple] = []
        traffic_classes: Dict[int, str] = {}
        extras: Dict[int, dict] = {}
        for row, entry in enumerate(entries):
            packet = entry["packet"]
            rows.append((
                packet["packet_id"], packet["source"], packet["destination"], packet["size"],
                packet["creation_time"], packet["deadline"], packet.get("priority", 0),
                entry["delivery_time"], entry["delivering_node"], entry["hop_count"],
                entry["replicas_created"], entry["drops"], entry["delivered"],
            ))
            traffic_class = str(packet.get("traffic_class", DEFAULT_TRAFFIC_CLASS))
            if traffic_class != DEFAULT_TRAFFIC_CLASS:
                traffic_classes[row] = traffic_class
            if entry.get("extra"):
                extras[row] = dict(entry["extra"])
        return cls._from_rows(rows, traffic_classes, extras)

    @classmethod
    def concat(cls, parts: Sequence["RecordColumns"]) -> "RecordColumns":
        """One set of columns holding *parts*' rows one after another."""
        arrays = {
            name: np.concatenate([part[name] for part in parts] or [np.empty(0, dtype)])
            for name, dtype in LAYOUT
        }
        traffic_classes: Dict[int, str] = {}
        extras: Dict[int, dict] = {}
        offset = 0
        for part in parts:
            traffic_classes.update((offset + row, name) for row, name in part.traffic_classes.items())
            extras.update((offset + row, extra) for row, extra in part.extras.items())
            offset += len(part)
        return cls(arrays, traffic_classes, extras)

    # ------------------------------------------------------------------
    # Raw bytes
    # ------------------------------------------------------------------
    def descriptor(self) -> Dict[str, object]:
        """JSON-compatible description of :meth:`to_bytes`' content."""
        return {
            "rows": len(self),
            "layout": [list(column) for column in LAYOUT],
            "traffic_class": [[row, name] for row, name in self.traffic_classes.items()],
            "extra": [[row, extra] for row, extra in self.extras.items()],
        }

    def to_bytes(self) -> bytes:
        """The columns packed one after another in :data:`LAYOUT` order."""
        return b"".join(
            np.ascontiguousarray(self.arrays[name], dtype=dtype).tobytes()
            for name, dtype in LAYOUT
        )

    @classmethod
    def from_buffer(cls, buffer, descriptor: Dict[str, object]) -> "RecordColumns":
        """Wrap packed column bytes (read-only views, no copy).

        Raises:
            KeyError/TypeError/ValueError: when *descriptor* names another
                layout, or disagrees with the byte length or itself.
        """
        rows = descriptor["rows"]
        if [tuple(column) for column in descriptor["layout"]] != list(LAYOUT):
            raise ValueError("column layout differs from this version's")
        if not isinstance(rows, int) or rows < 0 or len(buffer) != rows * ROW_BYTES:
            raise ValueError(f"{len(buffer)} column bytes do not hold {rows!r} rows")
        arrays: Dict[str, np.ndarray] = {}
        offset = 0
        for name, dtype in LAYOUT:
            arrays[name] = np.frombuffer(buffer, dtype=dtype, count=rows, offset=offset)
            offset += rows * np.dtype(dtype).itemsize
        traffic_classes = {_row(row, rows): str(name) for row, name in descriptor["traffic_class"]}
        extras = {_row(row, rows): dict(extra) for row, extra in descriptor["extra"]}
        return cls(arrays, traffic_classes, extras)

    # ------------------------------------------------------------------
    # Back to Python values
    # ------------------------------------------------------------------
    def _rows(self) -> Iterator[tuple]:
        """Row tuples of Python values in :data:`LAYOUT` order, ``None`` restored."""
        columns = []
        for name, _ in LAYOUT:
            array = self.arrays[name]
            values = array.tolist()
            if name in _NULLS:
                null = np.isnan(array) if array.dtype.kind == "f" else array == NULL_INT
                if null.any():
                    values = [None if gap else value for value, gap in zip(values, null.tolist())]
            columns.append(values)
        return zip(*columns)

    def payloads(self) -> List[Dict[str, object]]:
        """The canonical ``records`` list of :meth:`SimulationResult.to_dict`."""
        traffic_classes, extras = self.traffic_classes, self.extras
        entries: List[Dict[str, object]] = []
        for row, (
            packet_id, source, destination, size, creation_time, deadline, priority,
            delivery_time, delivering_node, hop_count, replicas_created, drops, delivered,
        ) in enumerate(self._rows()):
            packet: Dict[str, object] = {
                "packet_id": packet_id,
                "source": source,
                "destination": destination,
                "size": size,
                "creation_time": creation_time,
                "deadline": deadline,
            }
            if row in traffic_classes:
                packet["traffic_class"] = traffic_classes[row]
            if priority:
                packet["priority"] = priority
            entries.append({
                "packet": packet,
                "delivered": delivered,
                "delivery_time": delivery_time,
                "delivering_node": delivering_node,
                "hop_count": hop_count,
                "replicas_created": replicas_created,
                "drops": drops,
                "extra": dict(extras[row]) if row in extras else {},
            })
        return entries

    def to_records(self) -> Dict[int, PacketRecord]:
        """Live records keyed by packet id, in row order."""
        records: Dict[int, PacketRecord] = {}
        for entry in self.payloads():
            packet = Packet(**entry.pop("packet"))
            records[packet.packet_id] = PacketRecord(packet=packet, **entry)
        return records


def _row(row: object, rows: int) -> int:
    """A side-table row index, checked against the column length."""
    if not isinstance(row, int) or not 0 <= row < rows:
        raise ValueError(f"side-table row {row!r} outside 0..{rows - 1}")
    return row
