"""Write-ahead log on simulated stable storage.

The log survives process crashes (losing in-memory state) but is plain
Python underneath — "stable storage" is a list the crash model never
clears.  Appending sizes nothing (the owning daemon charges flushes per
batch); whoever wants bytes asks :meth:`WalRecord.approx_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List

PUT = "put"
DELETE = "del"


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One logged mutation."""

    lsn: int
    op: str            # PUT or DELETE
    key: Any
    value: Any = None

    def approx_bytes(self) -> int:
        """Rough on-disk footprint (pure; nothing charges by it today)."""
        key_len = len(self.key) if isinstance(self.key, (str, bytes)) else 16
        val_len = _value_bytes(self.value)
        return 24 + key_len + val_len


def _value_bytes(value: Any) -> int:
    """Footprint of a (possibly nested) value: strings by length, other
    scalars 16, a dict 16 and a list/tuple 8 plus their contents, and a
    slotted record (a namespace ``FileEntry``) as the dict of its fields.
    One flat walk, not a call per field (a namespace entry has 13)."""
    total = 0
    todo = [value]
    while todo:
        v = todo.pop()
        if v is None:
            continue
        if isinstance(v, (str, bytes)):
            total += len(v)
        elif isinstance(v, dict):
            total += 16
            todo.extend(v)
            todo.extend(v.values())
        elif isinstance(v, (list, tuple)):
            total += 8
            todo.extend(v)
        elif hasattr(v, "__slots__"):
            total += 16
            todo.extend(v.__slots__)
            todo.extend(getattr(v, name) for name in v.__slots__)
        else:
            total += 16
    return total


class WriteAheadLog:
    """Append-only mutation log with truncation at checkpoints."""

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        self._base_lsn = 0    # lsn of the first retained record
        self._next_lsn = 0

    def append(self, op: str, key: Any, value: Any = None) -> WalRecord:
        """Log a mutation; returns its record."""
        if op not in (PUT, DELETE):
            raise ValueError(f"bad op {op!r}")
        rec = WalRecord(self._next_lsn, op, key, value)
        self._next_lsn += 1
        self._records.append(rec)
        return rec

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def __len__(self) -> int:
        return len(self._records)

    def replay(self, since_lsn: int = 0) -> Iterator[WalRecord]:
        """Records with lsn >= since_lsn, in order."""
        start = max(0, since_lsn - self._base_lsn)
        yield from self._records[start:]

    def truncate_before(self, lsn: int) -> None:
        """Drop records older than ``lsn`` (safe once checkpointed)."""
        if lsn <= self._base_lsn:
            return
        drop = min(lsn, self._next_lsn) - self._base_lsn
        del self._records[:drop]
        self._base_lsn += drop
