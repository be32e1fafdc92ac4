"""The recoverable key-value store: a dict + WAL + checkpoints.

Usage contract (mirrors how the namespace server uses Berkeley DB):

* every mutation is WAL-logged before it is applied in memory;
* ``checkpoint()`` snapshots the map to stable storage and truncates
  the log;
* ``crash()`` throws away everything in memory; ``recover()`` rebuilds
  from the last checkpoint plus the WAL tail.

``checkpoint()`` reports bytes written so the owning daemon can charge
simulated disk time; mutations do not (a WAL flush is charged per batch).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.kvstore.wal import DELETE, PUT, WriteAheadLog


class KVStore:
    """A crash-recoverable map with ordered scans.

    The live state is one dict.  The namespace's traffic is point gets
    and puts — tens of thousands a run — against a handful of scans, so
    a scan filters the keys by its bounds and sorts what it returns when
    it is made; no sorted index is kept between scans.  Keys must be
    mutually comparable (the namespace uses strings).
    """

    def __init__(self) -> None:
        self._data: Optional[Dict[Any, Any]] = {}
        # Stable storage: survives crash().
        self._wal = WriteAheadLog()
        self._checkpoint: List[Tuple[Any, Any]] = []
        self._checkpoint_lsn = 0

    # -- state guards -----------------------------------------------------
    def _live(self) -> Dict[Any, Any]:
        if self._data is None:
            raise RuntimeError("store is crashed; call recover() first")
        return self._data

    @property
    def is_crashed(self) -> bool:
        return self._data is None

    # -- mutations ---------------------------------------------------------
    def put(self, key, value) -> None:
        """Insert/overwrite."""
        data = self._live()
        self._wal.append(PUT, key, value)
        data[key] = value

    def delete(self, key) -> None:
        """Delete if present."""
        data = self._live()
        self._wal.append(DELETE, key)
        data.pop(key, None)

    # -- reads ------------------------------------------------------------
    def get(self, key, default=None):
        """Read a key (memory-resident map)."""
        return self._live().get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._live()

    def __len__(self) -> int:
        return len(self._live())

    def items(self, low=None, high=None) -> Iterator[Tuple[Any, Any]]:
        """(key, value) pairs with ``low <= key < high``, ascending."""
        data = self._live()
        keys = data.keys()
        if low is not None:
            keys = [k for k in keys if k >= low]
        if high is not None:
            keys = [k for k in keys if k < high]
        return iter([(k, data[k]) for k in sorted(keys)])

    def prefix_items(self, prefix: str) -> Iterator[Tuple[str, Any]]:
        """All items whose string key starts with ``prefix``, ascending."""
        data = self._live()
        keys = sorted(k for k in data if k.startswith(prefix))
        return iter([(k, data[k]) for k in keys])

    # -- durability ---------------------------------------------------------
    def checkpoint(self) -> int:
        """Snapshot to stable storage; returns bytes written."""
        self._checkpoint = list(self._live().items())
        self._checkpoint_lsn = self._wal.next_lsn
        self._wal.truncate_before(self._checkpoint_lsn)
        return sum(
            24 + (len(k) if isinstance(k, (str, bytes)) else 16)
            for k, _ in self._checkpoint
        )

    def crash(self) -> None:
        """Lose all volatile state (the map); stable storage survives."""
        self._data = None

    def recover(self) -> int:
        """Rebuild the map from checkpoint + WAL; returns records replayed."""
        data = dict(self._checkpoint)
        replayed = 0
        for rec in self._wal.replay(self._checkpoint_lsn):
            if rec.op == PUT:
                data[rec.key] = rec.value
            else:
                data.pop(rec.key, None)
            replayed += 1
        self._data = data
        return replayed
