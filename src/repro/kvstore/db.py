"""The recoverable key-value store: B+-tree + WAL + checkpoints.

Usage contract (mirrors how the namespace server uses Berkeley DB):

* every mutation is WAL-logged before it is applied in memory;
* ``checkpoint()`` snapshots the tree to stable storage and truncates
  the log;
* ``crash()`` throws away everything in memory; ``recover()`` rebuilds
  from the last checkpoint plus the WAL tail.

``checkpoint()`` reports bytes written so the owning daemon can charge
simulated disk time; mutations do not (a WAL flush is charged per batch).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.kvstore.btree import BTree
from repro.kvstore.wal import DELETE, PUT, WriteAheadLog


class KVStore:
    """An ordered, crash-recoverable map."""

    def __init__(self, order: int = 32):
        self._order = order
        self._tree: Optional[BTree] = BTree(order)
        # Stable storage: survives crash().
        self._wal = WriteAheadLog()
        self._checkpoint: List[Tuple[Any, Any]] = []
        self._checkpoint_lsn = 0

    # -- state guards -----------------------------------------------------
    def _live(self) -> BTree:
        if self._tree is None:
            raise RuntimeError("store is crashed; call recover() first")
        return self._tree

    @property
    def is_crashed(self) -> bool:
        return self._tree is None

    # -- mutations ---------------------------------------------------------
    def put(self, key, value) -> None:
        """Insert/overwrite."""
        tree = self._live()
        self._wal.append(PUT, key, value)
        tree.put(key, value)

    def delete(self, key) -> None:
        """Delete if present."""
        tree = self._live()
        self._wal.append(DELETE, key)
        tree.delete(key)

    # -- reads ------------------------------------------------------------
    def get(self, key, default=None):
        """Read a key (memory-resident tree)."""
        return self._live().get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._live()

    def __len__(self) -> int:
        return len(self._live())

    def items(self, low=None, high=None) -> Iterator[Tuple[Any, Any]]:
        """Ordered (key, value) range scan."""
        return self._live().items(low, high)

    def prefix_items(self, prefix: str) -> Iterator[Tuple[str, Any]]:
        """All items whose string key starts with prefix."""
        return self._live().prefix_items(prefix)

    # -- durability ---------------------------------------------------------
    def checkpoint(self) -> int:
        """Snapshot to stable storage; returns bytes written."""
        tree = self._live()
        self._checkpoint = list(tree.items())
        self._checkpoint_lsn = self._wal.next_lsn
        self._wal.truncate_before(self._checkpoint_lsn)
        return sum(
            24 + (len(k) if isinstance(k, (str, bytes)) else 16)
            for k, _ in self._checkpoint
        )

    def crash(self) -> None:
        """Lose all volatile state (tree); stable storage survives."""
        self._tree = None

    def recover(self) -> int:
        """Rebuild the tree from checkpoint + WAL; returns records replayed."""
        tree = BTree(self._order)
        for k, v in self._checkpoint:
            tree.put(k, v)
        replayed = 0
        for rec in self._wal.replay(self._checkpoint_lsn):
            if rec.op == PUT:
                tree.put(rec.key, rec.value)
            else:
                tree.delete(rec.key)
            replayed += 1
        self._tree = tree
        return replayed
