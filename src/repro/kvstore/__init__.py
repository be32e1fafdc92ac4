"""Embedded key-value store — the repo's Berkeley DB substitute.

The paper stores the namespace server's directory tree "in a database
using Berkeley DB" with "a combination of write-ahead logging and
checkpointing" for disk-failure recovery (Section 3.1).  This package
provides the same contract from scratch: a map with ordered scans, a WAL
and checkpoints, recoverable after losing all in-memory state.

The store itself is synchronous; the namespace server charges simulated
disk time for the bytes the store reports written.
"""

from repro.kvstore.db import KVStore
from repro.kvstore.wal import WalRecord, WriteAheadLog

__all__ = ["KVStore", "WalRecord", "WriteAheadLog"]
