"""The Sorrento client stub (Sections 2.3, 3.5; Figures 4–7).

All methods that touch the network are generators meant to run inside sim
processes (``yield from client.open(...)``).  The stub implements:

* pathname ops against the namespace server;
* the data path: locate segments via home hosts (with the multicast
  backup scheme), read/write segment owners directly;
* version-based consistency: shadow copies on write, two-phase commit
  across shadowed segments, conflict detection at commit;
* attached small files (≤ 60 KB ride inside the index segment);
* the atomic-append recipe of Figure 4;
* a versioning-off mode for applications managing their own consistency.

The implementation is split into cohesive modules — ``handle`` (session
state), ``router`` (namespace shard routing and failover),
``namespace_ops`` (pathname RPCs), ``placement`` (locate/place),
``io`` (the data path), ``versioning`` (shadow/commit/close) — combined
by ``stub.SorrentoClient``.  This package re-exports the public names so
``from repro.core.client import SorrentoClient`` keeps working.
"""

from repro.core.client.handle import (
    CommitConflict,
    ConflictError,
    FileHandle,
    NotFoundError,
    SorrentoError,
    TimeoutError,
    make_layout_for,
)
from repro.core.client.router import NamespaceRouter
from repro.core.client.stub import SorrentoClient

__all__ = [
    "CommitConflict",
    "ConflictError",
    "FileHandle",
    "NamespaceRouter",
    "NotFoundError",
    "SorrentoClient",
    "SorrentoError",
    "TimeoutError",
    "make_layout_for",
]
