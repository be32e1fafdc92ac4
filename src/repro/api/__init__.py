"""Client-side programming interfaces (Section 2.3).

The paper layers an NFS-style handle interface under a UNIX-like call
layer.  Here :class:`repro.core.client.SorrentoClient` is the handle
layer: ``open`` returns an opaque handle, and ``read``, ``write``,
``commit`` and ``close`` act on it.  A client comes from the
deployment, ``dep.client_on(host)``.

This package adds what sits beside that client: the byte-range sharing
interface (:class:`ParallelIO`) and the typed error surface
(:class:`NotFoundError`, :class:`ConflictError`, :class:`TimeoutError`,
all under :class:`SorrentoError`), re-exported so applications need
only this package.
"""

from repro.api.pario import ParallelIO, make_parallel_session
from repro.core.client import (
    CommitConflict,
    ConflictError,
    NotFoundError,
    SorrentoError,
    TimeoutError,
)

__all__ = [
    "CommitConflict",
    "ConflictError",
    "NotFoundError",
    "ParallelIO",
    "SorrentoError",
    "TimeoutError",
    "make_parallel_session",
]
