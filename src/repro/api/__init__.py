"""Client-side programming interfaces (Section 2.3).

Sorrento "provides multiple flavors of client-side programming
interfaces": a basic NFS-style layer operating on opaque handles, and a
UNIX-like file-system call layer built on top of it.  Both wrap
:class:`repro.core.client.SorrentoClient`.

The front door is :func:`connect`, which returns a :class:`Session`
exposing every flavor (``.posix``, ``.handles``, ``.pario``) over one
shared client; the flavor constructors remain available for code that
manages its own stubs.  The typed error surface
(:class:`NotFoundError`, :class:`ConflictError`, :class:`TimeoutError`,
all under :class:`SorrentoError`) is re-exported here so applications
need only this package.
"""

from repro.api.handles import Handle, HandleAPI
from repro.api.pario import ParallelIO, make_parallel_session
from repro.api.posix import O_RDONLY, O_WRONLY, PosixAPI
from repro.api.session import Session, connect
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
    "Handle",
    "HandleAPI",
    "NotFoundError",
    "O_RDONLY",
    "O_WRONLY",
    "ParallelIO",
    "PosixAPI",
    "Session",
    "SorrentoError",
    "TimeoutError",
    "connect",
    "make_parallel_session",
]
