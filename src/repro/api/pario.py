"""Parallel byte-range sharing interface (Section 3.5's versioning-off
option; used in the paper to replay BTIO's MPI-IO list-writes).

Multiple processes share one file and write disjoint byte ranges
concurrently — no shadow copies, no commits, reads/writes "directly
applied to the data segments" (replication is disabled in this mode, as
the paper states).  ``list_write``/``list_read`` emulate PVFS's
list-I/O primitive "through asynchronous I/O calls": all pieces of the
vector go out in parallel.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.client import ConflictError, SorrentoClient, SorrentoError
from repro.sim import Barrier, gather

Range = Tuple[int, int]  # (offset, length)


class ParallelIO:
    """One process's view of the shared-file interface."""

    def __init__(self, client: SorrentoClient,
                 barrier: Optional[Barrier] = None):
        self.client = client
        self.sim = client.sim
        self.barrier = barrier

    # ------------------------------------------------------------ session
    def open_shared(self, path: str, create: bool = False,
                    size: Optional[int] = None, **create_params):
        """Open (optionally create) a shared, versioning-disabled file.

        ``size`` pre-allocates the layout (like BTIO declaring its
        solution size up front).  Writers from *different* processes must
        stay within the pre-sized region — concurrent growth across
        clients is racy by construction.
        """
        create_params.setdefault("versioning", False)
        create_params.setdefault("degree", 1)
        fh = yield from self.client.open(path, "w", create=create,
                                         **create_params)
        if fh.versioning:
            # The existing entry conflicts with what this interface needs.
            raise ConflictError(
                f"{path} is a versioned file; the byte-range sharing "
                "interface needs versioning disabled at creation"
            )
        if size is not None and size > fh.size:
            yield from self.client.truncate(fh, size)
        return fh

    def close(self, fh):
        version = yield from self.client.close(fh)
        return version

    # ------------------------------------------------------------- data
    def write_at(self, fh, offset: int, length: int,
                 data: Optional[bytes] = None, sequential: bool = False):
        """Direct in-place write; concurrent writers to disjoint ranges
        never conflict."""
        yield from self.client.write(fh, offset, length, data=data,
                                     sequential=sequential)

    def list_write(self, fh, ranges: Sequence[Range],
                   data: Optional[bytes] = None):
        """Vector write: every (offset, length) piece issues in parallel.

        ``data``, when given, is consumed range by range in order.
        """
        writes, pos = [], 0
        for offset, length in ranges:
            chunk = data[pos:pos + length] if data is not None else None
            pos += length
            writes.append(self.client.write(fh, offset, length, data=chunk))
        yield from gather(self.sim, writes)
        return sum(n for _, n in ranges)

    def list_read(self, fh, ranges: Sequence[Range]) -> List[Optional[bytes]]:
        """Vector read: returns one buffer (or None for synthetic content)
        per requested range, in order."""
        reads = [self.client.read(fh, offset, length)
                 for offset, length in ranges]
        results = yield from gather(self.sim, reads)
        return results

    # -------------------------------------------------------- collective
    def sync(self):
        """Collective barrier (when the session was built with one)."""
        if self.barrier is None:
            raise SorrentoError("no barrier attached to this session")
        gen = yield from self.barrier.wait()
        return gen


def make_parallel_session(clients: Sequence[SorrentoClient]):
    """Build one ParallelIO per process sharing a collective barrier."""
    barrier = Barrier(clients[0].sim, len(clients))
    return [ParallelIO(c, barrier) for c in clients]
