"""NPB BTIO-style workload (Section 4.2.2, Figure 12).

BTIO (class B, "full" MPI-IO mode) solves a block-tridiagonal system on a
102³ grid over 200 timesteps, writing the 5-double solution vector every
5 steps (40 write phases) through collective list-writes, then reading
the whole solution back to verify.  With 4 processes that is ~2.7 GB
written and ~1.7 GB read in total, matching the paper's replay volumes.

The replay (like the paper's) disables version-based management so
concurrent byte-range writes to the shared solution file work ("we
disabled version-based data management to support concurrent writes to
different byte ranges"); the list-write becomes a sequence of strided
chunk writes.
"""

from __future__ import annotations

from typing import List

from repro.core.namespace import _file_key
from repro.workloads.trace import Trace

MB = 1 << 20

#: Paper volumes for the 4-replayer class-B run.
TOTAL_WRITE = int(2.7 * 1024 * MB)
TOTAL_READ = int(1.7 * 1024 * MB)
WRITE_PHASES = 40

#: Each process's appendix of a write phase arrives as strided chunks
#: (one per cell row owned by the process).
CHUNKS_PER_PHASE = 24


def make_traces(n_procs: int = 4, scale: float = 1.0,
                path: str = "/btio/solution") -> List[Trace]:
    """One trace per MPI rank.

    ``scale`` shrinks the *volume* (fewer write phases), never the
    request granularity — scaled runs must keep the paper's per-request
    sizes or they exercise a different regime entirely.
    """
    total_write = int(TOTAL_WRITE * scale)
    total_read = int(TOTAL_READ * scale)
    per_proc_write = total_write // n_procs
    # Full-scale geometry: ~700 KB list-write chunks.
    full_chunk = TOTAL_WRITE // n_procs // WRITE_PHASES // CHUNKS_PER_PHASE
    phases = max(2, min(WRITE_PHASES, per_proc_write // (full_chunk * 4)))
    per_phase = per_proc_write // phases
    chunk = min(full_chunk, per_phase)
    file_size = total_write  # solution file holds everything written
    traces = []
    for rank in range(n_procs):
        tr = Trace(name=f"btio-rank{rank}")
        tr.add("open", path=path, mode="w", create=(rank == 0))
        pos = rank * per_proc_write
        for _phase in range(phases):
            # Strided list-write: rank's chunks interleave with others'.
            off = pos
            for _c in range(max(1, per_phase // chunk)):
                offset = min(off % file_size, file_size - chunk)
                tr.add("write", path=path, offset=max(0, offset),
                       size=chunk, sequential=False)
                off += chunk * n_procs
            pos += per_phase
        tr.add("close", path=path)
        # Verification read-back: large sequential reads of this rank's
        # share of the solution.
        tr.add("open", path=path, mode="r")
        per_proc_read = total_read // n_procs
        read_chunk = 4 * MB
        off = rank * per_proc_read
        while off < (rank + 1) * per_proc_read:
            n = min(read_chunk, (rank + 1) * per_proc_read - off)
            offset = max(0, min(off % file_size, file_size - n))
            tr.add("read", path=path, offset=offset, size=n, sequential=True)
            off += n
        tr.add("close", path=path)
        traces.append(tr)
    return traces


def create_shared_file(dep, path: str = "/btio/solution", scale: float = 1.0,
                       degree: int = 1) -> None:
    """Set up the shared, versioning-disabled solution file."""
    size = int(TOTAL_WRITE * scale)
    if hasattr(dep, "preload_file"):
        entry = dep.preload_file(path, size, degree=degree)
        if entry is not None:   # Sorrento's namespace entry
            entry.versioning = False
            dep.namespace_for(path).db.put(_file_key(path), entry)
