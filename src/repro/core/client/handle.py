"""Client-side session state: errors, file handles, layout bootstrap."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.layout import Layout, make_layout


class SorrentoError(Exception):
    """Base of every client-visible failure.

    Catch this to handle anything the volume can throw; catch the
    subclasses below to react to the three conditions applications
    actually branch on (missing, contended, unreachable)."""


class NotFoundError(SorrentoError):
    """The path, version, or segment does not exist (ENOENT-like)."""


class ConflictError(SorrentoError):
    """Another actor got there first: a commit conflict, an existing
    path on create (EEXIST), or a non-empty directory (ENOTEMPTY)."""


#: Historical name for :class:`ConflictError`; kept as an exact alias so
#: ``except CommitConflict`` keeps catching what it always caught.
CommitConflict = ConflictError


class TimeoutError(SorrentoError):  # noqa: A001 - deliberate shadow
    """A server needed for the operation did not answer in time."""


def _meta_size(meta: Optional[dict]) -> int:
    if not meta:
        return 64
    layout = meta.get("layout")
    nsegs = len(layout.segments) if layout is not None else 0
    attached = meta.get("attached_len", 0)
    return 64 + 24 * nsegs + attached


@dataclass
class FileHandle:
    """An open file session."""

    path: str
    entry: dict
    mode: str                        # "r" or "w"
    layout: Layout
    attached: Optional[bytes]        # small-file payload (or None)
    attached_len: int = 0
    base_version: int = 0
    index_owner: Optional[str] = None
    shadows: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    #          segid -> (owner host, shadow version)
    new_segments: Dict[int, str] = field(default_factory=dict)
    #          segid -> owner host (created this session, version 1)
    dirty: bool = False
    closed: bool = False
    affinity_owner: Optional[str] = None  # where this file's data grows

    @property
    def fileid(self) -> int:
        """The file's 128-bit FileID (= the index segment's SegID)."""
        return self.entry["fileid"]

    @property
    def size(self) -> int:
        """Current logical file size as this session sees it."""
        if self.layout.segments:
            return self.layout.size
        return self.attached_len

    @property
    def versioning(self) -> bool:
        """False when the app manages its own consistency (§3.5)."""
        return self.entry.get("versioning", True)


def make_layout_for(entry: dict) -> Layout:
    """An empty layout matching the entry's declared organization mode."""
    mode = entry.get("mode", "linear")
    if mode == "linear":
        return make_layout("linear", lambda: 0)
    if mode == "striped":
        return make_layout("striped", _EntryIds(entry).new_id,
                           stripe_count=entry.get("stripe_count", 4),
                           fixed_size=entry.get("fixed_size", 0))
    return make_layout("hybrid", lambda: 0,
                       stripe_count=entry.get("stripe_count", 4))


class _EntryIds:
    """Deterministic SegIDs for striped files' up-front segments."""

    def __init__(self, entry: dict):
        self._base = entry["fileid"]
        self._n = 0

    def new_id(self) -> int:
        self._n += 1
        return (self._base + self._n) & ((1 << 128) - 1)
