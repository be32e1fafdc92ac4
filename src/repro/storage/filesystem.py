"""Native local file system model.

Sorrento stores each segment "in its entirety on native file systems"
(Section 3.2), so every provider owns a :class:`LocalFS` on top of its disk
or RAID volume.  The model charges metadata operations a small fixed disk
cost, data operations the device's transfer time, and applies the classic
near-full FFS slowdown the paper cites ([31] McKusick et al.) when the
volume approaches saturation — that slowdown is one of the two stated
motivations for balancing storage usage (Section 3.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.sim import Simulator
from repro.storage.disk import Disk
from repro.storage.raid import Raid0

#: Disk bytes charged per metadata operation (inode/dirent update).
META_IO_BYTES = 4096

#: Utilization above which allocation slows down (FFS free-list behaviour).
SATURATION_KNEE = 0.85

#: Maximum write-time multiplier at 100% full.
SATURATION_PENALTY = 3.0


class NoSpace(Exception):
    """The volume has no room for the requested allocation."""


@dataclass(slots=True)
class _File:
    """A file known by name only (baselines, tests)."""
    fs_name: str
    file_size: int = 0   # logical length (``resize`` can make this sparse)
    allocated: int = 0   # bytes actually backed by blocks


class LocalFS:
    """A single-volume file system over one device.

    Only sizes are tracked — content lives in the layer above; methods
    that touch the device are generators to be driven by a sim process.
    A file is a *record* with ``fs_name``, ``file_size``, ``allocated``;
    the record methods (``resize``, ``release``, ``remove``, ``write_to``,
    ``read_from``, ``sync``, ``charge_read``) are one accounting path.
    A provider's segment files are its :class:`StoredSegment` versions
    themselves, named on demand (SegID/version); ``files`` holds the
    files known only by name (NFS and PVFS baselines, tests), whose
    methods look one up and call the record methods.
    ``used`` counts both.  Logical size and allocation differ so that
    sparse shadow copies ("create a blank segment and truncate it to the
    base's size", Section 3.5) cost nothing until written.
    """

    def __init__(self, sim: Simulator, device: Union[Disk, Raid0],
                 capacity: int | None = None):
        self.sim = sim
        self.device = device
        self.capacity = capacity if capacity is not None else device_capacity(device)
        self.used = 0
        self.files: Dict[str, _File] = {}
        #: The provider's :class:`repro.storage.engine.StorageEngine`, or
        #: ``None``: raw device access (bit-identical to the goldens).
        self.engine = None
        #: Forgets the records kept outside ``files`` (the segment store's).
        self.on_wipe: Optional[Callable[[], None]] = None

    # -- device funnel ---------------------------------------------------
    def _device_io(self, nbytes: int, sequential: bool = False):
        """The one raw device call for engine-less charges (the
        architecture lint pins every other ``.io()`` to the engine)."""
        return self.device.io(nbytes, sequential)

    def meta_io(self, nbytes: int = META_IO_BYTES):
        """Charge one metadata operation (inode/dirent update); routed
        through the engine's priority lane when one is installed."""
        if self.engine is not None:
            return self.engine.meta_io(nbytes)
        return self._device_io(nbytes)

    def journal_io(self, nbytes: int, sequential: bool = False):
        """A synchronous journal append (namespace WAL): durability is
        the point, so this never passes through the write-back cache."""
        return self._device_io(nbytes, sequential)

    def charge_read(self, f, offset: int, nbytes: int,
                    sequential: bool = False):
        """Charge a read against a file's cache pages without bounds
        checks — for callers that size their own transfers (index-segment
        attach, replication ``seg_fetch``)."""
        if self.engine is not None:
            return self.engine.read(f.fs_name, offset, nbytes, sequential)
        return self._device_io(nbytes, sequential)

    def sync(self, f):
        """Generator: force the file's dirty pages to the media (no-op
        without an engine — the raw path is synchronous already)."""
        if self.engine is not None:
            yield from self.engine.sync(f.fs_name)

    # -- space accounting ---------------------------------------------
    @property
    def available(self) -> int:
        """Free bytes on the volume."""
        return max(0, self.capacity - self.used)

    @property
    def utilization(self) -> float:
        """Consumed-space fraction in [0, 1]."""
        return self.used / self.capacity if self.capacity else 1.0

    def _write_penalty(self) -> float:
        """FFS-style slowdown factor as the volume fills."""
        u = self.utilization
        if u <= SATURATION_KNEE:
            return 1.0
        frac = min(1.0, (u - SATURATION_KNEE) / (1.0 - SATURATION_KNEE))
        return 1.0 + (SATURATION_PENALTY - 1.0) * frac

    # -- records ----------------------------------------------------------
    def resize(self, f, size: int) -> None:
        """Bookkeeping-only logical resize (shadow copies are in-memory
        index structures until written; no device I/O)."""
        if size < f.allocated:
            self.used -= f.allocated - size
            f.allocated = size
        f.file_size = size

    def release(self, f) -> int:
        """Drop a file with no device I/O: its space and any cached pages
        go.  Returns the bytes it had allocated."""
        if self.engine is not None:
            self.engine.drop(f.fs_name)
        self.used -= f.allocated
        return f.allocated

    def remove(self, f):
        """Generator: release a file, with one metadata I/O if it held
        blocks (an aborted shadow never written costs none)."""
        if self.release(f) > 0:
            yield self.meta_io()

    def write_to(self, f, offset: int, nbytes: int, sequential: bool = False):
        """Write ``nbytes`` at ``offset``, growing the file if needed.
        Allocation grows by the bytes written, capped at the logical size:
        an upper bound that never under-reports usage."""
        size = f.file_size = max(f.file_size, offset + nbytes)
        new_alloc = min(size, f.allocated + nbytes)
        growth = new_alloc - f.allocated
        if growth > self.available:
            f.file_size = min(size, f.allocated)  # roll back logical growth
            raise NoSpace(f"{f.fs_name}: need {growth} bytes, "
                          f"{self.available} free")
        cost = int(nbytes * self._write_penalty())
        f.allocated = new_alloc
        self.used += growth
        if self.engine is not None:
            yield self.engine.write(f.fs_name, offset, nbytes, sequential,
                                    charge=cost)
        else:
            yield self._device_io(cost, sequential)

    def read_from(self, f, offset: int, nbytes: int, sequential: bool = False):
        """Read ``nbytes`` at ``offset`` (must be within the file)."""
        if offset + nbytes > f.file_size:
            raise ValueError(f"{f.fs_name}: read past EOF "
                             f"({offset}+{nbytes} > {f.file_size})")
        if self.engine is not None:
            yield self.engine.read(f.fs_name, offset, nbytes, sequential)
        else:
            yield self._device_io(nbytes, sequential)

    def wipe(self) -> None:
        """Lose every file (wiped-disk failure injection)."""
        self.files.clear()
        self.used = 0
        if self.on_wipe is not None:
            self.on_wipe()

    # -- files by name ----------------------------------------------------
    def _file(self, name: str) -> _File:
        f = self.files.get(name)
        if f is None:
            raise FileNotFoundError(name)
        return f

    def create(self, name: str):
        """Create an empty file (one metadata I/O)."""
        if name in self.files:
            raise FileExistsError(name)
        yield self.meta_io()
        self.files[name] = _File(name)

    def set_size(self, name: str, size: int) -> None:
        self.resize(self._file(name), size)

    def unlink(self, name: str):
        """:meth:`remove` by name."""
        f = self.files.pop(name, None)
        if f is None:
            raise FileNotFoundError(name)
        return self.remove(f)

    def exists(self, name: str) -> bool:
        return name in self.files

    def size_of(self, name: str) -> int:
        return self._file(name).file_size

    def write(self, name: str, offset: int, nbytes: int, sequential: bool = False):
        return self.write_to(self._file(name), offset, nbytes, sequential)

    def read(self, name: str, offset: int, nbytes: int, sequential: bool = False):
        return self.read_from(self._file(name), offset, nbytes, sequential)


def device_capacity(device: Union[Disk, Raid0]) -> int:
    """Raw capacity of a disk or RAID volume."""
    if isinstance(device, Raid0):
        return device.capacity
    return device.spec.capacity
