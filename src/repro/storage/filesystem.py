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
from typing import Dict, Optional, Union

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
    size: int = 0        # logical length (set_size can make this sparse)
    allocated: int = 0   # bytes actually backed by blocks


class LocalFS:
    """A single-volume file system over one device.

    Files are flat-named (providers name segment files by SegID/version).
    Only sizes are tracked — content lives in the layer above.  All methods
    that touch the device are generators to be driven by a sim process.

    Space accounting distinguishes logical size from allocation so that
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
        #: Optional :class:`repro.storage.engine.StorageEngine` installed
        #: by the provider.  ``None`` means raw device access (the seed
        #: behaviour, bit-identical to the recorded goldens).
        self.engine = None

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

    def charge_read(self, name: str, offset: int, nbytes: int,
                    sequential: bool = False):
        """Charge a read against a file's cache pages without bounds
        checks — for callers that size their own transfers (index-segment
        attach, replication ``seg_fetch``)."""
        if self.engine is not None:
            return self.engine.read(name, offset, nbytes, sequential)
        return self._device_io(nbytes, sequential)

    def sync(self, name: str):
        """Generator: force the file's dirty pages to the media (no-op
        without an engine — the raw path is synchronous already)."""
        if self.engine is not None:
            yield from self.engine.sync(name)

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

    # -- metadata operations --------------------------------------------
    def create(self, name: str, charge: bool = True):
        """Create an empty file.

        ``charge=False`` defers the metadata I/O — storage providers
        create segment files lazily, folding the inode write into the
        first data write.
        """
        if name in self.files:
            raise FileExistsError(name)
        if charge:
            yield self.meta_io()
        self.files[name] = _File()

    def set_size(self, name: str, size: int) -> None:
        """Bookkeeping-only logical resize (shadow copies are in-memory
        index structures until written; no device I/O)."""
        f = self.files.get(name)
        if f is None:
            raise FileNotFoundError(name)
        if size < f.allocated:
            self.used -= f.allocated - size
            f.allocated = size
        f.size = size

    def forget(self, name: str) -> Optional[int]:
        """Drop a file with no device I/O: its space and any cached pages
        go.  Returns the bytes it had allocated (``None``: no such file)."""
        if self.engine is not None:
            self.engine.drop(name)
        f = self.files.pop(name, None)
        if f is None:
            return None
        self.used -= f.allocated
        return f.allocated

    def unlink(self, name: str):
        """Remove a file, freeing its space (one metadata I/O).

        Removing a never-materialized file (no allocated blocks — e.g. an
        aborted shadow that was never written) is a cache-only operation.
        """
        allocated = self.forget(name)
        if allocated is None:
            raise FileNotFoundError(name)
        if allocated > 0:
            yield self.meta_io()

    def exists(self, name: str) -> bool:
        """Whether the file exists."""
        return name in self.files

    def size_of(self, name: str) -> int:
        """Logical file size."""
        f = self.files.get(name)
        if f is None:
            raise FileNotFoundError(name)
        return f.size

    # -- data operations --------------------------------------------------
    def write(self, name: str, offset: int, nbytes: int, sequential: bool = False):
        """Write ``nbytes`` at ``offset``, growing the file if needed.

        Allocation grows by the written byte count (capped at logical
        size once the file is fully dense) — an upper-bound approximation
        that never under-reports usage.
        """
        f = self.files.get(name)
        if f is None:
            raise FileNotFoundError(name)
        end = offset + nbytes
        f.size = max(f.size, end)
        new_alloc = min(f.size, f.allocated + nbytes)
        growth = new_alloc - f.allocated
        if growth > self.available:
            f.size = min(f.size, f.allocated)  # roll back logical growth
            raise NoSpace(f"{name}: need {growth} bytes, {self.available} free")
        cost = int(nbytes * self._write_penalty())
        f.allocated = new_alloc
        self.used += growth
        if self.engine is not None:
            yield self.engine.write(name, offset, nbytes, sequential,
                                    charge=cost)
        else:
            yield self._device_io(cost, sequential)

    def read(self, name: str, offset: int, nbytes: int, sequential: bool = False):
        """Read ``nbytes`` at ``offset`` (must be within the file)."""
        f = self.files.get(name)
        if f is None:
            raise FileNotFoundError(name)
        if offset + nbytes > f.size:
            raise ValueError(
                f"{name}: read past EOF ({offset}+{nbytes} > {f.size})"
            )
        if self.engine is not None:
            yield self.engine.read(name, offset, nbytes, sequential)
        else:
            yield self._device_io(nbytes, sequential)


def device_capacity(device: Union[Disk, Raid0]) -> int:
    """Raw capacity of a disk or RAID volume."""
    if isinstance(device, Raid0):
        return device.capacity
    return device.spec.capacity
