"""Per-provider storage engine: page cache, write-back, disk scheduling.

The paper's small-file analysis (Section 6.2, Figures 9-10) credits NFS's
small-op advantage to the kernel buffer cache absorbing disk positioning
costs.  This module gives providers the same memory hierarchy a real
Sorrento node had:

* a bounded LRU **page cache** (``page_size`` granularity, dirty/clean
  tracking) — repeated index-segment and hot-data reads cost a memcpy
  instead of seek + half-rotation;
* **write-back** — writes land in cache and acknowledge after a
  memory-speed copy charge; dirty pages flush in batches from a
  deterministic background flusher (period ``flush_interval``, or early
  when the dirty fraction crosses ``dirty_watermark``).  Durability
  semantics are unchanged: ``seg_commit``/2PC-prepare and replication
  ``seg_fetch`` force a synchronous flush of the affected segment before
  answering;
* a **coalescing disk scheduler** — requests arriving in the same
  simulated instant are batched (plug/unplug), sorted elevator-style by
  ``(segment file, offset)``, and adjacent same-file requests merge into
  one positioned transfer.  Foreground (urgent) requests sort ahead of
  background flush writes so a flush storm cannot starve reads;
* **read-ahead** — a sequential read that misses extends its fetch by
  ``readahead_pages`` pages, installed clean for the next request.

The engine is *timing and durability* state only: segment content lives
in :class:`~repro.core.segment.SegmentStore` extents.  A node crash
drops every dirty page; the set of backing files that lost dirty data is
reported through :meth:`take_lost` so the provider can discard the
uncommitted versions whose writes were only ever acknowledged from cache.

Determinism: the engine adds events only when enabled (``cache_bytes``
> 0); with it off the file system talks to the raw device exactly as
before, bit-identical to the recorded goldens.  The flusher's phase is
staggered per host by a CRC of the host name — no RNG stream is consumed.

Modeling notes: flushes write whole pages, so a flush transfer is
usually larger than the logical bytes written (this page-rounding plays
the role the foreground FFS near-full penalty plays on the write-through
path).  Faults installed by :mod:`repro.faults` apply where the
scheduler issues the merged request to the device, so a ``DiskFault``
slowdown/error hits coalesced batches exactly once each.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.sim import Event, Reply, Simulator
from repro.storage.disk import DiskIOError

MB = 1 << 20

#: Memory-copy bandwidth for cache hits and write-back acknowledgements
#: (era-appropriate SDRAM copy rate; the data already crossed the NIC).
MEMCPY_BPS = 400 * MB


class _IoReq:
    """One request queued at the scheduler."""

    __slots__ = ("name", "offset", "nbytes", "sequential", "urgent",
                 "event", "seq")

    def __init__(self, name: Optional[str], offset: int, nbytes: int,
                 sequential: bool, urgent: bool, event: Event, seq: int):
        self.name = name
        self.offset = offset
        self.nbytes = nbytes
        self.sequential = sequential
        self.urgent = urgent
        self.event = event
        self.seq = seq


class StorageEngine:
    """Buffer cache + request scheduler in front of one Disk/Raid0."""

    def __init__(self, sim: Simulator, device, *, page_size: int = 16 * 1024,
                 cache_bytes: int = 64 * MB, writeback: bool = True,
                 flush_interval: float = 0.5, dirty_watermark: float = 0.25,
                 readahead_pages: int = 2, metrics=None, host: str = ""):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.sim = sim
        self.device = device
        self.page_size = page_size
        self.max_pages = max(1, cache_bytes // page_size)
        self.writeback = writeback
        self.flush_interval = flush_interval
        self.dirty_watermark = dirty_watermark
        self.readahead_pages = max(0, readahead_pages)
        self.metrics = metrics
        self.host = host
        # LRU: insertion order is recency; value is the dirty flag.
        self._pages: Dict[Tuple[str, int], bool] = {}
        self._dirty = 0
        # Background flush writes in flight, per backing file (crash
        # treats them as lost alongside still-dirty pages).
        self._inflight: Dict[str, int] = {}
        self._lost: Set[str] = set()
        # Scheduler plug state.
        self._queue: List[_IoReq] = []
        self._plugged = False
        self._seq = 0
        self._kick: Optional[Reply] = None
        # Deterministic per-host flusher phase; consumes no RNG stream.
        self._stagger = (zlib.crc32(host.encode()) % 997) / 997.0
        self.stats = {
            "cache_hits": 0, "cache_misses": 0, "readahead_pages": 0,
            "writes_absorbed": 0, "writes_through": 0, "meta_ops": 0,
            "flush_batches": 0, "flush_pages": 0, "flush_errors": 0,
            "sync_flushes": 0, "coalesced": 0, "evicted": 0,
            "evicted_dirty": 0, "queue_peak": 0,
        }

    # ------------------------------------------------------------ metrics
    @property
    def dirty_pages(self) -> int:
        return self._dirty

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    def _count(self, service: str, nbytes: int = 0) -> None:
        if self.metrics is not None:
            self.metrics.stats("disk", service).observe_oneway(nbytes)

    # ------------------------------------------------------------- cache
    def _span(self, offset: int, nbytes: int) -> range:
        if nbytes <= 0:
            return range(offset // self.page_size, offset // self.page_size)
        return range(offset // self.page_size,
                     (offset + nbytes - 1) // self.page_size + 1)

    def _touch(self, key: Tuple[str, int], dirty: bool) -> None:
        """Insert or refresh a page at the LRU tail."""
        pages = self._pages
        was = pages.pop(key, None)
        if was and not dirty:
            dirty = True  # refreshing a dirty page keeps it dirty
        if dirty and not was:
            self._dirty += 1
        pages[key] = dirty

    def _evict_overflow(self) -> List[Tuple[str, int]]:
        """Shrink back to capacity; returns evicted *dirty* page keys."""
        dirty_out: List[Tuple[str, int]] = []
        pages = self._pages
        while len(pages) > self.max_pages:
            key = next(iter(pages))
            was_dirty = pages.pop(key)
            self.stats["evicted"] += 1
            if was_dirty:
                self._dirty -= 1
                self.stats["evicted_dirty"] += 1
                dirty_out.append(key)
        return dirty_out

    def _flush_evicted(self, keys: List[Tuple[str, int]]) -> None:
        """Evicted dirty pages must still reach the media: issue their
        writes as background requests (completion tracked for crashes)."""
        for name, runs in _runs_by_name(keys).items():
            for start, count in runs:
                self._submit_flush_run(name, start, count, urgent=False)

    # -------------------------------------------------------------- I/O
    def read(self, name: str, offset: int, nbytes: int,
             sequential: bool = False) -> Event:
        """A read through the cache; the event fires when data is in memory."""
        if nbytes <= 0:
            return self._submit(name, offset, nbytes, sequential, urgent=True)
        span = self._span(offset, nbytes)
        missing = [i for i in span if (name, i) not in self._pages]
        hits = len(span) - len(missing)
        self.stats["cache_hits"] += hits
        if hits:
            self._count("cache_hit", hits * self.page_size)
        for i in span:
            if (name, i) in self._pages:
                self._touch((name, i), dirty=self._pages[(name, i)])
        if not missing:
            return self.sim.timeout(nbytes / MEMCPY_BPS)
        self.stats["cache_misses"] += len(missing)
        self._count("cache_miss", len(missing) * self.page_size)
        runs = _runs(missing)
        if sequential and self.readahead_pages:
            start, count = runs[-1]
            extra = self.readahead_pages
            runs[-1] = (start, count + extra)
            self.stats["readahead_pages"] += extra
            self._count("readahead", extra * self.page_size)
            missing = missing + list(range(start + count, start + count + extra))
        for i in missing:
            self._touch((name, i), dirty=False)
        self._flush_evicted(self._evict_overflow())
        events = [
            self._submit(name, start * self.page_size,
                         count * self.page_size, sequential, urgent=True)
            for start, count in runs
        ]
        return events[0] if len(events) == 1 else self.sim.all_of(events)

    def write(self, name: str, offset: int, nbytes: int,
              sequential: bool = False, charge: Optional[int] = None) -> Event:
        """A write through the cache.

        ``charge`` is the device byte count the file system computed
        (it may exceed ``nbytes`` under the FFS near-full penalty); the
        page span always follows the logical ``offset``/``nbytes``.
        """
        charge = nbytes if charge is None else charge
        span = self._span(offset, nbytes)
        if self.writeback:
            for i in span:
                self._touch((name, i), dirty=True)
            self._flush_evicted(self._evict_overflow())
            self.stats["writes_absorbed"] += 1
            self._count("write_absorb", nbytes)
            if self._dirty >= self.dirty_watermark * self.max_pages:
                self.request_flush()
            return self.sim.timeout(max(charge, 1) / MEMCPY_BPS)
        for i in span:
            self._touch((name, i), dirty=False)
        self._flush_evicted(self._evict_overflow())
        self.stats["writes_through"] += 1
        return self._submit(name, offset, charge, sequential, urgent=True)

    def meta_io(self, nbytes: int) -> Event:
        """A journaled metadata operation: write-through, priority lane."""
        self.stats["meta_ops"] += 1
        return self._submit(None, 0, nbytes, False, urgent=True)

    # -------------------------------------------------------- durability
    def sync(self, name: str):
        """Generator: synchronously flush the file's dirty pages.

        Called on the durability edges (``seg_commit``, 2PC prepare,
        replication ``seg_fetch``).  A media error propagates to the
        caller as :class:`DiskIOError`.
        """
        if self._dirty == 0:
            return
        keys = [k for k, dirty in self._pages.items()
                if dirty and k[0] == name]
        if not keys:
            return
        self.stats["sync_flushes"] += 1
        t0 = self.sim.now
        events = []
        for start, count in _runs_by_name(keys)[name]:
            events.append(self._submit_flush_run(name, start, count,
                                                 urgent=True))
        for ev in events:
            yield ev
        self._observe_flush(self.sim.now - t0, len(keys))

    def request_flush(self) -> None:
        """Wake the background flusher early (high-watermark trigger)."""
        if self._kick is not None:
            self._kick.resolve(True)

    def flush_loop(self):
        """Background flusher process (spawn via ``node.spawn`` so it
        dies with the node and restarts with the provider)."""
        yield self.sim.timeout(self._stagger * self.flush_interval)
        while True:
            self._kick = self.sim.reply(self.flush_interval)
            yield self._kick
            self._kick = None
            yield from self._flush_round()

    def _flush_round(self):
        if self._dirty == 0:
            return
        keys = [k for k, dirty in self._pages.items() if dirty]
        if not keys:
            return
        t0 = self.sim.now
        events = []
        for name, runs in _runs_by_name(keys).items():
            for start, count in runs:
                events.append((self._submit_flush_run(name, start, count,
                                                      urgent=False),
                               name, start, count))
        for ev, name, start, count in events:
            try:
                yield ev
            except DiskIOError:
                # Media error: the pages never landed — re-dirty whatever
                # is still cached so the next round retries.
                self.stats["flush_errors"] += 1
                for i in range(start, start + count):
                    if (name, i) in self._pages:
                        self._touch((name, i), dirty=True)
        self._observe_flush(self.sim.now - t0, len(keys))

    def _submit_flush_run(self, name: str, start: int, count: int,
                          urgent: bool) -> Event:
        """Write ``count`` pages starting at page ``start``; marks them
        clean at submission and tracks the run for crash accounting."""
        for i in range(start, start + count):
            key = (name, i)
            if self._pages.get(key):
                self._pages[key] = False
                self._dirty -= 1
        self._inflight[name] = self._inflight.get(name, 0) + 1
        self.stats["flush_batches"] += 1
        self.stats["flush_pages"] += count
        ev = self._submit(name, start * self.page_size,
                          count * self.page_size, count > 1, urgent=urgent)
        ev.add_callback(self._run_done)
        return ev

    def _run_done(self, ev: Event) -> None:
        name = ev.name      # a request's event is named after its file
        left = self._inflight.get(name, 0) - 1
        if left > 0:
            self._inflight[name] = left
        else:
            self._inflight.pop(name, None)

    def _observe_flush(self, latency: float, pages: int) -> None:
        if self.metrics is not None:
            self.metrics.stats("disk", "flush").observe(
                latency, ok=True, bytes_out=pages * self.page_size)

    # ----------------------------------------------------------- faults
    def on_crash(self) -> None:
        """Power loss: every cached page is gone.  Files with dirty or
        in-flight write-back data are recorded as having lost writes."""
        self._lost.update(name for (name, _i), dirty in self._pages.items()
                          if dirty)
        self._lost.update(self._inflight)
        self._pages.clear()
        self._dirty = 0
        self._inflight.clear()
        self._queue.clear()
        self._kick = None

    def take_lost(self) -> Set[str]:
        """Backing-file names whose write-back data died with the node
        (consumed once, by the provider's restart path)."""
        lost, self._lost = self._lost, set()
        return lost

    def drop(self, name: str) -> None:
        """Forget a file's pages (unlink/delete: nothing left to flush)."""
        doomed = [k for k in self._pages if k[0] == name]
        for key in doomed:
            if self._pages.pop(key):
                self._dirty -= 1
        self._inflight.pop(name, None)

    # -------------------------------------------------------- scheduler
    def _submit(self, name: Optional[str], offset: int, nbytes: int,
                sequential: bool, urgent: bool) -> Event:
        """Queue one request; batched with everything else submitted in
        the same simulated instant (plug/unplug)."""
        ev = self.sim.event(name or "")
        self._seq += 1
        self._queue.append(_IoReq(name, offset, nbytes, sequential,
                                  urgent, ev, self._seq))
        if not self._plugged:
            self._plugged = True
            self.sim.call_later(0.0, self._drain, None, None)
        return ev

    def _drain(self, _a: None, _b: None) -> None:
        self._plugged = False
        batch, self._queue = self._queue, []
        if not batch:
            return  # a crash cleared the queue before the unplug fired
        if len(batch) > self.stats["queue_peak"]:
            self.stats["queue_peak"] = len(batch)
        # Priority lane first, then elevator order within each lane.
        batch.sort(key=lambda r: (r.urgent is False, r.name or "",
                                  r.offset, r.seq))
        run: List[_IoReq] = []
        run_end = 0
        for req in batch:
            if (run and req.name is not None and req.name == run[0].name
                    and req.urgent == run[0].urgent and req.offset <= run_end):
                run.append(req)
                run_end = max(run_end, req.offset + req.nbytes)
            else:
                if run:
                    self._issue(run)
                run = [req]
                run_end = req.offset + req.nbytes
        if run:
            self._issue(run)

    def _issue(self, run: List[_IoReq]) -> None:
        """One merged positioned transfer for a run of adjacent requests."""
        total = sum(r.nbytes for r in run)
        if len(run) > 1:
            self.stats["coalesced"] += len(run) - 1
            self._count("coalesced", total)
        dev_ev = self.device.io(total, run[0].sequential)

        def _done(ev: Event, run=run) -> None:
            if ev.state == "failed":
                for r in run:
                    r.event.fail(ev.value)
            else:
                for r in run:
                    r.event.succeed()

        dev_ev.add_callback(_done)


# ---------------------------------------------------------------- helpers
def _runs(pages: List[int]) -> List[Tuple[int, int]]:
    """Collapse a sorted page-index list into (start, count) runs."""
    out: List[Tuple[int, int]] = []
    start = prev = pages[0]
    for i in pages[1:]:
        if i == prev + 1:
            prev = i
            continue
        out.append((start, prev - start + 1))
        start = prev = i
    out.append((start, prev - start + 1))
    return out


def _runs_by_name(keys: List[Tuple[str, int]]) -> Dict[str, List[Tuple[int, int]]]:
    """Group (name, page) keys into per-name adjacent runs."""
    by_name: Dict[str, List[int]] = {}
    for name, i in sorted(keys):
        by_name.setdefault(name, []).append(i)
    return {name: _runs(pages) for name, pages in by_name.items()}
