"""Tests for the provider storage engine: LRU page cache, write-back,
coalescing scheduler, crash semantics, and the engine-on replay golden."""

import random

import pytest

from repro.core.segment import SegmentStore
from repro.sim import Simulator
from repro.storage import DISK_SPECS, Disk, LocalFS, StorageEngine
from repro.storage.disk import MB, DiskFaultState, DiskIOError
from repro.storage.engine import MEMCPY_BPS

PAGE = 16 * 1024


def build(cache_pages=8, writeback=True, **kw):
    sim = Simulator()
    disk = Disk(sim, DISK_SPECS["cheetah-st373405"])
    engine = StorageEngine(sim, disk, page_size=PAGE,
                           cache_bytes=cache_pages * PAGE,
                           writeback=writeback, **kw)
    return sim, disk, engine


def run(sim, gen):
    return sim.run_process(sim.process(gen))


# ------------------------------------------------------------ LRU cache
def test_read_miss_then_hit():
    sim, disk, eng = build()

    def proc():
        t0 = sim.now
        yield eng.read("f", 0, PAGE)
        miss_t = sim.now - t0
        t0 = sim.now
        yield eng.read("f", 0, PAGE)
        hit_t = sim.now - t0
        return miss_t, hit_t

    miss_t, hit_t = run(sim, proc())
    # The miss paid positioning; the hit paid only a memcpy.
    assert miss_t > disk.spec.seek_s
    assert hit_t == pytest.approx(PAGE / MEMCPY_BPS)
    assert eng.stats["cache_misses"] == 1
    assert eng.stats["cache_hits"] == 1
    assert disk.requests == 1


def test_lru_evicts_oldest():
    sim, disk, eng = build(cache_pages=2)

    def proc():
        yield eng.read("f", 0 * PAGE, PAGE)
        yield eng.read("f", 1 * PAGE, PAGE)
        yield eng.read("f", 0 * PAGE, PAGE)   # refresh page 0
        yield eng.read("f", 2 * PAGE, PAGE)   # evicts page 1 (LRU)
        yield eng.read("f", 0 * PAGE, PAGE)   # still cached
        yield eng.read("f", 1 * PAGE, PAGE)   # must miss again

    run(sim, proc())
    assert eng.stats["evicted"] == 2          # page 1, then page 0 or 2
    assert eng.stats["cache_misses"] == 4     # pages 0,1,2 cold + 1 re-miss
    assert eng.cached_pages == 2


def test_writeback_dirty_accounting_and_eviction_flush():
    sim, disk, eng = build(cache_pages=2)

    def proc():
        yield eng.write("f", 0 * PAGE, PAGE)
        yield eng.write("f", 1 * PAGE, PAGE)
        assert eng.dirty_pages == 2
        assert disk.requests == 0             # acks came from cache
        # Overflow: the evicted dirty page must still reach the media.
        yield eng.write("f", 2 * PAGE, PAGE)
        yield sim.timeout(1.0)                # let the eviction write land

    run(sim, proc())
    assert eng.stats["evicted_dirty"] == 1
    assert disk.requests == 1
    assert eng.dirty_pages == 2               # the two still-cached pages


def test_write_through_mode_charges_device():
    sim, disk, eng = build(writeback=False)

    def proc():
        yield eng.write("f", 0, PAGE)

    run(sim, proc())
    assert disk.requests == 1
    assert eng.dirty_pages == 0
    assert eng.stats["writes_through"] == 1
    # Pages are still installed clean: a re-read hits.

    def reread():
        yield eng.read("f", 0, PAGE)

    run(sim, reread())
    assert eng.stats["cache_hits"] == 1


def test_readahead_extends_sequential_miss():
    sim, disk, eng = build()

    def proc():
        yield eng.read("f", 0, PAGE, sequential=True)

    run(sim, proc())
    assert eng.stats["readahead_pages"] == eng.readahead_pages
    assert eng.cached_pages == 1 + eng.readahead_pages

    def next_page():
        yield eng.read("f", PAGE, PAGE)

    run(sim, next_page())
    assert eng.stats["cache_hits"] == 1       # read-ahead satisfied it


# ------------------------------------------------------------ scheduler
def test_adjacent_requests_coalesce_into_one_transfer():
    sim, disk, eng = build()
    done = []

    def reader(offset):
        yield eng.read("f", offset, PAGE)
        done.append(sim.now)

    sim.process(reader(0))
    sim.process(reader(PAGE))  # same instant, adjacent page
    sim.run()
    assert len(done) == 2
    assert eng.stats["coalesced"] == 1
    assert disk.requests == 1                 # one merged transfer
    assert disk.bytes_done == 2 * PAGE        # byte-equivalent to scalar
    assert done[0] == done[1]                 # both complete together


def test_coalescing_is_byte_equivalent_to_scalar():
    """However the scheduler merges a batch, the device sees the same
    total byte count as issuing each request alone."""
    sim, disk, eng = build(cache_pages=64)
    sizes = [PAGE, 2 * PAGE, PAGE, 3 * PAGE]
    offsets = [0, PAGE, 3 * PAGE, 8 * PAGE]  # mix of adjacent + gapped

    def reader(off, n):
        yield eng.read("f", off, n)

    for off, n in zip(offsets, sizes):
        sim.process(reader(off, n))
    sim.run()
    # Pages 0..3 merge into one run; 8..10 is its own.  7 pages total
    # were requested, and exactly 7 pages of transfer reach the media.
    assert disk.bytes_done == 7 * PAGE
    assert disk.requests < len(sizes)
    assert eng.stats["coalesced"] > 0


def test_priority_lane_serves_urgent_before_background():
    sim, disk, eng = build()
    order = []

    def issue():
        bg = eng._submit("f", 0, PAGE, False, urgent=False)
        fg = eng._submit("g", 0, PAGE, False, urgent=True)
        bg.add_callback(lambda _e: order.append("bg"))
        fg.add_callback(lambda _e: order.append("fg"))
        yield sim.all_of([bg, fg])

    run(sim, issue())
    assert order == ["fg", "bg"]  # urgent issued first despite arriving last


def test_merged_request_failure_fails_every_member():
    sim, disk, eng = build()
    disk.set_fault(DiskFaultState(rng=random.Random(1), error_rate=1.0))
    failures = []

    def reader(offset):
        try:
            yield eng.read("f", offset, PAGE)
        except DiskIOError:
            failures.append(offset)

    sim.process(reader(0))
    sim.process(reader(PAGE))
    sim.run()
    assert sorted(failures) == [0, PAGE]
    assert disk.bytes_failed == 2 * PAGE
    assert disk.bytes_done == 0


# ------------------------------------------------------------ durability
def test_writeback_ack_then_sync_flushes():
    sim, disk, eng = build()

    def proc():
        t0 = sim.now
        yield eng.write("f", 0, 2 * PAGE)
        assert sim.now - t0 == pytest.approx(2 * PAGE / MEMCPY_BPS)
        assert disk.requests == 0
        yield from eng.sync("f")
        assert eng.dirty_pages == 0
        assert disk.requests == 1             # adjacent pages: one transfer

    run(sim, proc())
    assert eng.stats["sync_flushes"] == 1
    assert disk.bytes_done == 2 * PAGE


def test_flush_error_redirties_pages():
    sim, disk, eng = build()

    def dirty():
        yield eng.write("f", 0, PAGE)

    run(sim, dirty())
    disk.set_fault(DiskFaultState(rng=random.Random(1), error_rate=1.0))

    def flush():
        yield from eng._flush_round()

    run(sim, flush())
    assert eng.stats["flush_errors"] == 1
    assert eng.dirty_pages == 1               # retried next round
    disk.clear_fault()

    def sync():
        yield from eng.sync("f")

    run(sim, sync())
    assert eng.dirty_pages == 0


def test_watermark_kicks_flusher_early():
    sim, disk, eng = build(cache_pages=8, dirty_watermark=0.25,
                           flush_interval=100.0)
    sim.process(eng.flush_loop())

    def proc():
        yield eng.write("f", 0, PAGE)         # 1/8 dirty: below watermark
        yield eng.write("f", PAGE, PAGE)      # 2/8 = 0.25: kicks
        yield sim.timeout(1.0)

    run(sim, proc())
    assert disk.requests >= 1                 # flushed long before 100 s
    assert eng.dirty_pages == 0


# ------------------------------------------------------------ crash plane
def test_crash_drops_dirty_pages_and_reports_lost_files():
    sim, disk, eng = build()

    def proc():
        yield eng.write("dirtyfile", 0, PAGE)
        yield eng.read("cleanfile", 0, PAGE)

    run(sim, proc())
    eng.on_crash()
    assert eng.cached_pages == 0
    assert eng.dirty_pages == 0
    lost = eng.take_lost()
    assert lost == {"dirtyfile"}              # clean pages are not "lost"
    assert eng.take_lost() == set()           # consumed once


def test_crash_clears_pending_scheduler_queue():
    sim, disk, eng = build()
    eng._submit("f", 0, PAGE, False, urgent=True)
    eng.on_crash()                            # before the unplug fires
    sim.run()
    assert disk.requests == 0                 # dead node issues no I/O


def test_crash_drops_uncommitted_but_never_committed_data():
    """The store-level contract: a crash with dirty cache loses shadows
    whose writes were acknowledged from cache, but committed versions
    synced before acking and always survive."""
    sim = Simulator()
    disk = Disk(sim, DISK_SPECS["cheetah-st373405"])
    fs = LocalFS(sim, disk)
    fs.engine = StorageEngine(sim, disk, page_size=PAGE,
                              cache_bytes=64 * PAGE)
    store = SegmentStore(sim, fs)

    def proc():
        yield from store.create(1, 1)
        yield from store.write(1, 1, 0, 2 * PAGE)
        yield from store.commit(1, 1)          # syncs the backing file
        yield from store.create_shadow(1, 1)
        yield from store.write(1, 2, 0, PAGE)  # acked from cache only

    run(sim, proc())
    assert fs.engine.dirty_pages > 0
    fs.engine.on_crash()
    dropped = [store.discard_lost(name) for name in sorted(fs.engine.take_lost())]
    assert dropped == [(1, 2)]
    assert store.get(1, 1) is not None        # committed data survived
    assert store.get(1, 2) is None            # uncommitted shadow gone
    assert fs.used == store.get(1, 1).allocated  # its blocks went with it


# ------------------------------------------------------ replay determinism
def run_engine_scenario(seed=11, n_clients=2, duration=3.0):
    """The perf-determinism scenario with the storage engine enabled."""
    from repro.experiments.common import cluster_a_like, sorrento_on
    from repro.workloads.smallfile import session_loop

    from tests.test_perf_determinism import metrics_digest

    dep = sorrento_on(cluster_a_like(n_storage=4, n_clients=n_clients),
                      n_providers=4, degree=2, seed=seed, warm=6.0,
                      cache_bytes=64 * MB)
    clients = dep.clients_on_compute(n_clients)
    dep.run(clients[0].mkdir("/tput"))
    counter = [0]
    for i, c in enumerate(clients):
        dep.sim.process(session_loop(c, f"c{i}", counter, duration))
    dep.sim.run(until=dep.sim.now + duration + 0.5)
    return {
        "clock": round(dep.sim.now, 9),
        "sessions": counter[0],
        "messages_sent": dep.fabric.messages_sent,
        "metrics_sha256": metrics_digest(dep.metrics),
        "nprocessed": dep.sim._nprocessed,
        "disk_absorbed": sum(p.node.fs.engine.stats["writes_absorbed"]
                             for p in dep.providers.values()),
    }


def test_engine_on_same_seed_replays_identically():
    a = run_engine_scenario()
    b = run_engine_scenario()
    assert a == b
    # The write-back path actually engaged (this workload is write-heavy;
    # each session's 12 KB write acks from cache, the commit syncs it).
    assert a["disk_absorbed"] > 0


def test_engine_on_differs_from_engine_off_golden():
    """Sanity: the engine is really in the loop — the metrics digest
    cannot match the raw-disk golden when caching changes disk timing."""
    from tests.test_perf_determinism import GOLDEN

    got = run_engine_scenario()
    assert got["metrics_sha256"] != GOLDEN["metrics_sha256"]
