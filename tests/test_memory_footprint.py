"""Host memory per stored file, as a deterministic regression.

What one planted and one created 12 KB file keep alive on the host,
counted by ``tracemalloc`` (allocated bytes still live, no wall clock,
no RSS): the figures ``scale_1000``'s memory budget is made of
(docs/performance.md § Memory per stored file).
"""

import gc
import tracemalloc

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.locality import AccessHistory
from repro.core.params import SorrentoParams

KB = 1 << 10


def deploy():
    dep = SorrentoDeployment(
        small_cluster(8, n_compute=2),
        SorrentoConfig(params=SorrentoParams(default_degree=2), seed=5))
    dep.warm_up()
    return dep


def live_growth(fn) -> int:
    """Traced bytes allocated by ``fn()`` and still live after it."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def test_planted_file_footprint():
    """2 000 × 12 KB at degree 2 on 8 providers (a data segment and an
    index segment per file, two replicas of each, their location rows
    and the namespace entry): 2.56 KB per file.  It was 3.6 KB while
    each replica also kept its file name string, a ``_File`` in
    ``LocalFS.files``, a ``_Family`` and its one-version list; 4.8 KB
    when every replica built its own full-extent ``RangeMap`` and the
    namespace stored each entry as a dict; and 6.7 KB when
    ``StoredSegment`` / ``RangeMap`` / ``_File`` / ``OwnerRecord``
    carried a ``__dict__`` and ``SegmentStore`` kept five dicts keyed by
    ``(segid, version)`` tuples."""
    dep = deploy()
    n = 2000
    files = [(f"/p/{i:05d}", 12 * KB) for i in range(n)]
    grown = live_growth(lambda: dep.preload_files(files, degree=2))
    assert grown / n <= 2700


def test_logged_segment_footprint():
    """1 000 segments with one access each in a provider's access log
    (the tracker keeps up to a thousand): 205 B per segment, its LRU
    slot, its one-entry list and the entry.  It was 901 B when each
    segment's log was a ``deque(maxlen=1000)``, a 64-slot block from
    the first access."""
    segids = [(1 << 100) + i for i in range(1000)]
    history = AccessHistory()

    def log_once():
        for segid in segids:
            history.record(segid, "c00", 4096)

    grown = live_growth(log_once)
    assert len(history) == len(segids)
    assert grown / len(segids) <= 230


def test_created_size_only_file_footprint():
    """200 size-only create + write 12 KB + close sessions through a real
    client at degree 2, replication settled: 6.2 KB per session.  It was
    19.4 KB when every size-only attached write built 12 KB of zeros that
    then lived in both index replicas and the client's meta cache."""
    dep = deploy()
    client = dep.client_on("c00")
    dep.run(client.mkdir("/w"))
    n = 200

    def sessions():
        def gen():
            for i in range(n):
                fh = yield from client.open(f"/w/{i:04d}", "w", create=True)
                yield from client.write(fh, 0, 12 * KB)
                yield from client.close(fh)

        dep.run(gen())
        dep.sim.run(until=dep.sim.now + 60)   # lazy replication to degree 2

    grown = live_growth(sessions)
    assert grown / n <= 8 * KB
    index_segments = [seg for p in dep.providers.values()
                      for seg in p.store.committed_segments() if seg.meta]
    assert len(index_segments) == 2 * n
    for seg in index_segments:
        assert seg.meta["attached_len"] == 12 * KB
        assert not any(isinstance(v, bytes) and len(v) >= 4 * KB
                       for v in seg.meta.values())
