"""Tests for trace format, replay engine, and workload generators."""

import random

import pytest

from repro.baselines import NFSDeployment
from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.workloads import Trace, TraceRecord, replay
from repro.workloads import btio, crawler, psm
from repro.workloads.bulk import populate, run_bulk

MB = 1 << 20


def deploy(n_storage=4, **over):
    dep = SorrentoDeployment(
        small_cluster(n_storage, n_compute=4, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(**over), seed=3),
    )
    dep.warm_up()
    return dep


# --------------------------------------------------------------- traces
def test_trace_record_validates_op():
    with pytest.raises(ValueError):
        TraceRecord(t=0, op="frobnicate")


def test_trace_accumulators():
    tr = Trace("t")
    tr.add("open", path="/f", mode="w", create=True)
    tr.add("write", path="/f", size=100)
    tr.add("read", path="/f", size=40)
    tr.add("close", path="/f")
    assert tr.bytes_written == 100
    assert tr.bytes_read == 40
    assert len(tr) == 4


def test_replay_asap_runs_trace():
    dep = deploy()
    client = dep.client_on("c00")
    tr = Trace("t")
    tr.add("open", path="/r", mode="w", create=True)
    for i in range(4):
        tr.add("write", path="/r", offset=i * 1024, size=1024)
    tr.add("close", path="/r")
    stats = dep.run(replay(client, tr, mode="asap"))
    assert stats.errors == 0
    assert stats.bytes_written == 4096
    assert stats.elapsed > 0


def test_replay_paced_honours_gaps():
    dep = deploy()
    client = dep.client_on("c00")
    tr = Trace("t")
    tr.add("open", t=0.0, path="/p", mode="w", create=True)
    tr.add("write", t=10.0, path="/p", size=1024)
    tr.add("close", t=10.0, path="/p")
    stats = dep.run(replay(client, tr, mode="paced"))
    assert stats.elapsed >= 10.0


def test_replay_query_mode_records_io_times():
    dep = deploy()
    client = dep.client_on("c00")
    dep.preload_file("/q", 8 * MB)
    tr = Trace("t")
    tr.add("open", path="/q", mode="r")
    for q in range(3):
        tr.add("query_start")
        tr.add("read", path="/q", offset=q * MB, size=MB)
        tr.add("query_end", dur=0.5)
    tr.add("close", path="/q")
    stats = dep.run(replay(client, tr, mode="query"))
    assert len(stats.query_io_times) == 3
    assert all(io > 0 for _, io in stats.query_io_times)


def test_replay_thinks_and_unlinks():
    dep = deploy()
    client = dep.client_on("c00")
    tr = Trace("t")
    tr.add("open", path="/u", mode="w", create=True)
    tr.add("write", path="/u", size=4096)
    tr.add("close", path="/u")
    tr.add("think", dur=2.0)
    tr.add("unlink", path="/u")
    stats = dep.run(replay(client, tr, mode="asap"))
    assert stats.errors == 0
    assert stats.requests == 4            # a think is not a request
    assert stats.elapsed >= 2.0
    assert "u" not in dep.run(client.listdir("/"))


def test_replay_runs_on_nfs():
    """The same hand-built trace drives a baseline's client stub."""
    nfs = NFSDeployment(small_cluster(1, n_compute=2), seed=0)
    nfs.warm_up()
    tr = Trace("t")
    tr.add("open", path="/n", mode="w", create=True)
    tr.add("write", path="/n", size=16 * 1024, sequential=True)
    tr.add("close", path="/n")
    tr.add("open", path="/n", mode="r")
    tr.add("read", path="/n", size=4096)
    tr.add("close", path="/n")
    tr.add("unlink", path="/n")
    stats = nfs.run(replay(nfs.client_on("c00"), tr, mode="asap"))
    assert stats.errors == 0
    assert (stats.bytes_written, stats.bytes_read) == (16 * 1024, 4096)


def test_replay_counts_errors_not_raises():
    dep = deploy()
    client = dep.client_on("c00")
    tr = Trace("t")
    tr.add("open", path="/missing", mode="r")
    stats = dep.run(replay(client, tr))
    assert stats.errors == 1


# -------------------------------------------------------------- preload
def test_preload_file_readable():
    dep = deploy()
    dep.preload_file("/pre", 3 * MB, degree=2)
    client = dep.client_on("c00")

    def proc():
        fh = yield from client.open("/pre", "r")
        data = yield from client.read(fh, MB - 10, 20)
        return fh.size, data

    size, data = dep.run(proc())
    assert size == 3 * MB
    assert data is None  # synthetic content


def test_preload_respects_degree():
    dep = deploy()
    dep.preload_file("/d2", 2 * MB, degree=2)
    counts = []
    for p in dep.providers.values():
        counts.append(len(p.store.committed_segments()))
    # 2 data segments + 1 index, twice each = 6 stored segments.
    assert sum(counts) == 6


def test_preload_accounts_space():
    dep = deploy()
    dep.preload_file("/sp", 4 * MB, degree=1)
    used = sum(p.node.fs.used for p in dep.providers.values())
    assert used >= 4 * MB


# ------------------------------------------------------------------ bulk
def test_bulk_run_measures_rate():
    dep = deploy()
    paths = populate(dep, n_files=4, file_size=16 * MB)
    rate = run_bulk(dep, 2, write=False, paths=paths, file_size=16 * MB,
                    per_client_bytes=16 * MB)
    assert rate > 1.0  # MB/s


# ------------------------------------------------------------------ BTIO
def test_btio_traces_match_paper_volumes():
    traces = btio.make_traces(n_procs=4, scale=1.0)
    written = sum(t.bytes_written for t in traces)
    read = sum(t.bytes_read for t in traces)
    assert written == pytest.approx(btio.TOTAL_WRITE, rel=0.05)
    assert read == pytest.approx(btio.TOTAL_READ, rel=0.05)


def test_btio_scaling_preserves_request_sizes():
    """Scaled-down BTIO must shrink volume, not request granularity —
    otherwise it exercises a different I/O regime."""
    full = btio.make_traces(n_procs=4, scale=1.0)
    small = btio.make_traces(n_procs=4, scale=0.02)
    full_chunks = {r.size for t in full for r in t if r.op == "write"}
    small_chunks = {r.size for t in small for r in t if r.op == "write"}
    assert max(small_chunks) == max(full_chunks)
    # Volume shrinks ~50x.
    small_vol = sum(t.bytes_written for t in small)
    assert small_vol == pytest.approx(btio.TOTAL_WRITE * 0.02, rel=0.2)


def test_btio_offsets_stay_in_bounds():
    for scale in (1.0, 0.05, 0.01):
        traces = btio.make_traces(n_procs=4, scale=scale)
        size = int(btio.TOTAL_WRITE * scale)
        for t in traces:
            for r in t:
                if r.op in ("read", "write"):
                    assert 0 <= r.offset
                    assert r.offset + r.size <= size, (scale, r.offset, r.size)


def test_btio_replay_smoke():
    dep = deploy()
    btio.create_shared_file(dep, scale=0.002)
    traces = btio.make_traces(n_procs=2, scale=0.002)
    clients = dep.clients_on_compute(2)
    procs = [dep.sim.process(replay(c, t)) for c, t in zip(clients, traces)]
    dep.sim.run(until=dep.sim.now + 300)
    assert all(p.triggered for p in procs)
    for p in procs:
        assert p.value.errors == 0


def test_btio_shared_file_sets_up_on_a_baseline():
    """Fig. 12 sets the shared file up on NFS and PVFS too, whose preload
    stores no namespace entry to mark unversioned."""
    nfs = NFSDeployment(small_cluster(1, n_compute=2), seed=0)
    nfs.warm_up()
    btio.create_shared_file(nfs, scale=0.002)
    trace = btio.make_traces(n_procs=1, scale=0.002)[0]
    assert nfs.run(replay(nfs.client_on("c00"), trace)).errors == 0


def test_btio_shared_file_is_unversioned_on_whichever_shard_owns_it():
    """The versioning=False patch lands on the shard the path hashes to
    (it used to be written into shard 0's DB whatever the path)."""
    dep = SorrentoDeployment(
        small_cluster(4, n_compute=1, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(), seed=3, namespace_shards=2),
    )
    dep.warm_up()
    client = dep.client_on("c00")
    paths = {}
    for i in range(40):
        path = f"/btio{i}/solution"
        paths.setdefault(dep.namespace_for(path).shard_name, path)
    assert len(paths) == 2
    for path in paths.values():
        btio.create_shared_file(dep, path=path, scale=0.002)
        assert dep.run(client.stat(path))["versioning"] is False
    assert dep.ns.db.get("f:" + paths[dep.provider_names[1]]) is None


# ------------------------------------------------------------------- PSM
def test_psm_partitions_and_assignment():
    sizes = psm.partition_sizes(scale=1.0)
    assert len(sizes) == 24
    assert all(psm.PART_MIN <= s <= psm.PART_MAX for s in sizes)
    asg = psm.assignments()
    flat = [i for parts in asg for i in parts]
    assert sorted(flat) == list(range(24))  # disjoint, complete


def test_psm_traces_read_only():
    sizes = psm.partition_sizes(scale=0.01)
    traces = psm.make_traces(sizes, n_queries=2, scan_fraction=0.1)
    assert len(traces) == 8
    assert all(t.bytes_written == 0 for t in traces)
    assert all(t.bytes_read > 0 for t in traces)


def test_psm_replay_smoke():
    dep = deploy()
    sizes = psm.partition_sizes(scale=0.004)
    psm.populate(dep, sizes)
    traces = psm.make_traces(sizes, n_queries=1, scan_fraction=0.05)
    clients = dep.clients_on_compute(8)
    procs = [dep.sim.process(replay(c, t)) for c, t in zip(clients, traces)]
    dep.sim.run(until=dep.sim.now + 600)
    assert all(p.triggered for p in procs)
    assert all(p.value.errors == 0 for p in procs)


# --------------------------------------------------------------- crawler
def test_crawler_plans_are_skewed():
    plans = crawler.make_plans(n_crawlers=50, total_bytes=512 * MB)
    assert len(plans) == 50
    page_counts = [n for p in plans for n in p.domain_pages]
    assert max(page_counts) > 50 * min(page_counts)  # heavy tail
    speeds = sorted(p.pages_per_second for p in plans)
    assert speeds[-3] > 5 * speeds[2]  # >~10x spread paper property


def test_crawler_total_volume_close_to_target():
    target = 512 * MB
    plans = crawler.make_plans(n_crawlers=20, total_bytes=target)
    total = sum(p.total_bytes for p in plans)
    assert total == pytest.approx(target, rel=0.2)


def test_crawler_proc_appends():
    dep = deploy()
    client = dep.client_on("s00")
    dep.run(client.mkdir("/crawl"))
    plans = crawler.make_plans(n_crawlers=1, domains_per_crawler=2,
                               total_bytes=2 * MB)
    rng = random.Random(1)
    proc = dep.sim.process(
        crawler.crawler_proc(client, plans[0], duration=3600, rng=rng))
    dep.sim.run(until=dep.sim.now + 3600)
    assert proc.triggered
    stored = dep.total_bytes_stored()
    assert stored >= plans[0].total_bytes * 0.9
