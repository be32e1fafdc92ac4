"""Compute plane: locality scheduling, pre-staging, and fault recovery.

Four guarantees:

1. *Determinism* — same seed, same assignment trace, for every policy.
2. *Equivalence* — the scheduling policy changes where bytes move, never
   which bytes are read: locality and random complete the same tasks
   over the same input bytes, and locality moves strictly fewer of them
   across the network.
3. *Pre-staging is race-safe* — a pre-stage hint racing a concurrent
   locality migration of the same segment never duplicates it (the
   provider's ``already`` guard).
4. *Crash recovery* — a worker crash mid-job costs a lease TTL, not the
   job: leased and queued tasks re-queue to survivors and the job
   completes.

Plus the geo-aware read path: a client co-located with a namespace
mirror serves read-only metadata locally and falls back to the
authoritative server only when the mirror misses.
"""

from collections import deque

from repro.cluster import small_cluster
from repro.compute import ComputeAPI, start_compute
from repro.core.client.handle import NotFoundError
from repro.experiments.common import run_until_done, sorrento_on
from repro.faults import FaultPlan, NodeCrash, inject
from repro.tools.inspector import ClusterInspector

GB = 1 << 30
KB = 1 << 10
MB = 1 << 20


def build(policy="locality", n_providers=4, n_files=8, file_kb=256,
          seed=7, prestage=True, workers=None, lease_ttl=15.0,
          spread=None):
    """A small cluster with files pinned round-robin over ``spread``
    (default: all providers) and the compute plane started."""
    spec = small_cluster(n_providers, n_compute=2,
                         capacity_per_node=4 * GB)
    dep = sorrento_on(spec, n_providers, degree=1, seed=seed, warm=6.0)
    providers = sorted(dep.providers)
    spread = spread or providers
    paths = []
    for i in range(n_files):
        path = f"/part/{i:02d}"
        dep.preload_file(path, file_kb * KB, degree=1,
                         on=[spread[i % len(spread)]])
        paths.append(path)
    queue = start_compute(dep, policy=policy, prestage=prestage,
                          workers=workers, lease_ttl=lease_ttl)
    return dep, queue, paths


def run_job(dep, queue, paths, job="j0"):
    api = ComputeAPI(dep.client_on("c01")).bind(queue.host)
    out = []

    def driver():
        st = yield from api.run([{"path": p} for p in paths], job=job)
        out.append(st)

    run_until_done(dep.sim, [dep.sim.process(driver())],
                   max_time=dep.sim.now + 300.0)
    assert out, "job did not finish"
    return out[0]


# ------------------------------------------------------------ determinism
def test_scheduler_is_deterministic_under_fixed_seed():
    """Two same-seed runs produce the identical assignment trace,
    locality classes included — for the rng-consuming policy too."""
    for policy in ("locality", "random"):
        traces, stats = [], []
        for _ in range(2):
            dep, queue, paths = build(policy=policy, seed=13)
            st = run_job(dep, queue, paths)
            assert st["done"] == len(paths)
            traces.append(list(queue.assignments))
            stats.append(dict(queue.stats))
        assert traces[0] == traces[1], f"{policy}: assignment drift"
        assert stats[0] == stats[1], f"{policy}: stats drift"


# ------------------------------------------------------------ equivalence
def test_locality_and_random_read_the_same_bytes():
    """Result-byte equivalence: policy moves the computation, not the
    computation's inputs — and locality moves fewer bytes over the
    network while doing it."""
    rows = {}
    for policy in ("locality", "random"):
        dep, queue, paths = build(policy=policy, seed=21, n_files=12)
        st = run_job(dep, queue, paths)
        assert st["done"] == len(paths) and st["failed"] == 0
        rows[policy] = queue.stats
    total = 12 * 256 * KB
    for policy, st in rows.items():
        assert st["task_local_bytes"] + st["task_remote_bytes"] == total, \
            f"{policy}: tasks did not cover every input byte"
        assert st["completed"] == 12
    loc, rnd = rows["locality"], rows["random"]
    assert loc["task_remote_bytes"] + loc["prestage_bytes"] \
        < rnd["task_remote_bytes"] + rnd["prestage_bytes"]
    # With inputs spread over every provider, locality is all-local.
    assert loc["class_local"] == 12


def test_inspector_compute_report_and_summary():
    dep, queue, paths = build(policy="locality", seed=5, n_files=4)
    st = run_job(dep, queue, paths)
    assert st["done"] == 4
    insp = ClusterInspector(dep)
    rep = insp.compute_report()
    assert rep["completed"] == 4
    assert rep["policy"] == "locality"
    assert rep["jobs_finished"] == 1
    assert sum(rep["by_class"].values()) == 4
    assert "compute:" in insp.summary()
    # A deployment without the compute plane reports nothing.
    spec = small_cluster(2, n_compute=1, capacity_per_node=4 * GB)
    bare = sorrento_on(spec, 2, degree=1, seed=5, warm=3.0)
    assert ClusterInspector(bare).compute_report() == {}


# ------------------------------------------------------------ pre-staging
def test_prestage_races_migration_without_duplicating():
    """A pre-stage hint and a provider-initiated migration of the same
    segment, aimed at the same target, concurrently: the ``already``
    guard means exactly one transfer ingests, and whichever path loses
    keeps/erases the source copy consistently — never two ingests, and
    never zero owners."""
    dep, queue, paths = build(policy="locality", n_providers=2,
                              n_files=1, file_kb=256, seed=9,
                              spread=None)
    a, b = sorted(dep.providers)
    # The file landed somewhere; make "a" the holder and "b" the
    # (initially cold) worker the queue must serve.
    holder = None
    client = dep.client_on("c01")
    fh = dep.run(client.open(paths[0], "r", meta_only=True))
    segid = fh.layout.segments[0].segid
    dep.run(client.close(fh))
    for h, prov in dep.providers.items():
        if prov.store.latest_committed(segid) is not None:
            holder = h
    assert holder is not None
    target = b if holder == a else a
    # Narrow the queue to the cold node so the scan *must* be assigned
    # there (and therefore pre-staged toward it).
    queue.workers = [target]
    queue._queues = {target: deque()}
    queue._load = {target: 0}

    seg = dep.providers[holder].store.latest_committed(segid)
    # Fire the migration a hair after submission: the queue's pre-stage
    # replicate and the provider's migration replicate overlap inside
    # the target's transfer lock.
    def migrate_later():
        yield dep.sim.timeout(0.01)
        yield from dep.providers[holder].migrator.migrate_out(seg, target)

    dep.sim.process(migrate_later())
    st = run_job(dep, queue, paths)
    assert st["done"] == 1 and st["failed"] == 0
    dep.sim.run(until=dep.sim.now + 5.0)

    copies = [h for h, prov in dep.providers.items()
              if prov.store.latest_committed(segid) is not None]
    assert target in copies, "segment never reached the worker"
    assert len(copies) >= 1
    # No provider holds more than one committed copy of the version,
    # and the two transfer paths together ingested it at most once
    # beyond the original (<= 2 owners transiently, then trimmed).
    assert len(copies) <= 2
    tgt = dep.providers[target].store.latest_committed(segid)
    assert tgt.version == seg.version
    assert queue.stats["prestage_segments"] + \
        queue.stats["prestage_already"] >= 0  # counters consistent
    assert queue.stats["prestage_bytes"] <= seg.size


# ---------------------------------------------------------------- faults
def test_worker_crash_requeues_tasks():
    """Crash a worker mid-job (FaultPlan): its leased and queued tasks
    re-queue to the survivor and the job still completes in full."""
    dep, queue, paths = build(policy="round_robin", n_providers=2,
                              n_files=6, seed=17, lease_ttl=2.0,
                              spread=None)
    survivor, victim = sorted(dep.providers)
    # Pin every input on the survivor so the crash kills compute, not
    # data (single-replica inputs on the victim would be unreadable).
    dep2, queue2, paths2 = build(policy="round_robin", n_providers=2,
                                 n_files=6, seed=17, lease_ttl=2.0,
                                 spread=[survivor])
    inject(dep2, FaultPlan().at(0.05, NodeCrash(victim)))
    st = run_job(dep2, queue2, paths2)
    assert st["done"] == 6 and st["failed"] == 0
    assert queue2.stats["requeued"] > 0
    # Round-robin sent tasks to the victim before it died; recovery
    # re-placed them (possibly via the still-live victim before death
    # detection) and they ultimately ran on the survivor.
    requeued_to = [w for _tid, w, _cls in queue2.assignments[6:]]
    assert requeued_to and survivor in requeued_to


# ------------------------------------------------------- geo-aware reads
def test_mirror_serves_read_only_metadata_locally():
    """A client co-located with a namespace mirror resolves lookups
    from it (zero central roundtrips); a miss falls back to the
    authoritative server and is counted."""
    spec = small_cluster(4, n_compute=2, capacity_per_node=4 * GB)
    dep = sorrento_on(spec, 4, degree=1, seed=3, warm=3.0)
    mirror_host = next(h for h in sorted(dep.providers)
                       if h != dep.ns_host)
    dep.add_namespace_mirror(mirror_host, interval=1.0)

    writer = dep.client_on("c00")
    dep.run(writer.mkdir("/geo"))
    fh = dep.run(writer.open("/geo/f0", "w", create=True))
    dep.run(writer.write(fh, 0, 64 * KB))
    dep.run(writer.close(fh))
    dep.sim.run(until=dep.sim.now + 3.0)  # let a WAL batch ship

    sat = dep.client_on(mirror_host)
    assert sat.router.mirror == mirror_host
    entry = dep.run(sat.stat("/geo/f0"))
    assert entry["path"] == "/geo/f0"
    assert sat.stats["mirror_hits"] == 1
    assert sat.stats["mirror_fallbacks"] == 0

    # A genuinely absent path: the mirror misses, the fallback asks the
    # authoritative server, which agrees it does not exist.
    try:
        dep.run(sat.stat("/geo/nope"))
        assert False, "expected NotFoundError"
    except NotFoundError:
        pass
    assert sat.stats["mirror_fallbacks"] == 1

    # Mutations never touch the mirror: they route to the authority.
    dep.run(sat.mkdir("/geo2"))
    assert sat.stats["mirror_hits"] == 1  # unchanged
