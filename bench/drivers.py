"""The load generators: seven workloads, every input drawn from ``--seed``.

The bench owns the load.  These drivers import the deployment API and
the client ops (``open/read/write/commit/close/create/stat/mkdir``) but
none of the op loops under ``repro.workloads``, ``repro.bench`` or
``repro.experiments`` — a later PR that edits those must not change what
is measured here.  Parameters are library defaults except the overrides
each builder names, so a PR that flips a default is measured as what
users get.

A builder does the whole set-up (deployment, warm-up, preload, client
stubs, directories) and returns a :class:`Load`; the worker then times
``Load.phases`` — and nothing else — as the measured window.

Closed loop is the rule (the paper's clients are parallel-application
processes that wait for each reply); ``scale_open`` is the one open-loop
workload and times each session from its scheduled arrival.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import NodeSpec, small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client.handle import SorrentoError
from repro.core.params import SorrentoParams
from repro.experiments.common import (
    cluster_a_like,
    cluster_b_like,
    run_until_done,
)
from repro.experiments.partitioned import partition_for_spec
from repro.experiments.scale_model import scale_params
from repro.experiments.tiered import tiered_cluster
from repro.faults import FaultPlan, NodeCrash, inject, recovery_metrics
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.sim.parallel import run_partitioned

import layers

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30

SMALL_IO = 12 * KB
BULK_REQUEST = 4 * MB
BULK_ALIGN = 4 * KB
RETRY_BACKOFF = 0.2
RETRY_ATTEMPTS = 50

#: What a client op can legitimately raise; anything else is a bug in the
#: bench or the program and must crash the worker.
OP_ERRORS = (SorrentoError, RpcTimeout, RpcRemoteError)

#: Closed-loop clients start within this many simulated seconds of the
#: window start (seed-drawn), so no two seeds see the same interleaving.
STAGGER = 0.05

#: Per-workload sizes.  ``full`` is tuned so one measured window is about
#: 2.5-3 s of host time on the 2-core reference box; ``smoke`` runs the
#: same code paths in well under a second for ``test_spine.py``.
SIZES: Dict[str, Dict[str, dict]] = {
    "smallfile_write": {
        "full": dict(clients=12, sessions=230),
        "smoke": dict(clients=4, sessions=20),
    },
    "smallfile_read": {
        "full": dict(clients=4, sessions=1200, warm_sessions=500, files=5_000,
                     cache_kb=8 * 1024),
        "smoke": dict(clients=2, sessions=30, warm_sessions=10, files=200,
                      cache_kb=512),
    },
    "bulk_rw": {
        "full": dict(clients=8, reads=896, writes=7, file_mb=512),
        "smoke": dict(clients=2, reads=6, writes=3, file_mb=64),
    },
    "md_sharded": {
        "full": dict(clients=32, iterations=250),
        "smoke": dict(clients=8, iterations=12),
    },
    "scale_open": {
        "full": dict(providers=120, files=6_400, sessions=2_000, sim_s=10.0),
        "smoke": dict(providers=20, files=640, sessions=120, sim_s=3.0),
    },
    "crash_repair": {
        "full": dict(sim_s=400.0, fail_at=30.0, join_at=45.0, files=20,
                     file_mb=51),
        "smoke": dict(sim_s=60.0, fail_at=10.0, join_at=15.0, files=10,
                      file_mb=16),
    },
    "smallfile_write_mp2": {
        "full": dict(clients=12, sessions=150, sim_s_max=14.0),
        "smoke": dict(clients=4, sessions=10, sim_s_max=4.0),
    },
}


# ------------------------------------------------------------- recording
class Recorder:
    """Per-op bookkeeping shared by every driver.

    An *op* is what the workload table says it is (a session, one 4 MB
    request, one create or stat).  ``attempts``/``raised`` count every
    issue of an op and every one that raised; ``failed`` counts ops the
    driver gave up on.  Latency is simulated time from when the op was
    due (its first issue, or its scheduled arrival) to its completion.
    """

    def __init__(self, dep):
        self.sim = dep.sim
        self.tracer = dep.tracer
        self.fold = layers.SpanFold(dep.tracer) if dep.tracer else None
        self.lat: List[float] = []
        self.done_at: List[Tuple[float, int]] = []   # (sim time, bytes)
        self.attempts = 0
        self.raised = 0
        self.failed = 0
        self.payload = 0
        self.short_reads = 0

    def op(self, cls: str, gen_factory: Callable[[], object],
           nbytes: int = 0, due: Optional[float] = None,
           max_attempts: int = 1, backoff: float = 0.0):
        """Generator: run one op (re-issuing it up to ``max_attempts``
        times), record its latency, and wrap each issue in an ``op:<cls>``
        span so the ``rpc:*`` spans it causes parent under it."""
        sim, tracer = self.sim, self.tracer
        t_due = sim.now if due is None else due
        for _ in range(max_attempts):
            self.attempts += 1
            span = tracer.start(f"op:{cls}") if tracer else None
            try:
                yield from gen_factory()
            except OP_ERRORS as exc:
                self.raised += 1
                if span is not None:
                    tracer.finish(span, status=type(exc).__name__)
                    self.fold.drain()
                if backoff:
                    yield sim.timeout(backoff)
                continue
            if span is not None:
                tracer.finish(span)
                self.fold.drain()
            self.lat.append(sim.now - t_due)
            self.payload += nbytes
            self.done_at.append((sim.now, nbytes))
            return True
        self.failed += 1
        return False

    def check_read(self, data, want: int) -> None:
        """Reads return ``None`` for synthetic (preloaded or size-only)
        content, else exactly the bytes requested."""
        if data is not None and len(data) != want:
            self.short_reads += 1

    @property
    def ops(self) -> int:
        return len(self.lat)


@dataclass
class Load:
    """A built, warmed, preloaded deployment plus its measured phases."""

    dep: SorrentoDeployment
    rec: Recorder
    #: Each phase starts its sim processes and returns them; the worker
    #: runs the phases to completion in order, and that is the window.
    phases: List[Callable[[], list]]
    #: Simulated seconds to run after the window, untimed, before the
    #: correctness gate (lazy replica propagation must have finished).
    settle: float = 30.0
    #: Workload extras computed after the window from the phase
    #: boundaries (per-phase MB/s, recovery metrics) and, on the repeat
    #: that runs the full gate, the cluster inspector.
    extras: Optional[Callable[[List[float], object], Dict[str, float]]] = None
    #: Simulated time the window may not exceed (deadlock guard).
    sim_limit: float = 3600.0
    fault_expected: int = 0
    #: Ops may raise and be re-issued (bulk clients); elsewhere a raise
    #: fails the gate.
    raises_expected: bool = False
    #: Replicas may still trail the committed version after ``settle``:
    #: lazy propagation of 4 MB updates is bandwidth-capped and takes
    #: tens of simulated minutes to drain after a bulk write phase.
    lagging_replicas_ok: bool = False
    notes: Dict[str, object] = field(default_factory=dict)


def _closed_loop(rec: Recorder, cls: str, sim, make_op, n_ops: int,
                 stagger: float, nbytes: int = SMALL_IO):
    """One closed-loop client: issue the next op when the last returns.
    A fixed op count (not a deadline) keeps the work identical across
    seeds and commits; the simulated window is whatever it takes."""
    yield sim.timeout(stagger)
    for k in range(n_ops):
        yield from rec.op(cls, make_op(k), nbytes=nbytes)


def _zipf_cum(n: int, s: float) -> List[float]:
    total, cum = 0.0, []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** s
        cum.append(total)
    return cum


def _sorrento(spec, n_providers: int, degree: int, seed: int, trace: bool,
              warm: float = 8.0, **overrides) -> SorrentoDeployment:
    """Sorrento-(n, r) on a cluster spec, warmed up: what
    ``experiments.common.sorrento_on`` builds, plus the trace switch."""
    dep = SorrentoDeployment(spec, SorrentoConfig(
        seed=seed, trace=trace, n_providers=n_providers,
        params=SorrentoParams(default_degree=degree, **overrides)))
    dep.warm_up(warm)
    return dep


# -------------------------------------------------------- smallfile_write
def _write_session(client, path: str):
    fh = yield from client.open(path, "w", create=True)
    yield from client.write(fh, 0, SMALL_IO)
    yield from client.close(fh)


def _spawn_write_sessions(dep, rec, clients, seed: int, n_ops: int) -> list:
    """Figure 10's load: every client loops create + write 12 KB + close.
    All seed draws happen for every client (partition workers must stay
    draw-aligned); processes start only for clients this worker owns
    (a serial deployment has no dormant nodes and owns them all)."""
    rng = random.Random(f"smallfile_write:{seed}")
    run_tag = f"{rng.getrandbits(32):08x}"
    procs = []
    for i, client in enumerate(clients):
        stagger = rng.random() * STAGGER
        if client.node.dormant:
            continue

        def make_op(k, client=client, i=i):
            path = f"/w/{run_tag}-c{i:02d}-{k:06d}"
            return lambda: _write_session(client, path)

        procs.append(dep.sim.process(_closed_loop(
            rec, "session", dep.sim, make_op, n_ops, stagger)))
    return procs


#: Both ``smallfile_write`` twins run with migration rounds an hour apart.
#: At the default minute, a round in the untimed settle period can move a
#: 25 s old segment at the instant its home host checks its degree: the
#: home sees the old and the new holder, orders no second replica, the old
#: holder then erases its copy, and the segment stays one replica short
#: until the next refresh cycle (15 min).  About one run in a hundred
#: failed the replica gate that way (``smallfile_write_mp2``, seed 9).
WRITE_TWIN_OVERRIDES = dict(migration_interval=3600.0)


def build_smallfile_write(seed: int, size: dict, trace: bool) -> Load:
    n = size["clients"]
    dep = _sorrento(cluster_a_like(n_storage=8, n_clients=n), 8, 2, seed,
                    trace, **WRITE_TWIN_OVERRIDES)
    clients = dep.clients_on_compute(n)
    dep.run(clients[0].mkdir("/w"))
    rec = Recorder(dep)
    return Load(dep, rec, [lambda: _spawn_write_sessions(
        dep, rec, clients, seed, size["sessions"])])


# --------------------------------------------------------- smallfile_read
def _read_session(rec: Recorder, client, path: str):
    fh = yield from client.open(path, "r")
    data = yield from client.read(fh, 0, SMALL_IO)
    rec.check_read(data, SMALL_IO)
    yield from client.close(fh)


def build_smallfile_read(seed: int, size: dict, trace: bool) -> Load:
    n, n_files = size["clients"], size["files"]
    # Page cache on and 5x smaller than the replicas a provider holds
    # (40 MB of 16 KB pages against 8 MB), so the Zipf head fits and
    # the tail does not.  Four clients, not twelve: a closed loop drives
    # its bottleneck to saturation, here the disk under whichever
    # provider holds the most misses, and a saturated random bottleneck
    # makes every simulated metric chaotic in the seed (IQR 5-14 %).
    dep = _sorrento(cluster_a_like(n_storage=8, n_clients=n), 8, 2, seed,
                    trace, cache_bytes=size["cache_kb"] * KB, writeback=True)
    rng = random.Random(f"smallfile_read:{seed}")
    run_tag = f"{rng.getrandbits(32):08x}"
    paths = [f"/r/{run_tag}-{i:06d}" for i in range(n_files)]
    dep.preload_files(((p, SMALL_IO) for p in paths), degree=2)
    rng.shuffle(paths)          # popularity rank -> file, per seed
    cum = _zipf_cum(n_files, 1.0)
    clients = dep.clients_on_compute(n)
    rngs = [random.Random(f"smallfile_read:{seed}:{i}") for i in range(n)]

    def sessions(rec: Recorder, count: int):
        procs = []
        for client, crng in zip(clients, rngs):

            def make_op(_k, client=client, crng=crng):
                path = crng.choices(paths, cum_weights=cum)[0]
                return lambda: _read_session(rec, client, path)

            procs.append(dep.sim.process(_closed_loop(
                rec, "session", dep.sim, make_op, count,
                crng.random() * STAGGER)))
        return procs

    # Fill the page caches and the clients' location/meta caches before
    # the window: the first touch of every file is a miss whatever the
    # code does, and a window that is mostly first touches measures the
    # disk, not the caches.
    run_until_done(dep.sim, sessions(Recorder(dep), size["warm_sessions"]))
    rec = Recorder(dep)
    return Load(dep, rec, [lambda: sessions(rec, size["sessions"])])


# ---------------------------------------------------------------- bulk_rw
def _bulk_offset(rng: random.Random, file_size: int) -> int:
    """A 4 KB-aligned offset that leaves room for the largest request."""
    room = file_size - BULK_REQUEST - 128 * BULK_ALIGN
    return rng.randrange(max(1, room // BULK_ALIGN)) * BULK_ALIGN


def _bulk_op(rec: Recorder, client, handles: dict, path: str,
             off: int, write: bool, nbytes: int = BULK_REQUEST):
    """One ``nbytes`` (4 MB) request at ``off`` of ``path`` — one op.
    A request that raises (a commit conflict while the previous commit
    still propagates, a 5 s deadline on a saturated link, an owner that
    just died) is re-issued after a short back-off on a fresh handle,
    like the paper's bulk clients; its latency runs from first issue to
    success, so every stall shows in the percentiles."""

    def attempt():
        fh = handles.get((path, write))
        try:
            if fh is None:
                fh = handles[path, write] = yield from client.open(
                    path, "w" if write else "r")
            if write:
                yield from client.write(fh, off, nbytes)
                # Each request is an independent update: committing it
                # exercises the version scheme and replica propagation.
                yield from client.commit(fh)
            else:
                data = yield from client.read(fh, off, nbytes)
                rec.check_read(data, nbytes)
        except OP_ERRORS:
            handles.pop((path, write), None)
            raise

    yield from rec.op("write" if write else "read", attempt,
                      nbytes=nbytes, max_attempts=RETRY_ATTEMPTS,
                      backoff=RETRY_BACKOFF)


def _bulk_mover(rec: Recorder, client, path: str, n_req: int, write: bool,
                rng: random.Random, file_size: int):
    """Move ``n_req`` requests against one file.

    Reads land at random offsets.  Each write lands in a *different*
    segment of the file: re-writing a segment whose previous commit is
    still propagating lazily is refused ("already shadowed"), and at
    HEAD that refusal outlives the retry budget, so a bulk writer that
    draws offsets with replacement has ops that never complete."""
    yield client.sim.timeout(rng.random() * STAGGER)
    handles: Dict[Tuple[str, bool], object] = {}
    if write:
        fh = handles[path, True] = yield from client.open(path, "w")
        starts, at = [], 0
        for ref in fh.layout.segments:
            if ref.size >= BULK_REQUEST:
                starts.append((at, ref.size))
            at += ref.size
        offsets = [start + _bulk_offset(rng, seg_size)
                   for start, seg_size in rng.sample(starts, n_req)]
    else:
        offsets = [_bulk_offset(rng, file_size) for _ in range(n_req)]
    for off in offsets:
        yield from _bulk_op(rec, client, handles, path, off, write)
    for fh in handles.values():
        yield from client.close(fh)


def build_bulk_rw(seed: int, size: dict, trace: bool) -> Load:
    n = size["clients"]
    file_size = size["file_mb"] * MB
    # Hot-migration rounds (one a minute by default) push 64 MB segments
    # through the NICs the clients read from; two to four reads per run
    # then miss the 5 s RPC deadline, and how many is chaotic in the
    # seed (sim_ops_per_s IQR 10 % across seeds).  crash_repair keeps
    # the default and is where migration shows.
    dep = _sorrento(cluster_b_like(n_storage=8, n_clients=n), 8, 2, seed,
                    trace, migration_interval=3600.0)
    rng = random.Random(f"bulk_rw:{seed}")
    run_tag = f"{rng.getrandbits(32):08x}"
    paths = [f"/bulk/{run_tag}-{i:02d}" for i in range(n)]
    dep.preload_files(((p, file_size) for p in paths), degree=2)
    clients = dep.clients_on_compute(n)
    rec = Recorder(dep)

    def spawn(write: bool):
        n_req = size["writes"] if write else size["reads"]
        return [dep.sim.process(_bulk_mover(
            rec, c, paths[i], n_req, write,
            random.Random(f"bulk_rw:{seed}:{i}:{write}"), file_size))
            for i, c in enumerate(clients)]

    def extras(bounds: List[float], _inspector) -> Dict[str, float]:
        per_request = n * BULK_REQUEST / MB
        return {
            "driver.read_sim_mb_per_s":
                size["reads"] * per_request / (bounds[1] - bounds[0]),
            "driver.write_sim_mb_per_s":
                size["writes"] * per_request / (bounds[2] - bounds[1]),
        }

    return Load(dep, rec, [lambda: spawn(False), lambda: spawn(True)],
                extras=extras, settle=60.0, raises_expected=True,
                lagging_replicas_ok=True)


# ------------------------------------------------------------- md_sharded
MD_THINK = 1e-3


def _md_client(rec: Recorder, client, dirpath: str, run_tag: str,
               n_iter: int, rng: random.Random):
    """Closed-loop metadata hammer: create two files, stat one, repeat.
    Each create and each stat is one op.

    Two creates per stat, so the median op is a create: stats cost a
    fixed CPU charge and queue in fixed steps, and a median that sits on
    the boundary between the two kinds (or on one of those steps) either
    never moves or jumps by a whole step between seeds.  The seed-drawn
    think time (at most 1 ms before each op) is what lets the seed reach
    the timing at all: a saturated shard serves its clients in lockstep."""
    sim = client.sim
    yield sim.timeout(rng.random() * STAGGER)
    for k in range(n_iter):
        first = f"{dirpath}/{run_tag}-{2 * k:06d}"
        second = f"{dirpath}/{run_tag}-{2 * k + 1:06d}"
        for cls, call, path in (("create", client.create, first),
                                ("create", client.create, second),
                                ("stat", client.stat,
                                 rng.choice((first, second)))):
            yield sim.timeout(rng.random() * MD_THINK)
            yield from rec.op(cls, lambda: call(path))


def build_md_sharded(seed: int, size: dict, trace: bool) -> Load:
    n = size["clients"]
    dep = SorrentoDeployment(
        tiered_cluster(8, n, 0),
        SorrentoConfig(seed=seed, trace=trace, n_providers=8,
                       namespace_shards=4,
                       params=SorrentoParams(default_degree=1)))
    dep.warm_up(4.0)
    clients = dep.clients_on_compute(n)
    # Directory names are fixed: the prefix ring assigns whole top-level
    # subtrees, so the spread of the 32 directories over the 4 shards is
    # a property of the workload, not of the seed.
    dirs = [f"/c{i:02d}" for i in range(n)]
    for client, d in zip(clients, dirs):
        dep.run(client.mkdir(d))
    rng = random.Random(f"md_sharded:{seed}")
    run_tag = f"{rng.getrandbits(32):08x}"
    rec = Recorder(dep)

    def spawn():
        return [dep.sim.process(_md_client(
            rec, c, d, run_tag, size["iterations"],
            random.Random(f"md_sharded:{seed}:{d}")))
            for c, d in zip(clients, dirs)]

    return Load(dep, rec, [spawn], settle=5.0)


# ------------------------------------------------------------- scale_open
N_TENANTS = 64
N_STUBS = 16
TENANT_ZIPF_S = 1.1
ARRIVAL_BINS = 96
SCALE_FILE = 16 * KB
SCALE_READ = (4 * KB, 12 * KB)      # per-session read size, seed-drawn


def _diurnal_cum(bins: int) -> List[float]:
    """Cumulative weights of a two-peak sinusoidal arrival-rate wave."""
    total, cum = 0.0, []
    for b in range(bins):
        t = (b + 0.5) / bins
        total += max(0.05, 1.0 + 0.8 * math.sin(4.0 * math.pi * t
                                                - math.pi / 2.0))
        cum.append(total)
    return cum


def _open_session(rec: Recorder, client, path: str, nbytes: int):
    fh = yield from client.open(path, "r")
    data = yield from client.read(fh, 0, nbytes)
    rec.check_read(data, nbytes)
    yield from client.close(fh)


def _arrive(rec: Recorder, client, path: str, nbytes: int, delay: float):
    """Open loop: the session starts when the schedule says, whatever
    the system is doing, and is timed from that instant."""
    yield client.sim.timeout(delay)
    yield from rec.op("session",
                      lambda: _open_session(rec, client, path, nbytes),
                      nbytes=nbytes, due=client.sim.now)


def build_scale_open(seed: int, size: dict, trace: bool) -> Load:
    n_prov, n_sessions = size["providers"], size["sessions"]
    fpt = size["files"] // N_TENANTS
    params = scale_params(n_prov)
    dep = SorrentoDeployment(
        small_cluster(n_prov, n_compute=N_STUBS + 4,
                      capacity_per_node=4 * GB, name=f"scale-{n_prov}"),
        SorrentoConfig(seed=seed, trace=trace, params=params))
    # One heartbeat round fills every membership view and the P^2
    # join-refresh storm drains against empty stores; then preload.
    dep.warm_up(params.join_refresh_delay_max + 1.0)
    rng = random.Random(f"scale_open:{seed}")
    run_tag = f"{rng.getrandbits(32):08x}"

    def tenant_file(t: int, i: int) -> str:
        return f"/t{t:02d}/{run_tag}-{i:06d}"

    dep.preload_files(((tenant_file(t, i), SCALE_FILE)
                       for t in range(N_TENANTS) for i in range(fpt)),
                      degree=1)
    clients = dep.clients_on_compute(N_STUBS)
    tenants = rng.choices(range(N_TENANTS),
                          cum_weights=_zipf_cum(N_TENANTS, TENANT_ZIPF_S),
                          k=n_sessions)
    bins = rng.choices(range(ARRIVAL_BINS),
                       cum_weights=_diurnal_cum(ARRIVAL_BINS), k=n_sessions)
    schedule = [
        (tenant_file(tenants[i], rng.randrange(fpt)),
         rng.randrange(SCALE_READ[0], SCALE_READ[1] + 1),
         (bins[i] + rng.random()) * size["sim_s"] / ARRIVAL_BINS)
        for i in range(n_sessions)]
    rec = Recorder(dep)

    def spawn():
        return [dep.sim.process(_arrive(rec, clients[i % N_STUBS], *session))
                for i, session in enumerate(schedule)]

    return Load(dep, rec, [spawn], settle=5.0,
                sim_limit=size["sim_s"] + 300.0)


# ----------------------------------------------------------- crash_repair
SAMPLE = 3.0
WRITE_THINK = 1.5


def _read_stream(rec: Recorder, client, paths: List[str], file_size: int,
                 rng: random.Random, deadline: float):
    """Figure 13's bulkread: ~4 MB requests at random offsets of a private
    file set until the deadline.  Request sizes are seed-drawn within
    +-12 %: three readers on ten providers rarely collide, and a fixed
    size would give every seed the same uncontended median to the last
    digit."""
    handles: Dict[Tuple[str, bool], object] = {}
    while client.sim.now < deadline:
        path = rng.choice(paths)
        yield from _bulk_op(rec, client, handles, path,
                            _bulk_offset(rng, file_size), False,
                            nbytes=_jittered_request(rng))


def _jittered_request(rng: random.Random) -> int:
    return BULK_REQUEST + rng.randrange(-128, 129) * BULK_ALIGN


def _write_stream(rec: Recorder, client, prefix: str, rng: random.Random,
                  deadline: float):
    """Figure 13's bulkwrite as a producer: each request creates a fresh
    ~4 MB file at degree 3 and commits it.  New files (rather than
    overwrites of the preloaded set) are what lets a write that lost its
    owner mid-flight be re-issued cleanly — an overwrite leaves an orphan
    shadow that refuses the segment for shadow_ttl = 300 s — and they
    give placement something to put on the node that joins."""
    k = 0
    while client.sim.now < deadline:
        nbytes = _jittered_request(rng)
        issue = itertools.count(1)

        def attempt():
            # A fresh name per issue: a half-created entry from a failed
            # issue is left behind, not reopened.
            fh = yield from client.open(f"{prefix}-{k:05d}.{next(issue)}",
                                        "w", create=True)
            yield from client.write(fh, 0, nbytes)
            yield from client.close(fh)

        yield from rec.op("write", attempt, nbytes=nbytes,
                          max_attempts=RETRY_ATTEMPTS, backoff=RETRY_BACKOFF)
        k += 1
        # The producer computes between outputs.  Without the pause two
        # writers commit 18 MB/s, lazy propagation to the other two
        # replicas needs twice that, and the repair-bandwidth cap
        # (2.5 MB/s per node) never lets replica degree catch up.
        yield client.sim.timeout(WRITE_THINK * (0.5 + rng.random()))


def build_crash_repair(seed: int, size: dict, trace: bool) -> Load:
    n_files, file_size = size["files"], size["file_mb"] * MB
    dep = _sorrento(cluster_b_like(n_storage=10, n_clients=6), 10, 3, seed,
                    trace, repair_delay=20.0, repair_bandwidth=2.5e6)
    rng = random.Random(f"crash_repair:{seed}")
    run_tag = f"{rng.getrandbits(32):08x}"
    paths = [f"/bulk/{run_tag}-{i:03d}" for i in range(n_files)]
    dep.preload_files(((p, file_size) for p in paths), degree=3)
    clients = dep.clients_on_compute(5)
    dep.run(clients[3].mkdir("/out"))
    share = n_files // 3
    # The fault instant is seed-drawn inside one throughput sample; the
    # victim is a data provider that does not host the namespace.
    fail_at = size["fail_at"] + rng.random() * SAMPLE
    victim = rng.choice([h for h in sorted(dep.providers)
                         if h != dep.ns_host])
    rec = Recorder(dep)
    t0 = dep.sim.now

    def join_new_node():
        # Capacity changes are operations, not faults.
        yield dep.sim.timeout(size["join_at"])
        dep.add_provider(NodeSpec(
            name="bnew", cpus=2, cpu_ghz=1.4, memory=4 * GB,
            disks=("ultrastar-dk32ej",) * 3, export_capacity=176 * GB))

    def spawn():
        deadline = dep.sim.now + size["sim_s"]
        inject(dep, FaultPlan().at(fail_at, NodeCrash(victim)))
        dep.sim.process(join_new_node())
        rngs = [random.Random(f"crash_repair:{seed}:{i}") for i in range(5)]
        readers = [dep.sim.process(_read_stream(
            rec, clients[i], paths[i * share:(i + 1) * share], file_size,
            rngs[i], deadline)) for i in range(3)]
        writers = [dep.sim.process(_write_stream(
            rec, clients[i], f"/out/{run_tag}-w{i}", rngs[i], deadline))
            for i in (3, 4)]
        return readers + writers

    def extras(_bounds: List[float], inspector) -> Dict[str, float]:
        n_samples = int(size["sim_s"] / SAMPLE)
        rates = [0.0] * n_samples
        for t, nbytes in rec.done_at:
            idx = int((t - t0) / SAMPLE)
            if idx < n_samples:
                rates[idx] += nbytes / MB / SAMPLE
        times = [(i + 1) * SAMPLE for i in range(n_samples)]
        recov = recovery_metrics(times, rates, fail_at)
        out = {
            # Never recovered reads as the whole window.
            "core.selforg.repair_mttr_s": min(recov["mttr"], size["sim_s"]),
            "core.selforg.dip_depth": recov["dip_depth"],
        }
        if inspector is not None:
            report = inspector.replica_report()
            out["core.selforg.degree_restored_share"] = (
                1.0 - len(report.under_replicated) / report.total_segments)
        return out

    return Load(dep, rec, [spawn], extras=extras, settle=60.0,
                fault_expected=1, raises_expected=True,
                notes={"victim": victim, "fail_at": fail_at})


BUILDERS: Dict[str, Callable[[int, dict, bool], Load]] = {
    "smallfile_write": build_smallfile_write,
    "smallfile_read": build_smallfile_read,
    "bulk_rw": build_bulk_rw,
    "md_sharded": build_md_sharded,
    "scale_open": build_scale_open,
    "crash_repair": build_crash_repair,
}


# ---------------------------------------------------- smallfile_write_mp2
MP2_WARM = 8.0
MP2_SETTLE = 30.0


class _Mp2Program:
    """The duck type ``run_partitioned`` drives (``sim``, ``transit``,
    ``phases()``, ``result()``): one partition's share of the
    ``smallfile_write`` load."""

    def __init__(self, seed: int, size: dict, full_gate: bool, pmap,
                 local_pid: Optional[int]):
        n = size["clients"]
        self.full_gate = full_gate
        self.dep = dep = SorrentoDeployment(
            cluster_a_like(n_storage=8, n_clients=n),
            SorrentoConfig(params=SorrentoParams(default_degree=2,
                                                 **WRITE_TWIN_OVERRIDES),
                           seed=seed, n_providers=8, partition=pmap,
                           local_partition=local_pid))
        self.sim = dep.sim
        self.transit = dep.transit
        self.rec = Recorder(dep)
        self.clients = dep.clients_on_compute(n)
        self.seed = seed
        self.sessions = size["sessions"]
        self.marks: Dict[str, float] = {}
        self.snaps: Dict[str, layers.Raw] = {}

    def phases(self):
        return [("until", None), ("procs", self._mkdir),
                ("procs", self._sessions), ("call", self._window_end),
                ("until", None)]

    def _mkdir(self, _prog):
        c0 = self.clients[0]
        if c0.node.dormant:
            return []
        return [self.sim.process(c0.mkdir("/w"))]

    def _sessions(self, _prog):
        self.marks["t0_wall"] = time.perf_counter()
        self.marks["t0_sim"] = self.sim.now
        self.snaps["start"] = layers.snapshot(self.dep)
        return _spawn_write_sessions(self.dep, self.rec, self.clients,
                                     self.seed, self.sessions)

    def _window_end(self, _prog):
        self.marks["t1_wall"] = time.perf_counter()
        self.marks["t1_sim"] = self.sim.now
        self.snaps["end"] = layers.snapshot(self.dep)

    def result(self) -> dict:
        """Picklable summary, gathered after the settle phase."""
        rec = self.rec
        out = {
            "marks": self.marks,
            "raw": layers.delta(self.snaps["start"], self.snaps["end"]),
            "rates": layers.nic_rates(self.dep),
            "lat": rec.lat, "attempts": rec.attempts, "raised": rec.raised,
            "failed": rec.failed, "payload": rec.payload,
            "rss_mb": layers.rss_mb(),
        }
        if self.full_gate:
            from repro.tools.inspector import ClusterInspector  # scipy
            inspector = ClusterInspector(self.dep)
            out["replica_map"] = inspector.replica_map()
            out["degrees"] = inspector.segment_degrees()
        return out


def build_mp2_program(seed: int, size: dict, full_gate: bool, pmap,
                      local_pid: Optional[int] = None) -> _Mp2Program:
    """Top-level so the ``mp`` backend can hand it to forked workers."""
    return _Mp2Program(seed, size, full_gate, pmap, local_pid)


def run_mp2(seed: int, size: dict, full_gate: bool) -> dict:
    """Build the partition map, run the program on 2 forked workers and
    return ``run_partitioned``'s output.  Every repeat runs the untimed
    settle phase (lazy replica propagation) so the kernel's whole-run
    counters repeat exactly; only the gated repeat inspects replicas."""
    spec = cluster_a_like(n_storage=8, n_clients=size["clients"])
    pmap = partition_for_spec(spec, 2)
    t_end = MP2_WARM + size["sim_s_max"] + MP2_SETTLE
    phase_meta = [("until", MP2_WARM), ("procs", None), ("procs", None),
                  ("call", None), ("until", t_end)]
    return run_partitioned(build_mp2_program, (seed, size, full_gate, pmap),
                           pmap, phase_meta, backend="mp",
                           fabric_latency=spec.latency)
