"""Conservative-parallel kernel: partition planning, transit, and the
serial-vs-parallel determinism contract.

The contract under test: with a fixed partition map and seed, the
``serial`` backend (one Simulator hosting every partition of the
partitioned model), the ``inproc`` backend (K Simulators in one
process), and the ``mp`` backend (K forked processes) produce identical
results — down to per-session completion timestamps, which are floats
and therefore only equal when every event interleaving matches.
"""

import glob
import math
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.experiments.partitioned import (
    build_fig10_program,
    build_scale_program,
    partition_for_spec,
    run_fig10_partitioned,
)
from repro.sim.parallel import (
    PartitionError,
    PartitionMap,
    _FRAME,
    _decode_frame,
    _encode_frame,
    _grid_ceil,
    _grid_next,
    _ShmChannel,
    plan_partitions,
    refine,
    run_partitioned,
)
from repro.tools.inspector import ClusterInspector

GB = 1 << 30

SCALE_HOSTS = [f"s{i:02d}" for i in range(8)] + [f"c{i:02d}" for i in range(20)]
SCALE_POINT = (8, 256, 40, 1.0)  # providers, files, sessions, duration
SCALE_PHASES = [("until", 3.0), ("call", None), ("procs", None)]


# ----------------------------------------------------------- partition map
def test_plan_partitions_balances_storage_and_spreads_compute():
    pmap = plan_partitions([f"s{i}" for i in range(10)],
                           [f"c{i}" for i in range(5)], 3)
    sizes = pmap.sizes()
    assert sum(sizes) == 15
    storage_sizes = [0, 0, 0]
    for i in range(10):
        storage_sizes[pmap.pid(f"s{i}")] += 1
    assert sorted(storage_sizes) == [3, 3, 4]
    assert [pmap.pid(f"c{i}") for i in range(5)] == [0, 1, 2, 0, 1]


def test_plan_partitions_groups_racks():
    racks = {"s0": "r1", "s1": "r2", "s2": "r1", "s3": "r2"}
    pmap = plan_partitions(["s0", "s1", "s2", "s3"], [], 2, racks=racks)
    assert pmap.pid("s0") == pmap.pid("s2")
    assert pmap.pid("s1") == pmap.pid("s3")
    assert pmap.pid("s0") != pmap.pid("s1")


def test_unknown_hosts_are_local_to_everyone():
    pmap = PartitionMap({"a": 0, "b": 1}, 2)
    assert pmap.is_cross("a", "b")
    assert not pmap.is_cross("a", "late-joiner")
    assert not pmap.is_cross("late-joiner", "b")


def test_grid_math():
    L = 4e-4
    assert _grid_next(0.0, L) == L
    assert _grid_next(L, L) == 2 * L
    assert _grid_ceil(L, L) == L
    assert _grid_ceil(0.0, L) == 0.0
    t = 123.4567
    assert _grid_next(t, L) > t
    assert math.isclose(_grid_next(t, L) % L, 0.0, abs_tol=1e-12) \
        or math.isclose(_grid_next(t, L) % L, L, abs_tol=1e-12)


def test_refine_migrates_chatterer_and_respects_cap():
    pmap = PartitionMap({"a": 0, "b": 0, "c": 1, "d": 1}, 2)
    # "a" talks almost exclusively to partition 1.
    traffic_out = {("a", 1): [100, 1000], ("a", 0): [1, 10]}
    traffic_in = {("a", 1): [80, 800]}
    refined, moves = refine(pmap, traffic_out, traffic_in)
    assert moves == 1
    assert refined.pid("a") == 1
    # Balance cap: with slack 0, nobody can move into a full partition.
    refined2, moves2 = refine(pmap, traffic_out, traffic_in, slack=0.0)
    assert moves2 == 0
    assert refined2.pid("a") == 0


# --------------------------------------------------- determinism contract
def _scale_run(pmap, backend, builder=build_scale_program):
    """(per-session (idx, completion time, ok) rows — float-exact,
    the whole ``run_partitioned`` output)."""
    out = run_partitioned(builder,
                          (SCALE_POINT, 0, True, pmap), pmap, SCALE_PHASES,
                          backend=backend, fabric_latency=80e-6)
    rows = sorted(r for res in out["results"] for r in res["rows"])
    assert len(rows) == SCALE_POINT[2]
    return rows, out


def _scale_outcome(pmap, backend):
    return _scale_run(pmap, backend)[0]


def _scale_pmap(k):
    spec = small_cluster(SCALE_POINT[0], n_compute=20,
                         capacity_per_node=4 * GB,
                         name=f"scale-{SCALE_POINT[0]}")
    return partition_for_spec(spec, k, cross_latency=5e-3)


@settings(max_examples=5, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=len(SCALE_HOSTS),
                max_size=len(SCALE_HOSTS)))
def test_random_partition_maps_reproduce_serial_order(pids):
    """Any 2-way cut of the small cluster: parallel == serial, down to
    per-session completion timestamps."""
    pmap = PartitionMap(dict(zip(SCALE_HOSTS, pids)), 2,
                        cross_latency=5e-3)
    assert _scale_outcome(pmap, "serial") == _scale_outcome(pmap, "inproc")


@pytest.mark.parametrize("k, ipc_round_trips", [(2, 139), (3, 236)])
def test_mp_backend_matches_serial(k, ipc_round_trips):
    """serial == inproc == mp rows; inproc and mp run the same protocol
    (same grants, rounds, windows, records) and differ only in how many
    grants cross a process boundary: none, against every grant addressed
    to a partition the leader does not host.  K = 3 relays worker ->
    worker records through the leader."""
    pmap = _scale_pmap(k)
    inproc_rows, inproc = _scale_run(pmap, "inproc")
    mp_rows, mp = _scale_run(pmap, "mp")
    assert _scale_outcome(pmap, "serial") == inproc_rows == mp_rows
    for name in ("grants", "barriers", "windows", "windows_executed",
                 "records_shipped", "fallback_rounds", "shm_fallbacks"):
        assert getattr(inproc["stats"], name) == getattr(mp["stats"], name), name
    assert inproc["stats"].ipc_round_trips == 0
    assert mp["stats"].ipc_round_trips == ipc_round_trips == sum(
        t["grants"] for t in mp["transit"][1:])
    assert mp["stats"].grants == sum(t["grants"] for t in mp["transit"])
    assert mp["stats"].shm_batches > 0


def test_fig10_partitioned_golden():
    """Pin the partitioned fig10_reduced smoke result (fixed map, fixed
    seed): the macro suite's parallel entry must not drift silently, and
    serial/inproc must agree on it."""
    rows = {}
    for backend in ("serial", "inproc"):
        rows[backend] = run_fig10_partitioned(
            n_clients=2, duration=1.5, n_storage=4, workers=2,
            backend=backend, cross_latency=5e-3)
    assert rows["serial"]["digest"] == rows["inproc"]["digest"]
    assert rows["serial"]["tags"] == rows["inproc"]["tags"]
    # The pinned golden (regenerate deliberately if the model changes;
    # last re-recorded for the kernel's same-instant delivery-lane
    # tie-break, which replaced insertion-order arbitration):
    assert rows["serial"]["tags"] == {"c0": 30, "c1": 13}
    assert rows["serial"]["digest"] == "8c1f5970ed7995be"
    assert rows["serial"]["sessions"] == 43


def test_three_way_cut_fig10():
    spec_storage = [f"a{i:02d}" for i in range(4)]
    spec_compute = [f"ac{i:02d}" for i in range(3)]
    pmap = plan_partitions(spec_storage, spec_compute, 3,
                           cross_latency=5e-3)
    meta = [("until", 8.0), ("procs", None), ("procs", None)]

    def tags_for(backend):
        out = run_partitioned(build_fig10_program, (3, 1.0, 4, 0, pmap),
                              pmap, meta, backend=backend,
                              fabric_latency=80e-6)
        tags = {}
        for r in out["results"]:
            tags.update(r["tags"])
        return sorted(tags.items())

    serial = tags_for("serial")
    assert serial == tags_for("inproc")
    assert sum(n for _t, n in serial) > 0


# --------------------------------------------------- multi-window grants
@settings(max_examples=3, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=len(SCALE_HOSTS),
                max_size=len(SCALE_HOSTS)))
def test_grant_batching_is_bit_identical(pids):
    """Multi-window grants must not change a single event interleaving:
    for random 2/3-way cuts, capping grants at K ∈ {1, 4, 16} windows
    (K=1 reproduces the classic single-window protocol) yields the same
    per-session float-exact rows as the adaptive serial reference."""
    pmap = PartitionMap(dict(zip(SCALE_HOSTS, pids)), 3,
                        cross_latency=5e-3)
    reference = _scale_outcome(pmap, "serial")

    for k in (1, 4, 16):
        out = run_partitioned(build_scale_program,
                              (SCALE_POINT, 0, True, pmap), pmap,
                              SCALE_PHASES, backend="inproc",
                              fabric_latency=80e-6,
                              max_grant_windows=k)
        rows = sorted(r for res in out["results"] for r in res["rows"])
        assert rows == reference, f"K={k} diverged"


def test_grants_never_deliver_into_executed_span(monkeypatch):
    """Safety invariant of the grant rule: by the time a record reaches
    its destination worker, that worker's executed frontier must not
    have passed the record's arrival time — and a grant must carry all
    pending inbound records with it (none held back behind a barrier).
    """
    from repro.sim import parallel

    orig = parallel._Worker._run_window
    grants = []

    def checked(self, t_end, inbound):
        if inbound:
            first = min(rec[0] for rec in inbound)
            assert first >= self._pos - 1e-15, (
                f"record at {first} delivered behind frontier {self._pos}")
        assert t_end >= self._pos
        grants.append(len(inbound) if inbound else 0)
        return orig(self, t_end, inbound)

    monkeypatch.setattr(parallel._Worker, "_run_window", checked)
    spec = small_cluster(SCALE_POINT[0], n_compute=20,
                         capacity_per_node=4 * GB,
                         name=f"scale-{SCALE_POINT[0]}")
    pmap = partition_for_spec(spec, 2, cross_latency=5e-3)
    out = run_partitioned(build_scale_program,
                          (SCALE_POINT, 0, True, pmap), pmap, SCALE_PHASES,
                          backend="inproc", fabric_latency=80e-6)
    assert sum(grants) == out["stats"].records_shipped
    assert out["stats"].records_shipped > 0


def test_posted_inbound_is_never_the_live_pending_list(monkeypatch):
    """A local endpoint executes in ``wait()``, after later endpoints
    were posted and earlier ones absorbed: a command that aliased the
    coordinator's pending list would see records absorbed in between —
    injected one round early *and* shipped again with the next grant."""
    from repro.sim import parallel

    posted = {}
    orig_post = parallel._LocalEndpoint.post
    orig_win = parallel._Worker._run_window
    seen = []

    def post(self, cmd):
        if cmd[0] == "win":
            posted[id(self.worker)] = len(cmd[2] or ())
        orig_post(self, cmd)

    def run_window(self, t_end, inbound):
        assert len(inbound or ()) == posted[id(self)]
        seen.extend(rec[1:3] for rec in inbound or ())
        return orig_win(self, t_end, inbound)

    monkeypatch.setattr(parallel._LocalEndpoint, "post", post)
    monkeypatch.setattr(parallel._Worker, "_run_window", run_window)
    _rows, out = _scale_run(_scale_pmap(2), "inproc")
    assert len(seen) == len(set(seen)) == out["stats"].records_shipped > 0


# ---------------------------------------------------------- control frames
_TIMES = st.one_of(st.none(), st.just(math.inf),
                   st.floats(0, 1e7, allow_nan=False))
_SECTIONS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2**32 - 1),
                               st.integers(0, 2**40)), max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), _TIMES, st.booleans(), st.floats(0, 1e7), _TIMES,
       st.integers(0, 2**32 - 1), st.integers(0, 2**40), _SECTIONS,
       st.one_of(st.none(), st.text(), st.dictionaries(
           st.integers(0, 7), st.lists(st.tuples(st.floats(0, 9), st.text())))))
def test_control_frame_round_trip(tag, t, done, done_t, stop_t, n, off,
                                  sections, tail):
    """Every field survives the codec, ``None`` times included (NaN on
    the wire, never in the decoded frame); a frame cut short decodes to
    None rather than to garbage."""
    frame = _encode_frame(tag, t, done, done_t, stop_t, n, off, sections, tail)
    assert _decode_frame(frame) == (tag, t, done, done_t, stop_t, n, off,
                                    sections, tail)
    assert _decode_frame(frame[:-1]) is None
    assert (len(frame) == _FRAME.size) == (not sections and tail is None)


def test_batch_larger_than_the_ring_rides_the_frame_tail():
    rec = (1.5, 0, 1, "s01", "c00", "seg_write", {"data": b"x" * 300}, 300,
           None, 7)
    channel = _ShmChannel(capacity=1024)
    try:
        small = {1: [rec]}
        off, sections, tail = channel.ship(0, small)
        assert tail is None and [s[:2] for s in sections] == [(1, 1)]
        assert channel.fetch(0, off, sections, tail) == small
        assert (channel.batches, channel.fallbacks) == (2, 0)
        big = {1: [rec] * 4, 2: [rec]}
        off, sections, tail = channel.ship(1, big)
        assert (off, sections, tail) == (0, (), big)
        frame = _decode_frame(_encode_frame(1, 2.0, off=off, sections=sections,
                                            tail=tail))
        assert channel.fetch(1, *frame[-3:]) == big
        assert (channel.batches, channel.fallbacks) == (2, 2)
    finally:
        channel.close(unlink=True)


# ------------------------------------------------------- failure handling
def _builder_raising_in_1(point, seed, probe, pmap, local_pid=None):
    if local_pid == 1:
        raise ValueError("no model for you")
    return build_scale_program(point, seed, probe, pmap, local_pid=local_pid)


def _builder_dying_in(victim):
    def builder(point, seed, probe, pmap, local_pid=None):
        program = build_scale_program(point, seed, probe, pmap,
                                      local_pid=local_pid)
        if local_pid == victim:
            phases = list(program.phases())
            phases[1] = ("call", lambda _program: os._exit(1))
            program.phases = lambda: phases
        return program
    return builder


@pytest.mark.parametrize("builder, message", [
    (_builder_raising_in_1, "partition 1 failed: ValueError: no model"),
    (_builder_dying_in(0), r"partition 0 \(leader\) died"),
    (_builder_dying_in(2), "partition 2: worker died"),
])
def test_mp_failure_names_the_partition_and_leaves_nothing(builder, message):
    """A builder exception, a worker killed mid-run and a dead leader all
    surface in the caller as an error naming the partition — never a
    hang — with every process reaped and every shm ring unlinked."""
    rings = set(glob.glob("/dev/shm/psm_*"))
    children = set(multiprocessing.active_children())
    with pytest.raises(PartitionError, match=message):
        _scale_run(_scale_pmap(3), "mp", builder)
    assert set(multiprocessing.active_children()) == children
    assert set(glob.glob("/dev/shm/psm_*")) == rings


# ------------------------------------------------------ substrate details
def test_dormant_shells_build_identically_but_stay_quiet():
    spec = small_cluster(4, n_compute=2, capacity_per_node=4 * GB)
    pmap = partition_for_spec(spec, 2)
    dep = SorrentoDeployment(spec, SorrentoConfig(
        params=SorrentoParams(), partition=pmap, local_partition=0))
    # Full shell set, partial daemon set.
    assert len(dep.nodes) == 6
    assert len(dep.provider_names) == 4
    local = {h for h in dep.provider_names if pmap.pid(h) == 0}
    assert set(dep.providers) == local
    for name, node in dep.nodes.items():
        if pmap.pid(name) != 0:
            assert node.dormant
            assert node.spawn(x for x in ()) is None
            assert node._monitor is None
        else:
            assert not node.dormant


def test_serial_with_map_transit_and_inspector_report():
    """Serial-with-map is a plain single-Simulator run: cross-partition
    heartbeats flow through the transit, land in the metrics registry's
    partition scope, and surface in the inspector."""
    spec = small_cluster(4, n_compute=2, capacity_per_node=4 * GB)
    pmap = partition_for_spec(spec, 2)
    dep = SorrentoDeployment(spec, SorrentoConfig(
        params=SorrentoParams(), partition=pmap))
    dep.warm_up(3.0)
    transit = dep.transit
    assert transit is not None
    assert transit.records_out > 0
    assert transit.delivered > 0
    assert transit.dropped == 0
    matrix = transit.cross_matrix()
    assert "p0->p1" in matrix and "p1->p0" in matrix
    # The registry view of the same traffic.
    stats = dict(dep.metrics.items("partition"))
    assert stats[("partition", "p0->p1")].oneways == \
        sum(cnt for (_h, d), (cnt, _b) in transit.traffic_out.items()
            if d == 1 and pmap.pid(_h) == 0)
    report = ClusterInspector(dep).partition_report()
    assert report["n_partitions"] == 2
    assert report["records_out"] == transit.records_out
    assert report["cut_edges"] > 0
    assert report["noisiest_hosts"]


def test_unpartitioned_deployment_has_no_transit():
    spec = small_cluster(2, n_compute=1, capacity_per_node=4 * GB)
    dep = SorrentoDeployment(spec, SorrentoConfig(params=SorrentoParams()))
    assert dep.transit is None
    assert dep.fabric.transit is None
    assert ClusterInspector(dep).partition_report() == {}
