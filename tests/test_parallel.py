"""Conservative-parallel kernel: partition planning, transit, and the
serial-vs-parallel determinism contract.

The contract under test: with a fixed partition map and seed, the
``serial`` backend (one Simulator hosting every partition of the
partitioned model), the ``inproc`` backend (K Simulators in one
process), and the ``mp`` backend (K forked processes) produce the same
per-host membership views, the same cross-partition records and the same
session rows — down to per-session completion timestamps, which are
floats and therefore only equal when every event interleaving matches.
"""

import math
import multiprocessing
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.params import SorrentoParams
from repro.core.provider import StorageProvider
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
    _recv,
    _send,
    plan_partitions,
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


# --------------------------------------------------- determinism contract
def _scale_run(pmap, backend, builder=build_scale_program):
    """(per-session (idx, completion time, ok) rows — float-exact,
    the whole ``run_partitioned`` output)."""
    out = run_partitioned(builder,
                          (SCALE_POINT, 0, pmap), pmap, SCALE_PHASES,
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


def _viewing_builder(point, seed, pmap, local_pid=None):
    """``build_scale_program`` whose result also carries every local
    provider's membership view at the end of the run."""
    program = build_scale_program(point, seed, pmap, local_pid=local_pid)
    collect = program.result

    def result():
        out = collect()
        out["views"] = {h: list(p.membership.live_providers())
                        for h, p in program.dep.providers.items()}
        return out

    program.result = result
    return program


@settings(max_examples=5, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=len(SCALE_HOSTS),
                max_size=len(SCALE_HOSTS)))
def test_random_partition_maps_reproduce_serial_order(pids):
    """Any 2-way cut of the small cluster: parallel == serial, down to
    per-session completion timestamps."""
    pmap = PartitionMap(dict(zip(SCALE_HOSTS, pids)), 2,
                        cross_latency=5e-3)
    assert _scale_outcome(pmap, "serial") == _scale_outcome(pmap, "inproc")


# --------------------------------------------------- multi-window grants
@settings(max_examples=3, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=len(SCALE_HOSTS),
                max_size=len(SCALE_HOSTS)))
def test_grant_batching_is_bit_identical(pids):
    """Multi-window grants must not change a single event interleaving:
    for random 3-way cuts, the adaptive grants (which cover several grid
    windows at a time) yield the same per-session float-exact rows as
    the serial reference."""
    pmap = PartitionMap(dict(zip(SCALE_HOSTS, pids)), 3,
                        cross_latency=5e-3)
    rows, out = _scale_run(pmap, "inproc")
    assert rows == _scale_outcome(pmap, "serial")
    assert out["stats"].windows > out["stats"].grants


@pytest.mark.parametrize("k", [2, 3])
def test_every_backend_sees_the_same_members_and_cross_traffic(k):
    """Each provider's view of the live providers, and the number of
    records that crossed the cut, are the same on every backend: a
    dormant shell of another partition's provider is in the groups the
    provider joins, so a heartbeat reaches every provider whichever
    partition sent it."""
    seen = {}
    for backend in ("serial", "inproc", "mp"):
        _rows, out = _scale_run(_scale_pmap(k), backend, _viewing_builder)
        views = {}
        for res in out["results"]:
            views.update(res["views"])
        seen[backend] = (views, sum(t["records_out"] for t in out["transit"]))
    views = seen["serial"][0]
    assert len(views) == SCALE_POINT[0]
    assert all(v == sorted(views) for v in views.values())
    assert seen["serial"] == seen["inproc"] == seen["mp"]


@pytest.mark.parametrize("k, ipc_round_trips", [(2, 154), (3, 259)])
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
    assert mp["stats"].ipc_round_trips == ipc_round_trips


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
                          (SCALE_POINT, 0, pmap), pmap, SCALE_PHASES,
                          backend="inproc", fabric_latency=80e-6)
    # Each record is counted once, at its sender (``traffic_out``, summed
    # into ``cross_matrix`` and ``records_out``); the coordinator ships
    # and the receivers inject exactly those records.
    transit = out["transit"]
    assert sum(cnt for t in transit for cnt, _b in t["cross_matrix"].values()) \
        == sum(t["records_out"] for t in transit) \
        == sum(t["records_in"] for t in transit) \
        == sum(grants) == out["stats"].records_shipped > 0


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
_RECORDS = st.lists(st.tuples(
    st.floats(0, 9), st.integers(0, 7), st.integers(0, 2**40), st.text(),
    st.text(), st.text(), st.one_of(st.none(), st.binary()),
    st.integers(0, 2**20), st.one_of(st.none(), st.text()),
    st.one_of(st.none(), st.integers(0, 2**40))))
_TAILS = st.one_of(st.none(), _RECORDS, st.dictionaries(st.integers(0, 7),
                                                        _RECORDS),
                   st.text())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), _TIMES, st.booleans(), st.floats(0, 1e7), _TIMES,
       st.integers(0, 2**32 - 1), _TAILS)
def test_control_frame_round_trip(tag, t, done, done_t, stop_t, n, tail):
    """Every field survives the codec, ``None`` times included (NaN on
    the wire, never in the decoded frame), and so does the tail: a
    grant's record list, a status reply's ``{dst_pid: [record]}`` outbox,
    a result or nothing.  A frame cut short decodes to None rather than
    to garbage."""
    frame = _encode_frame(tag, t, done, done_t, stop_t, n, tail)
    assert _decode_frame(frame) == (tag, t, done, done_t, stop_t, n, tail)
    assert _decode_frame(frame[:-1]) is None
    assert (len(frame) == _FRAME.size) == (tail is None)


def test_a_record_batch_past_the_pipe_buffer_crosses_intact():
    """The path every record batch takes: ``_send`` -> ``_recv`` over a
    real pipe, with a tail past both the 64 KB pipe buffer (the writer
    blocks until the reader drains) and ``_recv``'s first 4 096-byte
    read."""
    out = {dst: [(1.5 + seq, 0, seq, f"s{dst:02d}", "c00", "seg_write",
                  {"data": bytes([seq % 256]) * 300}, 300, None, seq)
                 for seq in range(dst, 500, 2)] for dst in (1, 2)}
    frame = _encode_frame(1, 2.0, True, 1.25, None, 3, out)
    assert len(frame) > 65536 + 4096
    r, w = os.pipe()
    writer = threading.Thread(target=_send, args=(w, frame), daemon=True)
    writer.start()
    try:
        got = _recv(r)
    finally:
        os.close(r)     # a writer still blocked on a full pipe gets EPIPE
        writer.join(timeout=10)
        os.close(w)
    assert got == (1, 2.0, True, 1.25, None, 3, out)


# ------------------------------------------------------- failure handling
def _builder_raising_in_1(point, seed, pmap, local_pid=None):
    if local_pid == 1:
        raise ValueError("no model for you")
    return build_scale_program(point, seed, pmap, local_pid=local_pid)


def _builder_dying_in(victim):
    def builder(point, seed, pmap, local_pid=None):
        program = build_scale_program(point, seed, pmap, local_pid=local_pid)
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
    hang — with every process reaped."""
    children = set(multiprocessing.active_children())
    with pytest.raises(PartitionError, match=message):
        _scale_run(_scale_pmap(3), "mp", builder)
    assert set(multiprocessing.active_children()) == children


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
    # A provider joins exactly StorageProvider.GROUPS, and so does the
    # shell of another partition's provider.
    for name in dep.provider_names:
        assert {g for g, members in dep.fabric.groups.items()
                if name in members} == set(StorageProvider.GROUPS)


def test_serial_with_map_transit_and_inspector_report():
    """Serial-with-map is a plain single-Simulator run: cross-partition
    heartbeats flow through the transit, are counted once per cut edge,
    and surface in the inspector."""
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
    assert sum(cnt for cnt, _b in matrix.values()) == transit.records_out
    report = ClusterInspector(dep).partition_report()
    assert report["n_partitions"] == 2
    assert report["records_out"] == transit.records_out
    assert report["cut_edges"] > 0
    counts = [n for _h, n in report["noisiest_hosts"]]
    assert counts and counts == sorted(counts, reverse=True)


def test_unpartitioned_deployment_has_no_transit():
    spec = small_cluster(2, n_compute=1, capacity_per_node=4 * GB)
    dep = SorrentoDeployment(spec, SorrentoConfig(params=SorrentoParams()))
    assert dep.transit is None
    assert dep.fabric.transit is None
    assert ClusterInspector(dep).partition_report() == {}
