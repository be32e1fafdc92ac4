"""The simulator is quiet for CPython's cyclic collector.

Two properties, both about what the simulator costs and neither about
what simulated Sorrento does: (1) no op class leaves cyclic garbage —
with the collector off, a ``gc.collect()`` after N ops finds nothing,
and a finished process is freed by its reference count alone; (2) a run
brackets itself with ``gc.freeze()`` / ``gc.unfreeze()`` so the static
model is not re-walked by collections inside it, leaves the process's
freeze state exactly as found, and — being per run, not per grant —
does not starve the young collector.
"""

import gc
import weakref

import pytest

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import NotFoundError
from repro.core.params import SorrentoParams
from repro.experiments.partitioned import build_scale_program, partition_for_spec
from repro.sim import Simulator
from repro.sim.parallel import run_partitioned

KB = 1 << 10
N_OPS = 6


def deploy(seed):
    d = SorrentoDeployment(
        small_cluster(4, n_compute=2, capacity_per_node=8 << 30),
        SorrentoConfig(params=SorrentoParams(default_degree=2), seed=seed))
    d.warm_up()
    return d


@pytest.fixture(scope="module")
def dep():
    return deploy(seed=5)


def unreachable_after(dep, ops) -> int:
    """Run each op generator as one process with the collector off;
    what a single collection finds afterwards."""
    gc.collect()
    gc.disable()
    try:
        for op in ops:
            dep.run(op)
        return gc.collect()
    finally:
        gc.enable()


# ------------------------------------------------------ (1) no cycles
def _write_session(client, path, nbytes=12 * KB, **create):
    fh = yield from client.open(path, "w", create=True, **create)
    yield from client.write(fh, 0, nbytes)
    yield from client.close(fh)


def _read_session(client, path, nbytes=12 * KB):
    fh = yield from client.open(path, "r")
    yield from client.read(fh, 0, nbytes)
    yield from client.close(fh)


def test_create_write_close_leaves_no_garbage(dep):
    client = dep.client_on("c00")
    assert unreachable_after(dep, (
        _write_session(client, f"/w-{i}") for i in range(N_OPS))) == 0


def test_open_read_close_leaves_no_garbage(dep):
    client = dep.client_on("c00")
    for i in range(N_OPS):
        dep.run(_write_session(client, f"/r-{i}"))
    reader = dep.client_on("c01")
    assert unreachable_after(dep, (
        _read_session(reader, f"/r-{i}") for i in range(N_OPS))) == 0


def test_striped_read_through_gather_leaves_no_garbage(dep):
    client = dep.client_on("c00")
    size = 512 * KB
    dep.run(_write_session(client, "/striped", size, organization="striped",
                           stripe_count=4, fixed_size=size))
    reader = dep.client_on("c01")
    assert unreachable_after(dep, (
        _read_session(reader, "/striped", size) for _ in range(N_OPS))) == 0
    assert reader.stats["vec_pieces"] + reader.stats["reads"] > N_OPS


def test_namespace_ops_through_the_router_leave_no_garbage(dep):
    client = dep.client_on("c00")

    def create_and_stat(i):
        yield from client.create(f"/md-{i}")
        entry = yield from client.stat(f"/md-{i}")
        assert entry["version"] == 0

    assert unreachable_after(dep, (
        create_and_stat(i) for i in range(N_OPS))) == 0


def test_a_not_found_open_leaves_no_garbage(dep):
    client = dep.client_on("c00")

    def missing(i):
        try:
            yield from client.open(f"/no-such-file-{i}", "r")
        except NotFoundError:
            return
        raise AssertionError("open of a missing path succeeded")

    assert unreachable_after(dep, (missing(i) for i in range(N_OPS))) == 0


def test_a_timed_out_and_retried_read_leaves_no_garbage():
    """Reads that hit a crashed owner time out (5 simulated seconds) and
    recover through the probe fallback: the time-out path's ``Reply``,
    exception and frames must go by reference count too."""
    d = deploy(seed=6)      # its own: this one loses a provider
    writer, reader = d.client_on("c00"), d.client_on("c01")
    paths = [f"/t-{i}" for i in range(8)]
    for path in paths:
        d.run(_write_session(writer, path, 256 * KB))
    d.sim.run(until=d.sim.now + 30.0)       # lazy replicas land
    for path in paths:                      # warm the reader's owner cache
        d.run(_read_session(reader, path, 256 * KB))
    victim = next(h for h in sorted(d.providers) if h != d.ns_host)
    d.crash_provider(victim)
    before = sum(st.timeouts for _key, st in d.metrics.items("client"))
    assert unreachable_after(d, (
        _read_session(reader, path, 256 * KB) for path in paths)) == 0
    assert sum(st.timeouts
               for _key, st in d.metrics.items("client")) > before


def test_a_write_session_after_a_failover_leaves_no_garbage():
    """A deployment dropped after its namespace primary crashed and the
    client failed over still has providers inside ``try: … finally:
    transfer_lock.release()`` (a replica copy waiting on a fetch).  When
    the collector closes them, the release must schedule nothing: a new
    heap entry pointing into the dead deployment revives all of it for
    one more collection — which the next run's ``gc.collect()`` counts."""
    spec = small_cluster(4, n_compute=2, capacity_per_node=8 << 30)
    old = SorrentoDeployment(spec, SorrentoConfig(
        params=SorrentoParams(default_degree=2), seed=91,
        ns_shard_standbys_on=[spec.storage_nodes[1].name]))
    old.warm_up()
    client = old.client_on("c00")
    old.run(_write_session(client, "/ha", 1 << 20))
    old.sim.run(until=old.sim.now + 60)
    old.crash_provider(old.ns_host)
    old.sim.run(until=old.sim.now + 10)
    old.run(_read_session(client, "/ha"), until=old.sim.now + 120)
    old.run(_write_session(client, "/ha", 2 * KB))
    assert client.router.route_host("/ha") != old.ns_host   # failed over
    del old, client
    d = deploy(seed=5)
    writer = d.client_on("c00")
    assert unreachable_after(d, (
        _write_session(writer, f"/f-{i}") for i in range(N_OPS))) == 0


def test_finished_process_dies_by_reference_count():
    """``Process`` is slotted and takes no weak references, so watch the
    value only it holds."""
    class Token:
        pass

    sim = Simulator()

    def work():
        yield sim.timeout(1.0)
        return Token()

    gc.disable()
    try:
        proc = sim.process(work())
        sim.run_until([proc])
        ref = weakref.ref(proc.value)
        assert ref() is not None
        del proc
        assert ref() is None
    finally:
        gc.enable()


def test_second_interrupt_of_a_finished_process_is_a_no_op():
    """Two interrupts before either is delivered leave a stale kick
    aimed at a process the first one finished; resuming it must stay the
    no-op it was before a finished process started dropping state."""
    sim = Simulator()

    def sleeper():
        yield sim.timeout(10.0)

    proc = sim.process(sleeper())
    sim.run(until=1.0)
    proc.interrupt("a")
    proc.interrupt("b")
    sim.run(until=2.0)
    assert proc.triggered and proc.value is None


# --------------------------------------------------- (2) the bracket
def _frozen_inside(sim, seen):
    yield sim.timeout(1.0)
    seen.append(gc.get_freeze_count())


def test_run_and_run_until_freeze_for_their_duration_only():
    entry = gc.get_freeze_count()
    sim = Simulator()
    seen = []
    sim.process(_frozen_inside(sim, seen))
    sim.run(until=2.0)
    assert seen[0] > entry and gc.get_freeze_count() == entry
    sim.run_until([sim.process(_frozen_inside(sim, seen))])
    assert seen[1] > entry and gc.get_freeze_count() == entry
    assert sim.run_process(sim.process(_frozen_inside(sim, seen))) is None
    assert seen[2] > entry and gc.get_freeze_count() == entry


def test_a_run_that_raises_still_unfreezes():
    entry = gc.get_freeze_count()
    sim = Simulator()
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_until([sim.event("never")])
    assert gc.get_freeze_count() == entry

    sim.timeout(1.0).add_callback(lambda _ev: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert gc.get_freeze_count() == entry


def test_a_process_frozen_by_its_caller_is_left_as_found():
    keep = [[i] for i in range(100)]    # something for the caller to freeze
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen >= len(keep)
        sim = Simulator()
        seen = []
        sim.process(_frozen_inside(sim, seen))
        sim.run()
        assert seen == [frozen]                 # not re-frozen inside
        assert gc.get_freeze_count() == frozen  # and not thawed on exit
    finally:
        gc.unfreeze()


def test_bulk_load_hands_over_what_it_planted():
    """After a load nothing planted is left "young" for the next burst of
    allocations to walk, the freeze state is as found outside a bracket,
    and inside one (a partitioned run's preload phase) the population
    joins the frozen model for the bracket's owner to thaw."""
    d = deploy(seed=7)
    files = [(f"/p{i}", 64 * KB) for i in range(300)]
    entry = gc.get_freeze_count()
    d.preload_files(files[:150], degree=1)
    assert gc.get_freeze_count() == entry
    assert gc.get_count()[0] < 100
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        d.preload_files(files[150:], degree=1)
        assert gc.get_freeze_count() > frozen + 150
    finally:
        gc.unfreeze()


def test_partitioned_run_brackets_once_not_per_grant():
    """``gc.freeze()`` zeroes the young-generation counters, so a bracket
    around every grant starves the young collector for the whole serve
    loop (0 collections while frozen, against ~20 here); bracketing the
    loop once leaves it running."""
    entry = gc.get_freeze_count()
    point = (8, 256, 300, 1.0)      # providers, files, sessions, duration
    spec = small_cluster(point[0], n_compute=20, capacity_per_node=4 << 30,
                         name="scale-8")
    pmap = partition_for_spec(spec, 2, cross_latency=5e-3)
    while_frozen = []

    def on_gc(phase, info):
        if phase == "start" and gc.get_freeze_count():
            while_frozen.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        out = run_partitioned(
            build_scale_program, (point, 0, pmap), pmap,
            [("until", 3.0), ("call", None), ("procs", None)],
            backend="inproc", fabric_latency=80e-6)
    finally:
        gc.callbacks.remove(on_gc)
    assert sum(len(res["rows"]) for res in out["results"]) == point[2]
    assert out["stats"].grants > 100
    assert len(while_frozen) >= 5
    assert gc.get_freeze_count() == entry
