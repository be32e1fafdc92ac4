"""Planted formation: a deployment built at t = 0 starts formed.

The first heartbeat round lands on every board, and one callback, once
the round is sent, joins each view's senders in arrival-key order
(``MembershipManager.expect`` / ``form``).  The reference is grown
formation — every first-round copy a join delivery — reached by patching
the planting out (``expect`` a no-op).  A provider's join refreshes wait
in one queue (``LocationOwner.on_join``); its reference is one
``node.defer`` per join, as the refresh was scheduled before the queue.
"""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.location import LocationOwner
from repro.core.membership import MembershipManager
from repro.core.segment import SYNTHETIC, StoredSegment
from repro.network.switch import LinkFault
from repro.sim.parallel import PartitionMap
from repro.workloads.smallfile import session_loop


def _grown(mp):
    """Planting patched out: every first-round copy is a join delivery."""
    mp.setattr(MembershipManager, "expect", lambda self, hostids: None)


def _digest(registry):
    """Every metrics row but the server's ``heartbeat`` (planted joins
    are no deliveries, so that row is the one that may differ)."""
    rows = sorted(
        (key, st.calls, st.ok, st.errors, st.timeouts, st.oneways,
         st.bytes_out, st.bytes_in, round(st.latency_total, 9))
        for key, st in registry._stats.items()
        if key != ("server", "heartbeat"))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _views(dep):
    views = {h: p.membership for h, p in dep.providers.items()}
    views.update(dep.memberships)
    return sorted(views.items())


def _rings(dep, clients):
    rings = [(h, p.owner.ring, p.membership)
             for h, p in sorted(dep.providers.items())]
    rings += [(c.node.hostid, c.ring, c.membership) for c in clients]
    probes = [random.Random(i).getrandbits(128) for i in range(40)]
    return [(h, sorted(ring._current),
             [ring.home_host(s, m.live_providers()) for s in probes])
            for h, ring, m in rings]


def _world(n, fault=None):
    """``n`` providers and two clients with files planted before the
    first run (so the join refreshes have something to send): the views
    after their first read, the rings, each provider's RNG state and
    every join refresh that fires, with its key, then a 3 s session
    window's metrics digest and event count."""
    dep = SorrentoDeployment(small_cluster(n, n_compute=2),
                             SorrentoConfig(seed=7, n_providers=n))
    dep.preload_files(((f"/pre/f{i}", 40_000) for i in range(6 * n)),
                      degree=2)
    clients = dep.clients_on_compute(2)
    if fault is not None:
        fault(dep.fabric)
    sim, fired = dep.sim, []
    for h, p in dep.providers.items():
        def toward(joiner, h=h, refresh=p.owner._refresh_toward):
            fired.append((sim._key[:3], h, joiner))
            refresh(joiner)
        p.owner._refresh_toward = toward
    sim.run(until=0.5)
    views = [(h, list(m.members), {p: m.last_heard(p) for p in m.members},
              {p: m.info(p) for p in m.members}) for h, m in _views(dep)]
    rngs = {h: p.rng.getstate() for h, p in sorted(dep.providers.items())}
    formed = (views, _rings(dep, clients), rngs)
    sim.run(until=21.5)                     # every join refresh fell due
    dep.run(clients[0].mkdir("/tput"))
    before = sim._nprocessed
    counter = [0]
    for i, c in enumerate(clients):
        sim.process(session_loop(c, f"c{i}", counter, 3.0))
    sim.run(until=sim.now + 3.0)
    window = (counter[0], sim.now, _digest(dep.metrics),
              sim._nprocessed - before, dep.fabric.messages_sent)
    joins = dep.metrics.scope("server")["heartbeat"].calls
    return formed, fired, window, joins


@pytest.mark.parametrize("n", [3, 8])
def test_planted_formation_is_grown_formation(n):
    """Member order, records and ``_seen`` after the first read, every
    ring, each provider's RNG, the join refreshes that fire and where
    (``(when, priority, lane)`` — the seq is drawn at another instant),
    and a following 3 s window — without one join delivery."""
    planted = _world(n)
    with pytest.MonkeyPatch.context() as mp:
        _grown(mp)
        grown = _world(n)
    assert planted[:3] == grown[:3]
    assert len(planted[1]) == n * (n - 1)
    assert planted[3] == 0 and grown[3] == n * (n + 1)


_FAULTS = {
    "link fault": lambda fabric: fabric.degrade_link(
        "s01", "*", LinkFault(rng=random.Random(3), extra_latency=2e-3,
                              duplicate=0.5)),
    "partition": lambda fabric: fabric.partition(["s00"], ["s02", "c01"]),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_fault_at_formation_grows_it(fault):
    """A partition or link fault installed before the first round is sent
    makes each first-round copy the delivery it would have been: the
    whole world is grown formation's, join deliveries included."""
    planted = _world(5, _FAULTS[fault])
    with pytest.MonkeyPatch.context() as mp:
        _grown(mp)
        grown = _world(5, _FAULTS[fault])
    assert planted == grown
    assert planted[3] > 0


def test_a_partitioned_build_grows():
    """With a transit (the conservative-parallel cut) copies that cross it
    are replays, not board entries: nothing is planted."""
    spec = small_cluster(4, n_compute=1)
    pmap = PartitionMap({s.name: i % 2 for i, s in enumerate(spec.nodes)}, 2)
    dep = SorrentoDeployment(spec, SorrentoConfig(seed=1, partition=pmap))
    assert all(m.node.board[1] is m.members for _h, m in _views(dep))


# ------------------------------------------- the queue against defer
def _deferred_on_join(self, hostid):
    """The join refresh as it was scheduled before the queue."""
    if hostid == self.node.hostid:
        return
    delay = self.rng.random() * self.params.join_refresh_delay_max
    self.node.defer(delay, self._refresh_toward, hostid)


_T = st.floats(0.0, 30.0)
_P = st.sampled_from(["s00", "s01", "s02", "s03"])
_OPS = st.lists(st.one_of(
    st.tuples(_T, st.just("plant"), _P, st.integers(1, 6)),
    st.tuples(_T, st.just("wipe"), _P, st.just(0)),
    st.tuples(_T, st.just("lose"), _P, st.just(0)),
    st.tuples(_T, st.just("crash"), _P, st.just(0)),
    st.tuples(_T, st.just("restart"), _P, st.just(0)),
    st.tuples(_T, st.just("add"), st.just("s04"), st.just(0)),
), max_size=10)


def _refreshes(ops):
    """Every join refresh that sends, with its full key, on four grown
    providers under ``ops``; and each provider's RNG state at the end."""
    dep = SorrentoDeployment(small_cluster(4, n_compute=1),
                             SorrentoConfig(seed=3, n_providers=4))
    sim, sent, rng = dep.sim, [], random.Random(11)

    def watch(p):
        def toward(joiner, refresh=p.owner._refresh_toward):
            members = p.membership.live_providers()
            if joiner in members and p.owner._by_home(members).get(joiner):
                sent.append((sim._key[:4], p.node.hostid, joiner))
            refresh(joiner)
        p.owner._refresh_toward = toward

    def apply(op, _b):
        _t, kind, host, k = op
        if kind == "add":
            if host not in dep.providers:
                watch(dep.add_provider(small_cluster(5).storage_nodes[4]))
            return
        p, node = dep.providers[host], dep.nodes[host]
        if kind == "plant":
            for _ in range(k):
                seg = StoredSegment(rng.getrandbits(128), 1, 4096, True,
                                    last_access=sim.now)
                seg.extents.set_range(0, 4096, SYNTHETIC)
                p.store.plant(seg)
        elif kind == "wipe":
            p.store.wipe()
        elif kind == "lose" and p.store.committed_segments():
            p.store.lose_segment(p.store.committed_segments()[0].segid)
        elif kind == "crash":
            node.crash()
        elif kind == "restart":
            node.restart()

    for p in dep.providers.values():
        watch(p)
    for op in sorted(ops):
        sim.call_at(op[0], apply, op, None)
    sim.run(until=60.0)
    return sent, {h: p.rng.getstate() for h, p in sorted(dep.providers.items())}


@given(_OPS)
@example([(0.0, "plant", "s00", 3), (0.0, "plant", "s01", 1),
          (4.0, "wipe", "s00", 0), (9.0, "plant", "s00", 2)])
@example([(2.0, "plant", "s02", 4), (3.0, "crash", "s02", 0),
          (12.0, "restart", "s02", 0), (14.0, "add", "s04", 0)])
@settings(max_examples=25, deadline=None)
def test_the_queue_fires_what_a_deferral_per_join_sent(ops):
    """Empty and refilled stores, lost segments, crashes and restarts
    (joins after a death verdict) and a provider added at runtime: the
    queue fires every refresh a deferral per join fired that sends
    something, under the same ``(when, priority, lane, seq)``, and each
    provider's RNG ends where it did."""
    with pytest.MonkeyPatch.context() as mp:
        _grown(mp)
        got = _refreshes(ops)
        mp.setattr(LocationOwner, "on_join", _deferred_on_join)
        want = _refreshes(ops)
    assert got == want
