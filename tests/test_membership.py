"""Tests for heartbeat membership management (Section 3.3)."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node, small_cluster
from repro.core.membership import (
    DEATH_FACTOR,
    MembershipManager,
    ProviderInfo,
)
from repro.network import Fabric
from repro.network.switch import LinkFault
from repro.sim import Simulator


def build(n_providers=3, n_listeners=1, interval=1.0):
    sim = Simulator()
    fabric = Fabric(sim)
    spec = small_cluster(n_providers, n_compute=n_listeners)
    nodes = {s.name: Node(sim, fabric, s) for s in spec.nodes}
    providers = {
        s.name: MembershipManager(nodes[s.name], interval, announce=True)
        for s in spec.storage_nodes
    }
    listeners = {
        s.name: MembershipManager(nodes[s.name], interval, announce=False)
        for s in spec.compute_nodes
    }
    return sim, nodes, providers, listeners


def test_everyone_learns_all_providers():
    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    expect = sorted(providers)
    for m in list(providers.values()) + list(listeners.values()):
        assert m.live_providers() == expect


def test_listener_is_not_a_member():
    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    lst = next(iter(listeners))
    assert all(lst not in m.members for m in providers.values())


def test_heartbeat_carries_load_info():
    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    m = next(iter(listeners.values()))
    info = m.info("s00")
    assert isinstance(info, ProviderInfo)
    assert info.available > 0
    assert 0.0 <= info.utilization <= 1.0


def test_dead_provider_removed_after_five_intervals():
    sim, nodes, providers, listeners = build(interval=1.0)
    sim.run(until=5)
    listener = next(iter(listeners.values()))
    t_crash = sim.now
    nodes["s01"].crash()
    # Not yet removed shortly after the crash...
    sim.run(until=t_crash + 2)
    assert "s01" in listener.members
    # ...but gone after 5 missed intervals (+ one check period slack).
    sim.run(until=t_crash + DEATH_FACTOR * 1.0 + 2.5)
    assert "s01" not in listener.members


def test_join_and_leave_callbacks():
    sim, nodes, providers, listeners = build()
    listener = next(iter(listeners.values()))
    joined, left = [], []
    listener.on_join.append(joined.append)
    listener.on_leave.append(left.append)
    sim.run(until=5)
    assert sorted(joined) == sorted(providers)
    nodes["s02"].crash()
    sim.run(until=20)
    assert left == ["s02"]


def test_rejoin_fires_join_again():
    sim, nodes, providers, listeners = build()
    listener = next(iter(listeners.values()))
    joined = []
    listener.on_join.append(joined.append)
    sim.run(until=5)
    nodes["s00"].crash()
    sim.run(until=sim.now + 15)
    assert "s00" not in listener.members
    nodes["s00"].restart()
    sim.run(until=sim.now + 5)
    assert "s00" in listener.members
    assert joined.count("s00") == 2


def test_snapshot_is_isolated_copy():
    """The snapshot must stay stable while the live view moves on.

    ProviderInfo records are frozen (heartbeats install replacements,
    never mutate), so a plain dict copy is a true stable snapshot — and
    callers cannot corrupt the live view through a snapshot value.
    """
    import dataclasses

    import pytest

    sim, nodes, providers, listeners = build()
    sim.run(until=5)
    m = next(iter(listeners.values()))
    snap = m.snapshot()
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap["s00"].load = 99.0
    before = snap["s00"]
    sim.run(until=sim.now + 3)  # heartbeats replace the live record
    assert m.last_heard("s00") > before.last_seen
    assert snap["s00"] is before  # the snapshot did not move


# ------------------------------- one record per announcement, flat expiry
def test_one_record_per_announcement_is_shared_by_every_view():
    sim, nodes, providers, listeners = build(n_providers=3, n_listeners=2)
    sim.run(until=5.5)
    views = list(providers.values()) + list(listeners.values())
    for h in providers:
        assert all(m.info(h) is providers[h].info(h) for m in views)
        # ``last_seen`` is the announce instant; each view keeps its own
        # receive instant beside the shared record.
        assert providers[h].info(h).last_seen == 5.0
        assert providers[h].last_heard(h) == 5.0
        assert all(5.0 < m.last_heard(h) < 5.001
                   for m in listeners.values())
    assert next(iter(listeners.values())).last_heard("nobody") is None


def test_a_heartbeat_round_in_flight_is_one_pending_event_per_announcer():
    """The pin on the saving, as a count: between a round's send and its
    arrival the kernel holds each node's check / announce / monitor
    timers and nothing per copy — every receiver already knows every
    announcer, so each copy waits on its board (20 x 23 = 460 events
    before ``call_fanout``, one train per announcer before the board)."""
    sim, nodes, providers, listeners = build(n_providers=20, n_listeners=4)
    sim.run(until=10 + 20e-6)           # sent at 10.0, arrives ~93 us later
    heard = [m.last_heard("s00") for m in listeners.values()]
    assert all(9.0 < t < 9.001 for t in heard)          # not yet arrived
    assert sim.pending_events <= 5 * len(nodes)
    sim.run(until=10.5)
    assert all(m.last_heard("s00") > 10.0 for m in listeners.values())


class _ScanOracle:
    """The reference the flat-expiry manager must match: an
    arrival-stamped *copy* per heartbeat and a full ``last_seen <
    deadline`` scan of the member records at every check."""

    def __init__(self, node, interval, log):
        self.sim, self.interval, self.log = node.sim, interval, log
        self.members = {}
        node.spawn(self._check_loop(), name="oracle-check")

    def observe(self, info):
        if info.hostid not in self.members:
            self.log.append((self.sim.now, "join", info.hostid))
        self.members[info.hostid] = dataclasses.replace(
            info, last_seen=self.sim.now)

    def _check_loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            deadline = self.sim.now - DEATH_FACTOR * self.interval
            for h in [h for h, info in self.members.items()
                      if info.last_seen < deadline]:
                del self.members[h]
                self.log.append((self.sim.now, "leave", h))


_INSTANTS = st.floats(0.5, 38.0)
_PROVIDERS = st.sampled_from([f"s{i:02d}" for i in range(5)])
_EVENTS = st.lists(st.one_of(
    st.tuples(_INSTANTS, st.just("crash"), _PROVIDERS, st.just(0.0)),
    # Crashes inside one interval: several deaths in one check.
    st.tuples(st.sampled_from([3.2, 3.4, 3.6, 20.5]), st.just("crash"),
              _PROVIDERS, st.just(0.0)),
    st.tuples(_INSTANTS, st.just("restart"), _PROVIDERS, st.just(0.0)),
    st.tuples(_INSTANTS, st.just("degrade"), _PROVIDERS,
              st.one_of(st.floats(0.0, 8.0), st.sampled_from([0.5, 5.0]))),
    st.tuples(_INSTANTS, st.just("restore"), _PROVIDERS, st.just(0.0)),
    st.tuples(_INSTANTS, st.just("clear"), _PROVIDERS, st.just(0.0)),
), max_size=12)


@given(_EVENTS)
@settings(max_examples=60, deadline=None)
def test_flat_expiry_matches_the_stamped_copy_full_scan_manager(events):
    """Random per-link extra latency (heartbeats bunch, overtake and go
    missing for seconds when it changes), crashes, restarts and view
    resets over 40 simulated seconds: joins, leaves and member order are
    those of :class:`_ScanOracle` fed the very same arrivals."""
    sim, nodes, providers, listeners = build(n_providers=5, n_listeners=2)
    pairs = []
    for name, real in listeners.items():
        log, ref_log = [], []
        oracle = _ScanOracle(nodes[name], real.interval, ref_log)
        real.on_join.append(lambda h, log=log: log.append((sim.now, "join", h)))
        real.on_leave.append(
            lambda h, log=log: log.append((sim.now, "leave", h)))

        def tee(info, src, real=real, oracle=oracle):
            oracle.observe(info)
            real._observe(info, src)

        nodes[name].runtime.register("heartbeat", tee, replace=True)
        nodes[name].board = None        # every copy an arrival, both see it
        pairs.append((real, oracle, log, ref_log))
    first = next(iter(listeners))

    def apply(event, _b):
        _t, kind, host, extra = event
        if kind == "crash":
            nodes[host].crash()
        elif kind == "restart" and not nodes[host].alive:
            nodes[host].restart()
        elif kind == "degrade":         # this provider -> the first listener
            nodes[host].fabric.degrade_link(
                host, first,
                LinkFault(rng=random.Random(0), extra_latency=extra))
        elif kind == "restore":
            nodes[host].fabric.restore_link(host, first)
        elif kind == "clear":
            pairs[0][0].clear()
            pairs[0][1].members.clear()

    for event in events:
        sim.call_later(event[0], apply, event, None)
    sim.run(until=40.0)
    for real, oracle, log, ref_log in pairs:
        assert log == ref_log
        assert list(real.members) == list(oracle.members)
        for h, copy in oracle.members.items():
            assert real.last_heard(h) == copy.last_seen
            assert dataclasses.replace(real.info(h), last_seen=0.0) == \
                dataclasses.replace(copy, last_seen=0.0)
        assert real.live_providers() == sorted(oracle.members)
