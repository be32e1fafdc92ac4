"""A heartbeat from a known member is read where it lands (the board).

The fabric appends such a copy to the receiving node's board at send
time instead of scheduling its delivery; the view reads it at the next
access whose dispatching key it precedes.  The reference for everything
here is eager delivery — every copy an event — obtained by installing
no board at all.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Node, small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.membership import (
    DEATH_FACTOR,
    HEARTBEAT_GROUP,
    MembershipManager,
)
from repro.faults import (
    FaultPlan,
    Heal,
    LinkDegrade,
    LinkRestore,
    NodeCrash,
    NodeRestart,
    Partition,
    inject,
)
from repro.network import Fabric
from repro.network.switch import LinkFault
from repro.sim import Simulator


def _eager(monkeypatch):
    """Every heartbeat copy a delivery event, as before the board: a view
    leaves its node with no board.  A deployment's view plants its first
    round all the same (the planted-formation tests compare that with
    grown formation) and has no board from then on."""
    init, expect, form = (MembershipManager.__init__,
                          MembershipManager.expect, MembershipManager.form)

    def eager_init(self, node, *args, **kwargs):
        init(self, node, *args, **kwargs)
        node.board = None

    def planting_expect(self, hostids):
        self.node.board = (HEARTBEAT_GROUP, self.members, self._board)
        expect(self, hostids)

    def eager_form(self):
        form(self)
        self.node.board = None

    monkeypatch.setattr(MembershipManager, "__init__", eager_init)
    monkeypatch.setattr(MembershipManager, "expect", planting_expect)
    monkeypatch.setattr(MembershipManager, "form", eager_form)


def _views(dep):
    views = {h: p.membership for h, p in dep.providers.items()}
    views.update(dep.memberships)
    return views


def _view(m):
    """Everything a membership view shows."""
    return (list(m.members), {p: m.last_heard(p) for p in m.members},
            {p: m.info(p) for p in m.members})


def _run_plan(plan, horizon=24.0):
    """Four providers and two listeners, ``plan`` from t = 0.5: every
    join / leave callback with its instant and the view it sees, every
    view each 0.75 s, each provider's RNG state, the clock."""
    dep = SorrentoDeployment(small_cluster(4, n_compute=2),
                             SorrentoConfig(seed=5, n_providers=4))
    sim = dep.sim
    views = sorted(_views(dep).items())
    log = []
    for h, m in views:
        for kind, hooks in (("join", m.on_join), ("leave", m.on_leave)):
            hooks.append(lambda p, h=h, m=m, kind=kind: log.append(
                (sim.now, h, kind, p, _view(m))))
    sim.run(until=0.5)
    inject(SimpleNamespace(sim=sim, fabric=dep.fabric, nodes=dep.nodes), plan)
    samples = []
    t = sim.now
    while t < horizon:
        t += 0.75
        sim.run(until=t)
        samples.append([_view(m) for _h, m in views])
    rngs = {h: p.rng.getstate() for h, p in sorted(dep.providers.items())}
    return log, samples, rngs, sim.now


_HOSTS = ["s00", "s01", "s02", "s03", "c00", "c01"]
_T = st.sampled_from([0.0, 0.3, 1.0, 2.5, 4.0, 6.2, 9.0, 13.0])
_host = st.sampled_from(_HOSTS)
_FAULT = st.one_of(
    st.tuples(_T, st.just("crash"), _host),
    st.tuples(_T, st.just("bounce"), _host),            # crash + restart now
    st.tuples(_T, st.just("restart"), _host),
    st.tuples(_T, st.just("partition"), _host),
    st.tuples(_T, st.just("heal"), _host),
    st.tuples(_T, st.just("duplicate"), _host),
    st.tuples(_T, st.just("slow"), _host),              # 1.6 s > interval
    st.tuples(_T, st.just("stall"), _host),             # > death timeout
    st.tuples(_T, st.just("restore"), _host),
)


def _plan(faults):
    plan = FaultPlan()
    for t, kind, host in faults:
        if kind == "crash":
            plan.at(t, NodeCrash(host))
        elif kind == "bounce":
            plan.at(t, NodeCrash(host))
            plan.at(t, NodeRestart(host))
        elif kind == "restart":
            plan.at(t, NodeRestart(host))
        elif kind == "partition":
            plan.at(t, Partition((host,)))
        elif kind == "heal":
            plan.at(t, Heal())
        elif kind == "duplicate":
            plan.at(t, LinkDegrade(src=host, duplicate=0.6))
        elif kind in ("slow", "stall"):
            plan.at(t, LinkDegrade(src=host, dst="c00", jitter=0.3,
                                   extra_latency=1.6 if kind == "slow"
                                   else DEATH_FACTOR + 0.6))
        else:
            plan.at(t, LinkRestore(src=host))
            plan.at(t, LinkRestore(src=host, dst="c00"))
    return plan


@given(st.lists(_FAULT, max_size=7))
@example([(1.0, "slow", "s01"), (2.5, "crash", "c00"),
          (2.5, "restart", "c00"), (4.0, "bounce", "s02"),
          (6.2, "partition", "s03"), (9.0, "heal", "s03")])
@example([(0.0, "duplicate", "s00"), (0.3, "slow", "s02"),
          (1.0, "stall", "s03"), (2.5, "crash", "s01"),
          (9.0, "restart", "s01"), (13.0, "restore", "s03")])
@example([(0.0, "stall", "s02"), (1.0, "slow", "s02")])   # overtaking
@settings(max_examples=40, deadline=None)
def test_the_board_shows_what_eager_delivery_shows(faults):
    """Crashes, restarts at the same and a later instant, partitions and
    heals, duplicated copies and a link slower than the heartbeat
    interval (two copies of one sender in flight, death verdicts with
    copies in flight): every node's members, ``last_heard`` and records
    at each sample, every join / leave callback and its instant, each
    provider's RNG state and the final clock are those of eager
    delivery.  The views are read from outside between runs and from
    inside every callback."""
    got = _run_plan(_plan(faults))
    with pytest.MonkeyPatch.context() as mp:
        _eager(mp)
        want = _run_plan(_plan(faults))
    assert got == want


# ------------------------------------------------------- targeted cases
def _rig():
    """Three announcing providers and one listener, ``c00``."""
    sim = Simulator()
    fabric = Fabric(sim)
    spec = small_cluster(3, n_compute=1)
    nodes = {s.name: Node(sim, fabric, s) for s in spec.nodes}
    views = {s.name: MembershipManager(nodes[s.name], 1.0,
                                       announce=s in spec.storage_nodes)
             for s in spec.nodes}
    return sim, fabric, nodes, views


def _death_with_a_copy_in_flight():
    sim, fabric, nodes, views = _rig()
    listener = views["c00"]
    log = []
    listener.on_join.append(lambda h: log.append((sim.now, "join", h)))
    listener.on_leave.append(lambda h: log.append((sim.now, "leave", h)))
    sim.run(until=3.5)
    # From now on s01's heartbeats take longer than the death timeout to
    # reach c00, so c00 declares s01 dead with its next copy in flight.
    fabric.degrade_link("s01", "c00", LinkFault(
        rng=random.Random(0), extra_latency=DEATH_FACTOR * 1.0 + 0.7))
    sim.run(until=14.0)
    return log, listener.last_heard("s01"), sim.now


def test_a_death_verdict_with_a_copy_in_flight_rejoins_the_sender():
    got = log, heard, _now = _death_with_a_copy_in_flight()
    leaves = [e for e in log if e[1:] == ("leave", "s01")]
    joins = [e for e in log if e[1:] == ("join", "s01")]
    assert len(leaves) == 1 and len(joins) == 2
    # The copy that was on the board when the verdict fell arrives as
    # a join, after the leave, at its own arrival instant.
    assert joins[1][0] > leaves[0][0] and joins[1][0] % 1.0 > 0.7
    assert heard is not None
    with pytest.MonkeyPatch.context() as mp:
        _eager(mp)
        assert _death_with_a_copy_in_flight() == got


def _read_at_arrival():
    """Reads of the listener's view at the exact instant the t = 5 copy
    from ``s00`` lands: under a lane just before the copy's, just after
    it, and at lane 0 (a local event at that instant)."""
    sim, _fabric, _nodes, views = _rig()
    sim.run(until=5.0 + 10e-3)
    when = views["c00"].last_heard("s00")       # where that copy landed
    sim, _fabric, nodes, views = _rig()         # the same world again
    seen = {}

    def read(tag, _b):
        seen[tag] = views["c00"].last_heard("s00")

    lane = nodes["s00"].lane_to(nodes["c00"])
    sim.run(until=5.0 + 20e-6)                  # the round is in flight
    for tag, at in (("local", 0), ("before", lane - 1), ("after", lane + 1)):
        sim.call_at(when, read, tag, None, lane=at)
    sim.run(until=6.5)
    return when, seen


def test_a_copy_read_at_its_own_arrival_instant_follows_the_key_rule():
    when, seen = _read_at_arrival()
    assert 5.0 < when < 5.001
    assert seen["local"] < 5.0 and seen["before"] < 5.0
    assert seen["after"] == when
    with pytest.MonkeyPatch.context() as mp:
        _eager(mp)
        assert _read_at_arrival() == (when, seen)


def test_every_step_moves_the_dispatching_key_a_swept_entry_too():
    """Between ``step()`` calls a view reads under the key of the entry
    popped last, so that key must follow ``now`` onto an entry the kernel
    sweeps (a reply's queued answer its deadline already delivered) as
    onto one it dispatches."""
    sim = Simulator()
    slot = []
    sim.call_later(1.0, lambda _a, _b: slot[0].resolve("x"), None, None)
    slot.append(sim.reply(1.0))     # deadline at 1.0, after the answer's call
    keys = []
    while sim.pending_events:
        sim.step()
        keys.append(sim._key)
    assert sim._nswept == 1 and len(keys) == 3
    assert keys == sorted(set(keys)) and keys[-1][0] == sim.now == 1.0


def test_a_known_members_heartbeat_is_no_event_and_a_strangers_is():
    """At formation every copy is a join (an event); once every view
    knows every provider, a round schedules no delivery at all."""
    sim, fabric, nodes, views = _rig()
    sim.run(until=0.5)
    assert all(sorted(v.members) == ["s00", "s01", "s02"]
               for v in views.values())
    before = sim._nprocessed
    sim.run(until=10.5)
    # Ten rounds: per node a load sample and a member check, per
    # provider an announcement — and not one delivery.
    assert sim._nprocessed - before == 10 * (2 * len(nodes) + 3)
    assert views["c00"].last_heard("s02") > 10.0
