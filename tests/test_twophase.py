"""Tests for two-phase commit over the RPC fabric."""

import pytest

from repro.core.twophase import CommitAborted, two_phase_commit
from repro.network import Fabric
from repro.network.switch import Host
from repro.runtime import ServiceRuntime
from repro.sim import Simulator


class Participant:
    """Minimal 2PC participant recording its protocol events."""

    def __init__(self, sim, fabric, hostid, vote=True):
        host = Host(sim, hostid)
        fabric.attach(host)
        self.host = host
        self.ep = ServiceRuntime(sim, fabric, host)
        self.vote = vote
        self.events = []
        self.ep.register("seg_prepare", self._prepare)
        self.ep.register("seg_commit", self._commit)
        self.ep.register("seg_abort", self._abort)

    def _prepare(self, payload, src):
        self.events.append("prepare")
        return self.vote, 32

    def _commit(self, payload, src):
        self.events.append("commit")
        return True, 32

    def _abort(self, payload, src):
        self.events.append("abort")
        return True, 32


def build(votes):
    sim = Simulator()
    fabric = Fabric(sim)
    coord_host = Host(sim, "coord")
    fabric.attach(coord_host)
    coord = ServiceRuntime(sim, fabric, coord_host)
    parts = [Participant(sim, fabric, f"p{i}", vote=v)
             for i, v in enumerate(votes)]
    return sim, coord, parts


def test_all_yes_commits_everyone():
    sim, coord, parts = build([True, True, True])

    def proc():
        n = yield from two_phase_commit(
            coord, [(p.host.hostid, {"seg": i}) for i, p in enumerate(parts)]
        )
        return n

    assert sim.run_process(sim.process(proc())) == 3
    for p in parts:
        assert p.events == ["prepare", "commit"]


def test_one_no_aborts_everyone():
    sim, coord, parts = build([True, False, True])

    def proc():
        with pytest.raises(CommitAborted):
            yield from two_phase_commit(
                coord, [(p.host.hostid, {}) for p in parts]
            )

    sim.run_process(sim.process(proc()))
    for p in parts:
        assert p.events == ["prepare", "abort"]
        assert "commit" not in p.events


def test_dead_participant_counts_as_no():
    sim, coord, parts = build([True, True])
    parts[1].host.alive = False

    def proc():
        with pytest.raises(CommitAborted):
            yield from two_phase_commit(
                coord, [(p.host.hostid, {}) for p in parts]
            )

    sim.run_process(sim.process(proc()))
    assert parts[0].events == ["prepare", "abort"]


def test_empty_participant_list():
    sim, coord, parts = build([])

    def proc():
        n = yield from two_phase_commit(coord, [])
        return n

    assert sim.run_process(sim.process(proc())) == 0


def test_prepares_run_in_parallel():
    """Phase 1 must fan out, not serialize."""
    sim, coord, _ = build([])
    fabric = coord.fabric
    slow = []
    for i in range(4):
        p = Participant(sim, fabric, f"s{i}")

        def slow_prepare(payload, src, p=p):
            yield sim.timeout(1.0)
            return True, 32

        p.ep.unregister("seg_prepare")
        p.ep.register("seg_prepare", slow_prepare)
        slow.append(p)

    def proc():
        t0 = sim.now
        yield from two_phase_commit(
            coord, [(p.host.hostid, {}) for p in slow]
        )
        return sim.now - t0

    elapsed = sim.run_process(sim.process(proc()))
    # 4 sequential prepares would take >= 4 s; parallel ~1 s (+ rpc time).
    assert elapsed < 1.5
