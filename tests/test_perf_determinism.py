"""Determinism regression for the kernel/transport fast path.

Two guarantees, checked on a small Figure-10-like scenario:

1. *Replay*: two same-seed runs in one interpreter produce identical
   results down to the event count — pools, FIFOs, and deadline queues
   leak no cross-run state.

2. *Golden*: the behaviour-visible outcome (final clock, completed
   sessions, fabric message count, and a hash of every RPC metric
   counter) matches recorded values.  The kernel optimizations may only
   remove bookkeeping events — never change what the simulation
   computes.  ``_nprocessed`` is deliberately *not* part of the golden:
   dropping dead events is the point of the optimization.

3. *Cost counters*: what the traffic window costs the kernel — events
   dispatched, answer slots retired, messages sent — is seed-determined too,
   and pinned exactly beside the golden (not inside it: a kernel change
   that removes bookkeeping events re-records this block only, and says
   so).  Wall time is noise on this box; these are the guarded numbers.

The goldens below were deliberately re-recorded when the client
location cache + vectored I/O landed: those features *intentionally*
change the RPC mix (fewer ``loc_lookup``/``seg_read`` calls, more
sessions per second), so the pre-cache values could not survive.  The
replay tests remain the determinism proof; the goldens pin the new
behaviour against accidental drift from here on.

``metrics_sha256`` carried two ``cache|route_*`` rows while the client
router kept a route cache of its own; with the cache gone the digests
are again exactly the ones recorded before it.
"""

import hashlib

from repro.experiments.common import cluster_a_like, sorrento_on
from repro.workloads.smallfile import session_loop

#: Re-recorded (deliberately, exactly once per change) when: the client
#: location/meta caches landed (pre-cache: sessions=149,
#: messages_sent=3055), and again when the kernel's same-instant
#: delivery-lane tie-break landed (pre-lane: messages_sent=3134) — wire
#: deliveries now order by stable (src, dst) lane instead of heap
#: insertion order, a different-but-equally-legal interleaving.
#: ``metrics_sha256`` (this one, ``GOLDEN_FAULTS``' and ``GOLDEN_RAID``'s)
#: was re-recorded once more when a known member's heartbeat came to be
#: read where it lands: that is no handler execution, so the server scope
#: books only the heartbeats delivered as events (joins).  With the
#: ``("server", "heartbeat")`` row left out, all three digests are the
#: ones recorded before.  All three were re-recorded once more when a
#: deployment's first heartbeat round came to be planted: its joins are
#: no deliveries either, so the row counts only joins after formation
#: (a restart's) and is gone where there are none.  With the row left
#: out the digests are again the ones recorded before (``GOLDEN``'s,
#: which now has no such row, is exactly that digest).
GOLDEN = {
    "clock": 9.509108141,
    "sessions": 153,
    "messages_sent": 3137,
    "metrics_sha256":
        "e3fd767c6e6d10d9d159795f42979cc22e91c5352207d78e94ddd89b81b1b499",
}


#: Kernel cost of the traffic window (153 sessions): 39.4 events, 10.0
#: retired answer slots and 20.3 messages per session.  Re-record (this block
#: only) when a kernel/transport change adds or removes bookkeeping
#: events on purpose; the ceiling is ROADMAP item 3's events/session.
#: ``events`` alone has moved since it was recorded.  8 691 -> 8 538:
#: each session's commit makes its home host defer one maturity re-check,
#: which was a process (a bootstrap kick, then its timeout) and is one
#: callback — 153 kicks fewer.  8 538 -> 6 090: an RPC answer resumes its
#: caller inside its delivery, and a one-branch ``gather`` runs in the
#: caller's process — events that were always the next one, nothing else.
#: 6 090 -> 6 030: a known member's heartbeat is read where it lands on
#: the receiver's board, not delivered — the window's 60 such copies.
#: ``swept_timers`` moved once, 1 409 -> 1 529, when it stopped counting
#: tombstones popped from the heap and started counting answer slots
#: retired unfired: an answered slot now leaves its timeout value's queue
#: when the next slot of that value opens, not 5 s later, so the window
#: also counts the answers of its last 5 s.
GOLDEN_COST = {"events": 6030, "swept_timers": 1529, "messages": 3107}
MAX_EVENTS_PER_SESSION = 60


def metrics_digest(registry):
    """Hash of every counter the metrics layer accumulates, in a stable
    order — any behavioural drift in the RPC path lands in here."""
    rows = []
    for (scope, service), st in sorted(registry._stats.items()):
        rows.append((scope, service, st.calls, st.ok, st.errors, st.timeouts,
                     st.retries, st.oneways, st.bytes_out, st.bytes_in,
                     round(st.latency_total, 9)))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def run_scenario(seed=11, n_clients=2, duration=3.0):
    dep = sorrento_on(cluster_a_like(n_storage=4, n_clients=n_clients),
                      n_providers=4, degree=2, seed=seed, warm=6.0)
    clients = dep.clients_on_compute(n_clients)
    dep.run(clients[0].mkdir("/tput"))
    counter = [0]
    sim = dep.sim
    before = (sim._nprocessed, sim._nswept, dep.fabric.messages_sent)
    for i, c in enumerate(clients):
        sim.process(session_loop(c, f"c{i}", counter, duration))
    sim.run(until=sim.now + duration + 0.5)
    return {
        "clock": round(sim.now, 9),
        "sessions": counter[0],
        "messages_sent": dep.fabric.messages_sent,
        "metrics_sha256": metrics_digest(dep.metrics),
        "nprocessed": sim._nprocessed,
        "events": sim._nprocessed - before[0],
        "swept_timers": sim._nswept - before[1],
        "messages": dep.fabric.messages_sent - before[2],
    }


def test_same_seed_replays_identically():
    a = run_scenario()
    b = run_scenario()
    assert a == b  # including _nprocessed: the schedule itself is identical


def test_matches_pre_optimization_golden():
    got = run_scenario()
    visible = {k: got[k] for k in GOLDEN}
    assert visible == GOLDEN


def test_traffic_window_costs_exactly_the_recorded_events():
    got = run_scenario()
    assert {k: got[k] for k in GOLDEN_COST} == GOLDEN_COST
    assert got["events"] <= MAX_EVENTS_PER_SESSION * got["sessions"]


def test_different_seed_actually_differs():
    """Guard against the scenario being degenerate (nothing seeded)."""
    assert run_scenario(seed=11) != run_scenario(seed=12)


# ---------------------------------------------------------------- faults
def run_faulted_scenario(seed=11, n_clients=2, duration=6.0):
    """The same scenario with an active FaultPlan exercising every hook:
    a partition that heals, a lossy/duplicating/jittery link, a slow disk
    that errors, and a crash/restart — all drawn from named RNG streams."""
    from repro.faults import (
        DiskFault,
        DiskHeal,
        FaultPlan,
        Heal,
        LinkDegrade,
        LinkRestore,
        NodeCrash,
        NodeRestart,
        Partition,
        inject,
    )

    dep = sorrento_on(cluster_a_like(n_storage=4, n_clients=n_clients),
                      n_providers=4, degree=2, seed=seed, warm=6.0)
    clients = dep.clients_on_compute(n_clients)
    dep.run(clients[0].mkdir("/tput"))
    victims = sorted(dep.providers)
    spare = victims[-1] if victims[-1] != dep.ns_host else victims[-2]
    slow = victims[1] if victims[1] != dep.ns_host else victims[2]
    plan = (FaultPlan()
            .at(0.5, LinkDegrade(drop=0.05, duplicate=0.1, jitter=0.001))
            .at(1.0, Partition((spare,)))
            .at(1.5, DiskFault(slow, error_rate=0.02, slowdown=3.0))
            .at(2.0, Heal())
            .at(2.5, NodeCrash(spare))
            .at(3.5, NodeRestart(spare))
            .at(4.0, DiskHeal(slow))
            .at(4.5, LinkRestore()))
    controller = inject(dep, plan)
    counter = [0]
    for i, c in enumerate(clients):
        dep.sim.process(session_loop(c, f"c{i}", counter, duration))
    dep.sim.run(until=dep.sim.now + duration + 0.5)
    return {
        "clock": round(dep.sim.now, 9),
        "sessions": counter[0],
        "messages_sent": dep.fabric.messages_sent,
        "messages_dropped": dep.fabric.messages_dropped,
        "messages_duplicated": dep.fabric.messages_duplicated,
        "fault_events": len(controller.timeline),
        "metrics_sha256": metrics_digest(dep.metrics),
        "nprocessed": dep.sim._nprocessed,
    }


#: Recorded when the fault plane landed; re-recorded with the client
#: location cache (previously sessions=47, messages_sent=1041) and with
#: the kernel's same-instant delivery-lane tie-break (pre-lane:
#: sessions=50, messages_sent=1098).  A drift here means injected faults
#: (or the hooks they flow through) changed behaviour.
GOLDEN_FAULTS = {
    "clock": 12.509108141,
    "sessions": 48,
    "messages_sent": 1057,
    "messages_dropped": 16,
    "messages_duplicated": 9,
    "fault_events": 8,
    "metrics_sha256":
        "515afe5e96b0925618d62e116c1db2fe046ec0d10f75931b96a657ac86cbc28a",
}


def test_fault_plan_replays_identically():
    """Bit-identical same-seed replay with every fault hook active."""
    a = run_faulted_scenario()
    b = run_faulted_scenario()
    assert a == b
    assert a["messages_dropped"] > 0
    assert a["messages_duplicated"] > 0


def test_fault_plan_matches_recorded_golden():
    got = run_faulted_scenario()
    visible = {k: got[k] for k in GOLDEN_FAULTS}
    assert visible == GOLDEN_FAULTS


def test_inactive_fault_plane_leaves_the_golden_untouched():
    """Merely having the fault plane importable/installed must not perturb
    the original scenario: hooks draw no RNG and add no events when idle."""
    got = run_scenario()
    visible = {k: got[k] for k in GOLDEN}
    assert visible == GOLDEN


# ------------------------------------------------------------------ RAID-0
def run_raid_scenario(seed=11, duration=12.0):
    """Bulk reads and writes on Cluster-B-like hosts, whose providers
    export a RAID-0 of three disks (``GOLDEN`` and ``GOLDEN_FAULTS`` run
    on one disk per host): one RAID host's disks slow down and throw
    media errors, then another provider crashes.  Requests of 2 MB stripe
    over all three members; metadata and journal I/O fit one stripe unit."""
    import random

    from repro.experiments.common import cluster_b_like
    from repro.faults import DiskFault, FaultPlan, NodeCrash, inject
    from repro.workloads.bulk import bulk_client, populate

    mb = 1 << 20
    dep = sorrento_on(cluster_b_like(n_storage=6, n_clients=6),
                      n_providers=6, degree=2, seed=seed, warm=6.0)
    paths = populate(dep, 12, 16 * mb, degree=2)
    victims = sorted(h for h in dep.providers if h != dep.ns_host)
    crashed, faulty = victims[0], victims[1]
    controller = inject(dep, FaultPlan()
                        .at(0.5, DiskFault(faulty, error_rate=0.05,
                                           slowdown=2.5))
                        .at(3.0, NodeCrash(crashed)))
    progress = []
    t0 = dep.sim.now
    for i, c in enumerate(dep.clients_on_compute(6)):
        dep.sim.process(bulk_client(
            c, paths[2 * i:2 * i + 2], 1 << 60, write=i >= 3,
            rng=random.Random(seed + i), file_size=16 * mb,
            request=2 * mb, progress=progress, deadline=t0 + duration))
    dep.sim.run(until=t0 + duration + 0.5)
    return {
        "clock": round(dep.sim.now, 9),
        "requests": len(progress),
        "progress_sha256": hashlib.sha256(repr(progress).encode()).hexdigest(),
        "disk_errors": dep.nodes[faulty].device.io_errors,
        "messages_sent": dep.fabric.messages_sent,
        "fault_events": len(controller.timeline),
        "metrics_sha256": metrics_digest(dep.metrics),
    }


#: Recorded before a striped request became one kernel event (each member
#: drive's completion was an event of its own, joined by an ``AllOf``).
#: Re-recorded when a failed read began re-locating through the home host
#: instead of probing: the 6 read fallbacks of the probe-only path (one of
#: which raised) became 4 — two read the replica the home named, two
#: probed because the home still named only the failed owner, none raised
#: (previously requests=140, messages_sent=2719).  Re-recorded when the
#: scalar and vectored segment RPCs became one piece-list ``seg_read`` /
#: ``seg_write`` with one byte rule: the 26 multi-piece reads and 6
#: multi-piece writes now charge each piece as a one-piece call does (no
#: 48 B reply header, 16 B per hint entry), and the 2 read and 5 write
#: failures are failed pieces of answered calls rather than RPC errors;
#: clock, requests, messages_sent and disk_errors did not move.
GOLDEN_RAID = {
    "clock": 18.5,
    "requests": 149,
    "progress_sha256":
        "4ca6cc74b20637a432971579e742ead1abbf1e0c57d04320ae933f9fe7b62896",
    "disk_errors": 16,
    "messages_sent": 2928,
    "fault_events": 2,
    "metrics_sha256":
        "4f57b58607789c706b5de575cebc46f04c1eed4946a245c2c217eef06394d975",
}


def test_raid_scenario_matches_recorded_golden():
    assert run_raid_scenario() == GOLDEN_RAID
