"""Property tests: consistent hashing under membership churn.

The location protocol's efficiency rests on the classic consistent-
hashing guarantee: membership changes only remap keys touching the
changed node.  These tests drive arbitrary join/leave sequences, and —
since the ring is maintained incrementally — prove that splicing vnode
points in and out is indistinguishable from rebuilding from scratch,
and that churn never triggers a rebuild or re-hashing.
"""

import bisect
import functools
import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import hashing
from repro.core.hashing import HashRing, _point
from tests.test_message_cost import _count_calls

KEYS = list(range(0, 3_000_000, 4099))  # ~730 spread-out segids


def reference_home(ring: HashRing, segid: int, members) -> str:
    """From-scratch rebuild: the seed implementation's full sort."""
    points = sorted(
        (_point(f"{host}#{i}"), host)
        for host in members for i in range(ring.vnodes)
    )
    import hashlib

    key = int.from_bytes(
        hashlib.sha1(segid.to_bytes(16, "big")).digest()[:8], "big")
    i = bisect.bisect_right([p for p, _ in points], key)
    if i == len(points):
        i = 0
    return points[i][1]


def snapshot(ring, members):
    return {k: ring.home_host(k, members) for k in KEYS}


@settings(max_examples=25, deadline=None)
@given(
    n_initial=st.integers(min_value=2, max_value=10),
    events=st.lists(st.tuples(st.sampled_from("jl"),
                              st.integers(min_value=0, max_value=14)),
                    min_size=1, max_size=8),
)
def test_churn_only_moves_keys_involving_changed_node(n_initial, events):
    ring = HashRing(vnodes=32)
    members = {f"n{i}" for i in range(n_initial)}
    before = snapshot(ring, sorted(members))
    for kind, idx in events:
        host = f"n{idx}"
        if kind == "j":
            changed = host not in members
            members.add(host)
        else:
            if len(members) == 1:
                continue
            changed = host in members
            members.discard(host)
        after = snapshot(ring, sorted(members))
        for k in KEYS:
            if before[k] != after[k]:
                # Every remapped key either left the removed node or
                # landed on the added node.
                assert changed
                assert after[k] == host or before[k] == host, (
                    k, before[k], after[k], kind, host)
        before = after


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_join_takes_fair_share(n):
    """A new node's share of keys is within sane bounds of 1/(n+1)."""
    ring = HashRing(vnodes=64)
    members = sorted(f"n{i}" for i in range(n))
    before = snapshot(ring, members)
    after = snapshot(ring, members + ["newbie"])
    moved = sum(1 for k in KEYS if before[k] != after[k])
    fair = len(KEYS) / (n + 1)
    assert 0.3 * fair <= moved <= 3.0 * fair, (moved, fair)
    # And every moved key moved *to* the newbie.
    assert all(after[k] == "newbie" for k in KEYS if before[k] != after[k])


# ------------------------------------------------- incremental maintenance
def test_incremental_splices_match_rebuilt_from_scratch():
    """Deterministic-RNG property loop: after any random join/leave
    sequence, the incrementally spliced ring maps every key exactly as a
    ring rebuilt from scratch for the current member set would."""
    rng = random.Random(1234)
    ring = HashRing(vnodes=16)
    pool = [f"n{i:03d}" for i in range(24)]
    members = set(pool[:6])
    probe = rng.sample(KEYS, 40)
    for step in range(120):
        host = rng.choice(pool)
        if host in members:
            if len(members) > 1:
                members.discard(host)
        else:
            members.add(host)
        view = sorted(members)
        for k in probe:
            assert ring.home_host(k, view) == reference_home(ring, k, view), (
                step, k, sorted(members))


def test_churn_of_1000_events_never_triggers_a_full_rebuild():
    """Regression for the old per-frozenset cache (whose >256-entry
    wholesale ``clear()`` dropped the hot ring): a 1000-event join/leave
    storm must splice, never re-sort the whole ring, and must hash each
    host's vnode points at most once ever."""
    rng = random.Random(7)
    ring = HashRing(vnodes=32)
    pool = [f"p{i:03d}" for i in range(50)]
    members = set(pool[:25])
    ring.home_host(KEYS[0], sorted(members))  # warm: the one bulk build
    for _ in range(1000):
        host = rng.choice(pool)
        if host in members and len(members) > 2:
            members.discard(host)
        else:
            members.add(host)
        ring.home_host(rng.choice(KEYS), sorted(members))
    assert ring.stats["bulk_builds"] == 1  # initial construction only
    # Rejoining hosts re-splice cached points: hashing is bounded by
    # hosts-ever-seen x vnodes, not churn x vnodes.
    assert ring.stats["point_hashes"] <= len(pool) * ring.vnodes
    assert ring.stats["splices"] >= 1000


def test_second_ring_over_the_same_hosts_hashes_nothing():
    """Every client and provider keeps its own ring over the same
    cluster; vnode points are a pure function of (host, vnodes) and are
    computed once per process, not once per ring."""
    members = sorted(f"shared-memo-{i}" for i in range(30))
    first, second, other = HashRing(vnodes=16), HashRing(vnodes=16), \
        HashRing(vnodes=8)
    first.home_host(KEYS[0], members)
    assert first.stats["point_hashes"] == 30 * 16
    assert all(second.home_host(k, members) == first.home_host(k, members)
               for k in KEYS[:100])
    assert second.stats["point_hashes"] == 0
    # ... and an unchanged view is resolved once, however many lookups
    # (the refresh cycle asks per segment) go through it.
    assert first.stats["reconciles"] == 1
    assert first.stats["point_hashes"] == 30 * 16
    # ... and the second ring sorts nothing either: it adopts the arrays.
    assert second.stats["bulk_builds"] == 0
    assert second.stats["adoptions"] == 1
    other.home_host(KEYS[0], members)  # a different vnode count is new work
    assert other.stats["point_hashes"] == 30 * 8


def test_second_ring_adopts_the_sorted_arrays_and_never_writes_them():
    """The second bulk build over the same (vnodes, hosts) takes the
    arrays the first one sorted; churn on either ring splices into fresh
    lists, so the shared ones stay as built."""
    members = sorted(f"adopt-{i}" for i in range(12))
    first, second = HashRing(vnodes=16), HashRing(vnodes=16)
    first.home_host(KEYS[0], members)
    second.home_host(KEYS[0], members)
    assert second._points is first._points and second._hosts is first._hosts
    shared = list(first._points), list(first._hosts)
    second.home_host(KEYS[0], members[1:])              # a leave...
    second.home_host(KEYS[0], members + ["adopt-new"])  # ...and two joins
    assert (first._points, first._hosts) == shared
    fresh = HashRing(vnodes=16)
    assert all(fresh.home_host(k, members) == first.home_host(k, members)
               for k in KEYS[:100])


# ------------------------------------------------- one ring per member set
_EXAMPLES = itertools.count()


def _live_table(vnodes, pool):
    """The table's entries over ``pool`` at ``vnodes``: {members: arrays}."""
    return {members: arrays for (v, members), arrays in hashing._table.items()
            if v == vnodes and members <= pool}


def _sorted_from_scratch(members, vnodes):
    pairs = sorted((p, h) for h in members for p in _ref_points(h, vnodes))
    return [p for p, _ in pairs], [h for _, h in pairs]


@functools.lru_cache(maxsize=None)
def _ref_points(host, vnodes):
    return [_point(f"{host}#{i}") for i in range(vnodes)]


def _check_sharing(rings, vnodes, pool):
    """Every ring's arrays are its set's from-scratch sort (no shared
    array was written), clean rings with one view hold one arrays
    object, and the table holds exactly the sets some ring holds (a
    helper, so that no local keeps an entry alive past it)."""
    for a in rings:
        assert (a._points, a._hosts) == (a._held.points, a._held.hosts)
        assert (a._held.points, a._held.hosts) == _sorted_from_scratch(
            a._held.members, vnodes)
        if not a._dirty and a._held.members:
            assert a._held.members == frozenset(a._current)
            assert all(b._held is a._held for b in rings
                       if not b._dirty and b._current == a._current)
    held = {a._held.members: id(a._held) for a in rings if a._held.members}
    assert {m: id(arrays) for m, arrays in
            _live_table(vnodes, pool).items()} == held


@settings(max_examples=100, deadline=None)
@given(
    n_rings=st.integers(min_value=2, max_value=6),
    pool_size=st.integers(min_value=2, max_value=40),
    ops=st.lists(st.tuples(
        st.sampled_from(["join", "leave", "jump", "sync", "old", "lookup"]),
        st.integers(min_value=0, max_value=5),
        st.sets(st.integers(min_value=0, max_value=39), max_size=12),
        st.sampled_from(KEYS)), min_size=1, max_size=40),
)
# Two rings on one set, then one leaves it: the shared arrays stay as built.
@example(n_rings=2, pool_size=3, ops=[
    ("jump", 0, {0, 1, 2}, 0), ("sync", 1, set(), 0),
    ("leave", 0, {1}, 0), ("lookup", 0, set(), 0)])
def test_rings_share_one_array_per_member_set(n_rings, pool_size, ops):
    """Random interleavings of per-ring joins, leaves, multi-host jumps
    (to another ring's view, too), fresh old-view rings
    (``_rehome_after_departure``'s) and lookups:
    every lookup equals a from-scratch rebuild, rings with the same view
    hold the very same arrays, and a set no ring holds has no entry."""
    vnodes = 8
    # Hosts of their own: a ring an earlier example left alive (in a
    # failure's traceback, say) keeps its entries, rightly.
    tag = next(_EXAMPLES)
    pool = [f"shr{tag}-{i:02d}" for i in range(pool_size)]
    rings = [HashRing(vnodes) for _ in range(n_rings)]
    views = [set() for _ in range(n_rings)]
    for kind, r, picks, key in ops:
        r %= n_rings
        ring, view = rings[r], views[r]
        hosts = sorted(pool[i % pool_size] for i in picks) or [pool[0]]
        if kind == "join":
            ring.add_host(hosts[0])
            view.add(hosts[0])
        elif kind == "leave":
            ring.remove_host(hosts[0])
            view.discard(hosts[0])
        elif kind in ("jump", "sync"):    # sync: take the next ring's view
            if kind == "sync":
                hosts = sorted(views[(r + 1) % n_rings]) or hosts
            view.clear()
            view.update(hosts)
            assert ring.home_host(key, hosts) == reference_home(ring, key, hosts)
        elif kind == "old":
            before = sorted(view | {hosts[0]})
            old = HashRing(vnodes)
            assert old.home_host(key, before) == reference_home(old, key, before)
            assert old._held.members == frozenset(before)
            del old
        elif view:
            assert ring.home_host(key, sorted(view)) == \
                reference_home(ring, key, view)
        _check_sharing(rings, vnodes, frozenset(pool))


def test_a_view_change_is_derived_once_for_the_cluster():
    """200 rings over 150 hosts: the departure's set and the rejoin's are
    each one splice across all rings, and no sort; every other ring
    adopts what the first one derived."""
    hosts = [f"cnt{i:03d}" for i in range(150)]
    rings = [HashRing() for _ in range(200)]
    for ring in rings:
        ring.home_host(KEYS[0], hosts)
    assert sum(r.stats["bulk_builds"] for r in rings) == 1
    for view in (hosts[:70] + hosts[71:], hosts):
        before = dict(hashing.derived)
        work = [dict(r.stats) for r in rings]
        for ring in rings:
            for h in set(hosts) - set(view):
                ring.remove_host(h)
            for h in view:
                ring.add_host(h)
            ring.home_host(KEYS[1], view)
        assert hashing.derived == {"sorts": before["sorts"],
                                   "splices": before["splices"] + 1}
        steps = {k: sum(r.stats[k] - w[k] for r, w in zip(rings, work))
                 for k in ("splices", "adoptions", "bulk_builds")}
        assert steps == {"splices": 1, "adoptions": 199, "bulk_builds": 0}
        assert len({id(r._points) for r in rings}) == 1
        assert all(rings[0].home_host(k, view) == reference_home(
            rings[0], k, view) for k in KEYS[:20])
    assert len(_live_table(64, frozenset(hosts))) == 1


#: Python calls per ``home_host`` on an unchanged view: the lookup and
#: ``_locate`` — 2, where the reconcile and flush checks made it 4 before
#: the table.
HOME_HOST_CEILING = 2


def test_home_host_on_an_unchanged_view_call_ceiling():
    members = [f"ceil{i}" for i in range(40)]
    ring = HashRing()
    ring.home_host(KEYS[0], members)
    keys = KEYS[:200]
    py, _ = _count_calls(lambda: [ring.home_host(k, members) for k in keys])
    per = (py - 1) / len(keys)      # the list comprehension's own frame
    assert per <= HOME_HOST_CEILING, (
        f"{per:.2f} Python calls per home_host on an unchanged view "
        f"(ceiling {HOME_HOST_CEILING}): a frame was added to the lookup")
