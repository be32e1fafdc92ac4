"""Property tests: consistent hashing under membership churn.

The location protocol's efficiency rests on the classic consistent-
hashing guarantee: membership changes only remap keys touching the
changed node.  These tests drive arbitrary join/leave sequences, and —
since the ring is maintained incrementally — prove that splicing vnode
points in and out is indistinguishable from rebuilding from scratch,
and that churn never triggers a rebuild or re-hashing.
"""

import bisect
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import HashRing, _point

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
    assert second.stats["bulk_builds"] == 1  # replaced its arrays wholesale, once
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
