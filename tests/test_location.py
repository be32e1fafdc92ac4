"""Tests for consistent hashing and the soft-state location table."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import HashRing
from repro.core.location import LocationTable


# ------------------------------------------------------------- hash ring
def test_home_host_deterministic():
    ring = HashRing()
    members = ["a", "b", "c"]
    assert ring.home_host(12345, members) == ring.home_host(12345, members)
    assert ring.home_host(12345, members) == HashRing().home_host(12345, members)


def test_home_host_order_independent():
    ring = HashRing()
    assert ring.home_host(777, ["a", "b", "c"]) == ring.home_host(777, ["c", "a", "b"])


def test_home_host_spread_is_reasonable():
    ring = HashRing(vnodes=64)
    members = [f"n{i}" for i in range(8)]
    counts = Counter(ring.home_host(s, members) for s in range(2000))
    assert len(counts) == 8
    # No node should own more than ~3x its fair share.
    assert max(counts.values()) < 3 * 2000 / 8


def test_consistent_hashing_minimal_disruption():
    """Removing one of N nodes should remap only ~1/N of the keys."""
    ring = HashRing(vnodes=64)
    members = [f"n{i}" for i in range(10)]
    before = {s: ring.home_host(s, members) for s in range(3000)}
    smaller = [m for m in members if m != "n3"]
    moved = sum(
        1 for s, h in before.items()
        if h != "n3" and ring.home_host(s, smaller) != h
    )
    assert moved == 0  # keys not on n3 keep their home
    remapped = [s for s, h in before.items() if h == "n3"]
    for s in remapped:
        assert ring.home_host(s, smaller) != "n3"


def test_empty_membership_rejected():
    with pytest.raises(ValueError):
        HashRing().home_host(1, [])


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=(1 << 128) - 1))
def test_home_host_always_a_member(members, segid):
    ring = HashRing(vnodes=8)
    assert ring.home_host(segid, sorted(members)) in members


# -------------------------------------------------------- location table
def test_update_and_lookup():
    t = LocationTable()
    t.update(1, "a", 1, 2, 100, now=0.0)
    t.update(1, "b", 2, 2, 100, now=1.0)
    assert t.lookup(1) == [("b", 2), ("a", 1)]
    assert t.latest_version(1) == 2


def test_stale_announce_keeps_newer_version():
    t = LocationTable()
    t.update(1, "a", 5, 1, 100, now=0.0)
    t.update(1, "a", 3, 1, 100, now=1.0)  # late/stale message
    assert t.lookup(1) == [("a", 5)]
    # But the refresh time advanced (liveness proof).
    assert t.record(1, "a").last_refresh == 1.0


def test_remove_owner():
    t = LocationTable()
    t.update(1, "a", 1, 1, 100, now=0.0)
    t.update(1, "b", 1, 1, 100, now=0.0)
    t.remove(1, "a")
    assert t.lookup(1) == [("b", 1)]
    t.remove(1, "b")
    assert 1 not in t


def test_drop_owner_returns_affected():
    t = LocationTable()
    t.update(1, "a", 1, 2, 100, now=0.0)
    t.update(2, "a", 1, 2, 100, now=0.0)
    t.update(2, "b", 1, 2, 100, now=0.0)
    affected = t.drop_owner("a")
    assert sorted(affected) == [1, 2]
    assert 1 not in t
    assert t.lookup(2) == [("b", 1)]


def test_discrepancies():
    t = LocationTable()
    t.update(1, "a", 3, 2, 100, now=0.0)
    t.update(1, "b", 2, 2, 100, now=0.0)
    latest, current, stale = t.discrepancies(1)
    assert latest == 3
    assert current == ["a"]
    assert stale == ["b"]


def test_purge_by_age():
    t = LocationTable()
    t.update(1, "a", 1, 1, 100, now=0.0)
    t.update(1, "b", 1, 1, 100, now=50.0)
    purged = t.purge(now=100.0, max_age=60.0)
    assert purged == 1
    assert t.lookup(1) == [("b", 1)]
    # Refreshing resets the clock.
    t.update(1, "b", 1, 1, 100, now=100.0)
    assert t.purge(now=150.0, max_age=60.0) == 0
