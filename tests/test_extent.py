"""Tests for RangeMap, the COW index structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extent import RangeMap


def test_set_and_slices():
    m = RangeMap()
    m.set_range(0, 10, "a")
    m.set_range(20, 30, "b")
    assert m.slices(0, 30) == [(0, 10, "a"), (10, 20, None), (20, 30, "b")]


def test_overwrite_splits():
    m = RangeMap()
    m.set_range(0, 100, "base")
    m.set_range(40, 60, "new")
    assert m.slices(0, 100) == [
        (0, 40, "base"), (40, 60, "new"), (60, 100, "base")
    ]


def test_adjacent_equal_values_coalesce():
    m = RangeMap()
    m.set_range(0, 10, "x")
    m.set_range(10, 20, "x")
    assert list(m) == [(0, 20, "x")]


def test_adjacent_different_values_stay_split():
    m = RangeMap()
    m.set_range(0, 10, "x")
    m.set_range(10, 20, "y")
    assert len(m) == 2


def test_empty_range_rejected():
    m = RangeMap()
    with pytest.raises(ValueError):
        m.set_range(5, 5, "x")


def test_gaps():
    m = RangeMap()
    m.set_range(10, 20, "a")
    m.set_range(30, 40, "b")
    assert m.gaps(0, 50) == [(0, 10), (20, 30), (40, 50)]
    assert m.gaps(10, 20) == []


def test_clear_range():
    m = RangeMap()
    m.set_range(0, 100, "a")
    m.clear_range(25, 75)
    assert m.slices(0, 100) == [(0, 25, "a"), (25, 75, None), (75, 100, "a")]


def test_covered_bytes():
    m = RangeMap()
    m.set_range(0, 10, "a")
    m.set_range(50, 60, "b")
    assert m.covered_bytes() == 20


def test_slices_subrange_of_span():
    m = RangeMap()
    m.set_range(0, 100, "a")
    assert m.slices(30, 40) == [(30, 40, "a")]


def test_slices_empty_map():
    m = RangeMap()
    assert m.slices(0, 10) == [(0, 10, None)]
    assert m.slices(5, 5) == []


ranges = st.tuples(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=5),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(ranges, max_size=40))
def test_rangemap_matches_array_model(ops):
    """Property: RangeMap agrees with a flat per-byte array model —
    contents, and after every step the coverage delta ``set_range``
    returns and the running total (``SegmentStore._bytes`` rides on
    both).  Every example starts on an empty map, so the first-write
    branch is under it."""
    m = RangeMap()
    model = [None] * 300
    for start, length, val in ops:
        newly = sum(model[b] is None for b in range(start, start + length))
        assert m.set_range(start, start + length, val) == newly
        for b in range(start, start + length):
            model[b] = val
        assert m.covered_bytes() == sum(v is not None for v in model)
        m.check_invariants()
    # Reconstruct per-byte view from slices.
    view = [None] * 300
    for s, e, v in m.slices(0, 300):
        for b in range(s, e):
            view[b] = v
    assert view == model


@settings(max_examples=50, deadline=None)
@given(st.lists(ranges, max_size=30), st.lists(ranges, max_size=10))
def test_rangemap_clear_matches_model(sets, clears):
    m = RangeMap()
    model = [None] * 300
    for start, length, val in sets:
        m.set_range(start, start + length, val)
        for b in range(start, start + length):
            model[b] = val
    for start, length, _ in clears:
        m.clear_range(start, start + length)
        for b in range(start, min(start + length, 300)):
            model[b] = None
    m.check_invariants()
    view = [None] * 300
    for s, e, v in m.slices(0, 300):
        for b in range(s, e):
            view[b] = v
    assert view == model
