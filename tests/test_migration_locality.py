"""Tests for migration triggers/selection and the locality tracker."""

from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locality import AccessHistory
from repro.core.membership import ProviderInfo
from repro.core.migration import (
    ALPHA_IO,
    ALPHA_SPACE,
    decide_migration,
    imbalance_trigger,
    pick_cold_segments,
    pick_hot_segments,
)
from repro.core.segment import StoredSegment


def seg(segid, last_access=0.0, size=100, placement="load"):
    return StoredSegment(segid=segid, version=1, size=size,
                         committed=True, last_access=last_access,
                         placement=placement)


def infos(values, field="io_wait"):
    out = {}
    for i, v in enumerate(values):
        kwargs = {field: v}
        out[f"n{i}"] = ProviderInfo(hostid=f"n{i}", available=1 << 30, **kwargs)
    return out


# ------------------------------------------------------------- triggers
def test_trigger_requires_outlier():
    # Uniform load: never triggers.
    values = [0.5] * 10
    assert not imbalance_trigger(0.5, values)


def test_trigger_fires_for_extreme_outlier():
    values = [0.1] * 9 + [0.9]
    assert imbalance_trigger(0.9, values)
    assert not imbalance_trigger(0.1, values)


def test_trigger_needs_top_decile():
    # Above 3 sigma but not in the top 10%: must not trigger.  (With two
    # high nodes in 10, the second-highest is still in the top 20% only.)
    values = [0.1] * 8 + [0.85, 0.9]
    assert not imbalance_trigger(0.85, values, top_fraction=0.10)


def test_trigger_small_cluster_safe():
    assert not imbalance_trigger(1.0, [1.0])


# ------------------------------------------------------------- selection
def test_pick_hot_orders_by_recency():
    segs = [seg(1, 10), seg(2, 30), seg(3, 20)]
    assert [s.segid for s in pick_hot_segments(segs, 2)] == [2, 3]


def test_pick_cold_orders_by_staleness_then_size():
    segs = [seg(1, 10, size=5), seg(2, 10, size=50), seg(3, 99)]
    assert [s.segid for s in pick_cold_segments(segs, 2)] == [2, 1]


def test_decide_migration_io_path():
    members = infos([0.05] * 9 + [0.95], field="io_wait")
    segs = [seg(i, last_access=i) for i in range(6)]
    decision = decide_migration("n9", members, segs)
    assert decision is not None
    assert decision.reason == "io"
    assert decision.alpha == ALPHA_IO
    # Hot segments (latest access) picked first.
    assert decision.segments[0].segid == 5


def test_decide_migration_space_path():
    members = infos([0.05] * 9 + [0.95], field="utilization")
    segs = [seg(i, last_access=i) for i in range(6)]
    decision = decide_migration("n9", members, segs)
    assert decision is not None
    assert decision.reason == "space"
    assert decision.alpha == ALPHA_SPACE
    assert decision.segments[0].segid == 0  # coldest first


def test_decide_migration_balanced_returns_none():
    members = infos([0.5] * 10)
    assert decide_migration("n0", members, [seg(1)]) is None


def test_decide_migration_no_candidates():
    members = infos([0.05] * 9 + [0.95])
    assert decide_migration("n9", members, []) is None


# ------------------------------------------------------- access history
def test_history_dominant_source():
    h = AccessHistory()
    for _ in range(30):
        h.record(1, "remote", 1000)
    h.record(1, "local", 100)
    assert h.dominant_source(1, threshold=0.6, min_samples=10) == "remote"


def test_history_below_threshold_none():
    h = AccessHistory()
    for _ in range(10):
        h.record(1, "a", 100)
        h.record(1, "b", 100)
    assert h.dominant_source(1, threshold=0.6, min_samples=5) is None


def test_history_min_samples_guard():
    h = AccessHistory()
    h.record(1, "a", 100)
    assert h.dominant_source(1, threshold=0.6, min_samples=10) is None


def test_history_threshold_must_exceed_half():
    h = AccessHistory()
    h.record(1, "a", 100)
    with pytest.raises(ValueError):
        h.dominant_source(1, threshold=0.5)


def test_history_bounded_accesses():
    h = AccessHistory(max_segments=10, max_accesses=5)
    for i in range(20):
        h.record(1, f"src{i}", 1)
    assert h.samples(1) == 5  # only the latest five retained


def test_history_lru_eviction():
    h = AccessHistory(max_segments=3, max_accesses=10)
    for segid in (1, 2, 3):
        h.record(segid, "a", 1)
    h.record(1, "a", 1)   # touch 1 so 2 is now least recent
    h.record(4, "a", 1)   # evicts 2
    assert h.samples(2) == 0
    assert h.samples(1) == 2
    assert len(h) == 3


def test_history_traffic_by_bytes_not_count():
    h = AccessHistory()
    for _ in range(25):
        h.record(1, "small", 1)
    h.record(1, "big", 10_000)
    # "big" dominates by volume despite one access.
    assert h.dominant_source(1, threshold=0.9, min_samples=10) == "big"


def test_history_forget():
    h = AccessHistory()
    h.record(1, "a", 1)
    h.forget(1)
    assert h.samples(1) == 0


_history_steps = st.lists(st.one_of(
    st.tuples(st.just("record"), st.integers(0, 5), st.sampled_from("abc"),
              st.integers(0, 40)),
    st.tuples(st.just("forget"), st.integers(0, 5))), max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), _history_steps)
def test_history_matches_a_bounded_deque_model(max_segments, max_accesses,
                                               steps):
    """The list-backed log against the ``deque(maxlen)`` model it
    replaced, with bounds small enough that LRU eviction across segments
    and trimming to the latest accesses both happen."""
    h = AccessHistory(max_segments=max_segments, max_accesses=max_accesses)
    model: OrderedDict = OrderedDict()
    for step in steps:
        if step[0] == "record":
            _, segid, src, nbytes = step
            h.record(segid, src, nbytes)
            if segid in model:
                model.move_to_end(segid)
            else:
                if len(model) >= max_segments:
                    model.popitem(last=False)
                model[segid] = deque(maxlen=max_accesses)
            model[segid].append((src, nbytes))
        else:
            h.forget(step[1])
            model.pop(step[1], None)
        assert len(h) == len(model)
        for segid in range(6):
            log = model.get(segid, ())
            traffic: dict = {}
            for src, nbytes in log:
                traffic[src] = traffic.get(src, 0) + nbytes
            assert h.samples(segid) == len(log)
            # Order too: ``dominant_source`` breaks ties by it.
            assert list(h.traffic_by_source(segid).items()) \
                == list(traffic.items())
            for min_samples in (1, 3):
                top = max(traffic.items(), key=lambda kv: kv[1],
                          default=(None, 0))
                total = sum(traffic.values())
                expect = (top[0] if len(log) >= min_samples and total > 0
                          and top[1] / total > 0.6 else None)
                assert h.dominant_source(segid, 0.6, min_samples) == expect
