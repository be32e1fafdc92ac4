"""Tests for the load-aware placement policy (Section 3.7.1)."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.membership import ProviderInfo
from repro.core.placement import (
    _MIN_LOAD,
    FACTOR_CAP,
    choose_provider,
    weights,
)

GB = 1 << 30
MB = 1 << 20


def info(host, load=0.1, available=10 * GB, utilization=0.1):
    return ProviderInfo(hostid=host, load=load, available=available,
                        utilization=utilization)


def weigh(seg_size, alpha, load=0.1, available=10 * GB):
    """The weight ``weights()`` gives one candidate."""
    return weights({"x": info("x", load, available)}, seg_size, alpha)[1][0]


# ------------------------------------------- the per-factor reference code
def _reference_load_factor(load: float) -> float:
    """f_l = min{10, 1/l - 1}, clamped to [0, 10]."""
    load = max(_MIN_LOAD, min(1.0, load))
    return max(0.0, min(FACTOR_CAP, 1.0 / load - 1.0))


def _reference_storage_factor(available: int, seg_size: int) -> float:
    """f_s = min{10, log2(S/s)}, 0 when the segment does not fit."""
    if seg_size <= 0:
        raise ValueError("segment size must be positive")
    if available < seg_size:
        return 0.0
    return min(FACTOR_CAP, math.log2(available / seg_size))


def _reference_weight(f_l: float, f_s: float, alpha: float) -> float:
    """w = f_l^alpha * f_s^(1-alpha)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    wl = f_l ** alpha if not (f_l == 0.0 and alpha == 0.0) else 1.0
    ws = f_s ** (1.0 - alpha) if not (f_s == 0.0 and alpha == 1.0) else 1.0
    return min(wl * ws, FACTOR_CAP)


def _reference_provider_weight(info: ProviderInfo, seg_size: int,
                               alpha: float) -> float:
    return _reference_weight(_reference_load_factor(info.load),
                             _reference_storage_factor(info.available,
                                                       seg_size), alpha)


def _reference_choose_provider(rng, candidates, seg_size, alpha, exclude=None,
                               home_host=None, home_boost=0.0):
    """``choose_provider`` as it was, one call per factor per candidate."""
    excluded = set(exclude or ())
    hosts, ws = [], []
    for host, i in candidates.items():
        if host in excluded:
            continue
        w = _reference_provider_weight(i, seg_size, alpha)
        if host == home_host and home_boost > 0:
            w *= home_boost
        hosts.append(host)
        ws.append(w)
    if not hosts:
        return None, hosts, ws
    total = sum(ws)
    if total <= 0.0:
        fitting = [h for h in hosts if candidates[h].available >= seg_size]
        return (rng.choice(fitting) if fitting else None), hosts, ws
    pick = rng.random() * total
    acc = 0.0
    for host, w in zip(hosts, ws):
        acc += w
        if pick <= acc:
            return host, hosts, ws
    return hosts[-1], hosts, ws


def _outcome(fn):
    try:
        return ("ok", fn())
    except ValueError as exc:
        return ("raises", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    cands=st.lists(st.tuples(
        st.one_of(st.floats(min_value=0.0, max_value=1.0),
                  st.sampled_from([0.0, -0.0, 1e-5, 0.5, 1.0])),
        st.one_of(st.integers(min_value=0, max_value=1 << 40),
                  st.sampled_from([0, 1, 1 << 20]))), max_size=12),
    seg_size=st.one_of(st.integers(min_value=1, max_value=1 << 30),
                       st.sampled_from([0, -1, 1 << 20])),
    alpha=st.one_of(st.floats(min_value=0.0, max_value=1.0),
                    st.sampled_from([0.0, 1.0, 0.5, -0.1, 1.5])),
    exclude=st.sets(st.integers(min_value=0, max_value=11), max_size=4),
    home=st.integers(min_value=0, max_value=12),
    boost=st.sampled_from([0.0, 3.0, 24.0]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_weights_are_the_per_factor_formula(cands, seg_size, alpha, exclude,
                                            home, boost, seed):
    """On random candidate sets: ``repr``-equal weights, the same raise,
    the same pick and the same RNG state after it as the per-factor
    reference code."""
    candidates = {f"n{i}": info(f"n{i}", load, avail)
                  for i, (load, avail) in enumerate(cands)}
    excluded = {f"n{i}" for i in exclude}
    args = (seg_size, alpha, excluded, f"n{home}", boost)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = _outcome(lambda: (choose_provider(rng, candidates, *args),
                            weights(candidates, *args)))
    ref = _outcome(lambda: _reference_choose_provider(ref_rng, candidates,
                                                      *args))
    if ref[0] == "ok":
        pick, hosts, ws = ref[1]
        ref = ("ok", (pick, (hosts, ws)))
    assert repr(got) == repr(ref)
    assert rng.getstate() == ref_rng.getstate()


# --------------------------------------------------------------- factors
def test_load_factor_formula():
    # f_l = min{10, 1/l - 1}: the weight at alpha=1 is f_l alone.
    assert weigh(MB, 1.0, load=0.5) == pytest.approx(1.0)
    assert weigh(MB, 1.0, load=0.2) == pytest.approx(4.0)
    assert weigh(MB, 1.0, load=1.0) == pytest.approx(0.0)
    assert weigh(MB, 1.0, load=0.0) == 10.0      # clamped at the cap
    assert weigh(MB, 1.0, load=0.05) == 10.0     # 19 -> capped


def test_storage_factor_formula():
    # f_s = min{10, log2(S/s)}: the weight at alpha=0 is f_s alone.
    assert weigh(1 * MB, 0.0, available=8 * MB) == pytest.approx(3.0)
    assert weigh(1 * MB, 0.0, available=1 * MB) == pytest.approx(0.0)
    assert weigh(1 * MB, 0.0, available=2 ** 20 * MB) == 10.0  # capped
    assert weigh(1024, 0.0, available=512) == 0.0  # does not fit


def test_storage_factor_rejects_bad_size():
    with pytest.raises(ValueError):
        weigh(0, 0.5, available=100)


def test_weight_alpha_extremes():
    # alpha=1: only load matters; alpha=0: only storage matters.
    # f_l = 4 at load 0.2; f_s = 2 at 4x the segment, 4 at 16x.
    assert weigh(MB, 1.0, load=0.2, available=4 * MB) == pytest.approx(4.0)
    assert weigh(MB, 0.0, load=0.2, available=4 * MB) == pytest.approx(2.0)
    assert weigh(MB, 0.5, load=0.2, available=16 * MB) == pytest.approx(4.0)


def test_weight_rejects_bad_alpha():
    with pytest.raises(ValueError):
        weigh(MB, 1.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=1 << 50))
@example(0.5, 0.01, 2 ** 10 * MB)
def test_weight_nonnegative_and_bounded(alpha, load, available):
    w = weigh(MB, alpha, load=load, available=available)
    assert 0.0 <= w <= 10.0


# -------------------------------------------------------------- choosing
def test_choose_prefers_idle_nodes_with_alpha_1():
    rng = random.Random(0)
    cands = {
        "busy": info("busy", load=0.9),
        "idle": info("idle", load=0.01),
    }
    picks = Counter(
        choose_provider(rng, cands, 1 * MB, alpha=1.0) for _ in range(300)
    )
    assert picks["idle"] > picks["busy"] * 5


def test_choose_prefers_empty_nodes_with_alpha_0():
    rng = random.Random(0)
    cands = {
        "full": info("full", available=2 * MB),
        "empty": info("empty", available=100 * GB),
    }
    picks = Counter(
        choose_provider(rng, cands, 1 * MB, alpha=0.0) for _ in range(300)
    )
    assert picks["empty"] > picks["full"] * 5


def test_choose_respects_exclusion():
    rng = random.Random(0)
    cands = {"a": info("a"), "b": info("b")}
    for _ in range(50):
        assert choose_provider(rng, cands, MB, 0.5, exclude={"a"}) == "b"


def test_choose_none_when_nothing_fits():
    rng = random.Random(0)
    cands = {"a": info("a", available=100)}
    assert choose_provider(rng, cands, 1 * MB, 0.5) is None


def test_choose_none_when_all_excluded():
    rng = random.Random(0)
    cands = {"a": info("a")}
    assert choose_provider(rng, cands, MB, 0.5, exclude={"a"}) is None


def test_home_boost_attracts_small_segments():
    rng = random.Random(0)
    cands = {f"n{i}": info(f"n{i}") for i in range(8)}
    boosted = Counter(
        choose_provider(rng, cands, 4096, 0.5, home_host="n3",
                        home_boost=3.0 * 8)
        for _ in range(400)
    )
    # With a 24x weight boost among 8 equal nodes, n3 should win ~77%.
    assert boosted["n3"] > 0.6 * 400


def test_overloaded_and_full_fallback_uniform():
    """All weights zero (full load) but space available: fall back."""
    rng = random.Random(0)
    cands = {
        "a": info("a", load=1.0, available=10 * GB),
        "b": info("b", load=1.0, available=100),
    }
    picks = {choose_provider(rng, cands, MB, 1.0) for _ in range(50)}
    assert picks == {"a"}


def test_provider_weight_combines():
    # f_l = 1, f_s = 3, alpha .5 -> sqrt(3)
    assert weigh(1 * MB, 0.5, load=0.5, available=8 * MB) == \
        pytest.approx(3 ** 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 31))
def test_choose_returns_member_or_none(n, alpha, seed):
    rng = random.Random(seed)
    cands = {
        f"n{i}": info(f"n{i}", load=rng.random(),
                      available=rng.randrange(0, 10 * GB))
        for i in range(n)
    }
    pick = choose_provider(rng, cands, 1 * MB, alpha)
    assert pick is None or pick in cands
