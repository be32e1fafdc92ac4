"""Tests for the load-aware placement policy (Section 3.7.1)."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.membership import ProviderInfo
from repro.core.placement import (
    choose_provider,
    load_factor,
    provider_weight,
    storage_factor,
    weight,
)

GB = 1 << 30
MB = 1 << 20


def info(host, load=0.1, available=10 * GB, utilization=0.1):
    return ProviderInfo(hostid=host, load=load, available=available,
                        utilization=utilization)


# --------------------------------------------------------------- factors
def test_load_factor_formula():
    # f_l = min{10, 1/l - 1}
    assert load_factor(0.5) == pytest.approx(1.0)
    assert load_factor(0.2) == pytest.approx(4.0)
    assert load_factor(1.0) == pytest.approx(0.0)
    assert load_factor(0.0) == 10.0      # clamped at the cap
    assert load_factor(0.05) == 10.0     # 19 -> capped


def test_storage_factor_formula():
    # f_s = min{10, log2(S/s)}
    assert storage_factor(8 * MB, 1 * MB) == pytest.approx(3.0)
    assert storage_factor(1 * MB, 1 * MB) == pytest.approx(0.0)
    assert storage_factor(2 ** 20 * MB, 1 * MB) == 10.0  # capped
    assert storage_factor(512, 1024) == 0.0  # does not fit


def test_storage_factor_rejects_bad_size():
    with pytest.raises(ValueError):
        storage_factor(100, 0)


def test_weight_alpha_extremes():
    # alpha=1: only load matters; alpha=0: only storage matters.
    assert weight(4.0, 2.0, 1.0) == pytest.approx(4.0)
    assert weight(4.0, 2.0, 0.0) == pytest.approx(2.0)
    assert weight(4.0, 4.0, 0.5) == pytest.approx(4.0)


def test_weight_rejects_bad_alpha():
    with pytest.raises(ValueError):
        weight(1, 1, 1.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0))
@example(0.5, 10.0, 10.0)
def test_weight_nonnegative_and_bounded(alpha, fl, fs):
    w = weight(fl, fs, alpha)
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
    i = info("x", load=0.5, available=8 * MB)
    # f_l = 1, f_s = 3, alpha .5 -> sqrt(3)
    assert provider_weight(i, 1 * MB, 0.5) == pytest.approx(3 ** 0.5)


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
