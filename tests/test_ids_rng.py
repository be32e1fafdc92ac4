"""Tests for ID generation and deterministic RNG streams."""

import random

from repro.core.ids import IdGenerator, fmt_id
from repro.sim import RngStreams


def make_gen(host="node1", seed=1, clock=None):
    return IdGenerator(host, random.Random(seed), clock=clock or (lambda: 1.5))


def test_ids_are_128_bit():
    gen = make_gen()
    ident = gen.new_id()
    assert 0 < ident < (1 << 128)
    # MAC bits occupy the top 48: two IDs from one host share them.
    other = gen.new_id()
    assert ident >> 80 == other >> 80


def test_ids_unique_within_host():
    gen = make_gen()
    ids = {gen.new_id() for _ in range(5000)}
    assert len(ids) == 5000


def test_ids_unique_across_hosts():
    a = make_gen("hostA")
    b = make_gen("hostB")
    ids_a = {a.new_id() for _ in range(500)}
    ids_b = {b.new_id() for _ in range(500)}
    assert not (ids_a & ids_b)
    # Different MACs.
    assert next(iter(ids_a)) >> 80 != next(iter(ids_b)) >> 80


def test_ids_monotone_ticks_with_frozen_clock():
    """Same-timestamp IDs must still differ (tick bump)."""
    gen = make_gen(clock=lambda: 0.0)
    a, b, c = gen.new_id(), gen.new_id(), gen.new_id()
    assert len({a, b, c}) == 3


def test_fmt_id_shape():
    # 16 hex chars (the high half, which carries the MAC bits).
    assert len(fmt_id((1 << 128) - 1)) == 16
    assert fmt_id((1 << 128) - 1) == "f" * 16
    gen = make_gen()
    assert len(fmt_id(gen.new_id())) == 16


def test_rng_streams_reproducible():
    a = RngStreams(42)
    b = RngStreams(42)
    assert a.py("x").random() == b.py("x").random()


def test_rng_streams_independent():
    s = RngStreams(42)
    first = s.py("one").random()
    # Drawing from another stream must not perturb the first.
    s2 = RngStreams(42)
    s2.py("two").random()
    assert s2.py("one").random() == first


def test_rng_streams_differ_by_seed_and_name():
    assert RngStreams(1).py("a").random() != RngStreams(2).py("a").random()
    s = RngStreams(1)
    assert s.py("a").random() != s.py("b").random()


def test_rng_stream_cached():
    s = RngStreams(0)
    assert s.py("same") is s.py("same")
