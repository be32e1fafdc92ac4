"""Tests for Resource, Store, and BandwidthPipe."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthPipe, Resource, Simulator, Store


def test_resource_serializes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(tag):
        grant = res.request()
        yield grant
        start = sim.now
        yield sim.timeout(2)
        res.release()
        spans.append((tag, start, sim.now))

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert spans == [(0, 0.0, 2.0), (1, 2.0, 4.0), (2, 4.0, 6.0)]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = []

    def worker():
        yield res.request()
        starts.append(sim.now)
        yield sim.timeout(1)
        res.release()

    for _ in range(4):
        sim.process(worker())
    sim.run()
    assert starts == [0.0, 0.0, 1.0, 1.0]


def test_resource_release_without_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_cancel_pending():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    g1 = res.request()
    assert g1.ok
    g2 = res.request()
    res.cancel(g2)
    res.release()
    # The cancelled waiter must not hold the slot.
    g3 = res.request()
    assert g3.ok


def test_store_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    def producer():
        for i in range(3):
            yield sim.timeout(1)
            store.put(i)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_buffered_get():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    assert len(store) == 2

    def consumer():
        x = yield store.get()
        y = yield store.get()
        return x + y

    assert sim.run_process(sim.process(consumer())) == "ab"


def test_pipe_single_transfer_time():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=100.0)

    def proc():
        yield pipe.transfer(250)
        return sim.now

    assert sim.run_process(sim.process(proc())) == pytest.approx(2.5)


def test_pipe_fifo_queueing():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=10.0)
    done = []

    def proc(tag, size):
        yield pipe.transfer(size)
        done.append((tag, sim.now))

    sim.process(proc("a", 100))
    sim.process(proc("b", 50))
    sim.run()
    assert done == [("a", pytest.approx(10.0)), ("b", pytest.approx(15.0))]


def test_pipe_saturation_caps_aggregate_rate():
    """N concurrent senders through one pipe finish no faster than rate."""
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=1000.0)

    def proc():
        yield pipe.transfer(1000)

    for _ in range(8):
        sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(8.0)
    assert pipe.bytes_transferred == 8000


def test_pipe_overhead():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=1000.0, overhead=0.1)

    def proc():
        yield pipe.transfer(0)
        return sim.now

    assert sim.run_process(sim.process(proc())) == pytest.approx(0.1)


def test_pipe_idle_then_busy():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=10.0)

    def proc():
        yield sim.timeout(5)
        yield pipe.transfer(10)
        return sim.now

    assert sim.run_process(sim.process(proc())) == pytest.approx(6.0)


def test_pipe_backlog_and_utilization():
    sim = Simulator()
    pipe = BandwidthPipe(sim, rate=10.0)
    pipe.transfer(100)
    assert pipe.backlog_seconds == pytest.approx(10.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)     # busy the whole time
    assert pipe.bytes_transferred == 100
    assert pipe.backlog_seconds == 0.0


def test_pipe_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        BandwidthPipe(sim, rate=0)
    pipe = BandwidthPipe(sim, rate=1)
    with pytest.raises(ValueError):
        pipe.transfer(-1)


def _reserve_with_max(pipe, nbytes, not_before=0.0):
    """``BandwidthPipe.reserve`` as it was spelled with ``max()`` — the
    reference the comparison spelling must match to the bit."""
    if pipe.small_bypass and nbytes <= pipe.small_bypass:
        start = max(pipe.sim.now, not_before)
        done = start + pipe.overhead + nbytes / pipe.rate
        pipe._ready_at = max(pipe._ready_at, pipe.sim.now) + nbytes / pipe.rate
        pipe.bytes_transferred += int(nbytes)
        return start, done
    start = max(pipe.sim.now, pipe._ready_at, not_before)
    done = start + pipe.overhead + nbytes / pipe.rate
    pipe._ready_at = done
    pipe.bytes_transferred += int(nbytes)
    return start, done


# Few distinct instants, so now / _ready_at / not_before tie often.
_instants = st.sampled_from([0.0, -0.0, 1e-6, 80e-6, 0.1 + 0.2, 0.3, 1.0, 7.5])
_sizes = st.one_of(st.sampled_from([0, 66, 162, 16384, 16385, 4 << 20]),
                   st.floats(min_value=0.0, max_value=1e7, allow_nan=False))


@given(bypass=st.sampled_from([0, 16384]),
       overhead=st.sampled_from([0.0, 1e-4]),
       rate=st.sampled_from([12.5e6, 1.0, 3.0]),
       steps=st.lists(st.tuples(_instants, _sizes, _instants), max_size=12))
@settings(max_examples=300, deadline=None)
def test_reserve_matches_its_max_spelling(bypass, overhead, rate, steps):
    sim_a, sim_b = Simulator(), Simulator()
    new = BandwidthPipe(sim_a, rate, overhead, bypass)
    ref = BandwidthPipe(sim_b, rate, overhead, bypass)
    for advance, nbytes, not_before in steps:
        sim_a.now = sim_b.now = sim_a.now + advance
        got, want = new.reserve(nbytes, not_before), _reserve_with_max(
            ref, nbytes, not_before)
        # repr: bit-for-bit, and 0.0 is not -0.0
        assert repr(got) == repr(want)
        assert repr((new._ready_at, new.bytes_transferred)) == repr(
            (ref._ready_at, ref.bytes_transferred))
