"""Property-based test: the COW segment store equals a flat-copy model.

The model keeps a full bytearray per committed version.  The store uses
shadow copies + COW chains + consolidation.  Any divergence on any read
of any version is a bug.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment import SegmentStore
from repro.sim import Simulator
from repro.storage import DISK_SPECS, Disk, LocalFS

SEG = 0xCAFE
SIZE_CAP = 400


def drive(sim, gen):
    return sim.run_process(sim.process(gen))


class Model:
    """Flat reference implementation."""

    def __init__(self):
        self.versions = {}
        self.latest = None

    def commit(self, base, writes):
        data = bytearray(self.versions[base]) if base else bytearray()
        for off, payload in writes:
            if off + len(payload) > len(data):
                data.extend(b"\x00" * (off + len(payload) - len(data)))
            data[off:off + len(payload)] = payload
        v = (base or 0) + 1
        self.versions[v] = bytes(data)
        self.latest = v
        return v


write_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=SIZE_CAP),
              st.binary(min_size=1, max_size=60)),
    min_size=1, max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(
    sessions=st.lists(write_strategy, min_size=1, max_size=6),
    reads=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),   # version back-ref
                  st.integers(min_value=0, max_value=SIZE_CAP),
                  st.integers(min_value=1, max_value=100)),
        max_size=8,
    ),
    consolidate_at=st.integers(min_value=0, max_value=6),
)
def test_store_matches_flat_model(sessions, reads, consolidate_at):
    sim = Simulator()
    fs = LocalFS(sim, Disk(sim, DISK_SPECS["ultrastar-dk32ej"]),
                 capacity=64 << 20)
    store = SegmentStore(sim, fs)
    model = Model()

    def scenario():
        base = None
        for i, writes in enumerate(sessions):
            if base is None:
                yield from store.create(SEG, 1)
                version = 1
            else:
                seg = yield from store.create_shadow(SEG, base)
                version = seg.version
            for off, payload in writes:
                yield from store.write(SEG, version, off, len(payload),
                                       data=payload)
            yield from store.commit(SEG, version)
            model.commit(base, writes)
            base = version
            if i == consolidate_at:
                yield from store.consolidate(SEG, keep=2)

        # Compare reads on every version the store still holds.
        held = [v for v in store.versions_of(SEG)
                if store.get(SEG, v).committed]
        for back, off, n in reads:
            if not held:
                break
            v = held[min(back, len(held) - 1)]
            expect_full = model.versions[v]
            end = min(off + n, len(expect_full))
            if off >= end:
                continue
            got = yield from store.read(SEG, v, off, end - off)
            expect = expect_full[off:end]
            if got is None:
                assert expect == b"\x00" * len(expect)
            else:
                assert got == expect, (v, off, end)
        # The latest version always matches in full.
        latest = store.latest_committed(SEG)
        expect = model.versions[model.latest]
        assert latest.size == len(expect)
        if latest.size:
            got = yield from store.read(SEG, latest.version, 0, latest.size)
            if got is None:
                assert expect == b"\x00" * len(expect)
            else:
                assert got == expect

    sim.run_process(sim.process(scenario()))


@settings(max_examples=25, deadline=None)
@given(
    sessions=st.lists(write_strategy, min_size=2, max_size=5),
    since=st.integers(min_value=1, max_value=4),
)
def test_export_apply_diff_roundtrip(sessions, since):
    """Diff sync between two stores converges to identical content."""
    sim = Simulator()

    def make_store():
        fs = LocalFS(sim, Disk(sim, DISK_SPECS["ultrastar-dk32ej"]),
                     capacity=64 << 20)
        return SegmentStore(sim, fs)

    src, dst = make_store(), make_store()

    def scenario():
        base = None
        for writes in sessions:
            if base is None:
                yield from src.create(SEG, 1)
                version = 1
            else:
                seg = yield from src.create_shadow(SEG, base)
                version = seg.version
            for off, payload in writes:
                yield from src.write(SEG, version, off, len(payload),
                                     data=payload)
            yield from src.commit(SEG, version)
            base = version
        latest = src.latest_committed(SEG)
        from_v = min(since, latest.version - 1)
        if from_v < 1:
            return
        # Replica starts with a full copy of from_v ...
        old = yield from src.read(SEG, from_v, 0,
                                  src.get(SEG, from_v).size) \
            if src.get(SEG, from_v).size else b""
        old_size = src.get(SEG, from_v).size
        yield from dst.apply_diff(SEG, from_v, old_size,
                                  data=old if old else None)
        # ... then applies the diff.
        regions = src.export_diff(SEG, from_v, latest.version)
        assert regions is not None
        yield from dst.apply_diff(SEG, latest.version, latest.size, regions)
        # Byte-for-byte equal afterwards.
        if latest.size:
            a = yield from src.read(SEG, latest.version, 0, latest.size)
            b = yield from dst.read(SEG, latest.version, 0, latest.size)
            a = a if a is not None else b"\x00" * latest.size
            b = b if b is not None else b"\x00" * latest.size
            assert a == b

    sim.run_process(sim.process(scenario()))
