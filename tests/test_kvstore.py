"""Tests for the embedded KV store: ordered scans, WAL, crash recovery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVStore, WriteAheadLog
from repro.kvstore.wal import DELETE, PUT


def _scans_agree(db, model):
    """Every read the store offers equals the dict model's: size, point
    gets, and ascending full / range / prefix scans."""
    assert len(db) == len(model)
    for k, v in model.items():
        assert k in db and db.get(k) == v
    ordered = sorted(model.items())
    assert list(db.items()) == ordered
    keys = [k for k, _ in ordered]
    if keys:
        low, high = keys[len(keys) // 3], keys[(2 * len(keys)) // 3]
        assert list(db.items(low=low, high=high)) == [
            (k, v) for k, v in ordered if low <= k < high]
        assert list(db.items(low=high, high=low)) == []
        if isinstance(low, str):
            prefix = low[:1]
            assert list(db.prefix_items(prefix)) == [
                (k, v) for k, v in ordered if k.startswith(prefix)]


# ------------------------------------------------------------ ordered map
def test_btree_put_get():
    db = KVStore()
    for i in range(100):
        db.put(f"k{i:03d}", i)
    assert len(db) == 100
    assert db.get("k042") == 42
    assert db.get("missing") is None
    assert "k007" in db and "nope" not in db


def test_btree_overwrite_keeps_size():
    db = KVStore()
    db.put("a", 1)
    db.put("a", 2)
    assert len(db) == 1
    assert db.get("a") == 2


def test_btree_ordered_iteration():
    db = KVStore()
    keys = [f"{i:04d}" for i in range(200)]
    shuffled = keys[:]
    random.Random(7).shuffle(shuffled)
    for k in shuffled:
        db.put(k, k)
    assert [k for k, _ in db.items()] == keys


def test_btree_range_scan():
    db = KVStore()
    for i in range(50):
        db.put(f"{i:02d}", i)
    got = [v for _, v in db.items(low="10", high="15")]
    assert got == [10, 11, 12, 13, 14]
    # Bounds need not be keys; either may be left open.
    assert [v for _, v in db.items(low="095", high="11")] == [10]
    assert [v for _, v in db.items(high="02")] == [0, 1]
    assert [v for _, v in db.items(low="48")] == [48, 49]


def test_btree_prefix_items():
    db = KVStore()
    db.put("/a/x", 1)
    db.put("/a/y", 2)
    db.put("/ab", 3)
    db.put("/b/z", 4)
    assert list(db.prefix_items("/a/")) == [("/a/x", 1), ("/a/y", 2)]
    assert list(db.prefix_items("/c")) == []
    assert [k for k, _ in db.prefix_items("")] == ["/a/x", "/a/y", "/ab", "/b/z"]


def test_btree_delete():
    db = KVStore()
    for i in range(60):
        db.put(i, i)
    db.delete(30)
    db.delete(30)      # deleting an absent key is a logged no-op
    assert db.get(30) is None and 30 not in db
    assert len(db) == 59
    assert [k for k, _ in db.items()] == [i for i in range(60) if i != 30]


def test_scan_is_a_snapshot():
    """A scan holds the pairs present when it was made: writes during
    the walk neither appear in it nor break it."""
    db = KVStore()
    for k in "abc":
        db.put(k, k)
    seen = []
    for k, v in db.items():
        db.delete("c")
        db.put("bb", 0)
        seen.append((k, v))
    assert seen == [("a", "a"), ("b", "b"), ("c", "c")]
    assert [k for k, _ in db.items()] == ["a", "b", "bb"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("pd"),
                          st.integers(min_value=0, max_value=200))))
def test_btree_matches_dict_model(ops):
    """Property: the store behaves exactly like a dict under puts and
    deletes, and its scans are the dict's items sorted."""
    db = KVStore()
    model = {}
    for op, k in ops:
        if op == "p":
            db.put(k, k * 2)
            model[k] = k * 2
        else:
            db.delete(k)
            model.pop(k, None)
    _scans_agree(db, model)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(min_size=1, max_size=8), max_size=120))
def test_btree_string_keys_sorted(keys):
    db = KVStore()
    for k in keys:
        db.put(k, None)
    assert [k for k, _ in db.items()] == sorted(keys)
    _scans_agree(db, dict.fromkeys(keys))


# ------------------------------------------------------------------- WAL
def test_wal_append_and_replay():
    wal = WriteAheadLog()
    wal.append(PUT, "a", 1)
    wal.append(PUT, "b", 2)
    wal.append(DELETE, "a")
    ops = [(r.op, r.key) for r in wal.replay()]
    assert ops == [(PUT, "a"), (PUT, "b"), (DELETE, "a")]


def test_wal_replay_since():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append(PUT, f"k{i}", i)
    assert [r.key for r in wal.replay(since_lsn=3)] == ["k3", "k4"]


def test_wal_truncate():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append(PUT, f"k{i}", i)
    wal.truncate_before(3)
    assert len(wal) == 2
    assert [r.key for r in wal.replay(since_lsn=0)] == ["k3", "k4"]
    # lsns keep increasing after truncation
    rec = wal.append(PUT, "k5", 5)
    assert rec.lsn == 5


def test_wal_bad_op_rejected():
    wal = WriteAheadLog()
    with pytest.raises(ValueError):
        wal.append("frob", "k")


def test_wal_byte_accounting():
    """Nothing is sized at append; the records answer when asked."""
    wal = WriteAheadLog()
    n1 = wal.append(PUT, "key", "x" * 100).approx_bytes()
    n2 = wal.append(PUT, "key", "x").approx_bytes()
    assert n1 > n2
    assert sum(r.approx_bytes() for r in wal.replay()) == n1 + n2


# ------------------------------------------------------------------ KVStore
def _value_bytes_reference(value):
    """The recursive definition ``WalRecord.approx_bytes``' flat walk must
    reproduce to the byte.  Nothing reads the count today (a WAL flush
    is charged per batch); it is kept exact for whoever charges by it."""
    if value is None:
        return 0
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, dict):
        return 16 + sum(_value_bytes_reference(k) + _value_bytes_reference(v)
                        for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return 8 + sum(_value_bytes_reference(v) for v in value)
    return 16


_leaves = st.one_of(st.none(), st.text(max_size=12), st.binary(max_size=12),
                    st.integers(), st.floats(allow_nan=False), st.booleans())
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()), inner,
                        max_size=5)),
    max_leaves=25)


@given(_values)
@settings(max_examples=200, deadline=None)
def test_wal_value_bytes_matches_the_recursive_definition(value):
    from repro.kvstore.wal import _value_bytes
    assert _value_bytes(value) == _value_bytes_reference(value)


def test_wal_charges_a_namespace_entry_what_it_always_did():
    from repro.core.namespace import FileEntry
    entry = FileEntry(path="/tput/c3/f000017", fileid=2 ** 70 + 5)
    wal = WriteAheadLog()
    nbytes = wal.append(PUT, "f:/tput/c3/f000017", entry).approx_bytes()
    assert nbytes == 24 + 18 + _value_bytes_reference(entry.to_dict())
    assert nbytes == 311  # as recorded at the recursive walk over its dict


def test_kvstore_basic():
    db = KVStore()
    db.put("/vol/foo", {"fid": 1})
    db.put("/vol/bar", {"fid": 2})
    assert db.get("/vol/foo") == {"fid": 1}
    assert len(db) == 2
    db.delete("/vol/foo")
    assert db.get("/vol/foo") is None


def test_kvstore_crash_without_checkpoint_recovers_from_wal():
    db = KVStore()
    for i in range(20):
        db.put(f"k{i}", i)
    db.delete("k5")
    db.crash()
    assert db.is_crashed
    with pytest.raises(RuntimeError):
        db.get("k1")
    replayed = db.recover()
    assert replayed == 21
    assert db.get("k1") == 1
    assert db.get("k5") is None
    assert len(db) == 19


def test_kvstore_checkpoint_then_crash():
    db = KVStore()
    for i in range(10):
        db.put(f"k{i}", i)
    db.checkpoint()
    db.put("k10", 10)
    db.delete("k0")
    db.crash()
    replayed = db.recover()
    assert replayed == 2  # only the WAL tail after the checkpoint
    assert db.get("k10") == 10
    assert db.get("k0") is None
    assert len(db) == 10


def test_kvstore_repeated_crash_recover_idempotent():
    db = KVStore()
    db.put("a", 1)
    for _ in range(3):
        db.crash()
        db.recover()
    assert db.get("a") == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("pdc"),
                       st.integers(min_value=0, max_value=50))),
)
def test_kvstore_recovery_equals_history(ops):
    """Property: crash+recover at any point reproduces the mutation history,
    regardless of where checkpoints fell."""
    db = KVStore()
    model = {}
    for i, (op, k) in enumerate(ops):
        if op == "p":
            db.put(k, i)
            model[k] = i
        elif op == "d":
            db.delete(k)
            model.pop(k, None)
        else:
            db.checkpoint()
    db.crash()
    db.recover()
    assert dict(db.items()) == dict(sorted(model.items()))


_history = st.lists(
    st.tuples(st.sampled_from("ppdc"),
              st.text(alphabet="ab/", min_size=1, max_size=3)),
    max_size=30)


@settings(max_examples=60, deadline=None)
@given(_history)
def test_kvstore_recovers_the_model_at_every_wal_boundary(ops):
    """Property: a crash after any WAL record recovers exactly the
    history up to that record — size, point gets and every scan — with
    checkpoints anywhere before it; and the recovered store logs on, so
    a second crash at the end recovers the whole history."""

    def apply(db, model, upto):
        for i, (op, k) in upto:
            if op == "p":
                db.put(k, i)
                model[k] = i
            elif op == "d":
                db.delete(k)
                model.pop(k, None)
            else:
                db.checkpoint()

    steps = list(enumerate(ops))
    full = {}
    apply(KVStore(), full, steps)
    # Boundaries: before the first record and after each put / delete
    # (a checkpoint appends none).
    cuts = [0] + [n + 1 for n, (op, _k) in enumerate(ops) if op != "c"]
    for cut in cuts:
        db, model = KVStore(), {}
        apply(db, model, steps[:cut])
        db.crash()
        db.recover()
        _scans_agree(db, model)
        apply(db, model, steps[cut:])
        db.crash()
        db.recover()
        _scans_agree(db, full)
