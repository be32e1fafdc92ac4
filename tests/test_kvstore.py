"""Tests for the embedded KV store: B+-tree, WAL, crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import BTree, KVStore, WriteAheadLog
from repro.kvstore.wal import DELETE, PUT


# ---------------------------------------------------------------- B+-tree
def test_btree_put_get():
    t = BTree(order=4)
    for i in range(100):
        t.put(f"k{i:03d}", i)
    assert len(t) == 100
    assert t.get("k042") == 42
    assert t.get("missing") is None
    assert "k007" in t and "nope" not in t


def test_btree_overwrite_keeps_size():
    t = BTree(order=4)
    t.put("a", 1)
    t.put("a", 2)
    assert len(t) == 1
    assert t.get("a") == 2


def test_btree_ordered_iteration():
    t = BTree(order=4)
    import random
    keys = [f"{i:04d}" for i in range(200)]
    shuffled = keys[:]
    random.Random(7).shuffle(shuffled)
    for k in shuffled:
        t.put(k, k)
    assert [k for k, _ in t.items()] == keys


def test_btree_range_scan():
    t = BTree(order=4)
    for i in range(50):
        t.put(f"{i:02d}", i)
    got = [v for _, v in t.items(low="10", high="15")]
    assert got == [10, 11, 12, 13, 14]


def test_btree_prefix_items():
    t = BTree(order=4)
    t.put("/a/x", 1)
    t.put("/a/y", 2)
    t.put("/ab", 3)
    t.put("/b/z", 4)
    assert dict(t.prefix_items("/a/")) == {"/a/x": 1, "/a/y": 2}


def test_btree_delete():
    t = BTree(order=4)
    for i in range(60):
        t.put(i, i)
    assert t.delete(30)
    assert not t.delete(30)
    assert t.get(30) is None
    assert len(t) == 59
    t.check_invariants()


def test_btree_min_order():
    with pytest.raises(ValueError):
        BTree(order=2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("pd"),
                          st.integers(min_value=0, max_value=200))))
def test_btree_matches_dict_model(ops):
    """Property: BTree behaves exactly like a dict under puts/deletes."""
    t = BTree(order=4)
    model = {}
    for op, k in ops:
        if op == "p":
            t.put(k, k * 2)
            model[k] = k * 2
        else:
            t.delete(k)
            model.pop(k, None)
    assert len(t) == len(model)
    assert list(t.items()) == sorted(model.items())
    t.check_invariants()


@settings(max_examples=30, deadline=None)
@given(st.sets(st.text(min_size=1, max_size=8), max_size=120))
def test_btree_string_keys_sorted(keys):
    t = BTree(order=5)
    for k in keys:
        t.put(k, None)
    assert [k for k, _ in t.items()] == sorted(keys)
    t.check_invariants()


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
    entry = FileEntry(path="/tput/c3/f000017", fileid=2 ** 70 + 5,
                      milestones=(3, 9)).to_dict()
    wal = WriteAheadLog()
    nbytes = wal.append(PUT, "f:/tput/c3/f000017", entry).approx_bytes()
    assert nbytes == 24 + 18 + _value_bytes_reference(entry)
    assert nbytes == 361  # as recorded at the recursive walk


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
