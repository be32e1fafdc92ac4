"""Tests for the NFS-style handle API and the UNIX-like API (Section 2.3)."""

import pytest

from repro.api import (
    CommitConflict,
    ConflictError,
    HandleAPI,
    NotFoundError,
    PosixAPI,
    Session,
    connect,
)
from repro.api.posix import O_RDONLY, O_WRONLY, SEEK_CUR, SEEK_END, SEEK_SET
from repro.cluster import small_cluster
from repro.core import SorrentoConfig, SorrentoDeployment
from repro.core.client import SorrentoError
from repro.core.params import SorrentoParams
from repro.runtime import Tracer


def deploy():
    dep = SorrentoDeployment(
        small_cluster(3, n_compute=2),
        SorrentoConfig(params=SorrentoParams(), seed=5),
    )
    dep.warm_up()
    return dep


# --------------------------------------------------------------- handles
def test_handle_create_write_read():
    dep = deploy()
    api = HandleAPI(dep.client_on("c00"))

    def scenario():
        d = yield from api.mkdir(api.root, "docs")
        f = yield from api.create(d, "a.txt")
        yield from api.write(f, 0, 5, data=b"hello")
        yield from api.close(f)
        data = yield from api.read(f, 0, 5)
        return data

    assert dep.run(scenario()) == b"hello"


def test_handle_lookup_and_readdir():
    dep = deploy()
    api = HandleAPI(dep.client_on("c00"))

    def scenario():
        d = yield from api.mkdir(api.root, "d")
        yield from api.create(d, "x")
        yield from api.mkdir(d, "sub")
        names = yield from api.readdir(d)
        fx = yield from api.lookup(d, "x")
        fsub = yield from api.lookup(d, "sub")
        return names, fx.is_dir, fsub.is_dir

    names, x_is_dir, sub_is_dir = dep.run(scenario())
    assert names == ["sub/", "x"]
    assert not x_is_dir and sub_is_dir


def test_handle_lookup_missing_raises():
    dep = deploy()
    api = HandleAPI(dep.client_on("c00"))

    def scenario():
        with pytest.raises(SorrentoError):
            yield from api.lookup(api.root, "ghost")

    dep.run(scenario())


def test_handle_getattr_tracks_version():
    dep = deploy()
    api = HandleAPI(dep.client_on("c00"))

    def scenario():
        f = yield from api.create(api.root, "v")
        yield from api.write(f, 0, 10)
        yield from api.commit(f)
        entry = yield from api.getattr(f)
        return entry["version"]

    assert dep.run(scenario()) == 1


def test_handle_remove():
    dep = deploy()
    api = HandleAPI(dep.client_on("c00"))

    def scenario():
        f = yield from api.create(api.root, "gone")
        yield from api.write(f, 0, 4)
        yield from api.close(f)
        yield from api.remove(api.root, "gone")
        with pytest.raises(SorrentoError):
            yield from api.getattr(f)

    dep.run(scenario())


# ----------------------------------------------------------------- posix
def test_posix_fd_lifecycle():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        fd = yield from fs.open("/f", O_WRONLY, create=True)
        n = yield from fs.write(fd, 6, data=b"abcdef")
        assert n == 6
        version = yield from fs.close(fd)
        assert version == 1
        fd = yield from fs.open("/f", O_RDONLY)
        data = yield from fs.read(fd, 6)
        yield from fs.close(fd)
        return data

    assert dep.run(scenario()) == b"abcdef"


def test_posix_cursor_advances():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        fd = yield from fs.open("/c", O_WRONLY, create=True)
        yield from fs.write(fd, 3, data=b"one")
        yield from fs.write(fd, 3, data=b"two")
        yield from fs.close(fd)
        fd = yield from fs.open("/c", O_RDONLY)
        first = yield from fs.read(fd, 3)
        second = yield from fs.read(fd, 3)
        return first, second

    assert dep.run(scenario()) == (b"one", b"two")


def test_posix_lseek_whences():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        fd = yield from fs.open("/s", O_WRONLY, create=True)
        yield from fs.write(fd, 10)
        yield from fs.close(fd)
        fd = yield from fs.open("/s", O_RDONLY)
        assert fs.lseek(fd, 4, SEEK_SET) == 4
        assert fs.lseek(fd, 2, SEEK_CUR) == 6
        assert fs.lseek(fd, -1, SEEK_END) == 9
        assert fs.fstat(fd)["size"] == 10
        with pytest.raises(SorrentoError):
            fs.lseek(fd, -100, SEEK_SET)

    dep.run(scenario())


def test_posix_pread_does_not_move_cursor():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        fd = yield from fs.open("/p", O_WRONLY, create=True)
        yield from fs.pwrite(fd, 0, 8, data=b"ABCDEFGH")
        yield from fs.close(fd)
        fd = yield from fs.open("/p", O_RDONLY)
        mid = yield from fs.pread(fd, 4, 2)
        head = yield from fs.read(fd, 2)
        return mid, head

    assert dep.run(scenario()) == (b"EF", b"AB")


def test_posix_fsync_commits_midstream():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        fd = yield from fs.open("/sync", O_WRONLY, create=True)
        yield from fs.write(fd, 4, data=b"v1v1")
        v1 = yield from fs.fsync(fd)
        yield from fs.write(fd, 4, data=b"v2v2")
        v2 = yield from fs.close(fd)
        return v1, v2

    assert dep.run(scenario()) == (1, 2)


def test_posix_bad_fd():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        with pytest.raises(SorrentoError, match="EBADF"):
            yield from fs.read(99, 10)
        with pytest.raises(SorrentoError, match="EBADF"):
            yield from fs.close(99)

    dep.run(scenario())


def test_posix_set_policy_extension():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        fd = yield from fs.open("/pol", O_WRONLY, create=True)
        yield from fs.close(fd)
        entry = yield from fs.set_policy("/pol", degree=3, alpha=0.8,
                                         placement="locality")
        return entry

    entry = dep.run(scenario())
    assert entry["degree"] == 3
    assert entry["alpha"] == 0.8
    assert entry["placement"] == "locality"


# --------------------------------------------------------------- sessions
def test_connect_shares_one_client_across_views():
    dep = deploy()
    sess = connect(dep, "c00")
    assert isinstance(sess, Session)
    assert sess.posix.client is sess.handles.client is sess.pario.client
    assert sess.posix is sess.posix  # views are cached, not re-minted
    assert sess.node.hostid == "c00"

    def scenario():
        fd = yield from sess.posix.open("/mix", O_WRONLY, create=True)
        yield from sess.posix.write(fd, 4, data=b"via1")
        yield from sess.posix.close(fd)
        # The handle view sees the file the posix view wrote.
        h = yield from sess.handles.lookup(sess.handles.root, "mix")
        data = yield from sess.handles.read(h, 0, 4)
        return data

    assert dep.run(scenario()) == b"via1"


def test_session_client_rides_the_nodes_runtime():
    """A session issues its RPCs through the node's one runtime, so what
    is wired there (registry, tracer) is what the session's calls see."""
    dep = deploy()
    sess = connect(dep, "c00")
    assert sess.client.rpc is dep.nodes["c00"].runtime
    tracer = Tracer(dep.sim)
    sess.client.rpc.configure(tracer=tracer)

    def scenario():
        fd = yield from sess.posix.open("/traced", "w", create=True)
        yield from sess.posix.close(fd)

    dep.run(scenario())
    assert tracer.spans("rpc:ns_create")


def test_session_policy_survives_a_second_client_on_the_node():
    """Building another stub (or daemon) on the node must not re-wire
    the node's RPC runtime to the deployment default."""
    dep = deploy()
    tracer = Tracer(dep.sim)
    sess = connect(dep, "c00")
    sess.client.rpc.configure(tracer=tracer)
    dep.client_on("c00")
    assert sess.client.rpc.tracer is tracer


def test_posix_open_accepts_int_and_string_flags():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        fd = yield from fs.open("/flags", "w", create=True)
        yield from fs.write(fd, 2, data=b"ok")
        yield from fs.close(fd)
        fd = yield from fs.open("/flags", O_RDONLY)
        data = yield from fs.read(fd, 2)
        yield from fs.close(fd)
        fd = yield from fs.open("/flags", "r")
        same = yield from fs.read(fd, 2)
        yield from fs.close(fd)
        return data, same

    assert dep.run(scenario()) == (b"ok", b"ok")


def test_posix_open_rejects_unknown_flags():
    dep = deploy()
    fs = PosixAPI(dep.client_on("c00"))

    def scenario():
        with pytest.raises(ValueError, match="bad flags"):
            yield from fs.open("/x", 42)
        if False:
            yield  # make this a generator for dep.run

    dep.run(scenario())


# ----------------------------------------------------------- error surface
def test_missing_file_raises_not_found():
    dep = deploy()
    sess = connect(dep, "c00")

    def scenario():
        with pytest.raises(NotFoundError):
            yield from sess.client.stat("/ghost")

    dep.run(scenario())


def test_create_existing_raises_conflict():
    dep = deploy()
    sess = connect(dep, "c00")

    def scenario():
        yield from sess.client.create("/dup")
        with pytest.raises(ConflictError):
            yield from sess.client.create("/dup")

    dep.run(scenario())


def test_commit_conflict_is_a_conflict_error():
    assert CommitConflict is ConflictError
    assert issubclass(ConflictError, SorrentoError)
    assert issubclass(NotFoundError, SorrentoError)


def test_handle_ids_are_per_instance():
    dep = deploy()
    one = HandleAPI(dep.client_on("c00"))
    two = HandleAPI(dep.client_on("c01"))
    # Each API mints its own reproducible sequence starting at the root.
    assert one.root.hid == 1
    assert two.root.hid == 1
