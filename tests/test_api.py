"""Tests for the client API surface (Section 2.3).

``SorrentoClient`` is the paper's handle layer: ``open`` returns an
opaque handle, and ``read``, ``write``, ``commit`` and ``close`` act on
it.  ``repro.api`` re-exports the typed error surface.
"""

import pytest

from repro.api import (
    CommitConflict,
    ConflictError,
    NotFoundError,
)
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
    client = dep.client_on("c00")

    def scenario():
        yield from client.mkdir("/docs")
        fh = yield from client.open("/docs/a.txt", "w", create=True)
        yield from client.write(fh, 0, 5, data=b"hello")
        yield from client.close(fh)
        fh = yield from client.open("/docs/a.txt", "r")
        data = yield from client.read(fh, 0, 5)
        yield from client.close(fh)
        return data

    assert dep.run(scenario()) == b"hello"


def test_handle_lookup_and_readdir():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        yield from client.mkdir("/d")
        yield from client.create("/d/x")
        yield from client.mkdir("/d/sub")
        names = yield from client.listdir("/d")
        entry = yield from client.stat("/d/x")
        return names, entry

    names, entry = dep.run(scenario())
    assert names == ["sub/", "x"]
    assert entry["version"] == 0


def test_handle_lookup_missing_raises():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        with pytest.raises(NotFoundError):
            yield from client.open("/ghost", "r")

    dep.run(scenario())


def test_handle_getattr_tracks_version():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/v", "w", create=True)
        yield from client.write(fh, 0, 10)
        yield from client.commit(fh)
        entry = yield from client.stat("/v")
        return entry["version"]

    assert dep.run(scenario()) == 1


def test_handle_remove():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/gone", "w", create=True)
        yield from client.write(fh, 0, 4)
        yield from client.close(fh)
        yield from client.unlink("/gone")
        with pytest.raises(NotFoundError):
            yield from client.stat("/gone")

    dep.run(scenario())


def test_posix_fd_lifecycle():
    """The UNIX open/write/close, open/read/close lifecycle on the
    client's handles: close publishes version 1 and a reopen in the
    default mode reads the bytes back."""
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/f", "w", create=True)
        yield from client.write(fh, 0, 6, data=b"abcdef")
        version = yield from client.close(fh)
        assert version == 1
        fh = yield from client.open("/f")
        data = yield from client.read(fh, 0, 6)
        yield from client.close(fh)
        return data

    assert dep.run(scenario()) == b"abcdef"


def test_posix_pread_does_not_move_cursor():
    """A handle keeps no file position: every read names its offset, so
    a read in the middle of the file leaves a later read at 0 intact."""
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/p", "w", create=True)
        yield from client.write(fh, 0, 8, data=b"ABCDEFGH")
        yield from client.close(fh)
        fh = yield from client.open("/p", "r")
        mid = yield from client.read(fh, 4, 2)
        head = yield from client.read(fh, 0, 2)
        yield from client.close(fh)
        return mid, head

    assert dep.run(scenario()) == (b"EF", b"AB")


def test_commit_midstream_starts_a_new_version():
    """A commit without close publishes a version; the handle stays open
    and the next write starts the next shadow session."""
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/sync", "w", create=True)
        yield from client.write(fh, 0, 4, data=b"v1v1")
        v1 = yield from client.commit(fh)
        yield from client.write(fh, 4, 4, data=b"v2v2")
        v2 = yield from client.close(fh)
        return v1, v2

    assert dep.run(scenario()) == (1, 2)


def test_closed_handle_refuses_io():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        fh = yield from client.open("/shut", "w", create=True)
        yield from client.close(fh)
        with pytest.raises(SorrentoError, match="closed"):
            yield from client.read(fh, 0, 4)
        with pytest.raises(SorrentoError, match="closed"):
            yield from client.write(fh, 0, 4)

    dep.run(scenario())


def test_per_file_policy_is_set_at_create():
    """The paper's per-file fine-tuning: degree, placement favoritism and
    placement policy travel with the create and stay on the entry."""
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        yield from client.create("/pol", degree=3, alpha=0.8,
                                 placement="locality")
        entry = yield from client.stat("/pol")
        return entry

    entry = dep.run(scenario())
    assert entry["degree"] == 3
    assert entry["alpha"] == 0.8
    assert entry["placement"] == "locality"


# ------------------------------------------------------ the node's runtime
def test_session_client_rides_the_nodes_runtime():
    """A client issues its RPCs through the node's one runtime, so what
    is wired there (registry, tracer) is what the client's calls see."""
    dep = deploy()
    client = dep.client_on("c00")
    assert client.rpc is dep.nodes["c00"].runtime
    tracer = Tracer(dep.sim)
    client.rpc.configure(tracer=tracer)

    def scenario():
        fh = yield from client.open("/traced", "w", create=True)
        yield from client.close(fh)

    dep.run(scenario())
    assert tracer.spans("rpc:ns_create")


def test_session_policy_survives_a_second_client_on_the_node():
    """Building another stub (or daemon) on the node must not re-wire
    the node's RPC runtime to the deployment default."""
    dep = deploy()
    tracer = Tracer(dep.sim)
    client = dep.client_on("c00")
    client.rpc.configure(tracer=tracer)
    dep.client_on("c00")
    assert client.rpc.tracer is tracer


# ----------------------------------------------------------- error surface
def test_missing_file_raises_not_found():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        with pytest.raises(NotFoundError):
            yield from client.stat("/ghost")

    dep.run(scenario())


def test_create_existing_raises_conflict():
    dep = deploy()
    client = dep.client_on("c00")

    def scenario():
        yield from client.create("/dup")
        with pytest.raises(ConflictError):
            yield from client.create("/dup")

    dep.run(scenario())


def test_commit_conflict_is_a_conflict_error():
    assert CommitConflict is ConflictError
    assert issubclass(ConflictError, SorrentoError)
    assert issubclass(NotFoundError, SorrentoError)
