"""The one public entry point: ``connect(dep, host) -> Session``.

A :class:`Session` binds a single shared
:class:`~repro.core.client.SorrentoClient` to a node and exposes every
interface flavor over it — ``.posix`` (UNIX-like fds), ``.handles``
(NFS-style), ``.pario`` (byte-range sharing) — so an application can mix
levels without juggling stubs, and so all of them share one membership
view, the node's one RPC runtime, and one set of client stats::

    sess = connect(dep, "c00")
    dep.run(sess.posix.stat("/data"))

The flavor-specific constructors (``PosixAPI(client)``, ...) keep
working as thin shims for code that builds its own client stubs.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.api.handles import HandleAPI
from repro.api.pario import ParallelIO
from repro.api.posix import PosixAPI
from repro.compute.api import ComputeAPI
from repro.core.client import SorrentoClient


class Session:
    """All client-side interfaces over one shared Sorrento client."""

    def __init__(self, client: SorrentoClient):
        self.client = client
        self._posix: Optional[PosixAPI] = None
        self._handles: Optional[HandleAPI] = None
        self._pario: Optional[ParallelIO] = None
        self._compute: Optional[ComputeAPI] = None

    # -- interface views (built lazily, one each) -----------------------
    @property
    def posix(self) -> PosixAPI:
        """The UNIX-like fd interface."""
        if self._posix is None:
            self._posix = PosixAPI(self.client)
        return self._posix

    @property
    def handles(self) -> HandleAPI:
        """The NFS-style opaque-handle interface."""
        if self._handles is None:
            self._handles = HandleAPI(self.client)
        return self._handles

    @property
    def pario(self) -> ParallelIO:
        """The byte-range sharing (versioning-off) interface."""
        if self._pario is None:
            self._pario = ParallelIO(self.client)
        return self._pario

    @property
    def compute(self) -> ComputeAPI:
        """The task-queue interface (bind it to a queue host first)."""
        if self._compute is None:
            self._compute = ComputeAPI(self.client)
        return self._compute

    # -- convenience pass-throughs --------------------------------------
    @property
    def sim(self):
        return self.client.sim

    @property
    def node(self):
        return self.client.node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session on {self.client.node.hostid!r}>"


def connect(dep: Any, host: str, **client_kwargs: Any) -> Session:
    """Open a :class:`Session` on ``host`` of a deployment.

    ``dep`` is anything with a ``client_on(host)`` factory (a
    :class:`~repro.core.volume.SorrentoDeployment`); extra keyword
    arguments are forwarded to it when it accepts them.
    """
    client = dep.client_on(host, **client_kwargs) if client_kwargs \
        else dep.client_on(host)
    return Session(client)
