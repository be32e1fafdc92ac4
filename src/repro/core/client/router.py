"""Client-side namespace routing: the metadata front door's core.

Every namespace RPC a :class:`SorrentoClient` issues goes through one
:class:`NamespaceRouter`, and there is one way to route it: the
directory tree is partitioned across the volume's shard servers (one by
default, fixed at deployment) by top-level prefix, and the router
resolves a path with a :class:`NamespaceShardMap` over the same shard
names the servers' map holds, so it names the owner the servers would.
Each shard is a failover list ``[primary, standby, ...]``; an RPC
time-out rotates to the next host.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.client.handle import (
    ConflictError,
    NotFoundError,
    SorrentoError,
    TimeoutError,
)
from repro.core.namespace import NamespaceShardMap
from repro.network.message import RpcRemoteError, RpcTimeout

#: Metadata ops a read-only namespace mirror can answer (bounded-stale
#: snapshots are the mirror contract; anything mutating must go to the
#: authoritative shard).
READ_ONLY = frozenset({"ns_lookup", "ns_list"})

#: How a remote handler's ``NamespaceError`` arrives in
#: ``RpcRemoteError.error``: the exception's type name, then its text.
NS_ERROR = "NamespaceError: "


def _namespace_error(error: str) -> SorrentoError:
    """Map a remote ``NamespaceError`` string onto the typed hierarchy.

    Classified by the code token that follows ``NamespaceError: `` and
    nothing else: the rest of the message is a caller-chosen path, which
    may spell any code.
    """
    code = error.partition(NS_ERROR)[2].partition(" ")[0]
    if code == "ENOENT":
        return NotFoundError(error)
    if code in ("EEXIST", "ENOTEMPTY"):
        return ConflictError(error)
    return SorrentoError(error)


class NamespaceRouter:
    """Resolves the namespace server that owns a path and calls it.

    ``shards`` maps shard name (the primary's hostid) to the failover
    host list ``[primary, standby, ...]`` for that shard.  ``note`` is
    the client's cache-stats hook (``mirror_*``).
    """

    def __init__(self, rpc, shards: Dict[str, List[str]],
                 note: Callable[..., None]):
        self.rpc = rpc
        self.shards: Dict[str, List[str]] = {
            name: list(hosts) for name, hosts in shards.items()
        }
        #: Owning shard for a path — the one resolver: what :meth:`call`
        #: routes on is what :meth:`route_host` reports.
        self.shard_for = NamespaceShardMap(self.shards).owner_of
        self._shard_active: Dict[str, int] = {}
        self._note = note
        # Geo-aware reads: a full-tree namespace mirror (usually on this
        # client's own tier) preferred for read-only metadata ops, so a
        # WAN satellite resolves lookups without a central roundtrip.
        self.mirror: Optional[str] = None

    def route_host(self, path: str) -> str:
        """The single host a path-addressed RPC would go to right now."""
        shard = self.shard_for(path)
        hosts = self.shards[shard]
        return hosts[self._shard_active.get(shard, 0) % len(hosts)]

    def call(self, service: str, payload, size: int = 64, rtts: int = 1,
             shard: Optional[str] = None):
        """Issue one namespace RPC: prefer the mirror for read-only ops,
        route on the payload's path (or to ``shard`` when the caller
        names one — the root listing, which every shard answers), and
        rotate through the shard's failover list on time-out.  Raises
        the typed client errors."""
        if self.mirror is not None and shard is None \
                and service in READ_ONLY:
            try:
                result = yield from self.rpc.call(
                    self.mirror, service, payload, size=size, rtts=rtts,
                )
            except RpcRemoteError as exc:
                if not exc.error.startswith(NS_ERROR):
                    raise
                # Raised unnamed, here and below: a typed error kept in
                # a local of the frame that raises it is a cycle through
                # its own traceback, pinning every frame up to the
                # catcher (the caller's handle, layout and reply).
                try:
                    raise _namespace_error(exc.error) from exc
                except NotFoundError:
                    # Not in the mirror (yet): bounded staleness means
                    # the entry may exist centrally — fall through and
                    # ask the authoritative server over the WAN.
                    self._note("mirror_fallbacks")
            except RpcTimeout:
                self._note("mirror_fallbacks")
            else:
                self._note("mirror_hits")
                return result
        if shard is None:
            shard = self.shard_for(payload if isinstance(payload, str)
                                   else payload.get("path", ""))
        hosts = self.shards[shard]
        for attempts_left in reversed(range(len(hosts))):
            active = self._shard_active.get(shard, 0) % len(hosts)
            try:
                result = yield from self.rpc.call(
                    hosts[active], service, payload, size=size, rtts=rtts,
                )
                return result
            except RpcRemoteError as exc:
                if not exc.error.startswith(NS_ERROR):
                    raise
                raise _namespace_error(exc.error) from exc
            except RpcTimeout as exc:
                # Shard primary unreachable: rotate to its standby.
                self._shard_active[shard] = (active + 1) % len(hosts)
                if not attempts_left:
                    raise TimeoutError(
                        f"namespace shard {shard} unreachable: {exc}"
                    ) from exc
