"""Client-side namespace routing: the metadata front door's core.

Every namespace RPC a :class:`SorrentoClient` issues goes through one
:class:`NamespaceRouter`, and there is one way to route it: the
directory tree is partitioned across the volume's shard servers (one by
default) by top-level prefix on a consistent-hash ring.  The router
keeps its own ring snapshot plus a TTL'd route cache keyed by
*(shard-epoch, prefix)*; when a ring change makes a cached route stale,
the server's ``EWRONGSHARD`` redirect carries the owner and the new
epoch, the router learns both, and the epoch in the cache key strands
every stale entry at once (no redirect loops).  Each shard is a
failover list ``[primary, standby, ...]``; an RPC time-out rotates to
the next host.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.client.handle import (
    ConflictError,
    NotFoundError,
    SorrentoError,
    TimeoutError,
    WrongShardError,
)
from repro.core.hashing import HashRing
from repro.core.location import TtlCache
from repro.core.namespace import ROOT, SHARD_VNODES, _prefix_point, shard_prefix
from repro.network.message import RpcRemoteError, RpcTimeout

#: Metadata ops a read-only namespace mirror can answer (bounded-stale
#: snapshots are the mirror contract; anything mutating must go to the
#: authoritative shard).
READ_ONLY = frozenset({"ns_lookup", "ns_list"})

#: How a remote handler's ``NamespaceError`` arrives in
#: ``RpcRemoteError.error``: the exception's type name, then its text.
NS_ERROR = "NamespaceError: "

ROUTE_CACHE_TTL = 30.0       # prefix -> shard routes, keyed by
ROUTE_CACHE_CAPACITY = 4096  # (epoch, prefix)
REDIRECT_LIMIT = 4           # EWRONGSHARD hops (and cross-shard re-plans)
#                              before the error surfaces to the app


def _namespace_error(error: str) -> SorrentoError:
    """Map a remote ``NamespaceError`` string onto the typed hierarchy.

    Classified by the code token that follows ``NamespaceError: `` and
    nothing else: the rest of the message is a caller-chosen path, which
    may spell any code, ``owner=`` or a space.
    """
    code, _, rest = error.partition(NS_ERROR)[2].partition(" ")
    if code == "EWRONGSHARD":
        # "<path> owner=<shard> epoch=<n>": shard names and integers
        # hold no spaces, so the two fields are split off the right.
        path, owner, epoch = rest.rsplit(" ", 2)
        return WrongShardError(error, path=path,
                               owner=owner[len("owner="):],
                               epoch=int(epoch[len("epoch="):]))
    if code == "ENOENT":
        return NotFoundError(error)
    if code in ("EEXIST", "ENOTEMPTY"):
        return ConflictError(error)
    return SorrentoError(error)


class NamespaceRouter:
    """Resolves the namespace server that owns a path and calls it.

    ``shards`` maps shard name (the primary's hostid) to the failover
    host list ``[primary, standby, ...]`` for that shard, ``epoch`` is
    the deployment's shard-map epoch when the snapshot was taken.
    ``note`` is the client's cache-stats hook (``route_hits`` /
    ``route_misses`` / ``ns_redirects`` / ``mirror_*``).
    """

    def __init__(self, rpc, sim, shards: Dict[str, List[str]],
                 epoch: int, note: Callable[..., None]):
        self.rpc = rpc
        self.sim = sim
        self.shards: Dict[str, List[str]] = {
            name: list(hosts) for name, hosts in shards.items()
        }
        self.epoch = epoch
        self._ring = HashRing(SHARD_VNODES)
        self._route_cache = TtlCache(ROUTE_CACHE_TTL, ROUTE_CACHE_CAPACITY)
        self._shard_active: Dict[str, int] = {}
        self._note = note
        # Geo-aware reads: a full-tree namespace mirror (usually on this
        # client's own tier) preferred for read-only metadata ops, so a
        # WAN satellite resolves lookups without a central roundtrip.
        self.mirror: Optional[str] = None

    # ------------------------------------------------------------ resolve
    def shard_for(self, path: str) -> str:
        """Owning shard for ``path``, through the (epoch, prefix) cache
        — the one resolver: what :meth:`call` routes on is what
        :meth:`route_host` reports."""
        # shard_prefix(path), spelled out: see NamespaceShardMap.owner_of.
        prefix = path.strip("/").split("/", 1)[0] or ROOT
        now = self.sim.now
        cached = self._route_cache.get((self.epoch, prefix), now)
        if cached is not None:
            self._note("route_hits")
            return cached
        self._note("route_misses")
        shard = self._ring.home_host(_prefix_point(prefix),
                                     sorted(self.shards))
        self._route_cache.put((self.epoch, prefix), shard, now)
        return shard

    def route_host(self, path: str) -> str:
        """The single host a path-addressed RPC would go to right now."""
        shard = self.shard_for(path)
        hosts = self.shards[shard]
        return hosts[self._shard_active.get(shard, 0) % len(hosts)]

    def redirected(self, err: WrongShardError) -> None:
        """Absorb an ``EWRONGSHARD`` redirect: adopt the newer epoch
        (stranding every route cached under the old one) and pin the
        refused path's prefix to the named owner."""
        self._note("ns_redirects")
        if err.epoch > self.epoch:
            self.epoch = err.epoch
        if err.owner not in self.shards:
            self.shards[err.owner] = [err.owner]
        self._route_cache.put((self.epoch, shard_prefix(err.path)),
                              err.owner, self.sim.now)

    def learn_shards(self, epoch: int, shards: List[str]) -> List[str]:
        """Absorb a shard-map snapshot (piggybacked on a root-listing
        reply).  On a newer epoch the known shard set is replaced with
        the authoritative one (keeping any standby lists already
        learned); on the same epoch it is unioned.  Returns the shard
        names that are new to this router."""
        if epoch < self.epoch:
            return []
        new = [s for s in shards if s not in self.shards]
        if epoch > self.epoch:
            self.epoch = epoch
            self.shards = {s: self.shards.get(s, [s]) for s in shards}
        else:
            for s in new:
                self.shards[s] = [s]
        return new

    # --------------------------------------------------------------- call
    def call(self, service: str, payload, size: int = 64, rtts: int = 1,
             shard: Optional[str] = None):
        """Issue one namespace RPC: prefer the mirror for read-only ops,
        route on the payload's path (or to ``shard`` when the caller
        names one — the root listing, which every shard answers), rotate
        through the shard's failover list on time-out, and chase
        ``EWRONGSHARD`` redirects.  Raises the typed client errors."""
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
        path = payload if isinstance(payload, str) else payload.get("path", "")
        redirects = 0
        while True:
            target = shard or self.shard_for(path)
            hosts = self.shards[target]
            for attempts_left in reversed(range(len(hosts))):
                active = self._shard_active.get(target, 0) % len(hosts)
                try:
                    result = yield from self.rpc.call(
                        hosts[active], service, payload,
                        size=size, rtts=rtts,
                    )
                    return result
                except RpcRemoteError as exc:
                    if not exc.error.startswith(NS_ERROR):
                        raise
                    try:
                        raise _namespace_error(exc.error) from exc
                    except WrongShardError as err:
                        self.redirected(err)
                        redirects += 1
                        # A refusal about another path of the request (a
                        # rename's destination) is the caller's to
                        # re-plan: re-routing on this one would reach
                        # the same shard.
                        if err.path != path \
                                or redirects > REDIRECT_LIMIT:
                            raise
                    break  # re-resolve against the repaired route
                except RpcTimeout as exc:
                    # Shard primary unreachable: rotate to its standby.
                    self._shard_active[target] = (active + 1) % len(hosts)
                    if not attempts_left:
                        raise TimeoutError(
                            f"namespace shard {target} unreachable: {exc}"
                        ) from exc
