"""The client stub proper: one object per (node, volume) binding."""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional

from repro.core.client.handle import FileHandle, SorrentoError
from repro.core.client.io import DataPathMixin
from repro.core.client.namespace_ops import NamespaceOpsMixin
from repro.core.client.placement import PlacementMixin
from repro.core.client.router import NamespaceRouter
from repro.core.client.versioning import VersioningMixin
from repro.core.hashing import HashRing
from repro.core.ids import IdGenerator
from repro.core.location import (
    LOC_CACHE_CAPACITY,
    LOC_CACHE_TTL,
    ClientLocationCache,
    TtlCache,
)
from repro.core.membership import MembershipManager
from repro.core.params import SorrentoParams
from repro.runtime import CACHE, OpStats
from repro.sim import Reply

# Index-segment metadata cache: version-gated (an entry is used only on
# an exact match against the namespace entry's version), so the TTL
# bounds memory, not staleness.
META_CACHE_TTL = 60.0
META_CACHE_CAPACITY = 256


class SorrentoClient(NamespaceOpsMixin, PlacementMixin, DataPathMixin,
                     VersioningMixin):
    """Client stub bound to one node and one volume.

    All methods that touch the network are generators meant to run
    inside sim processes (``yield from client.open(...)``).
    """

    def __init__(self, node, ns_shards: Dict[str, List[str]],
                 params: Optional[SorrentoParams] = None,
                 rng: Optional[random.Random] = None,
                 membership: Optional[MembershipManager] = None):
        self.node = node
        self.sim = node.sim
        self.params = params or SorrentoParams()
        # crc32, not hash(): the builtin string hash is randomized per
        # interpreter launch, breaking cross-process replay.
        self.rng = rng or random.Random(zlib.crc32(node.hostid.encode()) & 0xFFFFFF)
        self.rpc = node.runtime
        # All namespace routing lives in the router.  ns_shards is the
        # deployment's shard list: shard name -> [primary, standby, ...].
        self.router = NamespaceRouter(self.rpc, ns_shards,
                                      note=self._cache_note)
        self.membership = membership or MembershipManager(
            node, interval=self.params.heartbeat_interval, announce=False
        )
        self.ring = HashRing(self.params.ring_vnodes)
        # Events mark the view; the next lookup adopts its shared arrays.
        self.membership.on_join.append(self.ring.add_host)
        self.membership.on_leave.append(self.ring.remove_host)
        self.ids = IdGenerator(node.hostid, self.rng, clock=lambda: self.sim.now)
        self._probe_waiters: Dict[int, Reply] = {}
        if "loc_probe_hit" not in self.rpc.handlers:
            self.rpc.register("loc_probe_hit", self._on_probe_hit)
        self.stats = {"opens": 0, "reads": 0, "writes": 0, "commits": 0,
                      "conflicts": 0, "probe_fallbacks": 0,
                      "loc_hits": 0, "loc_misses": 0, "loc_stale": 0,
                      "meta_hits": 0, "meta_misses": 0,
                      "vec_rpcs": 0, "vec_pieces": 0,
                      "mirror_hits": 0, "mirror_fallbacks": 0,
                      # Never counted (no shard ever redirects); kept
                      # at 0 because bench/layers.py reads it.
                      "ns_redirects": 0}
        # Read-placement preference: when True, reads served by a replica
        # set that includes this very node short-circuit to the local copy
        # instead of spreading load at random.  Off by default (the random
        # spread is the paper's behaviour); compute workers switch it on so
        # a pre-staged input is actually read locally.
        self.prefer_local = False
        # The caching-and-batching plane: location and meta caches plus
        # the membership hook that evicts a dead owner's claims.
        self.loc_cache = ClientLocationCache(LOC_CACHE_TTL, LOC_CACHE_CAPACITY)
        self.meta_cache = TtlCache(META_CACHE_TTL, META_CACHE_CAPACITY)
        self._cache_cells: Dict[str, OpStats] = {}
        self.membership.on_leave.append(self._on_member_death)

    # -------------------------------------------------------- cache plane
    def _cache_note(self, counter: str, n: int = 1) -> None:
        """Count a cache event both locally and in the deployment registry
        (scope "cache"), where it lands in ``report()`` next to the RPCs
        it saved.  The registry cell is looked up once per counter and
        kept."""
        self.stats[counter] += n
        cell = self._cache_cells.get(counter)
        if cell is None:
            registry = self.rpc.registry
            if registry is None:
                return
            cell = self._cache_cells[counter] = registry.stats(CACHE, counter)
        cell.oneways += n

    def _on_member_death(self, hostid: str) -> None:
        """Membership death event: drop every cached claim by the node."""
        evicted = self.loc_cache.evict_owner(hostid)
        if evicted:
            self._cache_note("loc_stale", evicted)

    # ------------------------------------------------------------- misc
    @staticmethod
    def _check_open(fh: FileHandle) -> None:
        if fh.closed:
            raise SorrentoError(f"{fh.path}: handle is closed")
