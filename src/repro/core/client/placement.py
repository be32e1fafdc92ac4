"""Segment location and placement (Sections 3.4, 3.7).

Locating goes through the segment's home host (the consistent-hashing
location table), with the multicast probe as the backup scheme; placing
new segments weighs load, space, and the home-host boost.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.core.client.handle import (
    FileHandle,
    NotFoundError,
    SorrentoError,
    TimeoutError,
)
from repro.core.placement import SMALL_SEGMENT_BYTES, choose_provider
from repro.core.provider import LOCATION_GROUP
from repro.network.message import RpcRemoteError, RpcTimeout
from repro.runtime import RPC_DEADLINE

_nonces = itertools.count(1)


class PlacementMixin:
    """Locate existing segments; place and create new ones."""

    def _home_of(self, segid: int) -> str:
        providers = self.membership.live_providers()
        if not providers:
            raise SorrentoError("no live storage providers")
        return self.ring.home_host(segid, providers)

    def _on_probe_hit(self, payload: dict, src: str) -> None:
        waiter = self._probe_waiters.get(payload["nonce"])
        if waiter is not None:  # first answer wins; later ones are ignored
            waiter.resolve((payload["owner"], payload["version"]))

    def _locate(self, segid: int, read: Optional[dict] = None,
                refresh: bool = False):
        """Find a segment's owners: the per-client cache first, then the
        home host (Section 3.4.1), then the multicast query (Section
        3.4.2) as the backup scheme.

        ``read`` requests inline service and always goes to the home host
        (the cache cannot serve data).  ``refresh`` bypasses the cache for
        flows that need the full owner list (unlink, sync, pin) or that
        just proved a cached entry wrong.
        """
        if read is None and not refresh:
            owners = self.loc_cache.lookup(segid, self.sim.now)
            if owners:
                self._cache_note("loc_hits")
                return {"owners": owners, "inline": None, "cached": True}
            self._cache_note("loc_misses")
        home = self._home_of(segid)
        try:
            resp = yield from self.rpc.call(
                home, "loc_lookup", {"segid": segid, "read": read}, size=64,
            )
            if resp["owners"] or resp["inline"]:
                self.loc_cache.store(segid, resp["owners"], self.sim.now)
                return resp
        except (RpcTimeout, RpcRemoteError):
            pass
        owner = yield from self._probe(segid)
        self.loc_cache.store(segid, [owner], self.sim.now)
        return {"owners": [owner], "inline": None}

    def _evict_location(self, segid: int) -> None:
        """A cached claim was proven wrong (version mismatch / dead owner):
        drop it so the next lookup goes back to the home host."""
        if self.loc_cache.evict(segid):
            self._cache_note("loc_stale")

    def _learn_hint(self, segid: int, resp: Optional[dict]) -> None:
        """Fold a reply's piggybacked owner hint into the location cache."""
        if not resp:
            return
        hint = resp.get("hint")
        if hint:
            self.loc_cache.learn_hint(segid, hint, self.sim.now)

    def _probe(self, segid: int):
        """Backup scheme: ask everybody over multicast."""
        self.stats["probe_fallbacks"] += 1
        nonce = next(_nonces)
        waiter = self._probe_waiters[nonce] = self.sim.reply(RPC_DEADLINE)
        self.rpc.multicast(LOCATION_GROUP, "loc_probe",
                           {"segid": segid, "nonce": nonce}, size=48)
        owner = yield waiter
        del self._probe_waiters[nonce]
        if owner is None:
            raise TimeoutError(f"no owner responded for segment {segid:#x}")
        return owner

    def _pick_owner(self, owners: List[Tuple[str, int]]) -> Tuple[str, int]:
        """Choose among the newest-version owners at random (load spread).

        The newest version is computed explicitly: home-host lookups sort
        newest-first, but probe results and cache merges need not.
        """
        if not owners:
            raise NotFoundError("segment has no owners")
        newest = max(o[1] for o in owners)
        best = [o for o in owners if o[1] == newest]
        if self.prefer_local:
            for o in best:
                if o[0] == self.node.hostid:
                    return o
        return self.rng.choice(best)

    def _place_new_segment(self, segid: int, size_hint: int, alpha: float,
                           fh: Optional[FileHandle] = None,
                           not_on: Optional[set] = None) -> str:
        members = self.membership.snapshot()
        if not_on:
            members = {h: i for h, i in members.items() if h not in not_on}
        if not members:
            raise SorrentoError("no live storage providers")
        size_hint = max(size_hint, 1)
        # Growing *linear* files keep their data together: the next
        # segment goes where the previous one lives (unless it ran out of
        # room); online migration is the corrective force.  Striped and
        # hybrid files spread on purpose — their parallelism comes from
        # distinct owners.
        spreads = fh is not None and fh.entry.get("mode") in ("striped",
                                                              "hybrid")
        if fh is not None and not spreads and fh.affinity_owner is not None \
                and fh.affinity_owner in members:
            prev = members.get(fh.affinity_owner)
            if prev is not None and prev.available >= size_hint \
                    and self.rng.random() < self.params.segment_affinity:
                return fh.affinity_owner
        if fh is not None and fh.entry.get("placement") == "random":
            fitting = [h for h, i in members.items()
                       if i.available >= size_hint]
            if not fitting:
                raise SorrentoError("no provider can hold the segment")
            return self.rng.choice(sorted(fitting))
        home = self._home_of(segid)
        boost = 0.0
        if self.params.home_boost_enabled \
                and size_hint <= SMALL_SEGMENT_BYTES:
            boost = 3.0 * len(members)
        exclude = None
        if spreads:
            # Stripe mates on distinct providers, capacity permitting.
            exclude = set(fh.new_segments.values())
            if len(exclude) >= len(members):
                exclude = None
        target = choose_provider(self.rng, members, size_hint, alpha,
                                 exclude=exclude,
                                 home_host=home, home_boost=boost)
        if target is None and exclude:
            target = choose_provider(self.rng, members, size_hint, alpha,
                                     home_host=home, home_boost=boost)
        if target is None:
            raise SorrentoError("no provider can hold the segment")
        return target

    def _create_segment(self, fh: FileHandle, ref, *,
                        committed: bool = False, degree: Optional[int] = None,
                        tries: int = 3) -> str:
        """Create a brand-new segment on a placed provider.

        If the chosen provider is unreachable (it may have died between
        the heartbeat and now), re-place on another node — the client-side
        half of self-organization.
        """
        failed: set = set()
        last: Optional[Exception] = None
        for _ in range(tries):
            owner = self._place_new_segment(ref.segid, ref.max_size or 1,
                                            fh.entry["alpha"], fh=fh,
                                            not_on=failed)
            try:
                yield from self.rpc.call(
                    owner, "seg_create",
                    {"segid": ref.segid, "version": 1,
                     "committed": committed,
                     "degree": (degree if degree is not None
                                else fh.entry["degree"]),
                     "alpha": fh.entry["alpha"],
                     "placement": fh.entry.get("placement", "load")},
                    size=96,
                )
            except RpcTimeout as exc:
                failed.add(owner)
                last = exc
                continue
            fh.new_segments[ref.segid] = owner
            fh.affinity_owner = owner
            if committed:
                self.loc_cache.learn(ref.segid, owner, 1, self.sim.now)
            return owner
        raise TimeoutError(
            f"cannot place segment {ref.segid:#x}: {last}"
        ) from last
