"""Pathname operations against the namespace server(s) (Section 3.1).

All routing — resolving a path's shard and per-shard standby failover
— lives in :class:`repro.core.client.router.NamespaceRouter`; this
mixin is the operation vocabulary on top of it.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import gather


class NamespaceOpsMixin:
    """Namespace RPCs: lookup, create, directories, leases."""

    def _call_ns(self, service: str, payload, size: int = 64, rtts: int = 1):
        result = yield from self.router.call(service, payload,
                                             size=size, rtts=rtts)
        return result

    # ------------------------------------------------------------ dir ops
    def mkdir(self, path: str):
        """Create a directory on the namespace server."""
        result = yield from self._call_ns("ns_mkdir", path)
        return result

    def rmdir(self, path: str):
        """Remove an empty directory."""
        result = yield from self._call_ns("ns_rmdir", path)
        return result

    def listdir(self, path: str):
        if path != "/":
            result = yield from self._call_ns("ns_list", path)
            return result
        # The root spans every shard: ask each one and merge.
        router = self.router
        parts = yield from gather(self.sim, [
            router.call("ns_list", "/", shard=s) for s in router.shards])
        return sorted({name for part in parts for name in part})

    def stat(self, path: str):
        """The file's namespace entry (FileID, version, policy)."""
        result = yield from self._call_ns("ns_lookup", path)
        return result

    def create(self, path: str, *, degree: Optional[int] = None,
               alpha: Optional[float] = None, organization: str = "linear",
               versioning: bool = True, placement: str = "load",
               stripe_count: int = 4, fixed_size: int = 0):
        """Create an empty file entry (no data segments yet).

        ``organization`` is the data layout mode — "linear", "striped",
        or "hybrid" (named so because ``open()``'s own ``mode`` is the
        r/w open mode).
        """
        fileid = self.ids.new_id()
        req = {
            "path": path, "fileid": fileid,
            "degree": degree if degree is not None else self.params.default_degree,
            "alpha": alpha if alpha is not None else self.params.default_alpha,
            "mode": organization, "versioning": versioning,
            "placement": placement,
            "stripe_count": stripe_count, "fixed_size": fixed_size,
        }
        entry = yield from self._call_ns("ns_create", req, size=160)
        return entry

    # ------------------------------------------------------------ leases
    def acquire_lease(self, path: str, duration: float = 30.0):
        """Write-lock lease: cooperative writers avoid commit conflicts
        by holding the lease across their session (Section 3.5)."""
        resp = yield from self._call_ns(
            "ns_acquire_lease", {"path": path, "duration": duration},
            size=96)
        return resp["status"] == "ok"

    def release_lease(self, path: str):
        """Release a previously-acquired write-lock lease."""
        result = yield from self._call_ns("ns_release_lease", {"path": path})
        return result
