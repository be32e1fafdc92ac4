"""Pathname operations against the namespace server(s) (Section 3.1).

All routing — resolving a path's shard and per-shard standby failover
— lives in :class:`repro.core.client.router.NamespaceRouter`; this
mixin is the operation vocabulary on top of it.  Cross-shard
rename/link run a two-phase commit over the owning shards'
staged-mutation handlers.
"""

from __future__ import annotations

from typing import Optional

from repro.core.client.handle import ConflictError
from repro.core.twophase import CommitAborted, two_phase_commit
from repro.sim import gather

NS_2PC_SERVICES = ("ns_prepare", "ns_commit", "ns_abort")


def _parent_dir(path: str) -> str:
    head = path.rpartition("/")[0]
    return head or "/"


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

    # ----------------------------------------------------- rename / link
    def rename(self, src_path: str, dst_path: str):
        """Atomically move a file entry to a new path.

        Same-shard renames are one ``ns_rename`` RPC; when the two paths
        hash to different shards the move runs as a two-phase commit
        over both shards' staged-mutation handlers, so either both the
        delete of the old name and the insert of the new one land, or
        neither.
        """
        moved = yield from self._move(src_path, dst_path, keep_source=False)
        return moved

    def link(self, src_path: str, dst_path: str):
        """Alias a file under a second path (both resolve to the same
        FileID).  Cross-shard links use the same 2PC as rename."""
        alias = yield from self._move(src_path, dst_path, keep_source=True)
        return alias

    def _move(self, src_path: str, dst_path: str, *, keep_source: bool):
        route_host = self.router.route_host
        src_host, dst_host = route_host(src_path), route_host(dst_path)
        if src_host == dst_host:
            moved = yield from self._call_ns(
                "ns_link" if keep_source else "ns_rename",
                {"path": src_path, "dst": dst_path}, size=96)
            return moved
        entry = yield from self._call_ns("ns_lookup", src_path)
        moved = yield from self._cross_shard_move(
            entry, src_host, dst_path, dst_host, keep_source)
        return moved

    def _cross_shard_move(self, entry: dict, src_host: str, dst_path: str,
                          dst_host: str, keep_source: bool):
        src_path = entry["path"]
        moved = dict(entry, path=dst_path)
        txid = self.ids.new_id()
        src_ops = [] if keep_source else [{"op": "del", "key": "f:" + src_path}]
        participants = [
            (src_host, {
                "txid": txid,
                "checks": [{"key": "f:" + src_path, "must": "present"}],
                "ops": src_ops,
            }),
            (dst_host, {
                "txid": txid,
                "checks": [
                    {"key": "f:" + dst_path, "must": "absent"},
                    {"key": "d:" + _parent_dir(dst_path), "must": "present"},
                ],
                "ops": [{"op": "put", "key": "f:" + dst_path, "value": moved}],
            }),
        ]
        try:
            yield from two_phase_commit(self.rpc, participants, req_size=192,
                                        services=NS_2PC_SERVICES)
        except CommitAborted as exc:
            raise ConflictError(
                f"rename {src_path} -> {dst_path} aborted: {exc}") from exc
        return moved

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
