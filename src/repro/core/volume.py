"""Volume deployment: wire a Sorrento cluster out of a hardware spec.

``SorrentoDeployment`` builds the simulator, fabric, nodes, the namespace
(a :class:`NamespaceShardMap` with one server per shard — one shard unless
configured otherwise), one storage provider per exporting node, and client
stubs — the "configured and maintained incrementally" cluster of Section
2.2.  It also adds a fresh provider at runtime and holds the only
accessors to namespace server state (:meth:`SorrentoDeployment.namespace_for`,
:meth:`SorrentoDeployment.namespace_servers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster import ClusterSpec, Node, NodeSpec
from repro.core.client import SorrentoClient
from repro.core.membership import MembershipManager
from repro.core.namespace import FileEntry, NamespaceServer, NamespaceShardMap
from repro.core.params import SorrentoParams
from repro.core.provider import StorageProvider
from repro.network import Fabric
from repro.runtime import MetricsRegistry, Tracer
from repro.sim import RngStreams, Simulator

if TYPE_CHECKING:
    from repro.sim.parallel import PartitionMap


@dataclass
class SorrentoConfig:
    """Top-level deployment configuration."""

    volume: str = "vol0"
    params: SorrentoParams = field(default_factory=SorrentoParams)
    seed: int = 0
    trace: bool = False                 # attach a Tracer to every runtime
    n_providers: Optional[int] = None   # cap exporting nodes used (paper's
    #                                     "each experiment may not use all")
    namespace_shards: int = 1           # shard the namespace tree over the
    #                                      first N storage hosts (one shard
    #                                      is the paper's single server)
    ns_shard_standbys_on: Optional[List[str]] = None  # per-shard hot
    #                                      standby hosts, parallel to the
    #                                      shard list (the §3.1
    #                                      availability extension)
    partition: Optional["PartitionMap"] = None  # conservative-parallel
    #                                      model cut (repro.sim.parallel):
    #                                      installs the store-and-forward
    #                                      transit on the fabric
    local_partition: Optional[int] = None  # build daemons only for this
    #                                      partition (worker mode); other
    #                                      hosts become dormant shells so
    #                                      construction — and every named
    #                                      RNG stream — stays identical
    #                                      across workers


class SorrentoDeployment:
    """A running Sorrento volume on a simulated cluster."""

    def __init__(self, spec: ClusterSpec, config: Optional[SorrentoConfig] = None):
        self.spec = spec
        self.config = config or SorrentoConfig()
        self.params = self.config.params
        self.sim = Simulator()
        self.rngs = RngStreams(self.config.seed)
        self.fabric = Fabric(self.sim, latency=spec.latency)
        self.nodes: Dict[str, Node] = {}
        self.providers: Dict[str, StorageProvider] = {}
        self.clients: List[SorrentoClient] = []
        # Segment size -> the one full synthetic extent map ``_plant``
        # gives every planted replica of that size (never mutated).
        self._full_extents: dict = {}
        # One registry (and optional tracer) for the whole deployment:
        # every node's ServiceRuntime reports into it, so experiments can
        # ask "how many ns_lookup calls did this run make?" in one place.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.sim) if self.config.trace else None

        pmap = self.config.partition
        local_pid = self.config.local_partition
        self.transit = None
        if pmap is not None:
            from repro.sim.parallel import Transit

            self.transit = Transit(self.sim, self.fabric, pmap,
                                   local_pid=local_pid)
            self.fabric.transit = self.transit

        def _dormant(name: str) -> bool:
            return (pmap is not None and local_pid is not None
                    and pmap.assignment.get(name, local_pid) != local_pid)

        if self.transit is None:
            self.sim.call_soon(self._expect, None, None)
        self.memberships: Dict[str, MembershipManager] = {}
        storage_specs = spec.storage_nodes
        if self.config.n_providers is not None:
            storage_specs = storage_specs[: self.config.n_providers]
        used_storage = {s.name for s in storage_specs}
        for nspec in spec.nodes:
            node = Node(self.sim, self.fabric, nspec,
                        dormant=_dormant(nspec.name))
            node.runtime.configure(registry=self.metrics, tracer=self.tracer)
            self.nodes[nspec.name] = node
            if nspec.name not in used_storage:
                # Non-provider nodes listen to heartbeats so client stubs
                # start with a warm membership view.
                self.memberships[nspec.name] = MembershipManager(
                    node, interval=self.params.heartbeat_interval,
                    announce=False,
                )

        # Namespace: one server per shard primary (plus an optional hot
        # standby each), all sharing one authoritative shard map.  The
        # shards are the first ``namespace_shards`` storage hosts.
        if self.config.namespace_shards < 1:
            raise ValueError("namespace_shards must be at least 1")
        shard_hosts = [s.name for s in
                       storage_specs[:self.config.namespace_shards]] \
            or [spec.nodes[0].name]
        standbys = list(self.config.ns_shard_standbys_on or [])
        self.ns_shard_map = NamespaceShardMap(shard_hosts)
        self.ns_shard_servers: Dict[str, NamespaceServer] = {}
        self.ns_shard_standby_servers: Dict[str, NamespaceServer] = {}
        self.ns_shards: Dict[str, List[str]] = {}
        self.ns_mirrors: Dict[str, NamespaceServer] = {}
        for i, host in enumerate(shard_hosts):
            server = self._namespace_server(host)
            server.configure_shard(self.ns_shard_map, host)
            self.ns_shard_servers[host] = server
            self.ns_shards[host] = [host]
            if i < len(standbys):
                standby = self._namespace_server(standbys[i])
                standby.configure_shard(self.ns_shard_map, host)
                server.attach_standby(standbys[i])
                self.ns_shard_standby_servers[host] = standby
                self.ns_shards[host].append(standbys[i])
        # The first shard's host and server, under the names they had
        # when a volume had exactly one.
        self.ns_host = shard_hosts[0]
        self.ns = self.ns_shard_servers[self.ns_host]

        # All exporting hosts, dormant or not: segment homes and preload
        # placement are functions of the *full* member list, which must be
        # identical in every partition worker.
        self.provider_names: List[str] = [s.name for s in storage_specs]
        for nspec in storage_specs:
            name = nspec.name
            node = self.nodes[name]
            if node.dormant:
                # Another partition's provider: the shell node is enough
                # (its daemons, store, and location table live — and use
                # memory — only in the worker that owns the partition),
                # once it is in the groups the provider would join.
                for group in StorageProvider.GROUPS:
                    node.runtime.subscribe(group)
                continue
            self.providers[name] = StorageProvider(
                node, self.config.volume, self.params,
                rng=self.rngs.py(f"provider:{name}"),
            )
            self.memberships[name] = self.providers[name].membership
        if self.transit is None:
            self.sim.call_soon(self._form, None, None)

    # Planted formation, at t = 0: ``_expect`` runs before any daemon
    # starts, ``_form`` once the first heartbeat round is sent.  A
    # transit, a partition or a link fault leaves it to the joins.
    def _expect(self, _a, _b) -> None:
        if not self.fabric.faulted():
            first = dict.fromkeys(self.provider_names)
            for view in self.memberships.values():
                view.expect(first)

    def _form(self, _a, _b) -> None:
        for view in self.memberships.values():
            view.form()

    # ---------------------------------------------------------- namespace
    def _namespace_server(self, hostid: str) -> NamespaceServer:
        node = self.nodes[hostid]
        if node.fs is None:
            raise ValueError(
                f"namespace server host {hostid} needs a local disk")
        return NamespaceServer(node, self.config.volume, self.params)

    def namespace_for(self, path: str) -> NamespaceServer:
        """The authoritative server for ``path`` — how anything outside
        the RPC path (preloading, inspection, experiment set-up) reaches
        a namespace entry."""
        return self.ns_shard_servers[self.ns_shard_map.owner_of(path)]

    def namespace_servers(self) -> List[NamespaceServer]:
        """Every shard's authoritative server.  Standbys and mirrors are
        replicas, not truth, and are left out."""
        return list(self.ns_shard_servers.values())

    def add_namespace_mirror(self, hostid: str,
                             interval: float) -> NamespaceServer:
        """A full-tree namespace mirror fed by scheduled bulk WAL
        batches from every shard — the satellite-tier metadata replica
        of the tiered topology.  The mirror is not a shard of the
        volume's map: it answers for any path, serving the
        (bounded-staleness) view the last batch shipped."""
        mirror = self._namespace_server(hostid)
        for server in self.namespace_servers():
            server.attach_standby(hostid, interval=interval)
        self.ns_mirrors[hostid] = mirror
        return mirror

    # ------------------------------------------------------------ clients
    def client_on(self, hostid: str) -> SorrentoClient:
        """A client stub running on the given node."""
        node = self.nodes[hostid]
        client = SorrentoClient(
            node, self.ns_shards, self.params,
            rng=self.rngs.py(f"client:{hostid}:{len(self.clients)}"),
            membership=self.memberships.get(hostid),
        )
        if hostid in self.ns_mirrors:
            # Geo-aware reads: a client co-located with a namespace
            # mirror (a WAN satellite tier) serves read-only metadata
            # from it instead of crossing the WAN.
            client.router.mirror = hostid
        self.clients.append(client)
        return client

    def clients_on_compute(self, n: int) -> List[SorrentoClient]:
        """``n`` clients spread round-robin over non-exporting nodes."""
        # Classify by the full exporting-host list, not the constructed
        # providers: in a partition worker some providers are dormant
        # shells, but client placement must match the serial build.
        storage = set(self.provider_names)
        compute = [s.name for s in self.spec.nodes
                   if s.name not in storage]
        if not compute:
            compute = list(self.provider_names)
        return [self.client_on(compute[i % len(compute)]) for i in range(n)]

    # ------------------------------------------------------ orchestration
    def warm_up(self, seconds: float = 8.0) -> None:
        """Let heartbeats populate every membership view."""
        self.sim.run(until=self.sim.now + seconds)

    def run(self, gen, until: Optional[float] = None):
        """Drive one client/workload process to completion."""
        return self.sim.run_process(self.sim.process(gen), until=until)

    # ------------------------------------------------ growth
    def add_provider(self, nspec: NodeSpec) -> StorageProvider:
        """Attach a brand-new storage node at runtime (Section 2.2)."""
        node = Node(self.sim, self.fabric, nspec)
        node.runtime.configure(registry=self.metrics, tracer=self.tracer)
        self.nodes[nspec.name] = node
        provider = StorageProvider(
            node, self.config.volume, self.params,
            rng=self.rngs.py(f"provider:{nspec.name}"),
        )
        self.providers[nspec.name] = provider
        self.memberships[nspec.name] = provider.membership
        self.provider_names.append(nspec.name)
        return provider

    # ------------------------------------------------------ preloading
    def preload_file(self, path: str, size: int, degree: int = 1,
                     alpha: float = 0.5, placement: str = "load",
                     on: Optional[List[str]] = None) -> FileEntry:
        """Plant one committed file directly into provider state; returns
        the namespace entry it stored (the stored object itself).

        :meth:`preload_files` for one file, on its own streams: the file
        id is drawn from ``"preload-ids"``, the layout and the start host
        from ``"preload:{path}"``.
        """
        return self._plant(((path, size),), self.rngs.py("preload-ids"),
                           self.rngs.py(f"preload:{path}"),
                           degree, alpha, placement, on)[1]

    def preload_files(self, files, degree: int = 1, alpha: float = 0.5,
                      placement: str = "load",
                      on: Optional[List[str]] = None) -> int:
        """Plant many committed files (``(path, size)`` pairs) directly
        into provider state; returns how many.

        Benchmark setup only: no simulated or wall time goes to an 80 GB
        dataset (Figure 11).  Every draw comes from one ``"preload-bulk"``
        stream, a fixed count per file, so partition workers replaying
        the file list stay stream-aligned whichever nodes are local.

        The cyclic collector is paused for the load: millions of planted
        objects all survive, and each full collection would re-walk
        them (an O(files²)-flavored load).  On the way out they go to
        the oldest generation unwalked; keeping them out of later
        collections is the run's business
        (:func:`repro.sim.kernel.collector_exempt`).
        """
        import gc

        gc_was = gc.isenabled()
        if gc_was:
            gc.disable()
        try:
            rng = self.rngs.py("preload-bulk")
            return self._plant(files, rng, rng,
                               degree, alpha, placement, on)[0]
        finally:
            if gc_was:
                gc.enable()
                # Inside a run's bracket the planted objects join the
                # frozen model; otherwise freeze + unfreeze hands them to
                # the oldest generation (young, they would be walked twice).
                in_bracket = gc.get_freeze_count()
                gc.freeze()
                if not in_bracket:
                    gc.unfreeze()

    def _plant(self, files, ids, draws, degree: int, alpha: float,
               placement: str, on: Optional[List[str]]
               ) -> Tuple[int, Optional[FileEntry]]:
        """The one planting loop: ``(files planted, last entry)``.

        Per file, the id is drawn from ``ids``, then the layout's segids
        and the start host from ``draws``.  Segment ``idx`` (the index
        segment last) goes round-robin over ``on`` (default: all
        providers) from the start host, replicas on distinct nodes; the
        structures go in through the public inserts (``SegmentStore.plant``,
        the home table's ``update``, ``RangeMap.set_range``), all content
        size-only (``SYNTHETIC`` extents, one shared map per segment
        size, nothing attached).  Placement math (owners, homes) runs
        over the full host list in every partition worker; state is
        planted only where the provider was built, and every draw
        precedes it, so dormancy never shifts a stream.
        """
        from repro.core.extent import RangeMap
        from repro.core.hashing import HashRing
        from repro.core.layout import make_layout
        from repro.core.namespace import _file_key
        from repro.core.segment import SYNTHETIC, StoredSegment
        from repro.storage.filesystem import _File

        rb = draws.getrandbits
        draw_id = lambda: rb(128)   # noqa: E731 - hoisted, built once
        hosts = on or sorted(self.provider_names)
        nhosts = len(hosts)
        # One ring + member-view object across preload calls: it holds
        # the providers' set's shared arrays, so homes match theirs.
        members = getattr(self, "_preload_view", None)
        if members is None or len(members) != len(self.provider_names):
            members = self._preload_view = sorted(self.provider_names)
            self._preload_ring = HashRing(self.params.ring_vnodes)
        ring = self._preload_ring
        now = self.sim.now
        get_provider = self.providers.get
        namespace_for = self.namespace_for
        nreps = min(degree, nhosts)
        locate = None

        entry = None

        # Per-host bound state, resolved once: the store's ``plant`` with
        # its FS, and the home table's ``update`` (False: a dormant shell).
        store_ctx: dict = {}
        loc_ctx: dict = {}
        full_extents = self._full_extents

        count = 0
        for path, size in files:
            fileid = ids.getrandbits(128)
            layout = make_layout("linear", draw_id)
            layout.grow_to(size, draw_id)
            start = draws.randrange(nhosts)
            segrefs = layout.segments
            nsegs = len(segrefs)
            if locate is None:
                # The first lookup sets the ring's view, which stays put
                # for the call: the raw lookup is safe after it.
                ring.home_host(fileid, members)
                locate = ring._locate
            for idx in range(nsegs + 1):
                if idx < nsegs:
                    ref = segrefs[idx]
                    segid = ref.segid
                    seg_size = ref.size
                    meta = None
                else:   # the per-file index segment
                    segid = fileid
                    seg_size = 4096
                    meta = {"layout": layout, "attached": None,
                            "attached_len": 0}
                if nreps == 1:
                    owners = (hosts[(start + idx) % nhosts],)
                else:
                    owners = dict.fromkeys(
                        hosts[(start + idx + r) % nhosts]
                        for r in range(nreps))
                for owner in owners:
                    ctx = store_ctx.get(owner)
                    if ctx is None:
                        provider = get_provider(owner)
                        if provider is None:
                            ctx = store_ctx[owner] = False
                        else:
                            pfs = provider.node.fs
                            ctx = store_ctx[owner] = (
                                provider.store.plant, pfs, pfs.files)
                    if ctx:
                        extents = full_extents.get(seg_size)
                        if extents is None:
                            extents = full_extents[seg_size] = RangeMap()
                            if seg_size > 0:
                                extents.set_range(0, seg_size, SYNTHETIC)
                        seg = StoredSegment(
                            segid, 1, seg_size, True, extents=extents,
                            replication_degree=degree, alpha=alpha,
                            placement=placement, last_access=now,
                            meta=meta)
                        ctx[0](seg)
                        ctx[2][seg.fs_name] = _File(seg_size, seg_size)
                        ctx[1].used += seg_size
                    home = locate(segid)
                    update = loc_ctx.get(home)
                    if update is None:
                        home_p = get_provider(home)
                        update = loc_ctx[home] = (
                            home_p.home.table.update if home_p is not None
                            else False)
                    if update:
                        update(segid, owner, 1, degree, seg_size, now)
            # Positional: (path, fileid, version, ctime, mtime, degree,
            # alpha, mode, versioning, placement), half the keyword cost.
            entry = FileEntry(path, fileid, 1, now, now, degree, alpha,
                              "linear", True, placement)
            server = namespace_for(path)
            if not server.node.dormant:
                server.db.put(_file_key(path), entry)
            count += 1
        return count, entry

    # ------------------------------------------------------------- metrics
    def storage_utilizations(self) -> Dict[str, float]:
        """Live providers' consumed-space fractions."""
        return {
            h: p.node.storage_utilization
            for h, p in self.providers.items()
            if p.node.alive
        }

    def total_bytes_stored(self) -> int:
        """Sum of extent bytes across all providers."""
        return sum(p.store.bytes_stored() for p in self.providers.values())

    def rpc_report(self, scope: Optional[str] = None) -> str:
        """Per-service RPC counters from the deployment-wide registry."""
        return self.metrics.report(scope)
