"""Architectural conformance: the code's import graph must respect the
paper's Figure 2 component layering (and stay acyclic)."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import networkx as nx

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def import_graph() -> "nx.DiGraph":
    g = nx.DiGraph()
    for path in SRC.rglob("*.py"):
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        mod = mod.removesuffix(".__init__")
        g.add_node(mod)
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("repro"):
                if node.module != mod:  # lazy-export self-import idiom
                    g.add_edge(mod, node.module)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("repro") and a.name != mod:
                        g.add_edge(mod, a.name)
    return g


def package_of(mod: str) -> str:
    parts = mod.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def test_no_import_cycles():
    g = import_graph()
    cycles = list(nx.simple_cycles(g))
    assert cycles == [], f"import cycles: {cycles}"


def test_substrate_never_imports_core():
    """The DES/network/storage substrate must not know about Sorrento."""
    g = import_graph()
    substrate = {"sim", "network", "storage", "cluster", "kvstore"}
    upper = {"core", "baselines", "workloads", "experiments", "api", "tools"}
    for src, dst in g.edges:
        if package_of(src) in substrate:
            assert package_of(dst) not in upper, (src, dst)


def test_layering_matches_figure2():
    """Figure 2's arcs: membership underlies location; location underlies
    replication/placement concerns (provider); namespace and provider
    underlie the client.  Expressed as 'lower layers never import higher'."""
    g = import_graph()
    order = {
        "repro.core.ids": 0, "repro.core.extent": 0, "repro.core.params": 0,
        "repro.core.hashing": 1, "repro.core.membership": 1,
        "repro.core.layout": 1, "repro.core.segment": 1,
        "repro.core.location": 2, "repro.core.twophase": 2,
        "repro.core.placement": 2, "repro.core.migration": 2,
        "repro.core.locality": 2, "repro.core.namespace": 2,
        "repro.core.provider": 3,
        "repro.core.client": 4,
        "repro.core.client.handle": 4,
        "repro.core.client.router": 4,
        "repro.core.client.namespace_ops": 4,
        "repro.core.client.placement": 4,
        "repro.core.client.io": 4,
        "repro.core.client.versioning": 4,
        "repro.core.client.stub": 4,
        "repro.core.volume": 5,
    }
    for src, dst in g.edges:
        if src in order and dst in order:
            assert order[src] >= order[dst], (
                f"{src} (layer {order[src]}) imports {dst} "
                f"(layer {order[dst]}) — Figure 2 layering violated"
            )


def test_baselines_do_not_depend_on_sorrento_core():
    """NFS/PVFS are independent comparison systems, not Sorrento clients."""
    g = import_graph()
    for src, dst in g.edges:
        if package_of(src) == "baselines":
            assert package_of(dst) != "core", (src, dst)


def test_kernel_primitives_stay_behind_the_sim_facade():
    """The event-heap fast path relies on every scheduling decision going
    through the Simulator facade (``sim.event/timeout/call_later/reply/
    all_of``).  Outside ``repro/sim/``, source must not import ``heapq``
    or construct kernel primitives directly."""
    ctors = {"Event", "Timeout", "Callback", "Reply", "Deadlines",
             "Completion", "AllOf"}
    offenders = []
    for path in SRC.rglob("*.py"):
        if path.relative_to(SRC).parts[0] == "sim":
            continue
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "heapq" for a in node.names):
                    offenders.append(f"{mod}:{node.lineno} imports heapq")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "heapq":
                    offenders.append(f"{mod}:{node.lineno} imports heapq")
            elif isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else (
                    fn.attr if isinstance(fn, ast.Attribute) else None)
                if name in ctors:
                    offenders.append(f"{mod}:{node.lineno} constructs {name}")
    assert offenders == [], (
        "kernel primitives used outside the sim facade: "
        + ", ".join(offenders)
    )


def test_one_dispatcher():
    """A node has one RPC object: ``ServiceRuntime`` is the only thing
    that installs itself as a host's message dispatcher, the network
    package stays below it, and nothing resurrects the transport module
    or its ``Endpoint`` class beside it."""
    installers, mentions = [], []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        if re.search(r"\.deliver\s*=[^=]", text):
            installers.append(rel)
        if re.search(r"\bEndpoint\(|network\.transport", text):
            mentions.append(rel)
    assert installers == ["runtime/service.py"]
    assert mentions == []
    assert not (SRC / "network" / "transport.py").exists()
    for src, dst in import_graph().edges:
        if package_of(src) == "network":
            assert package_of(dst) != "runtime", (src, dst)


def test_segment_data_rpcs_go_through_one_helper():
    """One data RPC per direction: client code sends ``seg_read`` /
    ``seg_write`` only through ``_seg_call``, which carries a piece list
    (the helper names the service through its argument, so no literal
    service name may reach a ``call`` anywhere in the client), and no
    second, vectored service name is left under ``src/``."""
    helper = ("repro.core.client.io", "_seg_call")
    offenders, defined = [], []
    for path in (SRC / "core" / "client").glob("*.py"):
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)

        def visit(node, fn, mod=mod):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
                if (mod, fn) == helper:
                    defined.append(fn)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "call"
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in ("seg_read", "seg_write")):
                offenders.append(
                    f"{mod}.{fn}:{node.lineno} ({node.args[1].value})")
            for child in ast.iter_child_nodes(node):
                visit(child, fn)

        visit(ast.parse(path.read_text()), "<module>")
    assert defined == ["_seg_call"]
    assert offenders == [], (
        "segment data RPCs outside _seg_call: " + ", ".join(offenders))
    vec = [str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
           if re.search(r"seg_(read|write)_vec", p.read_text())]
    assert vec == []


def test_every_registered_service_has_a_sender():
    """A handler stays only while something sends to it: each service
    name declared in a ``SERVICES`` tuple or a literal ``register("…")``
    appears as a string constant somewhere other than a declaration."""
    declared, sent = set(), set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        declaring = set()
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Tuple) \
                    and any(isinstance(t, ast.Name) and t.id == "SERVICES"
                            for t in node.targets):
                names = node.value.elts
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "register" and node.args:
                names = node.args[:1]
            for elt in names:
                if isinstance(elt, ast.Constant) \
                        and isinstance(elt.value, str):
                    declared.add(elt.value)
                    declaring.add(elt)
        sent.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node not in declaring)
    unsent = sorted(declared - sent)
    assert unsent == [], f"registered services nothing sends: {unsent}"


def test_raw_disk_io_goes_through_the_storage_engine():
    """Provider-side disk charges flow through ``LocalFS`` (which routes
    to the ``StorageEngine`` when one is installed) — never a direct
    ``device.io()`` call, nor a ledger booking (``Disk.book``, an
    ``io()`` without its event).  Allowed raw call sites: the FS's own
    funnel, the engine's merged-issue point, RAID striping over its
    members, a drive's own ``io``, and the NFS/PVFS baselines
    (independent systems modeling their own kernels' buffer caches)."""
    allowed = {
        ("repro.storage.filesystem", "_device_io"),
        ("repro.storage.engine", "_issue"),
        ("repro.storage.raid", "io"),
        ("repro.storage.disk", "io"),
    }
    allowed_modules = {"repro.baselines.nfs", "repro.baselines.pvfs"}
    offenders = []
    for path in SRC.rglob("*.py"):
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        if mod in allowed_modules:
            continue

        def visit(node, fn, mod=mod):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = node.name
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("io", "book")
                    and (mod, fn) not in allowed):
                offenders.append(f"{mod}.{fn}:{node.lineno}")
            for child in ast.iter_child_nodes(node):
                visit(child, fn)

        visit(ast.parse(path.read_text()), "<module>")
    assert offenders == [], (
        "raw device .io() outside the storage-engine allowlist: "
        + ", ".join(offenders)
    )


def test_location_table_changes_go_through_the_home():
    """Every change to a home host's location table is one
    ``LocationHome`` method, and each says what follows it.  Outside
    that class nothing may reach ``update`` / ``remove`` /
    ``drop_owner`` / ``purge`` through a ``loc`` or ``table`` (called or
    bound), nor build a ``LocationTable``.  The one exception is the
    preload's planting loop, which binds a home table's ``update`` and
    schedules nothing, by design."""
    allowed = {
        ("repro.core.location", "LocationHome"),
        ("repro.core.volume", "_plant"),
    }
    changes = {"update", "remove", "drop_owner", "purge"}

    def name_of(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    offenders = []
    for path in SRC.rglob("*.py"):
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)

        def visit(node, fn, inside, mod=mod):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                fn = node.name
                inside = inside or (mod, fn) in allowed
            if not inside and (
                    (isinstance(node, ast.Attribute) and node.attr in changes
                     and name_of(node.value) in ("loc", "table"))
                    or (isinstance(node, ast.Call)
                        and name_of(node.func) == "LocationTable")):
                offenders.append(f"{mod}.{fn}:{node.lineno}")
            for child in ast.iter_child_nodes(node):
                visit(child, fn, inside)

        visit(ast.parse(path.read_text()), "<module>", False)
    assert offenders == [], (
        "location-table change outside LocationHome: " + ", ".join(offenders)
    )


#: Underscore state that only its owning module may touch.
PRIVATE_STATE = [
    ({"_segs"}, "repro.core.segment"),
    ({"_entries", "_first_seen"}, "repro.core.location"),
    ({"_spans", "_covered"}, "repro.core.extent"),
]

#: One instance per stored file, segment replica, location row or logged
#: mutation — 10^5 to 10^6 of each at scale, so none carries a
#: ``__dict__``.
SLOTTED = [
    ("repro.core.segment", "StoredSegment"),
    ("repro.core.extent", "RangeMap"),
    ("repro.storage.filesystem", "_File"),
    ("repro.core.location", "OwnerRecord"),
    ("repro.core.layout", "SegmentRef"),
    ("repro.core.layout", "Layout"),
    ("repro.kvstore.wal", "WalRecord"),
    ("repro.core.namespace", "FileEntry"),
]


def test_segment_store_state_is_scanned_only_inside_the_store():
    """The scale refactor replaced linear scans of ``SegmentStore._segs``
    with maintained indices (``versions_of``/``latest_committed``/
    ``committed_segments``/``bytes_stored``) plus explicit mutators
    (``plant``/``lose_segment``/``wipe``).  Nothing outside
    ``repro.core.segment`` may reach into the raw version map — a new
    scan would silently reintroduce O(store) work on hot paths.  The
    same holds for ``LocationTable``'s rows and ``RangeMap``'s span
    lists: how each is laid out is its own module's decision, so a bulk
    load goes through ``update`` / ``set_range`` like everything else."""
    offenders = []
    for path in SRC.rglob("*.py"):
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            for attrs, owner in PRIVATE_STATE:
                if node.attr in attrs and mod != owner:
                    offenders.append(
                        f"{mod}:{node.lineno} .{node.attr} ({owner}'s)")
    assert offenders == [], (
        "private state accessed outside its owning module: "
        + ", ".join(offenders)
    )


#: A provider's duties, each in its own module: the data service (and the
#: composition), the home-host role and the owner's location upkeep, and
#: the migration loop.  The other classes in these modules are plain data
#: structures, whose private state ``PRIVATE_STATE`` guards.
PROVIDER_DUTIES = {
    "repro.core.provider": {"StorageProvider"},
    "repro.core.location": {"LocationHome", "LocationOwner"},
    "repro.core.migration": {"Migrator"},
}


def test_provider_duties_reach_each_other_only_through_public_names():
    """Inside a duty module, outside its data structures, an underscore
    attribute is read or written only on ``self``: one duty never touches
    another's private state (``provider._locality_recent``,
    ``self.home._repair_recent``), nor any other object's."""
    offenders = []
    for mod, duties in PROVIDER_DUTIES.items():
        path = SRC.parent.joinpath(*mod.split(".")).with_suffix(".py")

        def visit(node, where, mod=mod, duties=duties):
            if isinstance(node, ast.ClassDef):
                if node.name not in duties:
                    return
                where = node.name
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                offenders.append(
                    f"{mod}.{where}:{node.lineno} {ast.unparse(node)}")
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text()), "<module>")
    assert offenders == [], (
        "a provider duty reaches into private state: " + ", ".join(offenders)
    )


def test_per_file_records_are_slotted():
    import importlib

    for module, name in SLOTTED:
        cls = getattr(importlib.import_module(module), name)
        # 0: the type reserves no room for an instance ``__dict__``.
        assert cls.__dictoffset__ == 0, f"{module}.{name} has a __dict__"


def test_namespace_endpoints_only_behind_the_router():
    """The routed metadata API is the only namespace front door: outside
    the router/ops layer (``repro.core.client.router`` /
    ``repro.core.client.namespace_ops``) and the server's own WAL
    shipping (``repro.core.namespace``), nothing may issue ``ns_*`` /
    ``nsr_*`` RPCs directly — a raw call would bypass shard routing,
    redirect handling, and failover."""
    allowed = {
        "repro.core.namespace",
        "repro.core.client.router",
        "repro.core.client.namespace_ops",
    }
    offenders = []
    for path in SRC.rglob("*.py"):
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        if mod in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("call", "send")):
                continue
            for arg in node.args[:2]:
                if (isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and (arg.value.startswith("ns_")
                             or arg.value.startswith("nsr_"))):
                    offenders.append(f"{mod}:{node.lineno} ({arg.value})")
    assert offenders == [], (
        "raw namespace RPCs outside the router: " + ", ".join(offenders)
    )


def test_namespace_servers_are_built_only_by_the_deployment():
    """Experiments, baselines, and tests get their namespace service
    from the deployment config (``namespace_shards`` /
    ``ns_shard_standbys_on``) and the ``client_on()`` front door —
    never by hand-constructing a
    ``NamespaceServer``.  Allowed: the deployment itself and the
    server's own module; ``tests/test_namespace.py`` unit-tests the
    server class directly."""
    allowed_modules = {"repro.core.volume", "repro.core.namespace"}
    allowed_tests = {"test_namespace.py"}
    offenders = []
    tests_dir = pathlib.Path(__file__).resolve().parent
    scan = [(p, ".".join(p.relative_to(SRC.parent).with_suffix("").parts))
            for p in SRC.rglob("*.py")]
    scan += [(p, p.name) for p in tests_dir.glob("*.py")]
    for path, mod in scan:
        if mod in allowed_modules or mod in allowed_tests:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "NamespaceServer"):
                offenders.append(f"{mod}:{node.lineno}")
    assert offenders == [], (
        "NamespaceServer constructed outside the deployment: "
        + ", ".join(offenders)
    )


def test_namespace_state_is_reached_through_the_deployment_accessors():
    """A namespace entry lives on the shard its path hashes to, so code
    that reaches into ``dep.ns.db`` reads and writes shard 0 whatever
    the path, and code that walks ``ns_shard_servers`` re-derives what
    ``SorrentoDeployment.namespace_for(path)`` /
    ``namespace_servers()`` already answer.  Only the deployment itself
    touches either (the attributes stay: ``bench/layers.py`` reads
    them)."""
    offenders = []
    for path in SRC.rglob("*.py"):
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        if mod == "repro.core.volume":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "ns_shard_servers" or (
                    node.attr == "db"
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "ns"):
                offenders.append(f"{mod}:{node.lineno}")
    assert offenders == [], (
        "namespace state reached around namespace_for()/"
        "namespace_servers(): " + ", ".join(offenders)
    )


def test_fault_injection_goes_through_the_fault_plane():
    """Experiments (and the other application-level packages) must inject
    faults declaratively via ``repro.faults`` — a ``FaultPlan`` executed by
    a ``FaultController`` — never by ad-hoc calls into the substrate's
    crash/partition/degrade hooks.  That keeps every injected fault on the
    sim RNG, in the metrics timeline, and replayable."""
    fault_methods = {
        "crash", "restart",
        "partition", "heal", "degrade_link", "restore_link",
        "restore_all_links", "set_disk_fault", "clear_disk_fault",
        "set_fault", "clear_fault",
    }
    scanned = {"experiments", "workloads", "tools", "api", "baselines"}
    offenders = []
    for path in SRC.rglob("*.py"):
        if path.relative_to(SRC).parts[0] not in scanned:
            continue
        mod = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in fault_methods):
                offenders.append(f"{mod}:{node.lineno} calls "
                                 f".{node.func.attr}()")
    assert offenders == [], (
        "ad-hoc fault injection outside repro.faults: " + ", ".join(offenders)
    )


def test_no_source_file_mentions_the_deleted_benchmark_package():
    """``bench/`` + ``BENCHMARK.json`` are the one speed instrument and
    ``docs/history/`` holds the old trajectory files; a docstring under
    ``src/repro`` that still points at the deleted package or at a
    root-level trajectory file sends the reader to nothing."""
    # Spelled in pieces so a repo-wide grep for them skips this file.
    stale = ("repro." "bench", "scale_" "bench", "BENCH_")
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno}"
        for path in SRC.rglob("*.py")
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if any(word in line for word in stale)
    ]
    assert offenders == [], "stale benchmark references: " + ", ".join(
        offenders)


def test_the_simulator_imports_without_numpy_or_scipy():
    """The package has no third-party dependency: importing every module
    under ``repro`` loads none of numpy, scipy or networkx (numpy alone
    is ~70 ms of a ~250 ms set-up; the three together ~0.8 s)."""
    code = ("import pkgutil, sys, repro\n"
            "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    __import__(m.name)\n"
            "print([m for m in ('numpy', 'scipy', 'networkx') "
            "if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_collector_is_handled_in_four_places_only():
    """One rule — a run exempts the model (``sim.kernel``, used by
    ``sim.parallel``), a bulk load pauses the collector and hands over
    what it planted (``core.volume``) — and one timer
    (``experiments.common.collector_time``).  A ``gc`` call anywhere
    else is a second rule."""
    allowed = {"sim/kernel.py", "sim/parallel.py", "core/volume.py",
               "experiments/common.py"}
    offenders = []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        if rel in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "gc" in names:
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == [], "gc imported outside the four: " + ", ".join(
        offenders)


def test_every_params_field_is_set_somewhere():
    """``SorrentoParams`` holds what somebody varies: each field is a
    keyword argument or an attribute store in some file other than
    ``core/params.py``.  A value nothing sets is a module constant
    beside the model it calibrates, not a field."""
    import dataclasses

    from repro.core.params import SorrentoParams

    root = SRC.parent.parent
    set_names = set()
    for top in ("src", "bench", "benchmarks", "examples", "tests"):
        for path in (root / top).rglob("*.py"):
            if path == SRC / "core" / "params.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    set_names.add(node.arg)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store):
                    set_names.add(node.attr)
    unset = [f.name for f in dataclasses.fields(SorrentoParams)
             if f.name not in set_names]
    assert unset == [], f"SorrentoParams fields nothing sets: {unset}"
