"""Small-file workloads (Sections 4.1.1 and 4.1.2).

Figure 9: a single client sequentially runs four op types against an idle
system — ``create`` (create+close), ``write`` (open, write 12 KB, close),
``read`` (open, read 12 KB, close), ``unlink``.

Figure 10: many clients each loop create/write-12KB/close sessions; the
metric is completed sessions per second.
"""

from __future__ import annotations

from typing import Dict, List

SMALL_IO = 12 * 1024


def bench_create(client, n: int, prefix: str = "/small"):
    """Generator: repeatedly create then close; returns per-op latencies."""
    latencies = []
    for i in range(n):
        t0 = client.sim.now
        fh = yield from client.open(f"{prefix}/f{i:05d}", "w", create=True)
        yield from client.close(fh)
        latencies.append(client.sim.now - t0)
    return latencies


def bench_write(client, n: int, prefix: str = "/small"):
    """Open each created file, write 12 KB, close."""
    latencies = []
    for i in range(n):
        t0 = client.sim.now
        fh = yield from client.open(f"{prefix}/f{i:05d}", "w")
        yield from client.write(fh, 0, SMALL_IO)
        yield from client.close(fh)
        latencies.append(client.sim.now - t0)
    return latencies


def bench_read(client, n: int, prefix: str = "/small"):
    """Open each written file, read 12 KB, close."""
    latencies = []
    for i in range(n):
        t0 = client.sim.now
        fh = yield from client.open(f"{prefix}/f{i:05d}", "r")
        yield from client.read(fh, 0, SMALL_IO)
        yield from client.close(fh)
        latencies.append(client.sim.now - t0)
    return latencies


def bench_unlink(client, n: int, prefix: str = "/small"):
    """Unlink all the created files."""
    latencies = []
    for i in range(n):
        t0 = client.sim.now
        yield from client.unlink(f"{prefix}/f{i:05d}")
        latencies.append(client.sim.now - t0)
    return latencies


def session_loop(client, tag: str, counter: List[int], duration: float,
                 prefix: str = "/tput"):
    """Figure 10 driver: create/write-12KB/close sessions until the
    deadline; each completion bumps ``counter[0]``."""
    sim = client.sim
    deadline = sim.now + duration
    i = 0
    while sim.now < deadline:
        path = f"{prefix}/{tag}-{i:06d}"
        try:
            fh = yield from client.open(path, "w", create=True)
            yield from client.write(fh, 0, SMALL_IO)
            yield from client.close(fh)
            counter[0] += 1
        except Exception:
            pass
        i += 1


def run_figure9(dep, n: int = 30, client_host: str = None,
                prefix: str = "/small") -> Dict[str, float]:
    """All four Figure 9 columns against one deployment; mean ms per op.

    The paper ran these benches as separate jobs, so each phase after
    create takes a fresh client on the same host: no phase starts with
    the caches an earlier phase warmed.
    """
    client = dep.client_on(client_host) if client_host else \
        dep.clients_on_compute(1)[0]
    host = client.node.hostid
    mkdir = getattr(client, "mkdir", None)
    if mkdir is not None:
        try:
            dep.run(mkdir(prefix))
        except Exception:
            pass
    out = {}
    for name, bench in (("create", bench_create), ("write", bench_write),
                        ("read", bench_read), ("unlink", bench_unlink)):
        if name != "create":
            client = dep.client_on(host)
        if name == "unlink":
            # Give lazy replication its window so unlink sees the full
            # degree.
            dep.sim.run(until=dep.sim.now + 45.0)
        lats = dep.run(bench(client, n, prefix=prefix))
        out[name] = 1000.0 * sum(lats) / len(lats)
    return out


def run_figure10(dep_factory, client_counts, duration: float = 30.0):
    """Sessions/second versus client count (one fresh deployment each)."""
    results = {}
    for n_clients in client_counts:
        dep = dep_factory()
        clients = dep.clients_on_compute(n_clients)
        try:
            dep.run(clients[0].mkdir("/tput"))
        except Exception:
            pass
        counter = [0]
        procs = [
            dep.sim.process(session_loop(c, f"c{i}", counter, duration))
            for i, c in enumerate(clients)
        ]
        dep.sim.run(until=dep.sim.now + duration + 5)
        assert all(p.triggered for p in procs)
        results[n_clients] = counter[0] / duration
    return results
