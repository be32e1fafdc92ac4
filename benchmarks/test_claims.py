"""Benchmarks for the paper's in-text performance claims (Section 4.1.2)
plus engineering microbenches of the substrate itself."""

from repro.cluster import Node, small_cluster
from repro.core.namespace import NamespaceServer
from repro.core.params import SorrentoParams
from repro.network import Fabric
from repro.sim import Simulator


def test_claim_namespace_server_ops_per_second(once):
    """Paper: "a single namespace server is able to handle 1300 namespace
    operations per second" (on Cluster A hardware)."""

    def measure():
        sim = Simulator()
        fabric = Fabric(sim)
        spec = small_cluster(1, n_compute=8, cpu_ghz=0.4)  # P-II class
        nodes = {s.name: Node(sim, fabric, s) for s in spec.nodes}
        NamespaceServer(nodes["s00"], "vol0", SorrentoParams())
        n_ops = 300

        def hammer(client):
            for i in range(n_ops):
                yield from client.runtime.call(
                    "s00", "ns_mkdir", f"/{client.hostid}-{i}", size=64)

        from repro.experiments.common import run_until_done

        t0 = sim.now
        procs = [sim.process(hammer(nodes[f"c0{i}"])) for i in range(8)]
        run_until_done(sim, procs)
        return 8 * n_ops / (sim.now - t0)

    rate = once(lambda: measure())
    print(f"\nnamespace ops/second (8 concurrent clients): {rate:.0f}")
    # Same order of magnitude as the paper's 1300/s.
    assert 400 < rate < 5000


def test_claim_session_upper_bound(once):
    """Paper: the namespace bound "would provide a theoretical upper
    bound of 400-500 sessions/second" — i.e. ~3 namespace ops/session."""
    from repro.experiments.common import cluster_a_like, sorrento_on
    from repro.workloads.smallfile import session_loop

    def measure():
        dep = sorrento_on(cluster_a_like(), n_providers=8, degree=2, seed=0)
        clients = dep.clients_on_compute(16)
        try:
            dep.run(clients[0].mkdir("/tput"))
        except Exception:
            pass
        counter = [0]
        duration = 15.0
        procs = [dep.sim.process(session_loop(c, f"c{i}", counter, duration))
                 for i, c in enumerate(clients)]
        dep.sim.run(until=dep.sim.now + duration + 5)
        assert all(p.triggered for p in procs)
        ns_rate = dep.ns.ops_served / duration
        session_rate = counter[0] / duration
        return ns_rate, session_rate

    ns_rate, session_rate = once(lambda: measure())
    print(f"\nsessions/s: {session_rate:.0f}; ns ops/s consumed: {ns_rate:.0f}")
    # Roughly 2-5 namespace operations per session.
    assert 1.5 < ns_rate / max(1e-9, session_rate) < 6.0


def test_substrate_event_throughput(benchmark):
    """Engineering: the DES kernel sustains enough events/second that the
    biggest experiment (Figure 14) runs in minutes of wall time."""

    def spin():
        sim = Simulator()

        def ticker():
            for _ in range(20000):
                yield sim.timeout(0.001)

        for _ in range(5):
            sim.process(ticker())
        sim.run()
        return sim._nprocessed

    nproc = benchmark(spin)
    assert nproc >= 100_000


def test_substrate_rpc_throughput(benchmark):
    """Engineering: end-to-end RPC cost through fabric + runtimes."""
    from repro.network.switch import Host
    from repro.runtime import ServiceRuntime

    def spin():
        sim = Simulator()
        fabric = Fabric(sim)
        hosts = [Host(sim, f"n{i}") for i in range(2)]
        for h in hosts:
            fabric.attach(h)
        a, b = (ServiceRuntime(sim, fabric, h) for h in hosts)
        b.register("echo", lambda p, s: (p, 64))

        def client():
            for i in range(3000):
                yield from a.call("n1", "echo", i, size=64)

        p = sim.process(client())
        sim.run()
        assert p.ok
        return 3000

    benchmark(spin)
