"""Benchmark: regenerate the Figure 9 table (small-file response times)."""

from repro.experiments import fig09_small_response as fig09


def test_fig09_small_file_response(once):
    results = once(fig09.run, n_ops=25)
    print()
    print(fig09.report(results))

    nfs = results["NFS"]
    # NFS is the clear latency winner on every op.
    for op in fig09.OPS:
        assert nfs[op] < 6.0, f"NFS {op} too slow: {nfs[op]:.2f} ms"

    for n in (4, 8):
        sor = results[f"Sorrento-({n},1)"]
        pvfs = results[f"PVFS-{n}"]
        # Paper: Sorrento beats PVFS by 25-53% on create/read/write ...
        for op in ("create", "write", "read"):
            assert sor[op] < pvfs[op], (
                f"Sorrento-({n},1) {op} {sor[op]:.1f} should beat "
                f"PVFS-{n} {pvfs[op]:.1f}"
            )
        # ... but is slower on unlink (eager replica removal).
        assert sor["unlink"] > pvfs["unlink"]

    # Replication degree leaves create/write/read response flat and only
    # penalizes unlink.
    for n in (4, 8):
        r1, r2 = results[f"Sorrento-({n},1)"], results[f"Sorrento-({n},2)"]
        for op in ("create", "write", "read"):
            assert abs(r2[op] - r1[op]) < 0.3 * r1[op]
        assert r2["unlink"] > 1.15 * r1["unlink"]

    # Each phase runs as its own job, so every Sorrento cell lands near
    # the paper's number: a phase that reused an earlier phase's client
    # caches would read 12 KB in a few ms instead of ~33.
    for n in (4, 8):
        for r in (1, 2):
            name = f"Sorrento-({n},{r})"
            for op in fig09.OPS:
                ratio = results[name][op] / fig09.PAPER[name][op]
                assert 0.5 <= ratio <= 1.5, (
                    f"{name} {op} {results[name][op]:.1f} ms is "
                    f"{ratio:.2f}x the paper's {fig09.PAPER[name][op]} ms"
                )
