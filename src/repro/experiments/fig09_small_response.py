"""Figure 9: small-file I/O response times (ms), Cluster A.

A single client sequentially runs create / write-12KB / read-12KB /
unlink against an idle system.  Paper's table:

                create  write   read  unlink
    NFS           0.67   2.42   2.93    0.71
    PVFS-4        50.3   60.1   60.1    19.4
    PVFS-8        60.1   60.3   70.2    22.9
    Sorrento-(4,1) 31.4  43.5   33.5    32.4
    Sorrento-(4,2) 31.3  44.0   33.7    44.3
    Sorrento-(8,1) 32.6  45.4   34.4    32.2
    Sorrento-(8,2) 33.2  46.7   34.8    42.2

Shape targets: NFS sub-5 ms everywhere; PVFS slowest on create/read/
write but quick unlink; Sorrento beats PVFS on create/read/write by
25-53%, loses to it on unlink, and r=2 only penalizes unlink.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (
    cluster_a_like,
    format_table,
    nfs_on,
    pvfs_on,
    sorrento_on,
)
from repro.workloads.smallfile import run_figure9

PAPER = {
    "NFS": {"create": 0.67, "write": 2.42, "read": 2.93, "unlink": 0.71},
    "PVFS-4": {"create": 50.3, "write": 60.1, "read": 60.1, "unlink": 19.4},
    "PVFS-8": {"create": 60.1, "write": 60.3, "read": 70.2, "unlink": 22.9},
    "Sorrento-(4,1)": {"create": 31.4, "write": 43.5, "read": 33.5, "unlink": 32.4},
    "Sorrento-(4,2)": {"create": 31.3, "write": 44.0, "read": 33.7, "unlink": 44.3},
    "Sorrento-(8,1)": {"create": 32.6, "write": 45.4, "read": 34.4, "unlink": 32.2},
    "Sorrento-(8,2)": {"create": 33.2, "write": 46.7, "read": 34.8, "unlink": 42.2},
}

OPS = ("create", "write", "read", "unlink")


def run(n_ops: int = 40, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Measure every Figure 9 row; returns {system: {op: mean_ms}}."""
    results: Dict[str, Dict[str, float]] = {}

    spec = cluster_a_like()
    results["NFS"] = run_figure9(nfs_on(spec, seed=seed), n_ops)
    for n in (4, 8):
        spec = cluster_a_like()
        results[f"PVFS-{n}"] = run_figure9(pvfs_on(spec, n_iods=n, seed=seed),
                                           n_ops)
    for n in (4, 8):
        for r in (1, 2):
            spec = cluster_a_like()
            dep = sorrento_on(spec, n_providers=n, degree=r, seed=seed)
            results[f"Sorrento-({n},{r})"] = run_figure9(dep, n_ops)
    return results


def run_sorrento_instrumented(n_providers: int = 4, degree: int = 1,
                              n_ops: int = 10, seed: int = 0):
    """One Sorrento Figure-9 row plus its RPC metrics.

    Returns ``(results, dep)``: the per-op mean response times and the
    deployment, whose ``dep.metrics`` registry holds the per-service
    call counters the runtime layer recorded (open/read/write paths:
    ``ns_lookup``, ``seg_read``, ``seg_write``, ...).
    """
    spec = cluster_a_like(n_storage=n_providers, n_clients=2)
    dep = sorrento_on(spec, n_providers=n_providers, degree=degree,
                      seed=seed)
    results = run_figure9(dep, n_ops)
    return results, dep


def report(results: Dict[str, Dict[str, float]]) -> str:
    rows = [[name] + [results[name][op] for op in OPS]
            + [PAPER[name][op] for op in OPS]
            for name in PAPER if name in results]
    return format_table(
        "Figure 9 - small file I/O response time (ms) "
        "[measured | paper]",
        ["system"] + [f"{op}" for op in OPS] + [f"{op}*" for op in OPS],
        rows,
    )


def main(n_ops: int = 40) -> str:
    text = report(run(n_ops=n_ops))
    print(text)
    return text


if __name__ == "__main__":
    main()
