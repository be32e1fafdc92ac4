"""Regenerate every table/figure in EXPERIMENTS.md in one go.

Usage::

    python -m repro.experiments.run_all [--quick] [--out report.txt] \
        [--parallel [N]]

``--quick`` uses smaller scales/durations (minutes instead of tens of
minutes).  ``--parallel`` runs the sections in N worker processes — with
no N, one per available CPU core (capped at the section count) — each
section is an independent simulation with its own Simulator, so the
report is identical to a sequential run, just faster.
Each section prints the same rows/series the paper reports, followed by
any shape violations (none expected).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.experiments import fig11_bulk as fig11


def sections(quick: bool = False):
    """The report's sections as picklable (title, module, kwargs) specs."""
    return [
        ("Figure 9", "fig09_small_response",
         {"n_ops": 25 if quick else 40}),
        ("Figure 10", "fig10_small_throughput",
         {"duration": 12.0 if quick else 25.0}),
        ("Figure 11", "fig11_bulk",
         {"scale": 0.0625 if quick else 0.125,
          "client_counts": (1, 4, 8) if quick else fig11.CLIENT_COUNTS}),
        ("Figure 12", "fig12_apps", {"scale": 0.01 if quick else 0.02}),
        ("Figure 13", "fig13_failure", {"scale": 0.08 if quick else 0.1}),
        ("Figure 13 (partition)", "fig13_failure",
         {"scale": 0.08 if quick else 0.1, "variant": "partition"}),
        ("Figure 13 (slow disk)", "fig13_failure",
         {"scale": 0.08 if quick else 0.1, "variant": "slowdisk"}),
        ("Figure 14", "fig14_crawler",
         {"scale": 0.012 if quick else 0.02,
          "duration": 1200.0 if quick else 2400.0}),
        ("Figure 15", "fig15_locality", {"scale": 0.02 if quick else 0.03}),
        ("Tiered", "tiered",
         {"duration": 60.0 if quick else 90.0}),
        ("Tiered (WAN partition)", "tiered",
         {"variant": "wanpart", "duration": 90.0}),
        ("Scale", "scale", {"quick": quick}),
        ("Namespace shard curve", "ns_shard_curve", {"quick": quick}),
        ("Compute", "compute", {"quick": quick}),
    ]


def _run_section(spec) -> str:
    """Worker: run one section (top-level so it pickles for --parallel)."""
    title, modname, kwargs = spec
    t0 = time.time()
    print(f"[run_all] {title} ...", file=sys.stderr, flush=True)
    try:
        mod = importlib.import_module(f"repro.experiments.{modname}")
        text = mod.main(**kwargs)
    except Exception as exc:  # noqa: BLE001 - keep the report going
        text = f"{title}: FAILED - {type(exc).__name__}: {exc}"
    dt = time.time() - t0
    return f"{text}\n[{dt:.0f}s wall]"


def run_all(quick: bool = False, parallel: int = 0) -> str:
    specs = sections(quick)
    if parallel:
        import os
        from concurrent.futures import ProcessPoolExecutor

        # parallel < 0 means "pick for me": one worker per CPU core.
        # More workers than cores just thrash a small machine, and more
        # than one per section never helps.
        if parallel < 0:
            parallel = os.cpu_count() or 1
        workers = min(parallel, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() preserves section order regardless of completion order.
            results = list(pool.map(_run_section, specs))
    else:
        results = [_run_section(s) for s in specs]
    return "\n\n" + ("\n\n" + "=" * 72 + "\n\n").join(results)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller scales (faster, same shapes)")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    parser.add_argument("--parallel", nargs="?", type=int, const=-1, default=0,
                        metavar="N",
                        help="run sections in N worker processes (bare "
                             "--parallel: one per CPU core, capped at the "
                             "section count)")
    args = parser.parse_args()
    report = run_all(quick=args.quick, parallel=args.parallel)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"\nreport written to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
