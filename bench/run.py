#!/usr/bin/env python3
"""The repo's benchmark: one command, seven workloads, every metric named.

Contract mode (what the pipeline runs, from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints one JSON object as the last line of
standard output: with ``--trace 0`` every end-to-end metric of
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.

Report modes (what a person runs)::

    python3 bench/run.py --all [--seed N]        # every workload + traced run
    python3 bench/run.py --workload NAME         # one workload, same report
    python3 bench/run.py --aa [--seed N]         # two sets, same code: A/A
    python3 bench/run.py --all --smoke           # tiny sizes, seconds

``--all`` checks every output, prints every metric with unit and
direction, and — only if every check passed — writes ``BENCHMARK.json``
(the contract, generated from ``spec.py``) and ``bench/BASELINE.json``
(the numbers).  Any correctness or determinism failure exits non-zero
and writes nothing.

Each repeat is a fresh ``worker.py`` subprocess, run one at a time, so
set-up time and peak RSS belong to one run and no more than one
load-generating process (plus, for ``smallfile_write_mp2``, its two
forked partition workers) is ever alive.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec     # noqa: E402 - bench/ is not a package; the path comes first

#: A repeat is not started once the run has used this much wall time
#: (the contract gives a run 180 s; two repeats are always made).
RUN_WALL_CAP = 60.0
WORKER_TIMEOUT = 170.0


class BenchError(Exception):
    """A run that must not produce a result: a worker crashed, or the
    seed-determined metrics differed between repeats."""


# ------------------------------------------------------------ one worker
def run_worker(workload: str, seed: int, size: str, trace: bool,
               full_gate: bool) -> dict:
    args = json.dumps({"workload": workload, "seed": seed, "size": size,
                       "trace": trace, "full_gate": full_gate})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), args],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _same(workload: str, what: str, a: dict, b: dict) -> None:
    """Seed-determined numbers must repeat bit for bit."""
    diff = [k for k in a if k in b and a[k] != b[k]]
    if diff:
        detail = ", ".join(f"{k}: {a[k]!r} != {b[k]!r}" for k in diff[:5])
        raise BenchError(f"{workload}: {what} not deterministic ({detail})")


# ------------------------------------------------------------ one workload
def measure(workload: str, seed: int, seconds: float, size: str,
            trace: bool, min_repeats: int = spec.MIN_REPEATS,
            run_worker=run_worker) -> dict:
    """Untraced repeats (until their windows add up to ``seconds``),
    then optionally the traced run; returns the assembled metrics.
    ``run_worker`` is replaceable so the test can run workers in-process."""
    t_start = time.perf_counter()
    runs: List[dict] = []
    while True:
        run = run_worker(workload, seed, size, False, full_gate=not runs)
        if runs:
            _same(workload, "end-to-end metrics", runs[0]["exact"],
                  run["exact"])
            _same(workload, "layer counts", runs[0]["counts"], run["counts"])
        runs.append(run)
        measured = sum(r["host"]["raw_window_s"] for r in runs)
        elapsed = time.perf_counter() - t_start
        if len(runs) >= 2 and elapsed * (1 + 1 / len(runs)) > RUN_WALL_CAP:
            break
        if len(runs) >= min_repeats and measured >= seconds:
            break

    first = runs[0]
    windows = [r["host"]["window_s"] for r in runs]

    def med(key: str) -> float:
        return statistics.median(r["host"][key] for r in runs)

    end_to_end = dict(first["exact"])
    end_to_end.update({k: med(k) for k in
                       ("setup_s", "host_ops_per_s", "peak_rss_mb")})
    layer: Dict[str, Optional[float]] = dict(first["counts"])
    for key in first["host"]:
        if key.startswith(("sim.", "driver.")):
            layer[key] = med(key)
    layer["driver.repeats"] = len(runs)
    layer["driver.host_spread_pct"] = (
        100.0 * (max(windows) - min(windows)) / statistics.median(windows))

    problems = [p for r in runs for p in r["problems"]]
    if trace:
        traced = run_worker(workload, seed, size, True, full_gate=False)
        _same(workload, "traced vs untraced end-to-end metrics",
              first["exact"], traced["exact"])
        layer.update(traced["traced"])
        # Raw wall on both sides: cProfile slows the speed sampler's
        # burst too, so the traced window cannot be normalised by it.
        layer["driver.trace_overhead_x"] = (
            traced["host"]["raw_window_s"] / med("raw_window_s"))
        problems += traced["problems"]
    return {
        "workload": workload, "seed": seed,
        "attempted": first["attempted"], "failed": first["failed"],
        "end_to_end": end_to_end, "per_layer": layer,
        "problems": problems, "notes": first.get("notes"),
    }


# --------------------------------------------------------------- reports
_E2E = {name: (unit, better, bound)
        for name, unit, better, bound in spec.END_TO_END}


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.1f}"


def print_report(result: dict) -> None:
    print(f"\n== {result['workload']}  (seed {result['seed']}, "
          f"{_fmt(result['per_layer']['driver.repeats'])} repeats, "
          f"{result['attempted']} ops attempted, {result['failed']} failed)")
    print("  end to end")
    e2e = result["end_to_end"]
    for name, (unit, better, bound) in _E2E.items():
        print(f"    {name:<24}{_fmt(e2e[name]):>12} {unit:<6} "
              f"{better + ' is better':<18} worse by {bound:.0%} fails")
    print(f"    {'failed_op_share':<24}{_fmt(e2e['failed_op_share']):>12} "
          f"{'ratio':<6} {'lower is better':<18} "
          "any op given up on fails")
    print("  per layer")
    for name, unit, better, source in spec.PER_LAYER:
        value = result["per_layer"].get(name)
        if value is None:
            continue        # the workload does not exercise this metric
        print(f"    {name:<40}{_fmt(value):>12} {unit:<6} "
              f"{better + ' is better':<18} [{source}]")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def _environment(seed: int, size: str) -> dict:
    return {"seed": seed, "size": size, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def run_set(workloads: List[str], seed: int, seconds: float, size: str,
            trace: bool) -> Dict[str, dict]:
    results = {}
    for workload in workloads:
        print(f"[{workload}] measuring ...", file=sys.stderr, flush=True)
        results[workload] = measure(workload, seed, seconds, size, trace)
    return results


def cmd_all(workloads: List[str], seed: int, seconds: float, size: str,
            write: bool) -> int:
    results = run_set(workloads, seed, seconds, size, trace=True)
    for result in results.values():
        print_report(result)
    failed = [w for w, r in results.items() if r["problems"] or r["failed"]]
    if failed:
        print(f"\nFAILED: {', '.join(failed)}; nothing written")
        return 1
    if write:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        baseline = {
            "environment": _environment(seed, size),
            "bounds": {n: b for n, _u, _d, b in spec.END_TO_END},
            "workloads": {
                w: {"why": spec.WORKLOADS[w],
                    "attempted": r["attempted"], "failed": r["failed"],
                    "end_to_end": r["end_to_end"],
                    "per_layer": r["per_layer"], "notes": r["notes"]}
                for w, r in results.items()},
            "claim": None,
        }
        with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
        print("\nall checks passed; wrote BENCHMARK.json and "
              "bench/BASELINE.json")
    return 0


def worse_by(name: str, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    _unit, better, _bound = _E2E[name]
    return (a - b) / a if better == "higher" else (b - a) / a


def cmd_aa(workloads: List[str], seed: int, seconds: float,
           size: str) -> int:
    """Two complete sets on the same code; one row per (metric, workload).
    This is also the shape of a before/after report: every ratio with
    its base, one row per workload."""
    set_a = run_set(workloads, seed, seconds, size, trace=False)
    set_b = run_set(workloads, seed, seconds, size, trace=False)
    print(f"{'workload':<22}{'metric':<22}{'A':>12}{'B':>12}{'B vs A':>9}"
          f"{'bound':>7}  verdict")
    bad = 0
    for workload in workloads:
        a, b = set_a[workload], set_b[workload]
        counts_equal = all(
            a["per_layer"].get(n) == b["per_layer"].get(n)
            for n in spec.COUNT_METRICS)
        spread = max(a["per_layer"]["driver.host_spread_pct"],
                     b["per_layer"]["driver.host_spread_pct"]) / 100.0
        for name, (_unit, _better, bound) in _E2E.items():
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            change = max(worse_by(name, va, vb), worse_by(name, vb, va))
            if name in spec.EXACT:
                verdict = "agree" if va == vb else "outside"
            elif change <= bound:
                verdict = "agree"
            elif name == "host_ops_per_s" and spread > bound:
                verdict = "unresolved"
            else:
                verdict = "outside"
            bad += verdict == "outside"
            print(f"{workload:<22}{name:<22}{_fmt(va):>12}{_fmt(vb):>12}"
                  f"{change:>+9.1%}{bound:>7.0%}  {verdict}")
        verdict = "agree" if counts_equal else "outside"
        bad += not counts_equal
        print(f"{workload:<22}{'(layer counts)':<22}{'':>12}{'':>12}"
              f"{'':>9}{'exact':>7}  {verdict}")
    problems = [p for s in (set_a, set_b) for r in s.values()
                for p in r["problems"]]
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    return 1 if bad or problems else 0


def cmd_contract(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> int:
    """One workload for the pipeline: quiet, last line is the result."""
    min_repeats = 1 if trace else spec.MIN_REPEATS
    result = measure(workload, seed, 0.0 if trace else seconds, size, trace,
                     min_repeats=min_repeats)
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    if trace:
        # A metric the workload does not exercise reads 0 here (the
        # contract wants every name, every time); the reports omit it.
        metrics = {
            name: {"value": result["per_layer"].get(name) or 0.0,
                   "unit": unit}
            for name, unit, _better, _src in spec.PER_LAYER}
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit, _better, _bound in spec.END_TO_END}
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (seconds per workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of measured window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    size = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else float(spec.RUN_SECONDS))
    try:
        if args.aa:
            return cmd_aa(list(spec.WORKLOADS), args.seed, seconds, size)
        if args.all:
            return cmd_all(list(spec.WORKLOADS), args.seed, seconds, size,
                           write=not args.smoke)
        if args.workload is None:
            parser.error("pick --all, --aa or --workload NAME")
        if args.trace is not None:
            return cmd_contract(args.workload, args.seed, seconds,
                                bool(args.trace), size)
        return cmd_all([args.workload], args.seed, seconds, size, write=False)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
