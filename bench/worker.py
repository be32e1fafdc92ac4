"""One measured run of one workload, in a fresh process.

``run.py`` starts this file as a subprocess per repeat, so set-up time
and peak RSS belong to exactly one run.  The clock starts on the first
line — before ``import repro`` — because the imports are part of what a
user waits for.  The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import os                           # noqa: E402 - the clock starts first
import signal                       # noqa: E402

# numpy's OpenBLAS starts one thread per core when it loads.  The
# simulator never calls BLAS, and starting the pool is 60-90 ms of
# scheduler-dependent time (numpy imports in 115-160 ms with it, 60-66 ms
# without) inside a set-up that is 250 ms in all on five of the seven
# workloads: ``setup_s`` sat at 0.19 s in one quarter of an hour and at
# 0.26 s in the next.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class SpeedSampler:
    """Measures how fast this machine is *while* the benchmark runs.

    The reference box is a few cores of a shared host: the same
    pure-Python loop takes 90 ms one second and 150-200 ms the next
    (CPU time tracks wall time, so it is the core that slows, not the
    scheduler that takes it away), and the level drifts over minutes.
    Raw wall time therefore says as much about the neighbours as about
    the program: across ten back-to-back runs the middle half of
    ``host_ops_per_s`` spread 36-44 % of its median on every workload.

    An interval timer interrupts the main thread every ``PERIOD``
    seconds and the handler runs a fixed burst of work that owes
    nothing to the repo (a dependent random walk over a 9 MB table of
    ints: interpreter dispatch plus cache misses, no allocation the
    garbage collector tracks), timing it in thread CPU time.  The mean
    burst over an interval, divided by ``REF_BURST_S`` (the burst on the
    quiet reference box), is the machine's *slowdown* over that
    interval.  ``_result`` divides host times by it, so ``setup_s`` and
    ``host_ops_per_s`` read in seconds of the quiet reference box; a
    program that gets slower still gets slower against the burst.  The
    bursts' own time (~2.5 % of the core) is taken out of the interval.
    Forked children inherit the handler but not the timer."""

    PERIOD = 0.04
    TABLE = 1 << 18
    BURST_ITERS = 14000
    REF_BURST_S = 0.95e-3

    def __init__(self):
        n = self.TABLE
        self._table = [(i * 40503 + 12345) % n for i in range(n)]
        self._at = 0
        self.samples = []           # (perf_counter at burst end, CPU s)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def halt(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _tick(self, _signum, _frame):
        c0 = time.thread_time()
        table, mask, at = self._table, self.TABLE - 1, self._at
        for _ in range(self.BURST_ITERS):
            at = (table[at] + at + 1) & mask
        self._at = at
        self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def over(self, t_a: float, t_b: float):
        """``(slowdown, burst seconds)`` over ``[t_a, t_b]`` (perf_counter
        instants); ``(1, 0)`` when the timer is not running."""
        bursts = [c for t, c in self.samples if t_a <= t <= t_b]
        if not bursts:
            return 1.0, 0.0
        return sum(bursts) / len(bursts) / self.REF_BURST_S, sum(bursts)


SAMPLER = SpeedSampler()
if __name__ == "__main__":
    SAMPLER.start()

import contextlib                   # noqa: E402
import cProfile                     # noqa: E402
import json                         # noqa: E402
import math                         # noqa: E402
import pstats                       # noqa: E402
import sys                          # noqa: E402
from typing import Dict, List       # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

from repro.experiments.common import run_until_done     # noqa: E402

import drivers                      # noqa: E402
import layers                       # noqa: E402

MP2 = "smallfile_write_mp2"

#: What a crash may cost and still pass the gate.  A file committed
#: moments before the crash can have had its only index-segment replica
#: on the victim (the others are made lazily): its data segments survive
#: with nothing referencing them, which the inspector counts as orphaned.
#: The last few re-replications wait out ``repair_cooldown``, and the
#: dead node's location claims linger until the purge age (2.5 refresh
#: cycles) as ghost entries.
FAULT_MIN_AT_DEGREE = 0.98
FAULT_MAX_ORPHAN_SHARE = 0.02


@contextlib.contextmanager
def _profiled(on: bool):
    """cProfile around the traced window; yields None when tracing is off."""
    profile = cProfile.Profile() if on else None
    if profile is not None:
        profile.enable()
    try:
        yield profile
    finally:
        if profile is not None:
            profile.disable()


@contextlib.contextmanager
def _one_cpu():
    """Confine this process, and what it forks, to one CPU.

    ``smallfile_write_mp2`` is a ping-pong between a coordinator and two
    partition workers (barrier wait is ~95 % of the coordinator's wall),
    so its wall time is set by where the scheduler puts the three
    processes: wake-ups across cores cost several times those on one
    core, and the same window measured 230-340 ops/s from one quarter of
    an hour to the next depending on placement.  On one CPU it measures
    what the parallel kernel itself costs (grants, shm transit,
    pickling, context switches) and repeats within a few percent."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _gate(load: drivers.Load, inspector) -> List[str]:
    """The correctness gate: what must hold after the window (and, with
    an inspector, after the cluster settled)."""
    rec = load.rec
    problems = []
    if rec.failed:
        problems.append(f"{rec.failed} ops gave up")
    if rec.raised and not load.raises_expected:
        problems.append(f"{rec.raised} ops raised")
    if rec.short_reads:
        problems.append(f"{rec.short_reads} reads returned a wrong length")
    if inspector is None:
        return problems
    report = inspector.replica_report()
    total = max(1, report.total_segments)
    faulted = load.fault_expected > 0
    at_degree = 1.0 - len(report.under_replicated) / total
    if at_degree < (FAULT_MIN_AT_DEGREE if faulted else 1.0) or (
            report.version_divergent and not load.lagging_replicas_ok):
        problems.append(
            f"replicas: {len(report.under_replicated)} under-replicated, "
            f"{len(report.version_divergent)} version-divergent "
            f"of {total}")
    orphans = inspector.orphaned_segments()
    if len(orphans) > (FAULT_MAX_ORPHAN_SHARE * total if faulted else 0):
        problems.append(f"{len(orphans)} orphaned segments of {total}")
    audit = inspector.location_audit()
    if audit["missing"] or (audit["ghost"] and not faulted):
        problems.append(f"location audit: {len(audit['missing'])} missing, "
                        f"{len(audit['ghost'])} ghost")
    return problems


def run_serial(workload: str, seed: int, size_name: str, trace: bool,
               full_gate: bool) -> dict:
    load = drivers.BUILDERS[workload](
        seed, drivers.SIZES[workload][size_name], trace)
    dep, rec = load.dep, load.rec
    sim = dep.sim
    start = layers.snapshot(dep)
    bounds = [sim.now]

    t_w0 = time.perf_counter()
    with _profiled(trace) as profile:
        for spawn in load.phases:
            run_until_done(sim, spawn(), max_time=bounds[0] + load.sim_limit)
            bounds.append(sim.now)
    t_w1 = time.perf_counter()
    rss_mb = layers.rss_mb()

    raw = layers.delta(start, layers.snapshot(dep))
    sim_window = bounds[-1] - bounds[0]
    counts = layers.count_metrics(raw, layers.nic_rates(dep), rec.ops,
                                  sim_window, rec.payload)
    counts["sim.peak_pending"] = sim.peak_pending
    if rec.fold is not None:
        rec.fold.drain()

    inspector = None
    if full_gate:
        # Untimed: let lazy propagation and repair finish, then audit.
        # Imported here, after the window: repro.tools pulls in scipy.
        from repro.tools.inspector import ClusterInspector
        sim.run(until=sim.now + load.settle)
        inspector = ClusterInspector(dep)
    problems = _gate(load, inspector)
    injected = counts["faults.events_injected"]
    if injected != load.fault_expected:
        problems.append(f"{injected} fault events, expected "
                        f"{load.fault_expected}")
    if load.extras is not None:
        counts.update(load.extras(bounds, inspector))

    out = _result(workload, seed, rec.attempts, rec.raised, rec.failed,
                  rec.lat, raw, sim_window, counts, t_w0, t_w1, rss_mb,
                  problems)
    out["notes"] = load.notes
    if trace:
        traced = rec.fold.metrics(rec.ops)
        traced.update(layers.profile_metrics(
            pstats.Stats(profile).stats, rec.ops))
        out["traced"] = traced
    return out


def run_mp2(seed: int, size_name: str, trace: bool, full_gate: bool) -> dict:
    """The coordinator side of ``smallfile_write_mp2``.  The traced run
    profiles the coordinator only; the partition workers report their
    own counters through ``run_partitioned``'s result."""
    size = drivers.SIZES[MP2][size_name]
    with _one_cpu(), _profiled(trace) as profile:
        out = drivers.run_mp2(seed, size, full_gate)
    stats, parts = out["stats"], out["results"]

    # perf_counter is CLOCK_MONOTONIC: forked workers share its origin.
    t0 = min(p["marks"]["t0_wall"] for p in parts)
    t1 = max(p["marks"]["t1_wall"] for p in parts)
    sim_window = (max(p["marks"]["t1_sim"] for p in parts)
                  - min(p["marks"]["t0_sim"] for p in parts))
    raw = layers.merge(p["raw"] for p in parts)
    rates: Dict[str, float] = {}
    lats: List[float] = []
    for p in parts:
        rates.update(p["rates"])
        lats.extend(p["lat"])
    ops = len(lats)
    attempts = sum(p["attempts"] for p in parts)
    raised = sum(p["raised"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    payload = sum(p["payload"] for p in parts)

    counts = layers.count_metrics(raw, rates, ops, sim_window, payload)
    counts["sim.peak_pending"] = max(out["peaks"])
    counts["sim.parallel.windows"] = stats.windows
    counts["sim.parallel.records_shipped"] = stats.records_shipped
    session_phase = stats.phase_log[2]

    problems = []
    if failed or raised:
        problems.append(f"{raised} ops raised, {failed} gave up")
    # Each worker sees only its own providers: merge the replica maps
    # before judging degree and version convergence.
    holders: Dict[int, Dict[str, int]] = {}
    want: Dict[int, int] = {}
    for p in parts if full_gate else ():
        for segid, held in p["replica_map"].items():
            holders.setdefault(segid, {}).update(held)
        for segid, degree in p["degrees"].items():
            want[segid] = max(want.get(segid, 0), degree)
    bad = sum(1 for segid, held in holders.items()
              if len(set(held.values())) > 1 or len(held) < want[segid])
    if bad:
        problems.append(f"replicas: {bad} of {len(holders)} segments "
                        "under-replicated or version-divergent")
    if stats.fallback_rounds or stats.shm_fallbacks:
        problems.append(f"parallel kernel fell back: "
                        f"{stats.fallback_rounds} rounds, "
                        f"{stats.shm_fallbacks} shm batches")

    res = _result(MP2, seed, attempts, raised, failed, lats, raw,
                  sim_window, counts, t0, t1,
                  layers.rss_mb() + sum(p["rss_mb"] for p in parts), problems)
    # Coordinator wall around window rounds, and the least-busy worker,
    # over the whole partitioned run (warm-up and settle are a few
    # heartbeats; the session phase is where the rounds are).
    res["host"]["sim.parallel.barrier_share"] = \
        stats.barrier_wall_s / stats.wall_s
    res["host"]["sim.parallel.worker_busy_share_min"] = \
        min(stats.busy_wall_s) / stats.wall_s
    res["notes"] = {"session_rounds": session_phase["rounds"],
                    "windows_per_grant": stats.windows_per_grant,
                    "worker_events": stats.events}
    if trace:
        res["traced"] = layers.profile_metrics(
            pstats.Stats(profile).stats, ops)
    return res


def _result(workload, seed, attempts, raised, failed, lats, raw,
            sim_window, counts, t_w0, t_w1, rss_mb, problems) -> dict:
    """``t_w0``/``t_w1`` are the perf_counter instants the window began
    and ended.  Host times are divided by the machine's slowdown over
    their own interval (``SpeedSampler``); the raw ones go along."""
    ops = len(lats)
    slow_setup, burst_setup = SAMPLER.over(T0, t_w0)
    slow_window, burst_window = SAMPLER.over(t_w0, t_w1)
    setup_s = (t_w0 - T0 - burst_setup) / slow_setup
    window_s = (t_w1 - t_w0 - burst_window) / slow_window
    if ops < 1:
        raise SystemExit(f"{workload}: no op completed")
    exact = layers.exact_metrics(raw, ops, attempts, raised, sim_window, lats)
    counts.update({
        "driver.ops": ops,
        "driver.attempted": attempts,
        "driver.lat_samples": len(lats),
        "driver.sim_window_s": sim_window,
        "driver.failed_op_share": exact["failed_op_share"],
    })
    for name, value in list(exact.items()) + list(counts.items()):
        if value is not None and not math.isfinite(value):
            problems.append(f"{name} is not finite: {value!r}")
    return {
        "workload": workload, "seed": seed,
        "attempted": ops + failed, "failed": failed,
        "exact": exact, "counts": counts,
        "host": {
            "setup_s": setup_s, "window_s": window_s, "peak_rss_mb": rss_mb,
            "host_ops_per_s": ops / window_s,
            "sim.host_us_per_event": 1e6 * window_s / raw["events"],
            "driver.host_slowdown_x": slow_window,
            "raw_window_s": t_w1 - t_w0,
        },
        "problems": problems,
    }


def main(argv: List[str]) -> int:
    args = json.loads(argv[1])
    workload, seed = args["workload"], args["seed"]
    if workload == MP2:
        out = run_mp2(seed, args["size"], args["trace"], args["full_gate"])
    else:
        out = run_serial(workload, seed, args["size"], args["trace"],
                         args["full_gate"])
    SAMPLER.halt()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
