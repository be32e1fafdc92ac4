"""Smoke test of the benchmark spine.

Run explicitly (tier-1's ``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest bench/ -q

Every workload runs at its ``smoke`` size, in-process, so the whole file
takes well under 30 s.  It pins the vocabulary (the workload and metric
names of ISSUE 11), the contract file, and the determinism the exact
metrics promise.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run      # noqa: E402
import spec     # noqa: E402
import worker   # noqa: E402

WORKLOADS = [
    "smallfile_write", "smallfile_read", "bulk_rw", "md_sharded",
    "scale_open", "crash_repair", "smallfile_write_mp2"]

END_TO_END = [
    "setup_s", "host_ops_per_s", "peak_rss_mb", "sim_ops_per_s",
    "sim_lat_p50_ms", "sim_lat_p99_ms", "failed_op_share",
    "sim_rpcs_per_op", "sim_wire_kb_per_op"]

LAYERS = ["sim", "sim.parallel", "network", "runtime", "core.client",
          "core.namespace", "core.provider", "core.selforg", "storage",
          "kvstore", "faults", "other"]

PER_LAYER = (
    [f"{layer}.host_self_share" for layer in LAYERS]
    + [f"{layer}.calls_per_op" for layer in LAYERS]
    + ["sim." + m for m in (
        "events_per_op", "host_us_per_event", "peak_pending",
        "swept_timers_per_op")]
    + ["sim.parallel." + m for m in (
        "windows", "records_shipped", "barrier_share",
        "worker_busy_share_min")]
    + ["network." + m for m in (
        "msgs_per_op", "msgs_dropped", "nic_util_max",
        "wire_queue_sim_ms_per_op")]
    + ["runtime." + m for m in (
        "oneways_per_op", "retries_per_kop", "timeouts_per_kop",
        "rpc_sim_ms_per_op")]
    + ["core.client." + m for m in (
        "loc_hit_ratio", "meta_hit_ratio", "vec_pieces_per_rpc",
        "self_sim_ms_per_op")]
    + ["core.namespace." + m for m in (
        "rpcs_per_op", "handler_sim_ms_per_op", "redirects_per_kop",
        "ops_per_sim_s")]
    + ["core.provider." + m for m in (
        "rpcs_per_op", "handler_sim_ms_per_op", "replications",
        "commit_conflicts")]
    + ["core.selforg." + m for m in (
        "heartbeats_per_sim_s", "loc_rpcs_per_op", "migrations",
        "repair_mttr_s", "dip_depth", "degree_restored_share")]
    + ["storage." + m for m in (
        "disk_reqs_per_op", "disk_bytes_per_payload_byte",
        "disk_busy_share_max", "disk_sim_ms_per_op", "cache_hit_ratio",
        "writes_absorbed_share", "coalesced_per_flush", "evictions")]
    + ["kvstore." + m for m in (
        "puts_per_op", "gets_per_op", "host_us_per_call")]
    + ["faults.events_injected"]
    + ["driver." + m for m in (
        "ops", "attempted", "lat_samples", "sim_window_s", "repeats",
        "host_spread_pct", "host_slowdown_x", "trace_overhead_x",
        "write_sim_mb_per_s",
        "read_sim_mb_per_s",
        # failed_op_share rides here as well: see spec.EXACT.
        "failed_op_share")])

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _in_process(workload, seed, size, trace, full_gate):
    if workload == worker.MP2:
        return worker.run_mp2(seed, size, trace, full_gate)
    return worker.run_serial(workload, seed, size, trace, full_gate)


@pytest.fixture(scope="module")
def measured():
    """Every workload once at seed 0: one untraced repeat + the traced
    run, assembled by the same code the command uses."""
    return {w: run.measure(w, 0, 0.0, "smoke", True, min_repeats=1,
                           run_worker=_in_process) for w in WORKLOADS}


def test_names_are_the_issues():
    assert list(spec.WORKLOADS) == WORKLOADS
    e2e = [n for n, _u, _b, _bound in spec.END_TO_END]
    assert sorted(e2e + ["failed_op_share"]) == sorted(END_TO_END)
    assert set(spec.EXACT) <= set(END_TO_END)
    assert sorted(n for n, _u, _b, _s in spec.PER_LAYER) == sorted(PER_LAYER)
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name


def test_contract_file_is_generated_and_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == spec.benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert 2 <= len(on_disk["workloads"]) <= 8
    assert 1 <= len(on_disk["end_to_end"]) <= 16
    assert 1 <= len(on_disk["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in on_disk["workloads"])
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    units = [m["unit"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    n_runs = 4 + 22 * len(on_disk["workloads"])
    assert n_runs * 20 <= 3420, "a run may average 20 s at most"


def test_every_metric_is_reported_and_finite(measured):
    for workload, result in measured.items():
        assert not result["problems"], (workload, result["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["end_to_end"]) == set(END_TO_END)
        for name, value in result["end_to_end"].items():
            assert math.isfinite(value), (workload, name)
            assert value > 0 or name == "failed_op_share", (workload, name)
        layer = result["per_layer"]
        assert set(layer) <= set(PER_LAYER)
        for name, value in layer.items():
            assert value is None or math.isfinite(value), (workload, name)
        # What every workload must report, whatever it exercises.
        for name in PER_LAYER:
            if name.endswith((".host_self_share", ".calls_per_op")) \
                    or name.startswith(("sim.events", "sim.host", "network.",
                                        "driver.ops", "driver.repeats")):
                assert layer.get(name) is not None, (workload, name)


def test_layer_attribution_is_where_the_table_says(measured):
    for workload in spec.SERIAL_WORKLOADS:
        layer = measured[workload]["per_layer"]
        shares = sum(layer[f"{lay}.host_self_share"] for lay in LAYERS)
        assert abs(shares - 1.0) < 0.01, workload
        assert layer.get("sim.parallel.barrier_share") is None
    mp2 = measured["smallfile_write_mp2"]["per_layer"]
    assert 0 < mp2["sim.parallel.barrier_share"] < 1
    assert mp2["sim.parallel.windows"] > 0
    assert measured["crash_repair"]["per_layer"][
        "faults.events_injected"] == 1
    assert measured["md_sharded"]["per_layer"][
        "storage.host_self_share"] < 0.02
    assert measured["bulk_rw"]["per_layer"]["driver.read_sim_mb_per_s"] > 0


def test_seed_decides_the_exact_metrics(measured):
    for workload in WORKLOADS:
        again = _in_process(workload, 0, "smoke", False, False)["exact"]
        other = _in_process(workload, 1, "smoke", False, False)["exact"]
        first = {k: measured[workload]["end_to_end"][k] for k in spec.EXACT}
        assert again == first, workload
        assert other != first, workload


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", "md_sharded", "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    want = ([n for n, _u, _b, _bound in spec.END_TO_END] if trace == 0
            else [n for n, _u, _b, _s in spec.PER_LAYER])
    assert list(line["metrics"]) == want
    for name, cell in line["metrics"].items():
        assert set(cell) == {"value", "unit"}
        assert math.isfinite(cell["value"]), name
