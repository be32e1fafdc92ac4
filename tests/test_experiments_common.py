"""Tests for the experiment plumbing (builders, tables, run_until_done,
CLI budgets, the run_all section list)."""

import argparse
import importlib
import inspect

import pytest

from repro.experiments import run_all
from repro.experiments.common import (
    add_budget_args,
    cluster_a_like,
    cluster_b_like,
    format_table,
    nfs_on,
    over_budget,
    pvfs_on,
    run_until_done,
    sorrento_on,
)
from repro.sim import Simulator

GB = 1 << 30


def test_cluster_a_like_hardware():
    spec = cluster_a_like()
    storage = spec.storage_nodes
    assert len(storage) == 10
    assert all(n.cpu_ghz == 0.4 for n in storage)          # P-II 400 MHz
    disks = [n.disks[0] for n in storage]
    assert disks.count("cheetah-st373405") == 2
    assert disks.count("barracuda-st336737") == 8
    assert len(spec.compute_nodes) == 17                   # 16 clients + 1


def test_cluster_b_like_hardware():
    spec = cluster_b_like(n_storage=8)
    storage = spec.storage_nodes
    assert len(storage) == 8
    assert all(len(n.disks) == 3 for n in storage)         # RAID-0 x3
    assert all(n.cpu_ghz == 1.4 for n in storage)


def test_sorrento_on_respects_provider_cap():
    dep = sorrento_on(cluster_a_like(), n_providers=4, degree=2, seed=0,
                      warm=3.0)
    assert len(dep.providers) == 4
    assert dep.params.default_degree == 2


def test_pvfs_on_uses_mgr_plus_iods():
    dep = pvfs_on(cluster_a_like(), n_iods=8)
    assert len(dep.iod_hosts) == 8
    assert dep.mgr_host not in dep.iod_hosts


def test_nfs_on_single_server():
    dep = nfs_on(cluster_a_like())
    assert dep.server.node.hostid == dep.server_host


def test_format_table_alignment():
    text = format_table("T", ["name", "x"], [["abc", 1.234], ["d", 10.5]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "x" in lines[1]
    assert "1.23" in text and "10.5" in text


def test_format_table_float_rendering():
    text = format_table("T", ["v"], [[0.0], [1234.5], [55.55], [3.14159]])
    assert "0" in text
    assert "1234" in text or "1235" in text
    assert "55.5" in text  # 55.55 is 55.549999... in binary floating point
    assert "3.14" in text


def test_run_until_done_stops_at_completion():
    sim = Simulator()

    def noisy():  # an endless daemon that would pin sim.run(until=...)
        while True:
            yield sim.timeout(1.0)

    def job():
        yield sim.timeout(5.0)
        return "done"

    sim.process(noisy())
    p = sim.process(job())
    run_until_done(sim, [p])
    assert p.value == "done"
    assert sim.now == pytest.approx(5.0, abs=1.1)


def test_run_until_done_detects_runaway():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(10.0)

    p = sim.process(forever())
    with pytest.raises(RuntimeError, match="exceeded"):
        run_until_done(sim, [p], max_time=100.0)


def test_over_budget_reports_each_exceeded_budget_and_nothing_when_unset():
    parser = argparse.ArgumentParser()
    add_budget_args(parser)
    unset = parser.parse_args([])
    assert over_budget(unset, "100 providers", 1e9, 1e9) == []
    both = parser.parse_args(["--budget-wall", "2", "--budget-rss-mb", "64"])
    assert over_budget(both, "", 1.5, 64.0) == []
    assert over_budget(both, "", 2.5, 10.0) == [
        "wall 2.5s over budget 2.0s"]
    assert over_budget(both, "100 providers", 2.5, 80.5) == [
        "100 providers: wall 2.5s over budget 2.0s",
        "100 providers: peak RSS 80.5MB over budget 64.0MB"]


@pytest.mark.parametrize("quick", [True, False])
def test_every_run_all_section_names_a_main_that_takes_its_kwargs(quick):
    """``_run_section`` turns an import or signature error into a
    "FAILED" line in a report nobody diffs; catch it here instead."""
    for title, modname, kwargs in run_all.sections(quick=quick):
        mod = importlib.import_module(f"repro.experiments.{modname}")
        inspect.signature(mod.main).bind(**kwargs)
    listed = {modname for _t, modname, _k in run_all.sections(quick=quick)}
    assert {"ns_shard_curve", "compute"} <= listed
