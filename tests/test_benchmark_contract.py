"""The benchmark under perfbench/ wraps named program functions and feeds the program scenarios.

The traced functions must keep resolving, every workload's scenario must keep parsing and
building, and a run of it must pass the benchmark's own checks, so a change that breaks the
benchmark fails here first. perfbench/tracer.py, perfbench/workloads.py and perfbench/checks.py
are loaded from their files and only read; nothing of them is patched.
"""

import gc
import importlib.util
import json
from pathlib import Path

import pytest

import storagesim.bench
from storagesim import cli
from storagesim.scenario import build_state, parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracer").TARGETS
WORKLOADS = _load("workloads")
CHECKS = _load("checks")


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_traced_target_resolves(module_name, attr, span):
    home = importlib.import_module(f"storagesim.{module_name}")
    if "." in attr:  # a method, patched on the class that defines it
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth)), span
    else:
        assert callable(getattr(home, attr, None)), span


def test_run_dfsio_defines_an_on_complete_hook():
    consts = storagesim.bench.run_dfsio.__code__.co_consts
    assert any(getattr(c, "co_name", "") == "on_complete" for c in consts)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_scenario_parses_and_builds(name):
    build_state(parse_scenario(WORKLOADS.scenario_data(name, 1, 0)))


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_run_passes_the_benchmark_checks(name, tmp_path, monkeypatch):
    # check_run reads n_files, throughput_mbps, avg_io_rate_mbps, finished_at_s, io_ops, network_mb and
    # cost.total_usd from result.json, so a deleted field the benchmark reads fails here, not in its pipeline
    runs = []
    run_scenario = cli.run_scenario

    def capture(*args, **kwargs):
        runs.append(run_scenario(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_scenario", capture)
    data = WORKLOADS.scenario_data(name, 1, 0)
    path, out = tmp_path / "scenario.yaml", tmp_path / "out"
    path.write_text(json.dumps(data))  # JSON is YAML
    collections = []  # the generation of each cycle collection pass

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        rc = cli.main(["run", "--scenario", str(path), "--out", str(out)])
    finally:
        gc.callbacks.remove(count)
    assert collections == []  # the command pauses automatic collection...
    assert gc.isenabled()  # ...and restores it on return
    assert rc == 0 and len(runs) == 1
    assert CHECKS.check_run(rc, out, runs[0], data["dfsio"]["n_files"])["problems"] == []
