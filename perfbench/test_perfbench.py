"""Self-tests of the benchmark, on shrunken workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import cProfile
import json
import math
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, scenario_data  # noqa: E402

SMALL = {"local_write_wide": 4, "networked_small_files": 40, "local_mixed_snapshots": 12}


def small_scenario(tmp_path: Path, name: str, seed: int = 3) -> tuple[Path, int]:
    data = scenario_data(name, seed)
    data["dfsio"]["n_files"] = SMALL[name]
    path = tmp_path / f"{name}.yaml"
    path.write_text(json.dumps(data))
    return path, SMALL[name]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {name: w["why"] for name, w in WORKLOADS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    baseline = json.loads(run.BASELINE.read_text())
    for name in WORKLOADS:
        assert baseline["workloads"][name]["digests"], name


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS[name]["dfsio"], "n_files", SMALL[name])
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.split()}
    for key, unit in list(expected.items()) + [("failed_frac", "ratio")]:
        assert printed[key][-1] == unit, key
    for key in ("finished_at_s", "throughput_mbps", "network_mb", "io_ops", "cost_usd", "snapshot_mismatch_mb", "digest"):
        assert f"model.{key}" in printed
    if trace == "0":
        scale = run.PROBE_REF_S / float(printed["host.probe_s"][0])
        for key in ("wall_s", "setup_s"):
            assert result["metrics"][key]["value"] == pytest.approx(float(printed[f"host.{key}"][0]) * scale, rel=1e-5)


def test_probe_runs_no_program_code():
    code = "import sys, time, worker; worker.probe(time.monotonic_ns()); print([m for m in sys.modules if 'storagesim' in m])"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_counts_failures_when_scenario_outputs_are_wrong(tmp_path):
    path, n = small_scenario(tmp_path, "networked_small_files")
    out = worker.run_once(str(path), str(tmp_path / "out"), n + 1)  # the workload asked for one more task
    assert out["rc"] == 0
    assert any("tasks.csv has" in p for p in out["problems"])


def test_dfsio_identities_catch_a_tampered_task(tmp_path):
    path, n = small_scenario(tmp_path, "local_write_wide")
    out_dir = tmp_path / "out"
    assert worker.run_once(str(path), str(out_dir), n)["problems"] == []
    tasks = out_dir / "tasks.csv"
    lines = tasks.read_text().splitlines()
    idx, size, elapsed, rate = lines[1].split(",")
    lines[1] = ",".join([idx, size, repr(float(elapsed) * 1.5), rate])
    tasks.write_text("\n".join(lines) + "\n")
    result = json.loads((out_dir / "result.json").read_text())["result"]
    assert checks.dfsio_problems(tasks, result, n)


def test_snapshot_mismatch_is_reported_as_a_number(tmp_path):
    path, n = small_scenario(tmp_path, "local_mixed_snapshots")
    out = worker.run_once(str(path), str(tmp_path / "mixed"), n)
    assert out["problems"] == []
    # Positive at this commit: snapshot records disagree with the trace's writes.
    mismatch = out["model"]["model.snapshot_mismatch_mb"]
    assert isinstance(mismatch, float) and math.isfinite(mismatch) and mismatch >= 0
    path, n = small_scenario(tmp_path, "networked_small_files")
    assert worker.run_once(str(path), str(tmp_path / "net"), n)["model"]["model.snapshot_mismatch_mb"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_matches_untraced_and_leaves_no_wrapper(tmp_path, name):
    path, n = small_scenario(tmp_path, name)
    plain = worker.run_once(str(path), str(tmp_path / "plain"), n)
    traced = worker.run_once(str(path), str(tmp_path / "traced"), n, str(tmp_path / "spans.json"))
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["model"]["model.digest"] == plain["model"]["model.digest"]
    assert tracer.leftover_wrappers() == []
    import storagesim.bench
    import storagesim.topology

    assert storagesim.bench.management_path is storagesim.topology.management_path
    assert not hasattr(storagesim.topology.management_path, "__wrapped__")
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["fields"] == ["id", "name", "start", "end", "parent_id", "run_id"]
    assert {s[5] for s in spans["spans"]} == {spans["run_id"]}
    assert set(run.PER_LAYER) - {"trace.overhead_frac"} <= set(traced["layers"])


def _code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def test_traced_calls_equal_cprofile_ncalls(tmp_path):
    """Every call of a traced function goes through a span, at every binding site."""
    import storagesim.bench
    from storagesim import cli

    hook_code = next(c for c in storagesim.bench.run_dfsio.__code__.co_consts if getattr(c, "co_name", "") == "on_complete")
    originals = {}
    for module_name, attr, name in tracer.TARGETS:
        obj = sys.modules[f"storagesim.{module_name}"]
        for part in attr.split("."):
            obj = getattr(obj, part)
        originals[name] = _code_key(obj)
    originals[tracer.HOOK_SPAN] = (hook_code.co_filename, hook_code.co_firstlineno, hook_code.co_name)

    seen = set()
    for name in WORKLOADS:
        path, _ = small_scenario(tmp_path, name)
        profile = cProfile.Profile()
        with tracer.Tracer(run_id=name) as t:
            assert profile.runcall(cli.main, ["run", "--scenario", str(path), "--out", str(tmp_path / name)]) == 0
        ncalls = {key[:3]: value[1] for key, value in pstats.Stats(profile).stats.items()}
        times = t.layer_times()
        for span, key in originals.items():
            traced_calls = times.get(span, {"calls": 0})["calls"]
            assert traced_calls == ncalls.get(key, 0), (name, span)
            if traced_calls:
                seen.add(span)
    assert seen == set(originals)  # the three workloads between them reach every traced function


def test_self_times_sum_to_traced_wall(tmp_path):
    path, n = small_scenario(tmp_path, "local_mixed_snapshots")
    out = worker.run_once(str(path), str(tmp_path / "out"), n, str(tmp_path / "spans.json"))
    layers = out["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(layers["cli.main.s"], rel=1e-9)
    assert self_total + layers["trace.unattributed_s"] == pytest.approx(out["wall_s"], rel=1e-12)
    assert 0 <= layers["trace.unattributed_s"] < 0.01 * out["wall_s"]


def test_scenarios_follow_the_seed():
    assert scenario_data("local_write_wide", 1) == scenario_data("local_write_wide", 1)
    a, b = scenario_data("local_write_wide", 1), scenario_data("local_write_wide", 2)
    assert (a["seed"], a["dfs"]["seed"]) != (b["seed"], b["dfs"]["seed"])
    assert scenario_data("local_write_wide", 1, part=1)["dfs"]["seed"] != a["dfs"]["seed"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_cycle_uses_every_hash_seed_and_repeats_move_to_the_next(name):
    k = WORKLOADS[name]["scenarios_per_run"]
    cycle = math.lcm(k, len(run.HASH_SEEDS))
    rounds = [run.schedule(r, k) for r in range(2 * cycle)]
    for start in (0, cycle):
        seeds = [j for _, j in rounds[start : start + cycle]]
        assert sorted(seeds) == sorted(range(len(run.HASH_SEEDS))) * (cycle // len(run.HASH_SEEDS))
    for i in range(k):
        first, second = [j for s, j in rounds if s == i][:2]
        assert first != second


def test_long_runs_stop_on_time_not_on_the_give_up_cap():
    # 10 s rounds in cycles of 4: asked for 300 s, the run stops after 28
    # rounds, when 32 would overrun; asked for 30 s, a run whose rounds take
    # 60 s gives up once past 150 s.
    steps = [run.stop_rule(r, 10.0 * r, 300, cycle=4, min_rounds=8) for r in range(1, 40)]
    assert steps.index("stop") == 27 and "give up" not in steps[:27]
    steps = [run.stop_rule(r, 60.0 * r, 30, cycle=4, min_rounds=8) for r in range(1, 5)]
    assert steps == ["go", "go", "give up", "give up"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "networked_small_files", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
