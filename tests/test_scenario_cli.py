import json
import math
from pathlib import Path

import pytest
import yaml

from storagesim import cli
from storagesim.cli import main
from storagesim.cost import count_io_ops
from storagesim.errors import ScenarioParseError, ScenarioValidationError, SimError
from storagesim.scenario import build_state, compare, load_scenario, parse_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_doc(**overrides):
    doc = {
        "schema": 1,
        "seed": 42,
        "topology": {"reference": {"n_hosts": 5, "local_persistent_gb": 200}},
        "vms": [
            {
                "vcpus": 4,
                "ram_gb": 8,
                "root_disk_gb": 32,
                "ephemeral_gb": 20,
                "long_running": True,
                "migratable": False,
                "count": 5,
                "policy": "spread",
            }
        ],
        "storage_config": "local",
        "dfs": {"block_size_mb": 64, "replication_factor": 1, "seed": 7},
        "dfsio": {"n_files": 10, "file_size_mb": 1000, "mode": "write", "map_capacity": 25, "slots_per_vm": 5},
        "snapshot": {"interval_s": 3600},
        "prices": {},
    }
    doc.update(overrides)
    return doc


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


# -- parsing and validation ---------------------------------------------------


def test_packaged_scenarios_parse_and_validate():
    for name in ("reference.yaml", "cost_reference.yaml"):
        scenario = load_scenario(SCENARIOS / name)
        build_state(scenario)


def test_unknown_storage_config_is_a_parse_error():
    with pytest.raises(ScenarioParseError, match="storage_config"):
        parse_scenario(scenario_doc(storage_config="floppy"))


def test_missing_required_field_names_the_path():
    doc = scenario_doc()
    del doc["dfsio"]
    with pytest.raises(ScenarioParseError, match="dfsio"):
        parse_scenario(doc)


def test_wrong_type_names_the_field():
    doc = scenario_doc()
    doc["dfsio"]["n_files"] = "ten"
    with pytest.raises(ScenarioParseError, match="dfsio.n_files"):
        parse_scenario(doc)


def test_rf_exceeding_vm_count_is_a_validation_error():
    doc = scenario_doc()
    doc["dfs"]["replication_factor"] = 9
    scenario = parse_scenario(doc)
    with pytest.raises(ScenarioValidationError, match="insufficient-vms"):
        build_state(scenario)


def test_local_persistent_config_requires_partitions():
    doc = scenario_doc(storage_config="local_persistent")
    doc["topology"] = {"reference": {"n_hosts": 5}}  # no partitions carved
    with pytest.raises(ScenarioValidationError):
        build_state(parse_scenario(doc))


def test_explicit_topology_section_round_trips():
    doc = scenario_doc()
    doc["topology"] = {
        "hosts": [
            {
                "id": "h01",
                "vcpus": 8,
                "ram_gb": 32,
                "disks": [{"id": "disk1", "capacity_gb": 500, "write_bw": 120, "read_bw": 150}],
                "nic_links": ["m1"],
            }
        ],
        "controller": {"id": "controller", "disks": [{"id": "disk1", "capacity_gb": 2000, "write_bw": 100, "read_bw": 100}]},
        "links": [{"id": "m1", "bandwidth": 125, "endpoints": ["h01", "controller"], "role": "management"}],
    }
    doc["vms"] = [{"vcpus": 2, "ram_gb": 4, "root_disk_gb": 20, "count": 2}]
    doc["dfsio"]["n_files"] = 2
    scenario = parse_scenario(doc)
    assert scenario.topology.hosts[0].disks[0].read_bw == 150
    run = run_scenario(scenario)
    assert run.result.n_files == 2


# -- scenario execution --------------------------------------------------------


def test_local_config_plans_snapshots_networked_does_not(tmp_path):
    scenario = parse_scenario(scenario_doc())
    local = run_scenario(scenario, storage_config="local")
    assert local.snapshot_records and any(e.kind == "snapshot" for e in local.trace.events)
    assert sum(r.bytes_copied for r in local.snapshot_records) == 10_000.0
    networked = run_scenario(scenario, storage_config="networked")
    assert networked.snapshot_records == []


def test_comparison_identical_configs_have_ratio_one():
    scenario = parse_scenario(scenario_doc())
    report = compare(scenario, ["local", "local"])
    (pair,) = report.pairs()
    assert pair["throughput_ratio"] == 1.0
    assert pair["savings_of_a_vs_b"] == 0.0
    a, b = report.runs.values()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_read_mode_scenario_runs_the_conventional_write_pass_first():
    doc = scenario_doc()
    doc["dfsio"]["mode"] = "read"
    run = run_scenario(parse_scenario(doc), storage_config="local")
    assert run.result.mode == "read"
    assert run.prep_traces, "the preparatory write pass must be kept for auditing"
    assert run.result.n_files == 10
    # local reads are all replica-local: the measured run touches no link
    assert run.network_mb == 0.0
    assert run.snapshot_records == []  # nothing written in the measured window


def test_read_mode_bills_only_the_measured_run():
    # The prep write pass only creates the input files; io_ops and instance-hours come from the measured reads.
    doc = scenario_doc(storage_config="networked")
    doc["dfsio"].update(mode="read", file_size_mb=25_000)
    scenario = parse_scenario(doc)
    run = run_scenario(scenario)
    (prep,) = run.prep_traces
    prep_s = max(rec.end_time for rec in prep.flows.values())
    assert count_io_ops(prep, scenario.op_size_kb) > 0
    assert run.io_ops == count_io_ops(run.trace, scenario.op_size_kb)
    assert run.cost.storage_cost == run.io_ops / 1_000_000 * scenario.prices.ebs_standard_per_million_ops
    # billing the prep pass too would cross the hour boundary and bill two hours per VM
    assert run.result.finished_at < 3600.0 < prep_s + run.result.finished_at
    assert run.cost.instance_cost == scenario.vms[0].count * scenario.prices.instance_per_hour  # one hour per VM


def test_comparison_local_beats_networked():
    scenario = parse_scenario(scenario_doc())
    report = compare(scenario, ["local", "networked"])
    local, networked = report.runs["local"], report.runs["networked"]
    assert local.result.throughput_mbps > networked.result.throughput_mbps
    (pair,) = report.pairs()
    assert pair["throughput_ratio"] > 1.0


def test_compare_requires_two_configs():
    scenario = parse_scenario(scenario_doc())
    with pytest.raises(ScenarioValidationError):
        compare(scenario, ["local"])


def test_cost_walkthrough_savings_fraction():
    scenario = load_scenario(SCENARIOS / "cost_reference.yaml")
    report = compare(scenario, ["local", "networked"])
    assert report.runs["networked"].io_ops == 1_000_000
    assert report.runs["networked"].cost.total == pytest.approx(0.34)
    assert report.runs["local"].cost.total == pytest.approx(0.24)
    (pair,) = report.pairs()
    assert pair["savings_of_a_vs_b"] == pytest.approx(0.2941, abs=1e-4)


# -- CLI ------------------------------------------------------------------------


def test_cli_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    assert main(["validate", "--scenario", str(path)]) == 0
    assert "scenario OK" in capsys.readouterr().out


def test_cli_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("topology: [unclosed\n  nonsense: {")
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line" in err


def test_cli_bad_field_exits_2_with_field(tmp_path, capsys):
    doc = scenario_doc()
    doc["dfsio"]["file_size_mb"] = "huge"
    path = write_scenario(tmp_path, doc)
    assert main(["validate", "--scenario", str(path)]) == 2
    assert "dfsio.file_size_mb" in capsys.readouterr().err


def test_snapshot_target_accepts_only_controller(tmp_path, capsys):
    doc = scenario_doc()
    doc["snapshot"]["target"] = "controller"
    assert main(["validate", "--scenario", str(write_scenario(tmp_path, doc))]) == 0
    doc["snapshot"]["target"] = "s3"
    assert main(["validate", "--scenario", str(write_scenario(tmp_path, doc))]) == 2
    assert "field snapshot.target: " in capsys.readouterr().err


def test_cli_audits_prep_traces(tmp_path, monkeypatch, capsys):
    doc = scenario_doc()
    doc["dfsio"]["mode"] = "read"
    path = write_scenario(tmp_path, doc)
    real_run_scenario = cli.run_scenario

    def corrupted(scenario, *args, **kwargs):
        run = real_run_scenario(scenario, *args, **kwargs)
        record = next(iter(run.prep_traces[0].flows.values()))
        record.size_mb *= 2  # the prep trace now moves half of this flow's bytes
        return run

    monkeypatch.setattr(cli, "run_scenario", corrupted)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 4
    assert "prep trace 0: [byte-conservation]" in capsys.readouterr().err


def test_cli_rf_over_vms_exits_3(tmp_path, capsys):
    doc = scenario_doc()
    doc["dfs"]["replication_factor"] = 50
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "insufficient-vms" in capsys.readouterr().err


def test_cli_run_emits_files(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out), "--emit-gnuplot-data"]) == 0
    for name in ("result.json", "trace.csv", "tasks.csv", "cost.json", "gnuplot.dat"):
        assert (out / name).exists(), name
    result = json.loads((out / "result.json").read_text())
    assert result["result"]["n_files"] == 10
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "time,event_kind,flow_id,resource_id,value"
    tasks = (out / "tasks.csv").read_text().splitlines()
    assert tasks[0] == "task_index,file_size_mb,elapsed_s,rate_mbps" and len(tasks) == 11


def test_result_json_reports_each_number_once(tmp_path):
    # per-task rows live in tasks.csv only; exec time is finished_at_s and the task count is n_files
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert set(result) == {"config", "seed", "result", "snapshots", "cost", "io_ops", "network_mb"}
    assert set(result["result"]) == {
        "mode", "finished_at_s", "n_files", "total_mb", "throughput_mbps", "avg_io_rate_mbps",
        "stddev_io_rate_mbps", "sum_rate", "sum_rate_sq",
    }
    assert result["snapshots"] and all(set(r) == {"volume_id", "taken_at_s", "bytes_copied_mb"} for r in result["snapshots"])


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        outs.append({name: (out / name).read_bytes() for name in ("result.json", "trace.csv", "cost.json")})
    assert outs[0] == outs[1]


def test_cli_compare_table_and_report(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "cmp"
    code = main(["compare", "--scenario", str(path), "--out", str(out), "--configs", "local", "networked"])
    assert code == 0
    table = capsys.readouterr().out
    assert "local" in table and "networked" in table and "ratio" in table
    report = json.loads((out / "comparison.json").read_text())
    assert set(report["configs"]) == {"local", "networked"}
    assert (out / "trace_local.csv").exists() and (out / "trace_networked.csv").exists()


def test_cli_cost_command(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "cost"
    assert main(["cost", "--scenario", str(path), "--out", str(out)]) == 0
    data = json.loads((out / "cost.json").read_text())
    assert data["total_usd"] == data["instance_cost_usd"] + data["storage_cost_usd"]


def test_cli_seed_override_changes_recorded_seed(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "seeded"
    assert main(["run", "--scenario", str(path), "--out", str(out), "--seed", "7"]) == 0
    assert json.loads((out / "result.json").read_text())["seed"] == 7


def test_report_numbers_recomputable_from_trace_csv(tmp_path):
    # throughput in result.json must equal what the trace alone implies
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())

    starts, ends, sizes = {}, {}, {}
    for line in (out / "trace.csv").read_text().splitlines()[1:]:
        time, kind, flow_id, _res, value = line.split(",")
        if not flow_id.startswith("t"):
            continue  # snapshot transfers are not benchmark tasks
        task = flow_id.split(".")[0]
        if kind == "flow_start":
            starts[task] = min(starts.get(task, math.inf), float(time))
            if flow_id.endswith(".write") or ".read." in flow_id:
                sizes[task] = sizes.get(task, 0.0) + float(value)
        elif kind == "flow_end":
            ends[task] = max(ends.get(task, 0.0), float(time))
    total_mb = sum(sizes.values())
    total_time = sum(ends[t] - starts[t] for t in starts)
    assert result["result"]["throughput_mbps"] == pytest.approx(total_mb / total_time, rel=1e-12)
    assert result["result"]["total_mb"] == total_mb


def test_nonpositive_benchmark_numbers_are_parse_errors():
    doc = scenario_doc()
    doc["dfsio"]["n_files"] = 0
    with pytest.raises(ScenarioParseError, match="dfsio.n_files"):
        parse_scenario(doc)
    doc = scenario_doc()
    doc["vms"][0]["count"] = 0
    with pytest.raises(ScenarioParseError, match="count"):
        parse_scenario(doc)


def test_cli_never_leaks_tracebacks(tmp_path, capsys):
    doc = scenario_doc()
    doc["dfsio"]["file_size_mb"] = -5
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "file_size_mb" in capsys.readouterr().err


MALFORMED = [
    (("snapshot", "bandwidth_cap"), "fast"),
    (("snapshot", "bandwidth_cap"), 0),
    (("snapshot", "bandwidth_cap"), -5),
    (("topology", "reference", "n_hosts"), "five"),
    (("dfs", "replication_factor"), 0),
    (("dfs", "block_size_mb"), 0),
    (("op_size_kb",), 0),
    (("dfsio", "slot_per_vm"), 5),  # a misspelt slots_per_vm
    (("dfsio", "read_fraction"), 2),
    (("volume_size_gb",), -1),
]


@pytest.mark.parametrize("path, value", MALFORMED, ids=[f"{'.'.join(p)}={v}" for p, v in MALFORMED])
def test_cli_malformed_scenario_exits_2_with_the_field_path(tmp_path, capsys, path, value):
    doc = yaml.safe_load((SCENARIOS / "reference.yaml").read_text())
    doc["dfsio"]["n_files"] = 3
    *parents, key = path
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: field ") and f"{'.'.join(path)}: " in err
    assert not out.exists()


@pytest.mark.parametrize("error", [RuntimeError, SimError])
def test_internal_error_exits_4_and_leaves_a_traceback(tmp_path, monkeypatch, capsys, error):
    path = write_scenario(tmp_path, scenario_doc())

    def broken(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "run_scenario", broken)
    out = tmp_path / "fresh" / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 4
    log = (out / "error.log").read_text()
    assert "Traceback" in log and f"{error.__name__}: boom" in log
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(out / "error.log") in err[0] and "Traceback" not in err[0]
