import gc
import inspect
import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml

from helpers import PARSERS, cli_in_fresh_interpreter, in_fresh_interpreter, run_keeping_files
from storagesim import bench, cli, simengine
from storagesim import scenario as scenario_module
from storagesim.cli import main
from storagesim.cost import count_io_ops
from storagesim.errors import (
    NoFreeSlotsError,
    ScenarioParseError,
    ScenarioValidationError,
    SimError,
    SimulationStalledError,
)
from storagesim.bench import DfsioSpec
from storagesim.placement import VmSpec
from storagesim.scenario import Scenario, VmGroup, build_state, compare, load_scenario, parse_scenario, run_scenario
from storagesim.topology import reference_cluster

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


def one_host_doc(host_end="1", controller_end="controller"):
    """A one-host explicit topology, host "1", with one link from ``host_end`` to ``controller_end``."""
    doc = scenario_doc()
    doc["topology"] = {
        "hosts": [
            {
                "id": "1",
                "vcpus": 8,
                "ram_gb": 32,
                "disks": [{"id": "disk1", "capacity_gb": 500, "write_bw": 120, "read_bw": 150}],
            }
        ],
        "controller": {"id": "controller", "disks": [{"id": "disk1", "capacity_gb": 2000, "write_bw": 100, "read_bw": 100}]},
        "links": [{"id": "m1", "bandwidth": 125, "endpoints": [host_end, controller_end]}],
    }
    doc["vms"] = [{"vcpus": 2, "ram_gb": 4, "root_disk_gb": 20, "count": 2}]
    doc["dfsio"]["n_files"] = 2
    return doc


def test_integer_endpoint_is_read_as_its_decimal_text(tmp_path):
    # YAML reads `endpoints: [1, controller]`'s 1 as an int; it names node "1", the host
    path = write_scenario(tmp_path, one_host_doc(host_end=1))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0


NOT_TEXT = [("host_end", v) for v in (None, True, [], {"id": "1"}, 1.5, math.nan)]
NOT_TEXT += [("controller_end", v) for v in (None, 2.0, {})]
NAME_FIELD = {"host_end": "topology.links[0].endpoints[0]", "controller_end": "topology.links[0].endpoints[1]"}


@pytest.mark.parametrize("key, value", NOT_TEXT, ids=[f"{k}={v!r}" for k, v in NOT_TEXT])
def test_endpoint_that_is_not_text_exits_2_with_the_field_path(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, one_host_doc(**{key: value}))
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: field {NAME_FIELD[key]}: expected str, got ")
    assert not out.exists()


@pytest.mark.parametrize("node", ["hosts[0]", "controller"])
def test_a_node_that_lists_its_links_exits_2(tmp_path, capsys, node):
    # a node's links are the links whose endpoints name it; there is no second list to keep in step
    doc = one_host_doc()
    section = doc["topology"]["hosts"][0] if node == "hosts[0]" else doc["topology"]["controller"]
    section["nic_links"] = ["m1"]
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"parse error: field topology.{node}.nic_links: unknown option\n"
    assert not out.exists()


@pytest.mark.parametrize("role", ["managment", "Management", "mgmt", ""])
def test_a_link_role_other_than_management_or_public_exits_2(tmp_path, capsys, role):
    # any other text would make the link a public one, so a typo could silently reroute traffic or strand a host
    doc = one_host_doc()
    doc["topology"]["links"][0]["role"] = role
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: field topology.links[0].role: must be one of ('management', 'public'), got {role!r}\n"
    )
    assert not out.exists()


def test_a_public_link_carries_no_volume_traffic(tmp_path):
    # a second link, public, whose id sorts first: a management link of that id would carry the volume traffic
    doc = one_host_doc()
    doc["storage_config"] = "networked"
    doc["topology"]["links"].append({"id": "a1", "bandwidth": 1, "endpoints": ["1", "controller"], "role": "public"})
    run = run_scenario(parse_scenario(doc))
    links = {rid for rec in run.trace.flows.values() for rid in rec.path.resources if rid.startswith("link:")}
    assert links == {"link:m1"}


def test_defaults_live_on_the_config_types():
    doc = {
        "topology": {"reference": {"n_hosts": 3}},
        "vms": [{"vcpus": 2, "ram_gb": 4, "root_disk_gb": 20}],
        "dfsio": {"n_files": 4, "file_size_mb": 100},
    }
    assert parse_scenario(doc) == Scenario(
        topology=reference_cluster(3),
        vms=[VmGroup(VmSpec(vcpus=2, ram_gb=4, root_disk_gb=20))],
        dfsio=DfsioSpec(n_files=4, file_size_mb=100),
    )


# -- scenario execution --------------------------------------------------------


def test_local_config_plans_snapshots_networked_does_not(tmp_path):
    scenario = parse_scenario(scenario_doc())
    local = run_scenario(scenario, storage_config="local")
    assert local.snapshot_records and any(kind == "snapshot" for _, kind, _, _, _ in local.trace.events)
    assert sum(r.bytes_copied for r in local.snapshot_records) == 10_000.0
    networked = run_scenario(scenario, storage_config="networked")
    assert networked.snapshot_records == []


def test_two_runs_of_one_config_in_one_process_give_the_same_output():
    scenario = parse_scenario(scenario_doc())
    a, b = (run_scenario(scenario, storage_config="local") for _ in range(2))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_compare_refuses_a_repeated_config_and_names_it(tmp_path, capsys):
    scenario = parse_scenario(scenario_doc())
    with pytest.raises(ScenarioValidationError, match="repeated: local$"):
        compare(scenario, ["local", "networked", "local"])
    argv = ["compare", "--scenario", str(SCENARIOS / "reference.yaml"), "--out", str(tmp_path / "out")]
    assert main([*argv, "--configs", "networked", "networked"]) == 3  # before any run starts its trace
    assert "repeated: networked" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_read_mode_scenario_reads_files_placed_as_the_write_pass_places_them(monkeypatch):
    doc = scenario_doc()
    doc["dfsio"]["mode"] = "read"
    scenario = parse_scenario(doc)
    run = run_scenario(scenario, storage_config="local")
    assert run.result.mode == "read"
    assert run.prep_traces == []  # no write pass is simulated
    assert run.result.n_files == 10
    # local reads are all replica-local: the measured run touches no link
    assert run.network_mb == 0.0
    assert run.snapshot_records == []  # nothing written in the measured window
    # each task reads its file from the holders the write pass would have placed it on
    state, hdfs = build_state(scenario, "local")
    write_spec = scenario.dfsio._replace(mode="write")
    _, written = run_keeping_files(monkeypatch, state, write_spec, hdfs, dfs_config=scenario.dfs)
    for fid, rec in run.trace.flows.items():
        task, stage, src = fid.split(".")
        assert stage == "read" and rec.tags["vm"] == src  # read where it lies
        assert src in written[task].holders(), fid


# The growth of a networked write run's tracemalloc peak per one-block file, between 2 000 and 4 000 files, is
# 690 B on CPython 3.10, 608 B on 3.11 and 585 B on 3.12 and 3.13. A run that kept a task stat per task and the MB
# each ended flow moved grew by 761-906 B, and one that also kept every task, every file it wrote and the whole text
# of tasks.csv by 1 060-1 300 B. The bound leaves 40 B (6 %) over the highest figure.
MAX_PEAK_GROWTH_PER_FILE = 730


def test_a_networked_write_runs_peak_memory_grows_by_at_most_730_bytes_a_file(tmp_path, capsys):
    def peak(n_files):
        doc = scenario_doc(storage_config="networked")
        doc["dfs"]["replication_factor"] = 3
        doc["dfsio"].update(n_files=n_files, file_size_mb=64)  # one block each
        path = write_scenario(tmp_path, doc, f"scenario_{n_files}.yaml")
        tracemalloc.start()
        try:
            assert main(["run", "--scenario", str(path), "--out", str(tmp_path / f"out_{n_files}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # the first run's imports and caches, once per process
    growth = (peak(4000) - peak(2000)) / 2000
    assert growth <= MAX_PEAK_GROWTH_PER_FILE, growth


@pytest.mark.parametrize("chunk_lines", [1, 3, 10, 11])
def test_tasks_csv_written_in_chunks_is_the_whole_text(tmp_path, capsys, monkeypatch, chunk_lines):
    # 10 tasks: a header and 10 rows, written a chunk at a time, equal the joined text of one write
    path = write_scenario(tmp_path, scenario_doc())
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "whole")]) == 0
    whole = (tmp_path / "whole" / "tasks.csv").read_bytes()
    monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", chunk_lines)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "chunked")]) == 0
    assert (tmp_path / "chunked" / "tasks.csv").read_bytes() == whole
    lines = whole.decode().split("\n")
    assert lines[0] == "task_index,file_size_mb,elapsed_s,rate_mbps" and len(lines) == 12 and lines[-1] == ""


def test_a_mixed_run_checks_its_members_once_and_builds_one_set_of_placement_tables(monkeypatch):
    # input files and written files come from the one run: one member check, one set of tables
    calls = []
    real_members, real_tables = bench._members, bench.PlacementTables

    def members(*args):
        calls.append("members")
        return real_members(*args)

    def tables(*args):
        calls.append("tables")
        return real_tables(*args)

    monkeypatch.setattr(bench, "_members", members)
    monkeypatch.setattr(bench, "PlacementTables", tables)
    doc = scenario_doc()
    doc["dfsio"]["mode"] = "mixed"
    doc["dfs"]["replication_factor"] = 3
    run = run_scenario(parse_scenario(doc), storage_config="local")
    assert {rec.tags.get("stage") for rec in run.trace.flows.values()} >= {"primary", "replica", "read"}
    assert calls == ["members", "tables"]


def test_read_mode_bills_only_the_measured_run():
    # The input files exist before the run; io_ops and instance-hours come from the measured reads alone.
    doc = scenario_doc(storage_config="networked")
    doc["dfsio"].update(mode="read", file_size_mb=25_000)
    scenario = parse_scenario(doc)
    run = run_scenario(scenario)
    assert {rec.tags["stage"] for rec in run.trace.flows.values()} == {"read"}  # no write is billed
    assert run.io_ops == count_io_ops(run.trace, scenario.op_size_kb) > 0
    assert run.cost.storage_cost == run.io_ops / 1_000_000 * scenario.prices.ebs_standard_per_million_ops
    assert run.result.finished_at == max(rec.end_time for rec in run.trace.flows.values())
    assert run.result.finished_at < 3600.0
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


@pytest.mark.parametrize("mode", ["write", "mixed"])
@pytest.mark.parametrize("config", ["local", "local_persistent", "networked"])
def test_cost_walkthrough_bills_operations_on_networked_runs_only(config, mode):
    # One billing rule prices every config; local storage is free per operation because none is counted.
    doc = yaml.safe_load((SCENARIOS / "cost_reference.yaml").read_text())
    doc["topology"]["reference"]["local_persistent_gb"] = 200
    doc["dfsio"]["mode"] = mode
    scenario = parse_scenario(doc)
    run = run_scenario(scenario, storage_config=config)
    assert run.cost.storage_cost == run.io_ops / 1_000_000 * scenario.prices.ebs_standard_per_million_ops
    if config == "networked":
        assert run.io_ops > 0
    else:
        assert run.io_ops == 0
        assert run.cost.storage_cost == 0.0


@pytest.mark.parametrize("config", ["local", "networked"])
def test_a_negative_zero_price_is_read_as_zero(tmp_path, config):
    # -0.0 passes the non-negative check; read as 0.0, no cost is written with a minus sign
    doc = yaml.safe_load((SCENARIOS / "cost_reference.yaml").read_text())
    doc["prices"]["ebs_standard_per_million_ops"] = -0.0
    doc["storage_config"] = config
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
    text = (out / "result.json").read_text()
    storage_cost = json.loads(text)["cost"]["storage_cost_usd"]
    assert storage_cost == 0.0 and math.copysign(1.0, storage_cost) == 1.0
    assert "-0.0" not in text


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


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_file_that_is_not_utf8_exits_2_without_an_error_log(tmp_path, command, parser):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(b"seed: 1\nname: \xff\xfe bad\n")
    out = tmp_path / "out"
    done = cli_in_fresh_interpreter(parser, command, "--scenario", str(path), "--out", str(out))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"parse error: cannot parse {path}: "), done.stderr
    assert not (out / "error.log").exists()


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("opening, value, closing", [("[", "", "]"), ("{a: ", "1", "}")])
def test_a_deeply_nested_scenario_exits_2_without_an_error_log(tmp_path, opening, value, closing, parser):
    # PyYAML's own parser recurses once per level, so 3 000 levels pass the interpreter's recursion limit
    path = tmp_path / "scenario.yaml"
    path.write_text("seed: " + opening * 3000 + value + closing * 3000 + "\n")
    out = tmp_path / "out"
    done = cli_in_fresh_interpreter(parser, "validate", "--scenario", str(path), "--out", str(out))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("parse error: "), done.stderr
    assert not (out / "error.log").exists()


@pytest.mark.parametrize(
    "text, error",
    [
        ("1: a\n1.0: b\n", "found duplicate key 1.0"),  # equal keys collide whatever their type
        ("? [1]\n: a\n", "found unhashable key"),  # left for the base constructor
        ("? [1]\n: a\n? [1]\n: b\n", "found unhashable key"),  # reported before it is a repeat
    ],
)
def test_the_unique_key_loader_rejects_equal_and_unhashable_keys(text, error):
    with pytest.raises(yaml.constructor.ConstructorError, match=error):
        yaml.load(text, Loader=scenario_module._UniqueKeyLoader)


@pytest.mark.parametrize("text", ["seed: !!map [1, 2]\n", "seed: !!map 5\n", "seed: !!set [1]\n"])
def test_a_mapping_tag_on_a_node_that_is_not_a_mapping_exits_2(tmp_path, capsys, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert main(["validate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "expected a mapping node" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("parser", PARSERS)
def test_a_file_with_a_utf16_byte_order_mark_is_decoded_as_utf16(tmp_path, parser):
    path = tmp_path / "scenario.yaml"
    path.write_bytes((SCENARIOS / "reference.yaml").read_text().encode("utf-16"))
    done = cli_in_fresh_interpreter(parser, "validate", "--scenario", str(path))
    assert done.returncode == 0, done.stderr


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


def test_cli_exits_4_on_a_corrupted_measured_trace(tmp_path, monkeypatch, capsys):
    doc = scenario_doc()
    doc["dfsio"]["mode"] = "read"
    path = write_scenario(tmp_path, doc)
    real_run_scenario = cli.run_scenario

    def corrupted(scenario, *args, readers=(), **kwargs):
        def corrupt(trace, last):  # ahead of the audit, which reads the trace as the run streams it
            if not corrupt.done:
                record = next(iter(trace.flows.values()))
                record.size_mb *= 2  # the trace now moves half of this flow's bytes
                corrupt.done = True

        corrupt.done = False
        return real_run_scenario(scenario, *args, readers=(corrupt, *readers), **kwargs)

    monkeypatch.setattr(cli, "run_scenario", corrupted)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal invariant violation:\n[byte-conservation]")
    assert list((tmp_path / "out").iterdir()) == []


def _snapshotting_doc():
    """Reads beside writes under ``local``, snapshotted every 10 s: markers fall inside the run."""
    doc = scenario_doc()
    doc["dfsio"].update(n_files=30, file_size_mb=256, mode="mixed", read_fraction=0.5, map_capacity=10)
    doc["dfs"]["replication_factor"] = 2
    doc["snapshot"]["interval_s"] = 10
    return doc


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_outputs_do_not_depend_on_the_window_size(tmp_path, monkeypatch, capsys):
    capped = _snapshotting_doc()
    capped["snapshot"]["bandwidth_cap"] = 20  # each transfer's cap resource joins the simulation mid-run
    default_size = simengine.CSV_CHUNK_LINES
    for name, doc in (("uncapped", _snapshotting_doc()), ("capped", capped)):
        monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", default_size)
        base = tmp_path / name
        base.mkdir()
        path = write_scenario(base, doc)
        want = {}
        for command in ("run", "compare"):
            assert main([command, "--scenario", str(path), "--out", str(base / command)]) == 0
            want[command] = _files(base / command), capsys.readouterr().out.replace(str(base), "")
        trace = want["run"][0]["trace.csv"].decode().splitlines()
        assert len(trace) > 500 and sum(",snapshot," in line for line in trace) > 10
        snap_rates = [float(line.rsplit(",", 1)[1]) for line in trace if ",rate_change,snap." in line]
        assert (max(snap_rates) <= 20) == (name == "capped")
        for size in (1, 2, 3, 64):
            monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", size)
            for command in ("run", "compare"):
                out = base / f"{command}_{size}"
                assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
                got = _files(out), capsys.readouterr().out.replace(str(base), "").replace(f"_{size}", "")
                assert got == want[command], (name, command, size)


def test_a_failed_audit_leaves_no_trace_file(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path, _snapshotting_doc())
    monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", 64)
    monkeypatch.setattr(simengine, "CAPACITY_REL_EPS", -0.5)  # every resource in full use is over its limit
    writes = []
    real_write_csv = simengine.SimTrace.write_csv
    monkeypatch.setattr(simengine.SimTrace, "write_csv", lambda t, p, **kw: writes.append(p) or real_write_csv(t, p, **kw))
    for command, kept in (("run", "trace.csv"), ("compare", "trace_local.csv")):
        out = tmp_path / command
        for old in ({}, {kept: b"an earlier run's trace\n"}):  # a fresh --out, then one an earlier run wrote
            out.mkdir(exist_ok=True)
            for name, text in old.items():
                (out / name).write_bytes(text)
            writes.clear()
            assert main([command, "--scenario", str(path), "--out", str(out)]) == 4
            assert capsys.readouterr().err.startswith("internal invariant violation:\n[capacity]")
            assert len(writes) > 5 and {p.name for p in writes} >= {f"{kept}.part"}  # the part was written
            assert _files(out) == old, command


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_sim_error_mid_run_leaves_no_trace_file(tmp_path, monkeypatch, capsys, command):
    path = write_scenario(tmp_path, _snapshotting_doc())
    out = tmp_path / "out"
    monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", 64)
    real_next_completion = simengine.Simulation._next_completion
    steps = []

    def stalls_late(sim):
        steps.append(sim)
        if len(steps) == 60:
            assert any(p.name.endswith(".part") for p in out.iterdir())  # windows are on disk by now
            raise SimulationStalledError("stalled on purpose")
        return real_next_completion(sim)

    monkeypatch.setattr(simengine.Simulation, "_next_completion", stalls_late)
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 4
    assert "stalled on purpose" in capsys.readouterr().err
    assert sorted(_files(out)) == ["error.log"]


def test_a_cli_run_holds_at_most_a_window_and_a_step_of_events(tmp_path, monkeypatch):
    """``trace.events`` never holds more than ``CSV_CHUNK_LINES`` events plus those of the step that fills it."""
    doc = scenario_doc(storage_config="networked")
    doc["dfs"]["replication_factor"] = 3
    doc["dfsio"].update(n_files=1500, file_size_mb=64)  # 13 500 events; no snapshots, so every step has flows
    path = write_scenario(tmp_path, doc)
    per_step = [0]  # events appended in each step so far
    held = [0]  # the most events the list held

    class Counting(list):
        def append(self, event):
            super().append(event)
            per_step[-1] += 1
            held[0] = max(held[0], len(self))

    real_init, real_reallocate = simengine.Simulation.__init__, simengine.Simulation._reallocate

    def init(sim, *args, **kwargs):
        real_init(sim, *args, **kwargs)
        sim._trace.events = Counting()

    def reallocate(sim):  # a step starts with its solve
        per_step.append(0)
        return real_reallocate(sim)

    monkeypatch.setattr(simengine.Simulation, "__init__", init)
    monkeypatch.setattr(simengine.Simulation, "_reallocate", reallocate)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    events = sum(per_step)
    assert events == len((tmp_path / "out" / "trace.csv").read_text().splitlines()) - 1 > 3 * simengine.CSV_CHUNK_LINES
    assert simengine.CSV_CHUNK_LINES <= held[0] < simengine.CSV_CHUNK_LINES + max(per_step)


def test_no_audit_holds_entries_once_its_run_builds_its_stats(tmp_path, monkeypatch, capsys):
    """Each audit empties its state at its trace's last window, before ``run_dfsio`` builds that run's stats."""
    path = write_scenario(tmp_path, _snapshotting_doc())
    real_from_stats = bench.BenchmarkResult.from_stats.__func__
    seen = []  # per run: (audits alive, audits holding entries)

    def from_stats(cls, *args):
        audits = [o for o in gc.get_objects() if type(o) is simengine.AuditState]
        tables = [s for s in simengine.AuditState.__slots__ if s != "prev_t"]
        seen.append((len(audits), sum(any(getattr(a, t) for t in tables) for a in audits)))
        return real_from_stats(cls, *args)

    monkeypatch.setattr(bench.BenchmarkResult, "from_stats", classmethod(from_stats))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    configs = ["local", "networked", "local_persistent"]
    assert main(["compare", "--scenario", str(path), "--out", str(tmp_path / "cmp"), "--configs", *configs]) == 0
    capsys.readouterr()
    assert len(seen) == 4 and all(alive >= 1 and holding == 0 for alive, holding in seen), seen


def test_cli_rf_over_vms_exits_3(tmp_path, capsys):
    doc = scenario_doc()
    doc["dfs"]["replication_factor"] = 50
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "insufficient-vms" in capsys.readouterr().err


def test_cli_run_emits_files(tmp_path, capsys):
    path = write_scenario(tmp_path, scenario_doc())
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["result.json", "tasks.csv", "trace.csv"]
    result = json.loads((out / "result.json").read_text())
    assert result["result"]["n_files"] == 10
    cost = result["cost"]
    assert cost["total_usd"] == cost["instance_cost_usd"] + cost["storage_cost_usd"]
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
        "stddev_io_rate_mbps",
    }
    assert set(result["cost"]) == {"instance_cost_usd", "storage_cost_usd", "total_usd"}
    assert result["snapshots"] and all(set(r) == {"volume_id", "taken_at_s", "bytes_copied_mb"} for r in result["snapshots"])


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        outs.append({name: (out / name).read_bytes() for name in ("result.json", "trace.csv")})
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
    assert sorted(p.name for p in out.iterdir()) == ["comparison.json", "trace_local.csv", "trace_networked.csv"]


@pytest.mark.parametrize("argv", [["cost"], ["run", "--emit-gnuplot-data"], ["validate", "--seed", "3"]])
def test_cli_removed_commands_and_flags_exit_2(tmp_path, argv):
    path = write_scenario(tmp_path, scenario_doc())
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


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
    (("dfsio", "n_files"), 2.7),
    (("dfsio", "map_capacity"), 1.5),
    (("dfs", "replication_factor"), 2.5),
    (("seed",), 1.5),
    (("topology", "reference", "n_hosts"), 4.5),
    (("vms", 0, "vcpus"), -4),
    (("vms", 0, "ram_gb"), -8),
    (("vms", 0, "root_disk_gb"), -32),
    (("prices", "instance_per_hour"), -1),
    (("dfsio", "file_size_mb"), math.inf),
    (("dfs", "block_size_mb"), math.inf),
    (("topology", "reference", "disk_read_bw"), math.nan),
    (("snapshot", "interval_s"), math.inf),  # these two never finished when accepted
    (("topology", "reference", "link_bw"), math.nan),
    (("dfsio", "file_size_mb"), 1.0e-12),  # the engine completes such a file as it starts: 0 s, so no rate
    (("dfsio", "file_size_mb"), 1.0e-9),
    (("op_size_kb",), 1.0e-306),  # one file's operation count overflows to inf, on a networked run
    # counts past their ranges: these files exited 4 (OverflowError), these clusters never finished building
    (("dfsio", "n_files"), 2**64),
    (("dfsio", "n_files"), 1.0e300),
    (("topology", "reference", "n_hosts"), 2**64),
    (("topology", "reference", "n_hosts"), 1.0e300),
]


def field_path(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def reference_with(path, value, **top):
    """``reference.yaml`` cut to three files, with ``top``'s keys and the field at ``path`` set to ``value``."""
    doc = yaml.safe_load((SCENARIOS / "reference.yaml").read_text()) | top
    doc["dfsio"]["n_files"] = 3
    *parents, key = path
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    return doc


@pytest.mark.parametrize("path, value", MALFORMED, ids=[f"{field_path(p)}={v}" for p, v in MALFORMED])
def test_cli_malformed_scenario_exits_2_with_the_field_path(tmp_path, capsys, path, value):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path, reference_with(path, value))), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: field ") and f"{field_path(path)}: " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, config",
    [(("dfsio", "file_size_mb"), 2.0e-9, "local"), (("op_size_kb",), 1.0e-300, "networked")],  # just inside the bounds
)
def test_the_smallest_sizes_accepted_run(tmp_path, path, value, config):
    doc = reference_with(path, value, storage_config=config)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
    assert json.loads((out / "result.json").read_text())["result"]["n_files"] == 3


@pytest.mark.parametrize("file_size_mb", [10_000, 10_001])
def test_a_file_splits_into_at_most_10000_blocks(tmp_path, capsys, file_size_mb):
    # place_file makes one block record per block, so a tiny block size is refused before anything runs
    doc = reference_with(("dfs", "block_size_mb"), 1, storage_config="local_persistent")
    doc["dfsio"].update(n_files=1, file_size_mb=file_size_mb)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)])
    if file_size_mb == 10_000:
        assert code == 0 and json.loads((out / "result.json").read_text())["result"]["total_mb"] == 10_000
    else:
        assert code == 2
        assert capsys.readouterr().err.startswith("parse error: field dfs.block_size_mb: too small: ")
        assert not out.exists()  # so no error.log either


@pytest.mark.parametrize("extra", [0, 1])
def test_a_run_places_at_most_a_million_blocks_and_a_reference_cluster_has_at_most_1000_hosts(extra):
    # a read or mixed run places every input block before its first task; only parsed here, never run
    doc = reference_with(("dfsio", "n_files"), 62_500 + extra)  # 1000 MB files in 64 MB blocks: 16 blocks each
    doc["topology"]["reference"]["n_hosts"] = 1000 + extra
    if not extra:
        assert parse_scenario(doc).dfsio.n_files * 16 == bench.MAX_BLOCKS_PER_RUN
        assert len(parse_scenario(doc).topology.hosts) == 1000
    else:
        with pytest.raises(ScenarioParseError, match=r"^field topology\.reference\.n_hosts: must be in \[1, 1000\], got 1001$"):
            parse_scenario(doc)
        doc["topology"]["reference"]["n_hosts"] = 1000
        with pytest.raises(ScenarioParseError, match=r"^field dfsio\.n_files: too large: .* over 1000000 blocks$"):
            parse_scenario(doc)


def test_invalid_reference_knob_exits_3(tmp_path, capsys):
    doc = scenario_doc()
    doc["topology"]["reference"]["disk_read_bw"] = 0
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error: ")
    assert not out.exists()


@pytest.mark.parametrize("error", [RuntimeError, SimError, NoFreeSlotsError])
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


def test_internal_error_prints_its_traceback_when_the_log_cannot_be_written(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path, scenario_doc())

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_scenario", broken)
    out = tmp_path / "out"
    (out / "error.log").mkdir(parents=True)  # a directory where the log should go
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"could not write {out / 'error.log'}" in err.splitlines()[0]
    assert "Traceback" in err and "in broken" in err and "RuntimeError: boom" in err  # the run's own traceback
    assert "IsADirectoryError" not in err  # not the traceback of the failed log write
    assert list((out / "error.log").iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_out_that_cannot_be_created_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys, command):
    path = write_scenario(tmp_path, scenario_doc())
    ran = []
    for module in (cli, scenario_module):  # cmd_run's binding, and the one compare calls
        monkeypatch.setattr(module, "run_scenario", lambda *a, **k: ran.append(a))
    taken = tmp_path / "taken"
    taken.write_text("a file where the output directory should go\n")
    for out in (taken, taken / "sub"):
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot create --out {out}: ") and "Traceback" not in err[0]
    assert ran == [] and taken.read_text() == "a file where the output directory should go\n"
    assert main(["validate", "--scenario", str(path), "--out", str(tmp_path / "never")]) == 0
    assert not (tmp_path / "never").exists()  # validate creates nothing


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_out_that_cannot_be_written_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys, command):
    path = write_scenario(tmp_path, scenario_doc())
    ran = []
    for module in (cli, scenario_module):
        monkeypatch.setattr(module, "run_scenario", lambda *a, **k: ran.append(a))
    out = tmp_path / "out"
    out.mkdir()
    asked = []

    def access(target, mode):  # a read-only directory, whatever user runs the test
        asked.append((target, mode))
        return False

    monkeypatch.setattr(cli.os, "access", access)
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"cannot write to --out {out}"]
    assert ran == [] and asked == [(str(out), cli.os.W_OK | cli.os.X_OK)]


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_a_command_pauses_cycle_collection_and_restores_the_callers_setting(tmp_path, monkeypatch, code, collecting):
    doc = scenario_doc()
    if code == 2:
        doc["dfsio"]["file_size_mb"] = "huge"
    elif code == 3:
        doc["dfs"]["replication_factor"] = 50
    during = []
    real_run_scenario = cli.run_scenario

    def watched(*args, **kwargs):
        during.append(gc.isenabled())
        if code == 4:
            raise RuntimeError("boom")
        return real_run_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", watched)
    path = write_scenario(tmp_path, doc)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == ([] if code == 2 else [False])  # a parse error stops before the run


def test_no_collection_starts_anywhere_inside_a_command(tmp_path):
    path = write_scenario(tmp_path, scenario_doc())
    started = []

    def count(phase, info):  # a pass counts when main is on the stack that started it
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            started.append(info["generation"])

    threshold = gc.get_threshold()
    assert gc.isenabled()
    gc.set_threshold(1)  # with collection on, the first new container object starts a pass
    gc.callbacks.append(count)
    try:
        assert main(["validate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        with pytest.raises(SystemExit):  # argparse's own exit restores collection too
            main(["run", "--no-such-option"])
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert started == [] and gc.isenabled()


# -- the parser's own machinery -----------------------------------------------


def section_builders():
    """Every ``build`` a ``_section`` of the scenario parser calls, found through the checks' closures."""
    builders, seen = [], set()
    todo = [value for value in vars(scenario_module).values() if callable(value)]
    while todo:
        check = todo.pop()
        if id(check) in seen or not getattr(check, "__closure__", None):
            continue
        seen.add(id(check))
        cells = dict(zip(check.__code__.co_freevars, (cell.cell_contents for cell in check.__closure__)))
        if check.__name__ == "section":
            builders.append(cells["build"])
        for value in cells.values():
            todo += value.values() if isinstance(value, dict) else [value]
    return builders


def keyword_only_knobs(a, b=1, *, c, d=2):
    """A builder shape no section has yet: a required keyword-only parameter."""


def test_sections_read_each_builders_parameters_as_inspect_signature_does():
    builders = section_builders()
    assert len(builders) == 14 and reference_cluster in builders and VmSpec in builders
    assert any(getattr(build, "func", None) is VmGroup for build in builders)  # the partial that each group's spec fills
    for build in builders + [keyword_only_knobs]:
        params = inspect.signature(build).parameters
        required = tuple(name for name, param in params.items() if param.default is param.empty)
        assert scenario_module._parameters(build) == (tuple(params), required), build


LOADER_DOCUMENTS = {
    **{path.name: path.read_text() for path in sorted(SCENARIOS.glob("*.yaml"))},
    # perfbench's shape: a wider reference cluster, and all three keys that are checked and then dropped
    "perfbench": yaml.safe_dump(
        scenario_doc(
            topology={"reference": {"n_hosts": 16, "disk_read_bw": 100, "link_bw": 125, "local_persistent_gb": 200}},
            snapshot={"interval_s": 3600, "bandwidth_cap": None, "target": "controller"},
            prices={"instance_per_hour": 0.24, "ebs_standard_per_million_ops": 0.10, "ebs_provisioned_per_iops_month": 0.1},
            volume_size_gb=100,
            op_size_kb=64,
        )
    ),
    # a ``<<`` merge whose keys the mapping then repeats: a merge is not a repeated key
    "merge": (SCENARIOS / "reference.yaml").read_text().replace("  - vcpus: 4\n", "  - <<: {vcpus: 2, ram_gb: 8}\n    vcpus: 4\n"),
}


@pytest.mark.parametrize("name", LOADER_DOCUMENTS)
def test_the_unique_key_loader_builds_what_safe_loader_builds(name):
    text = LOADER_DOCUMENTS[name]
    data = yaml.load(text, Loader=scenario_module._UniqueKeyLoader)
    assert data == yaml.load(text, Loader=yaml.SafeLoader)
    build_state(parse_scenario(data))


STARTUP_PROBE = """
import json
import storagesim
from storagesim.scenario import _UniqueKeyLoader, build_state, load_scenario
build_state(load_scenario("scenarios/reference.yaml"))
print(json.dumps({
    "libyaml": yaml.__with_libyaml__,
    "c_parser": issubclass(_UniqueKeyLoader, getattr(yaml, "CSafeLoader", ())),
    "inspect": "inspect" in sys.modules,
}))
"""


@pytest.mark.parametrize("parser", PARSERS)
def test_start_up_loads_no_inspect_and_parses_with_libyaml_when_pyyaml_has_it(parser):
    done = in_fresh_interpreter(parser, STARTUP_PROBE)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe == {"libyaml": parser == "libyaml", "c_parser": parser == "libyaml", "inspect": False}
