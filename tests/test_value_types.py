"""The package's record types: immutable NamedTuples and slotted mutable records.

Neither form generates code when its class is created, and together they let
``import storagesim`` load neither ``dataclasses`` nor ``fractions``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from helpers import FlowSpec, dfs_cluster
from storagesim import bench, cost, dfs, placement, scenario, simengine, snapshot, topology, volumes
from storagesim.cli import main
from storagesim.errors import NoCandidateHostError

ROOT = Path(__file__).resolve().parent.parent

# Every NamedTuple of the package: its fields in order, and the defaults of those that have one.
NAMED_TUPLES = {
    topology.DiskSpec: ("id capacity_gb write_bw read_bw", {}),
    topology.NetworkLink: ("id bandwidth endpoints role", {"role": topology.ROLE_MANAGEMENT}),
    topology.PhysicalHost: ("id vcpus ram_gb disks local_persistent_group", {"local_persistent_group": ()}),
    topology.ControllerNode: ("disks id", {"id": topology.CONTROLLER_ID}),
    topology.ClusterTopology: ("hosts controller links", {"links": ()}),
    topology.TopologyIssue: ("code message", {}),
    placement.VmSpec: (
        "vcpus ram_gb root_disk_gb ephemeral_gb requires_local_persistent migratable",
        {"ephemeral_gb": 0.0, "requires_local_persistent": False, "migratable": True},
    ),
    dfs.DfsConfig: (
        "block_size_mb replication_factor seed",
        {"block_size_mb": 64.0, "replication_factor": 3, "seed": 0},
    ),
    dfs.BlockReplicaSet: ("replicas bytes_mb", {}),
    dfs.DfsFile: ("blocks", {}),
    simengine.Resource: ("id read_capacity write_capacity", {}),
    simengine.TraceViolation: ("code time message", {}),
    snapshot.SnapshotPolicy: ("interval_s bandwidth_cap", {"interval_s": 3600.0, "bandwidth_cap": None}),
    snapshot.SnapshotRecord: ("volume_id taken_at bytes_copied", {}),
    bench.DfsioSpec: (
        "n_files file_size_mb mode map_capacity slots_per_vm read_fraction",
        {"mode": bench.WRITE, "map_capacity": 25, "slots_per_vm": 5, "read_fraction": 0.5},
    ),
    bench.TaskStat: ("task_index file_size_mb elapsed_s rate", {}),
    bench.BenchmarkResult: (
        "mode finished_at n_files total_mb throughput_mbps avg_io_rate_mbps stddev_io_rate_mbps",
        {},
    ),
    bench.DfsioRun: ("result trace stats files snapshot_records", {}),
    cost.PriceTable: (
        "instance_per_hour ebs_standard_per_million_ops",
        {"instance_per_hour": 0.24, "ebs_standard_per_million_ops": 0.10},
    ),
    cost.CostReport: ("instance_cost storage_cost", {}),
    scenario.VmGroup: ("spec count policy", {"count": 1, "policy": "spread"}),
    scenario.Scenario: (
        "topology vms dfsio seed storage_config dfs snapshot prices volume_size_gb op_size_kb",
        {
            "seed": 0,
            "storage_config": "local",
            "dfs": dfs.DfsConfig(),
            "snapshot": snapshot.SnapshotPolicy(),
            "prices": cost.PriceTable(),
            "volume_size_gb": 100.0,
            "op_size_kb": cost.DEFAULT_OP_SIZE_KB,
        },
    ),
    scenario.ScenarioRun: ("config seed result stats trace snapshot_records cost io_ops network_mb prep_traces", {}),
    scenario.ComparisonReport: ("seed runs", {}),
}

SLOTTED = (
    simengine.FlowRecord,
    simengine.SimTrace,
    bench._Task,
    placement.VmInstance,
    placement.ClusterState,
    volumes.Volume,
)

MODULES = (bench, cost, dfs, placement, scenario, simengine, snapshot, topology, volumes)


def test_the_table_names_every_named_tuple_of_the_package():
    found = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and issubclass(obj, tuple)
    }
    assert found == set(NAMED_TUPLES) | {volumes.ResourcePath}


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_named_tuples_keep_their_fields_and_defaults_and_refuse_assignment(cls):
    fields, defaults = NAMED_TUPLES[cls]
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults
    value = cls(*range(len(cls._fields) - len(defaults)))
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], None)
    assert not hasattr(value, "__dict__")


def test_named_tuple_methods():
    stat = bench.TaskStat(task_index=1, file_size_mb=100.0, elapsed_s=4.0, rate=25.0)
    assert stat == bench.TaskStat(1, 100.0, 4.0, 25.0)
    b0 = dfs.BlockReplicaSet((("vm003", "h03"), ("vm001", "h01"), ("vm002", "h01")), 64.0)
    b1 = dfs.BlockReplicaSet((("vm003", "h03"), ("vm004", "h04")), 8.0)
    assert b0.vms() == ("vm003", "vm001", "vm002")  # writer first
    f = dfs.DfsFile((b0, b1))
    assert f.holders() == ("vm001", "vm002", "vm003", "vm004")  # sorted, each once
    assert f.blocks[1].bytes_mb == 8.0


def test_flows_added_without_tags_share_one_read_only_empty_mapping():
    path = volumes.ResourcePath(("d1",), "write")
    sim = simengine.Simulation({"d1": simengine.Resource("d1", 100.0, 100.0)})
    sim.add_flow("f", path, 10.0)
    sim.add_flow("g", path, 1.0)
    sim.add_flow("h", path, 1.0, {"stage": "read"})
    flows = sim.run().flows
    default = flows["f"].tags
    assert dict(default) == {} and flows["g"].tags is default  # one shared default
    with pytest.raises(TypeError):
        default["stage"] = "primary"  # read-only, so no flow writes into another's labels
    assert flows["h"].tags == {"stage": "read"}
    # the tests' workload tuple takes the same default
    assert FlowSpec._fields == ("flow_id", "path", "size_mb", "tags")
    assert FlowSpec._field_defaults == {"tags": {}} and FlowSpec("f", path, 10.0).tags is default


def test_resource_path_drops_repeated_hops_and_stays_hashable():
    path = volumes.ResourcePath(["link:a", "disk:h:d", "link:a", "link:b", "disk:h:d"], "write")
    assert path.resources == ("link:a", "disk:h:d", "link:b")  # each hop once, at its first position
    again = volumes.ResourcePath(("link:a", "disk:h:d", "link:b"), "write")
    assert path == again and hash(path) == hash(again) and path is not again
    assert path != volumes.ResourcePath(path.resources, "read")
    with pytest.raises(ValueError, match="empty resource path"):
        volumes.ResourcePath((), "read")
    with pytest.raises(AttributeError):
        path.resources = ("link:a",)
    # _make and _replace (which calls _make) build through the constructor and its checks
    with pytest.raises(ValueError, match="empty resource path"):
        path._replace(resources=())
    with pytest.raises(ValueError, match="empty resource path"):
        volumes.ResourcePath._make([(), "read"])
    assert path._replace(resources=("link:a", "link:a")).resources == ("link:a",)
    assert volumes.ResourcePath._make([("b", "b"), "write"]) == volumes.ResourcePath(("b",), "write")
    assert type(path._replace(direction="read")) is volumes.ResourcePath
    assert not hasattr(path, "__dict__")


def test_slotted_records_have_no_instance_dict_and_fresh_mutable_defaults():
    path = volumes.ResourcePath(("d1",), "write")
    records = [
        simengine.FlowRecord("f", path, 1.0, None, {}),
        simengine.SimTrace(),
        bench._Task(0, "vm001", None),
        placement.VmInstance("vm001", "h01", placement.VmSpec(1, 1.0, 10.0)),
        placement.ClusterState(topology.reference_cluster(1)),
        volumes.Volume("vol001", volumes.ROOT, 10.0, ("h01", "disk1")),
    ]
    assert [type(r) for r in records] == list(SLOTTED)
    assert not any(hasattr(r, "__dict__") for r in records)
    assert simengine.SimTrace().events is not simengine.SimTrace().events
    task = bench._Task(1, "vm001", None)
    assert (task.outstanding, task.task_id) == (0, "t0001")  # a count, and the prefix of its flows' ids
    assert not [s for s in bench._Task.__slots__ if isinstance(getattr(task, s), (list, set, dict))]
    vm = placement.VmInstance("vm001", "h01", placement.VmSpec(1, 1.0, 10.0))
    assert vm == vm.copy() and vm.copy() is not vm
    assert "volumes" not in placement.VmInstance.__slots__  # a VM's volumes are those attached to it
    changed = vm.copy()
    changed.state = "terminated"
    assert vm != changed


def test_spec_messages_print_the_spec(tmp_path, capsys):
    too_big = placement.VmSpec(vcpus=64, ram_gb=8.0, root_disk_gb=32.0)
    with pytest.raises(NoCandidateHostError) as e:
        placement.place_vm(placement.ClusterState.from_topology(topology.reference_cluster(2)), too_big)
    assert str(e.value) == (
        "no host fits spec VmSpec(vcpus=64, ram_gb=8.0, root_disk_gb=32.0, ephemeral_gb=0.0,"
        " requires_local_persistent=False, migratable=True)"
    )
    doc = {
        "schema": 1,
        "topology": {"reference": {"n_hosts": 2}},
        "vms": [{"vcpus": 64, "ram_gb": 8, "root_disk_gb": 32}],
        "dfsio": {"n_files": 1, "file_size_mb": 64},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["validate", "--scenario", str(path)]) == 3
    assert capsys.readouterr().err == f"validation error: cannot place VMs: {e.value}\n"

    state, hdfs = dfs_cluster(n_hosts=2)
    with pytest.raises(ValueError) as e:
        bench.run_dfsio(state, bench.DfsioSpec(n_files=0, file_size_mb=64.0), hdfs)
    assert str(e.value) == (
        "invalid benchmark spec DfsioSpec(n_files=0, file_size_mb=64.0, mode='write', map_capacity=25,"
        " slots_per_vm=5, read_fraction=0.5)"
    )


# Run in a fresh interpreter, so no test's imports are counted.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import storagesim
print(json.dumps({
    "new_modules": sorted(set(sys.modules) - before),
    "dataclasses": sorted(
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "storagesim" or name.startswith("storagesim.")
        for attr, obj in vars(module).items()
        if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")
    ),
}))
"""


def test_import_loads_neither_dataclasses_nor_fractions():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert "storagesim.scenario" in probe["new_modules"]  # the package loaded every module but the CLI
    assert not {"dataclasses", "fractions"} & set(probe["new_modules"])
    assert probe["dataclasses"] == []
