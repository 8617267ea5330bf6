"""Config-driven experiments: one YAML file describes a full comparison.

A scenario names the topology, the VM fleet, the DFS parameters, the
benchmark shape, the snapshot policy, and the price table, plus a single
seed. Identical scenario + seed means byte-identical traces and reports;
every number in a report can be recomputed from the emitted trace.

Storage configs: ``local`` (DFS on the VM root disk, snapshotted to the
controller during the measured run), ``networked`` (DFS on
controller-served volumes), and ``local_persistent`` (DFS on host
partitions that outlive the VM; no snapshots needed).

Parsing is one check table per section, and every default lives on the
config type a section builds (``Scenario``, ``DfsConfig``, ``VmSpec``, the
``reference_cluster`` knobs), so an absent key or a bare ``key:`` line takes
that default. Unknown keys, wrong types, non-finite numbers and
out-of-range values are parse errors that name the field path. A key
repeated within one mapping is a parse error that names the key and its
line, where ``yaml.safe_load`` would keep the last value.
"""

from __future__ import annotations

import inspect
import math
import sys
from functools import partial
from itertools import combinations
from typing import Any, Callable, Mapping, NamedTuple, NoReturn

import yaml

from .bench import MIXED, READ, WRITE, BenchmarkResult, DfsioSpec, TaskStat, place_input_files, run_dfsio
from .cost import DEFAULT_OP_SIZE_KB, CostReport, PriceTable, compute_cost, count_io_ops, savings
from .dfs import DfsConfig
from .errors import ScenarioParseError, ScenarioValidationError, SimError, TopologyValidationError
from .placement import ClusterState, VmSpec, place_vm
from .simengine import SimTrace
from .snapshot import SnapshotPolicy, SnapshotRecord, network_bytes
from .topology import (
    ClusterTopology,
    ControllerNode,
    DiskSpec,
    NetworkLink,
    PhysicalHost,
    reference_cluster,
)
from . import volumes as volumes_mod

SCHEMA_VERSION = 1
STORAGE_CONFIGS = ("local", "networked", "local_persistent")

Check = Callable[[Any, str], Any]


class VmGroup(NamedTuple):
    spec: VmSpec
    count: int = 1
    policy: str = "spread"


class Scenario(NamedTuple):
    topology: ClusterTopology
    vms: list[VmGroup]
    dfsio: DfsioSpec
    seed: int = 0
    storage_config: str = "local"
    dfs: DfsConfig = DfsConfig()
    snapshot: SnapshotPolicy = SnapshotPolicy()
    prices: PriceTable = PriceTable()
    volume_size_gb: float = 100.0
    op_size_kb: float = DEFAULT_OP_SIZE_KB


# -- parsing ------------------------------------------------------------------
#
# A check is ``(value, field_path) -> parsed value``; it raises
# ScenarioParseError naming the path.


def _fail(path: str, message: str) -> NoReturn:
    raise ScenarioParseError(f"field {path or '<root>'}: {message}")


def _is(*kinds: type) -> Check:
    def check(value: Any, path: str) -> Any:
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            _fail(path, f"expected {'/'.join(k.__name__ for k in kinds)}, got {type(value).__name__}")
        return value

    return check


_str = _is(str)
_bool = _is(bool)
_mapping = _is(Mapping)
_number = _is(int, float)


def _text(value: Any, path: str) -> str:
    """A link name: a string, or an int taken as its decimal text (YAML reads ``nic_links: [1]`` as an int)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return _str(value, path)


def _num(value: Any, path: str) -> float:
    value = _number(value, path)
    if not abs(value) <= sys.float_info.max:  # NaN, the infinities, and ints too large for a float
        _fail(path, f"must be finite, got {value}")
    return float(value) + 0.0  # -0.0 + 0.0 is 0.0, so no output prints a negative zero; every other float is kept


def _num_where(holds: Callable[[float], bool], text: str) -> Check:
    def check(value: Any, path: str) -> float:
        value = _num(value, path)
        if not holds(value):
            _fail(path, f"must be {text}, got {value}")
        return value

    return check


_positive = _num_where(lambda x: x > 0, "positive")
_nonnegative = _num_where(lambda x: x >= 0, "non-negative")
_fraction = _num_where(lambda x: 0 <= x <= 1, "in [0, 1]")


def _int(value: Any, path: str) -> int:
    value = _number(value, path)
    if isinstance(value, float) and not value.is_integer():
        _fail(path, f"must be an integer, got {value}")
    return int(value)


def _count(value: Any, path: str) -> int:
    value = _int(value, path)
    if value < 1:
        _fail(path, f"must be at least 1, got {value}")
    return value


def _one_of(check: Check, *choices: Any) -> Check:
    def one_of(value: Any, path: str) -> Any:
        value = check(value, path)
        if value not in choices:
            _fail(path, f"must be one of {choices}, got {value!r}")
        return value

    return one_of


def _list_of(check: Check, into: type = tuple) -> Check:
    def list_of(value: Any, path: str):
        if not isinstance(value, (list, tuple)):
            _fail(path, f"expected a list, got {type(value).__name__}")
        return into(check(item, f"{path}[{i}]") for i, item in enumerate(value))

    return list_of


def _section(build: Callable, **checks: Check) -> Check:
    """A mapping check that calls ``build`` with the fields present.

    A key outside ``checks`` is an error, so a misspelt option is never
    silently ignored. An absent key, or a bare ``key:`` line, takes
    ``build``'s own default; a parameter without one is reported missing.
    A key that ``build`` has no parameter for is checked and dropped.
    """
    params = inspect.signature(build).parameters

    def section(value: Any, path: str):
        fields = {}
        for key, item in _mapping(value, path).items():
            where = f"{path}.{key}" if path else key
            if key not in checks:
                _fail(where, "unknown option")
            if item is not None:
                fields[key] = checks[key](item, where)
        for name, param in params.items():
            if param.default is param.empty and name not in fields:
                _fail(f"{path}.{name}" if path else name, "missing")
        return build(**{key: fields[key] for key in fields if key in params})

    return section


_names = _list_of(_text)


def _endpoints(value: Any, path: str) -> tuple[str, str]:
    endpoints = _names(value, path)
    if len(endpoints) != 2:
        _fail(path, "expected two node ids")
    return endpoints


_disks = _list_of(_section(DiskSpec, id=_str, capacity_gb=_num, write_bw=_num, read_bw=_num))

_explicit_topology = _section(
    ClusterTopology,
    hosts=_list_of(
        _section(
            PhysicalHost,
            id=_str,
            vcpus=_int,
            ram_gb=_num,
            disks=_disks,
            local_persistent_group=_disks,
            nic_links=_names,
        )
    ),
    controller=_section(ControllerNode, id=_str, disks=_disks, nic_links=_names),
    links=_list_of(
        _section(NetworkLink, id=_str, bandwidth=_num, endpoints=_endpoints, role=_str)
    ),
)

_reference_topology = _section(
    lambda reference: reference,
    reference=_section(
        reference_cluster,
        n_hosts=_count,
        disk_capacity_gb=_num,
        disk_read_bw=_num,
        disk_write_bw=_num,
        controller_disk_capacity_gb=_num,
        controller_read_bw=_num,
        controller_write_bw=_num,
        link_bw=_num,
        local_persistent_gb=_num,
        vcpus=_count,
        ram_gb=_num,
    ),
)


def _topology(value: Any, path: str) -> ClusterTopology:
    """``reference:`` with ``reference_cluster`` knobs, or explicit hosts, controller and links."""
    if isinstance(value, Mapping) and "reference" in value:
        return _reference_topology(value, path)
    return _explicit_topology(value, path)


_vm_spec = _section(
    VmSpec,
    vcpus=_count,
    ram_gb=_positive,
    root_disk_gb=_positive,
    ephemeral_gb=_nonnegative,
    requires_local_persistent=_bool,
    long_running=_bool,  # accepted and ignored
    migratable=_bool,
)
_VM_GROUP_CHECKS = {"count": _count, "policy": _one_of(_str, "spread", "first_fit")}


def _vm_group(value: Any, path: str) -> VmGroup:
    """One mapping holds the ``VmSpec`` fields beside the group's ``count`` and ``policy``."""
    data = _mapping(value, path)
    spec = _vm_spec({k: v for k, v in data.items() if k not in _VM_GROUP_CHECKS}, path)
    group = _section(partial(VmGroup, spec), **_VM_GROUP_CHECKS)
    return group({k: v for k, v in data.items() if k in _VM_GROUP_CHECKS}, path)


_scenario = _section(
    Scenario,
    schema=_one_of(_int, SCHEMA_VERSION),
    seed=_int,
    topology=_topology,
    vms=_list_of(_vm_group, into=list),
    storage_config=_one_of(_str, *STORAGE_CONFIGS),
    dfs=_section(DfsConfig, block_size_mb=_positive, replication_factor=_count, seed=_int),
    dfsio=_section(
        DfsioSpec,
        n_files=_count,
        file_size_mb=_positive,
        mode=_one_of(_str, WRITE, READ, MIXED),
        map_capacity=_count,
        slots_per_vm=_count,
        read_fraction=_fraction,
    ),
    snapshot=_section(
        SnapshotPolicy,
        interval_s=_positive,
        bandwidth_cap=_positive,
        target=_one_of(_str, "controller"),  # accepted and ignored
    ),
    prices=_section(
        PriceTable,
        instance_per_hour=_nonnegative,
        ebs_standard_per_million_ops=_nonnegative,
        ebs_provisioned_per_iops_month=_nonnegative,  # accepted and ignored
    ),
    volume_size_gb=_positive,
    op_size_kb=_positive,
)


def parse_scenario(data: Any) -> Scenario:
    """Build a Scenario from parsed config data (field errors carry paths)."""
    return _scenario(data, "")


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader``, but a key repeated within one mapping is an error, not a silent overwrite."""


def _construct_unique_key_map(loader: _UniqueKeyLoader, node: yaml.MappingNode):
    """``SafeLoader``'s mapping constructor, after a check that no key of ``node`` repeats."""
    seen = []  # a list, so an unhashable key is left for the base constructor to reject
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue  # ``<<`` merges are flattened by the base constructor
        key = loader.construct_object(key_node)
        if key in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping", node.start_mark, f"found duplicate key {key!r}", key_node.start_mark
            )
        seen.append(key)
    return (yield from loader.construct_yaml_map(node))


_UniqueKeyLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_unique_key_map)


def load_scenario(path) -> Scenario:
    """Parse a scenario file; YAML syntax errors and repeated keys keep their line marks."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as e:
        raise ScenarioParseError(f"cannot parse {path}: {e}") from e
    except OSError as e:
        raise ScenarioParseError(f"cannot read {path}: {e}") from e
    return parse_scenario(data)


# -- execution ----------------------------------------------------------------


def build_state(scenario: Scenario, storage_config: str | None = None) -> tuple[ClusterState, dict[str, str]]:
    """Validate topology, place the fleet, attach DFS volumes per config.

    Returns the ready state and the vm id -> DFS volume id binding.
    Raises ScenarioValidationError on anything inconsistent.
    """
    cfg = storage_config or scenario.storage_config
    if cfg not in STORAGE_CONFIGS:
        raise ScenarioValidationError(f"unknown storage_config {cfg!r}")
    try:
        state = ClusterState.from_topology(scenario.topology)
    except TopologyValidationError as e:
        raise ScenarioValidationError(f"topology invalid: {e}") from e

    vm_ids = []
    try:
        for group in scenario.vms:
            spec = group.spec
            if cfg == "local_persistent":
                spec = spec._replace(requires_local_persistent=True)
            for _ in range(group.count):
                state, vm = place_vm(state, spec, policy=group.policy)
                vm_ids.append(vm.id)
    except SimError as e:
        raise ScenarioValidationError(f"cannot place VMs: {e}") from e
    if not vm_ids:
        raise ScenarioValidationError("scenario places no VMs")

    hdfs_volumes: dict[str, str] = {}
    try:
        for vm_id in vm_ids:
            if cfg == "local":
                vm = state.instances[vm_id]
                root = next(v for v in vm.volumes if state.volumes[v].kind == volumes_mod.ROOT)
                hdfs_volumes[vm_id] = root
            else:
                kind = volumes_mod.NETWORKED if cfg == "networked" else volumes_mod.LOCAL_PERSISTENT
                state, vol = volumes_mod.attach_volume(state, vm_id, kind, scenario.volume_size_gb)
                hdfs_volumes[vm_id] = vol.id
    except SimError as e:
        raise ScenarioValidationError(f"cannot attach {cfg} volumes: {e}") from e

    if scenario.dfs.replication_factor > len(vm_ids):
        raise ScenarioValidationError(
            f"insufficient-vms: replication factor {scenario.dfs.replication_factor} > {len(vm_ids)} VMs"
        )
    return state, hdfs_volumes


class ScenarioRun(NamedTuple):
    """Everything one storage config produced for one scenario."""

    config: str
    seed: int
    result: BenchmarkResult
    stats: list[TaskStat]
    trace: SimTrace
    snapshot_records: list[SnapshotRecord]
    cost: CostReport
    io_ops: int
    network_mb: float
    # Always empty: a read or mixed run places its input files without simulating a write pass.
    # Kept only because the benchmark harness's run check still reads it; package code never does.
    prep_traces: list[SimTrace]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "result": self.result.to_dict(),
            "snapshots": [
                {
                    "volume_id": r.volume_id,
                    "taken_at_s": r.taken_at,
                    "bytes_copied_mb": r.bytes_copied,
                }
                for r in self.snapshot_records
            ],
            "cost": self.cost.to_dict(),
            "io_ops": self.io_ops,
            "network_mb": self.network_mb,
        }


def run_scenario(scenario: Scenario, storage_config: str | None = None) -> ScenarioRun:
    """Run the benchmark under one storage config, snapshots included: one simulation.

    Read and mixed modes read input files that already exist, as TestDFSIO
    ``-read`` does: ``place_input_files`` places them as a write pass
    dispatched in task order would, and nothing simulates that pass. Under
    the ``local`` config the run takes its snapshots as it goes, in the
    same simulation, so their transfers' contention is visible in the
    metrics.

    Only the measured run is billed: ``io_ops`` and the instance-hours
    count its trace and its ``finished_at``, because the benchmark prices
    the workload it measures, not the set-up of its input files.
    """
    cfg = storage_config or scenario.storage_config
    state, hdfs_volumes = build_state(scenario, cfg)

    files = None
    if scenario.dfsio.mode in (READ, MIXED):
        files = place_input_files(state, scenario.dfsio, hdfs_volumes, scenario.dfs)

    run = run_dfsio(
        state,
        scenario.dfsio,
        hdfs_volumes,
        dfs_config=scenario.dfs,
        seed=scenario.seed,
        files=files,
        snapshots=scenario.snapshot if cfg == "local" else None,
    )

    io_ops = count_io_ops(run.trace, scenario.op_size_kb)
    hours_each = math.ceil(run.result.finished_at / 3600.0)

    return ScenarioRun(
        config=cfg,
        seed=scenario.seed,
        result=run.result,
        stats=run.stats,
        trace=run.trace,
        snapshot_records=run.snapshot_records,
        cost=compute_cost(len(hdfs_volumes) * hours_each, io_ops, scenario.prices),
        io_ops=io_ops,
        network_mb=network_bytes(run.trace),
        prep_traces=[],
    )


class ComparisonReport(NamedTuple):
    """Identical workload + seed across storage configs, side by side."""

    seed: int
    runs: dict[str, ScenarioRun]

    def pairs(self) -> list[dict]:
        out = []
        for a, b in combinations(self.runs, 2):
            ra, rb = self.runs[a], self.runs[b]
            out.append(
                {
                    "a": a,
                    "b": b,
                    "throughput_ratio": ra.result.throughput_mbps / rb.result.throughput_mbps,
                    "savings_of_a_vs_b": savings(ra.cost, rb.cost) if rb.cost.total > 0 else 0.0,
                }
            )
        return out

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "configs": {name: run.to_dict() for name, run in self.runs.items()},
            "pairs": self.pairs(),
        }


def compare(scenario: Scenario, configs: list[str]) -> ComparisonReport:
    """Run the identical workload and seed under each storage config.

    Repeating a config is allowed (labels get a #n suffix); identical
    entries then show a throughput ratio of exactly 1.
    """
    if len(configs) < 2:
        raise ScenarioValidationError("compare needs at least two storage configs")
    runs = {}
    for cfg in configs:
        label, n = cfg, 1
        while label in runs:
            n += 1
            label = f"{cfg}#{n}"
        runs[label] = run_scenario(scenario, storage_config=cfg)
    return ComparisonReport(seed=scenario.seed, runs=runs)


def render_comparison_table(report: ComparisonReport) -> str:
    """Human-readable rendering of a comparison (derived from the data)."""
    lines = []
    header = f"{'config':<18} {'throughput MB/s':>16} {'avg rate MB/s':>14} {'exec s':>10} {'net MB':>12} {'cost $':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, run in report.runs.items():
        lines.append(
            f"{name:<18} {run.result.throughput_mbps:>16.3f} {run.result.avg_io_rate_mbps:>14.3f}"
            f" {run.result.finished_at:>10.2f} {run.network_mb:>12.1f} {run.cost.total:>10.4f}"
        )
    for pair in report.pairs():
        lines.append(
            f"{pair['a']}/{pair['b']}: throughput ratio {pair['throughput_ratio']:.3f}, "
            f"cost savings {pair['savings_of_a_vs_b'] * 100:.1f}%"
        )
    return "\n".join(lines)
