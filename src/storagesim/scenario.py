"""Config-driven experiments: one YAML file describes a full comparison.

A scenario names the topology, the VM fleet, the DFS parameters, the
benchmark shape, the snapshot policy, and the price table, plus a single
seed. Identical scenario + seed means byte-identical traces and reports;
every number in a report can be recomputed from the emitted trace.

Storage configs: ``local`` (DFS on the VM root disk, snapshotted to the
controller during the measured run), ``networked`` (DFS on
controller-served volumes), and ``local_persistent`` (DFS on host
partitions that outlive the VM; no snapshots needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Any, Iterable, Mapping

import yaml

from .bench import MIXED, READ, WRITE, BenchmarkResult, DfsioSpec, TaskStat, run_dfsio
from .cost import (
    EBS_STANDARD,
    EPHEMERAL_LOCAL,
    CostReport,
    PriceTable,
    StorageBilling,
    UsageRecord,
    compute_cost,
    count_io_ops,
    savings,
)
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
    validate_topology,
)
from . import volumes as volumes_mod

SCHEMA_VERSION = 1
STORAGE_CONFIGS = ("local", "networked", "local_persistent")


@dataclass(frozen=True)
class VmGroup:
    spec: VmSpec
    count: int = 1
    policy: str = "spread"


@dataclass
class Scenario:
    seed: int
    topology: ClusterTopology
    vms: list[VmGroup]
    storage_config: str
    dfs: DfsConfig
    dfsio: DfsioSpec
    snapshot: SnapshotPolicy
    prices: PriceTable
    volume_size_gb: float = 100.0
    op_size_kb: float = 64.0


# -- parsing ------------------------------------------------------------------


def _mapping(value: Any, where: str, keys: Iterable[str]) -> dict:
    """``value`` as a dict, rejecting any key outside ``keys``."""
    if not isinstance(value, Mapping):
        raise ScenarioParseError(f"field {where}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ScenarioParseError(f"field {where}.{key}: unknown option")
    return dict(value)


_MISSING = object()


def _get(data: Mapping, key: str, kinds: tuple[type, ...], where: str, default: Any = _MISSING) -> Any:
    if key not in data:
        if default is _MISSING:
            raise ScenarioParseError(f"field {where}.{key}: missing")
        return default
    value = data[key]
    if value is None and default is not _MISSING:
        return default  # a bare `key:` line in YAML means "use the default"
    if bool in kinds and isinstance(value, bool):
        return value
    if isinstance(value, bool) and bool not in kinds:
        raise ScenarioParseError(f"field {where}.{key}: expected {kinds[0].__name__}, got bool")
    if not isinstance(value, kinds):
        raise ScenarioParseError(
            f"field {where}.{key}: expected {'/'.join(k.__name__ for k in kinds)}, got {type(value).__name__}"
        )
    return value


def _num(data: Mapping, key: str, where: str, default: Any = _MISSING) -> float:
    return float(_get(data, key, (int, float), where, default))


def _positive(data: Mapping, key: str, where: str, default: Any = _MISSING) -> float:
    value = _num(data, key, where, default)
    if not value > 0:
        raise ScenarioParseError(f"field {where}.{key}: must be positive, got {value}")
    return value


def _count(data: Mapping, key: str, where: str, default: Any = _MISSING) -> int:
    value = int(_num(data, key, where, default))
    if value < 1:
        raise ScenarioParseError(f"field {where}.{key}: must be at least 1, got {value}")
    return value


def _parse_disk(data: Mapping, where: str) -> DiskSpec:
    data = _mapping(data, where, ("id", "capacity_gb", "write_bw", "read_bw"))
    return DiskSpec(
        id=str(_get(data, "id", (str,), where)),
        capacity_gb=_num(data, "capacity_gb", where),
        write_bw=_num(data, "write_bw", where),
        read_bw=_num(data, "read_bw", where),
    )


def _parse_link(data: Mapping, where: str) -> NetworkLink:
    data = _mapping(data, where, ("id", "bandwidth", "endpoints", "role", "efficiency"))
    endpoints = _get(data, "endpoints", (list, tuple), where)
    if len(endpoints) != 2:
        raise ScenarioParseError(f"field {where}.endpoints: expected two node ids")
    return NetworkLink(
        id=str(_get(data, "id", (str,), where)),
        bandwidth=_num(data, "bandwidth", where),
        endpoints=(str(endpoints[0]), str(endpoints[1])),
        role=str(_get(data, "role", (str,), where, "management")),
        efficiency=_num(data, "efficiency", where, 1.0),
    )


# The knobs of ``reference_cluster``: the integer ones must be at least 1.
_REFERENCE_KNOBS = {
    "n_hosts": int,
    "disk_capacity_gb": float,
    "disk_read_bw": float,
    "disk_write_bw": float,
    "controller_disk_capacity_gb": float,
    "controller_read_bw": float,
    "controller_write_bw": float,
    "link_bw": float,
    "local_persistent_gb": float,
    "vcpus": int,
    "ram_gb": float,
}


def _parse_topology(data: Mapping) -> ClusterTopology:
    if "reference" in data:
        where = "topology.reference"
        ref = _mapping(_mapping(data, "topology", ("reference",))["reference"], where, _REFERENCE_KNOBS)
        return reference_cluster(
            **{key: _count(ref, key, where) if _REFERENCE_KNOBS[key] is int else _num(ref, key, where) for key in ref}
        )

    data = _mapping(data, "topology", ("hosts", "controller", "links"))
    hosts = []
    for i, h in enumerate(_get(data, "hosts", (list,), "topology")):
        where = f"topology.hosts[{i}]"
        h = _mapping(h, where, ("id", "vcpus", "ram_gb", "disks", "local_persistent_group", "nic_links"))
        hosts.append(
            PhysicalHost(
                id=str(_get(h, "id", (str,), where)),
                vcpus=int(_num(h, "vcpus", where)),
                ram_gb=_num(h, "ram_gb", where),
                disks=tuple(_parse_disk(d, f"{where}.disks[{j}]") for j, d in enumerate(_get(h, "disks", (list,), where))),
                local_persistent_group=tuple(
                    _parse_disk(d, f"{where}.local_persistent_group[{j}]")
                    for j, d in enumerate(_get(h, "local_persistent_group", (list,), where, []))
                ),
                nic_links=tuple(str(x) for x in _get(h, "nic_links", (list,), where, [])),
            )
        )
    c = _mapping(_get(data, "controller", (dict,), "topology"), "topology.controller", ("id", "disks", "nic_links"))
    controller = ControllerNode(
        id=str(_get(c, "id", (str,), "topology.controller", "controller")),
        disks=tuple(
            _parse_disk(d, f"topology.controller.disks[{j}]")
            for j, d in enumerate(_get(c, "disks", (list,), "topology.controller"))
        ),
        nic_links=tuple(str(x) for x in _get(c, "nic_links", (list,), "topology.controller", [])),
    )
    links = tuple(
        _parse_link(l, f"topology.links[{j}]") for j, l in enumerate(_get(data, "links", (list,), "topology", []))
    )
    return ClusterTopology(hosts=tuple(hosts), controller=controller, links=links)


_VM_KEYS = (
    "vcpus", "ram_gb", "root_disk_gb", "ephemeral_gb", "requires_local_persistent", "long_running", "migratable",
    "policy", "count",
)


def _parse_vms(data: Any) -> list[VmGroup]:
    groups = []
    if not isinstance(data, list):
        raise ScenarioParseError("field vms: expected a list of VM groups")
    for i, g in enumerate(data):
        where = f"vms[{i}]"
        g = _mapping(g, where, _VM_KEYS)
        spec = VmSpec(
            vcpus=int(_num(g, "vcpus", where)),
            ram_gb=_num(g, "ram_gb", where),
            root_disk_gb=_num(g, "root_disk_gb", where),
            ephemeral_gb=_num(g, "ephemeral_gb", where, 0.0),
            requires_local_persistent=_get(g, "requires_local_persistent", (bool,), where, False),
            long_running=_get(g, "long_running", (bool,), where, False),
            migratable=_get(g, "migratable", (bool,), where, True),
        )
        policy = str(_get(g, "policy", (str,), where, "spread"))
        if policy not in ("spread", "first_fit"):
            raise ScenarioParseError(f"field {where}.policy: unknown policy {policy!r}")
        groups.append(VmGroup(spec=spec, count=_count(g, "count", where, 1), policy=policy))
    return groups


_ROOT_KEYS = (
    "schema", "seed", "topology", "vms", "storage_config", "dfs", "dfsio", "snapshot", "prices", "volume_size_gb",
    "op_size_kb",
)


def parse_scenario(data: Any) -> Scenario:
    """Build a Scenario from parsed config data (field errors carry paths).

    Every mapping section rejects keys it does not know, so a misspelt
    option is an error rather than a silently ignored line.
    """
    data = _mapping(data, "<root>", _ROOT_KEYS)
    schema = int(_num(data, "schema", "<root>", SCHEMA_VERSION))
    if schema != SCHEMA_VERSION:
        raise ScenarioParseError(f"field schema: unsupported version {schema} (expected {SCHEMA_VERSION})")

    storage_config = str(_get(data, "storage_config", (str,), "<root>", "local"))
    if storage_config not in STORAGE_CONFIGS:
        raise ScenarioParseError(f"field storage_config: {storage_config!r} not in {STORAGE_CONFIGS}")

    dfs_data = _mapping(
        _get(data, "dfs", (dict,), "<root>", {}), "dfs", ("block_size_mb", "replication_factor", "seed")
    )
    dfs_config = DfsConfig(
        block_size_mb=_positive(dfs_data, "block_size_mb", "dfs", 64.0),
        replication_factor=_count(dfs_data, "replication_factor", "dfs", 3),
        seed=int(_num(dfs_data, "seed", "dfs", 0)),
    )

    io_data = _mapping(
        _get(data, "dfsio", (dict,), "<root>"),
        "dfsio",
        ("n_files", "file_size_mb", "mode", "map_capacity", "slots_per_vm", "read_fraction"),
    )
    mode = str(_get(io_data, "mode", (str,), "dfsio", WRITE))
    if mode not in (WRITE, READ, MIXED):
        raise ScenarioParseError(f"field dfsio.mode: unknown mode {mode!r}")
    read_fraction = _num(io_data, "read_fraction", "dfsio", 0.5)
    if not 0.0 <= read_fraction <= 1.0:
        raise ScenarioParseError(f"field dfsio.read_fraction: must be in [0, 1], got {read_fraction}")
    dfsio = DfsioSpec(
        n_files=_count(io_data, "n_files", "dfsio"),
        file_size_mb=_positive(io_data, "file_size_mb", "dfsio"),
        mode=mode,
        map_capacity=_count(io_data, "map_capacity", "dfsio", 25),
        slots_per_vm=_count(io_data, "slots_per_vm", "dfsio", 5),
        read_fraction=read_fraction,
    )

    snap_data = _mapping(
        _get(data, "snapshot", (dict,), "<root>", {}), "snapshot", ("interval_s", "bandwidth_cap", "target")
    )
    cap = snap_data.get("bandwidth_cap")
    snapshot_policy = SnapshotPolicy(
        interval_s=_positive(snap_data, "interval_s", "snapshot", 3600.0),
        bandwidth_cap=None if cap is None else _positive(snap_data, "bandwidth_cap", "snapshot"),
    )
    target = _get(snap_data, "target", (str,), "snapshot", "controller")
    if target != "controller":
        raise ScenarioParseError(f"field snapshot.target: only 'controller' is supported, got {target!r}")

    price_data = _mapping(
        _get(data, "prices", (dict,), "<root>", {}),
        "prices",
        ("instance_per_hour", "ebs_standard_per_million_ops", "ebs_provisioned_per_iops_month"),
    )
    prices = PriceTable(
        instance_per_hour=_num(price_data, "instance_per_hour", "prices", 0.24),
        ebs_standard_per_million_ops=_num(price_data, "ebs_standard_per_million_ops", "prices", 0.10),
        ebs_provisioned_per_iops_month=_num(price_data, "ebs_provisioned_per_iops_month", "prices", 0.10),
    )

    return Scenario(
        seed=int(_num(data, "seed", "<root>", 0)),
        topology=_parse_topology(_get(data, "topology", (dict,), "<root>")),
        vms=_parse_vms(_get(data, "vms", (list,), "<root>")),
        storage_config=storage_config,
        dfs=dfs_config,
        dfsio=dfsio,
        snapshot=snapshot_policy,
        prices=prices,
        volume_size_gb=_positive(data, "volume_size_gb", "<root>", 100.0),
        op_size_kb=_positive(data, "op_size_kb", "<root>", 64.0),
    )


def load_scenario(path) -> Scenario:
    """Parse a scenario file; YAML syntax errors keep their line marks."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
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
        state = ClusterState.from_topology(validate_topology(scenario.topology))
    except TopologyValidationError as e:
        raise ScenarioValidationError(f"topology invalid: {e}") from e

    vm_ids = []
    try:
        for group in scenario.vms:
            spec = group.spec
            if cfg == "local_persistent":
                spec = replace(spec, requires_local_persistent=True)
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


@dataclass
class ScenarioRun:
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
    prep_traces: list[SimTrace] = field(default_factory=list)

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


def run_scenario(scenario: Scenario, storage_config: str | None = None, seed: int | None = None) -> ScenarioRun:
    """Run the benchmark under one storage config, snapshots included.

    Read and mixed modes get the conventional preparatory write pass so
    the files exist; it is not snapshotted. Under the ``local`` config the
    measured run takes its snapshots as it goes, in the same single
    simulation, so their transfers' contention is visible in the metrics.

    Only the measured run is billed: ``io_ops`` and the instance-hours
    count its trace and its ``finished_at``, never the prep pass, because
    the benchmark prices the workload it measures, not the set-up of its
    input files.
    """
    cfg = storage_config or scenario.storage_config
    run_seed = scenario.seed if seed is None else seed
    state, hdfs_volumes = build_state(scenario, cfg)

    prep_traces = []
    prep_files = None
    if scenario.dfsio.mode in (READ, MIXED):
        prep = run_dfsio(
            state,
            replace(scenario.dfsio, mode=WRITE),
            hdfs_volumes,
            dfs_config=scenario.dfs,
            seed=run_seed,
        )
        state = prep.state
        prep_files = prep.files
        prep_traces.append(prep.trace)

    run = run_dfsio(
        state,
        scenario.dfsio,
        hdfs_volumes,
        dfs_config=scenario.dfs,
        seed=run_seed,
        files=prep_files,
        snapshots=scenario.snapshot if cfg == "local" else None,
    )

    io_ops = count_io_ops(run.trace, scenario.op_size_kb)
    billing = StorageBilling(EBS_STANDARD if cfg == "networked" else EPHEMERAL_LOCAL)
    hours_each = math.ceil(run.result.finished_at / 3600.0)
    usage = UsageRecord(instance_hours=len(hdfs_volumes) * hours_each, io_ops=io_ops, storage=billing)
    cost_report = replace(compute_cost(usage, scenario.prices), config=cfg)

    return ScenarioRun(
        config=cfg,
        seed=run_seed,
        result=run.result,
        stats=run.stats,
        trace=run.trace,
        snapshot_records=run.snapshot_records,
        cost=cost_report,
        io_ops=io_ops,
        network_mb=network_bytes(run.trace),
        prep_traces=prep_traces,
    )


@dataclass
class ComparisonReport:
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


def compare(scenario: Scenario, configs: list[str], seed: int | None = None) -> ComparisonReport:
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
        runs[label] = run_scenario(scenario, storage_config=cfg, seed=seed)
    return ComparisonReport(seed=next(iter(runs.values())).seed, runs=runs)


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
