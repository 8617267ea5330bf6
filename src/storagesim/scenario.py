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

import math
import sys
from collections.abc import Hashable
from functools import partial
from itertools import combinations
from typing import Any, Callable, Mapping, NamedTuple, NoReturn, Sequence

import yaml

from .bench import MAX_BLOCKS_PER_RUN, MIXED, READ, WRITE, BenchmarkResult, DfsioSpec, TaskStats, run_dfsio
from .cost import DEFAULT_OP_SIZE_KB, KB_PER_MB, CostReport, PriceTable, compute_cost, count_io_ops, savings
from .dfs import MAX_BLOCKS_PER_FILE, DfsConfig
from .errors import ScenarioParseError, ScenarioValidationError, SimError, TopologyValidationError
from .placement import ClusterState, VmSpec, place_vm
from .simengine import COMPLETION_EPS, SimTrace, TraceReader
from .snapshot import SnapshotPolicy, SnapshotRecord, network_bytes
from .topology import (
    MAX_REFERENCE_HOSTS,
    ROLE_MANAGEMENT,
    ROLE_PUBLIC,
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
    """A link endpoint: a string, or an int taken as its decimal text (YAML reads ``[1, h1]``'s 1 as an int)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return _str(value, path)


def _num(value: Any, path: str) -> float:
    value = _number(value, path)
    if not abs(value) <= sys.float_info.max:  # NaN, the infinities, and ints too large for a float
        _fail(path, f"must be finite, got {value}")
    return float(value) + 0.0  # -0.0 + 0.0 is 0.0, so no output prints a negative zero; every other float is kept


def _where(check: Check, holds: Callable[[Any], bool], text: str) -> Check:
    def where(value: Any, path: str) -> Any:
        value = check(value, path)
        if not holds(value):
            _fail(path, f"must be {text}, got {value}")
        return value

    return where


_positive = _where(_num, lambda x: x > 0, "positive")
_nonnegative = _where(_num, lambda x: x >= 0, "non-negative")
_fraction = _where(_num, lambda x: 0 <= x <= 1, "in [0, 1]")


def _int(value: Any, path: str) -> int:
    value = _number(value, path)
    if isinstance(value, float) and not value.is_integer():
        _fail(path, f"must be an integer, got {value}")
    return int(value)


_count = _where(_int, lambda x: x >= 1, "at least 1")


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


def _parameters(build: Callable) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names ``build`` takes by keyword, and those of them without a default, in order.

    Read from the code object, as ``inspect.signature`` reads them: a
    function's, or the ``__new__`` past ``cls`` of a class (a NamedTuple
    generates one). A ``partial``'s positional arguments bind the leading
    parameters.
    """
    bound = 0
    if isinstance(build, partial):
        build, bound = build.func, len(build.args)
    if isinstance(build, type):
        build, bound = build.__new__, bound + 1
    code = build.__code__
    n_positional = code.co_argcount
    names = code.co_varnames[: n_positional + code.co_kwonlyargcount]
    defaulted = set(names[n_positional - len(build.__defaults__ or ()) : n_positional])
    defaulted.update(build.__kwdefaults__ or ())
    names = names[bound:]
    return names, tuple(name for name in names if name not in defaulted)


def _section(build: Callable, **checks: Check) -> Check:
    """A mapping check that calls ``build`` with the fields present.

    A key outside ``checks`` is an error, so a misspelt option is never
    silently ignored. An absent key, or a bare ``key:`` line, takes
    ``build``'s own default; a parameter without one is reported missing.
    A key that ``build`` has no parameter for is checked and dropped.
    ``build``'s parameters are read once, by ``_parameters``.
    """
    names, required = _parameters(build)

    def section(value: Any, path: str):
        fields = {}
        for key, item in _mapping(value, path).items():
            where = f"{path}.{key}" if path else key
            if key not in checks:
                _fail(where, "unknown option")
            if item is not None:
                fields[key] = checks[key](item, where)
        for name in required:
            if name not in fields:
                _fail(f"{path}.{name}" if path else name, "missing")
        return build(**{key: fields[key] for key in fields if key in names})

    return section


_names = _list_of(_text)


def _endpoints(value: Any, path: str) -> tuple[str, str]:
    endpoints = _names(value, path)
    if len(endpoints) != 2:
        _fail(path, "expected two node ids")
    return endpoints


_role = _one_of(_str, ROLE_MANAGEMENT, ROLE_PUBLIC)  # any other text would count as public: no management path
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
        )
    ),
    controller=_section(ControllerNode, id=_str, disks=_disks),
    links=_list_of(_section(NetworkLink, id=_str, bandwidth=_num, endpoints=_endpoints, role=_role)),
)

_reference_topology = _section(
    lambda reference: reference,
    reference=_section(
        reference_cluster,
        n_hosts=_where(_int, lambda x: 1 <= x <= MAX_REFERENCE_HOSTS, f"in [1, {MAX_REFERENCE_HOSTS}]"),
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
_vm_group_knobs = _section(partial(VmGroup, None), **_VM_GROUP_CHECKS)  # each group's spec replaces the None


def _vm_group(value: Any, path: str) -> VmGroup:
    """One mapping holds the ``VmSpec`` fields beside the group's ``count`` and ``policy``."""
    data = _mapping(value, path)
    spec = _vm_spec({k: v for k, v in data.items() if k not in _VM_GROUP_CHECKS}, path)
    return _vm_group_knobs({k: v for k, v in data.items() if k in _VM_GROUP_CHECKS}, path)._replace(spec=spec)


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
        # the engine completes a file of at most COMPLETION_EPS MB as it starts: 0 s, so no rate
        file_size_mb=_where(_num, lambda x: x > COMPLETION_EPS, f"above {COMPLETION_EPS} MB"),
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
    scenario = _scenario(data, "")
    ops = scenario.dfsio.file_size_mb * KB_PER_MB / scenario.op_size_kb  # as ``count_io_ops`` counts one file
    if not math.isfinite(ops):
        _fail("op_size_kb", f"too small: one file of dfsio.file_size_mb would be {ops} operations")
    blocks = scenario.dfsio.file_size_mb / scenario.dfs.block_size_mb  # ``place_file`` makes ceil(blocks) blocks
    if not blocks <= MAX_BLOCKS_PER_FILE:  # ceil(blocks) exceeds the integer bound exactly when blocks does
        _fail("dfs.block_size_mb", f"too small: it splits one dfsio file into over {MAX_BLOCKS_PER_FILE} blocks")
    if scenario.dfsio.n_files * max(1, math.ceil(blocks)) > MAX_BLOCKS_PER_RUN:
        _fail("dfsio.n_files", f"too large: the run's files would split into over {MAX_BLOCKS_PER_RUN} blocks")
    return scenario


class _UniqueKeyLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """A safe loader, but a key repeated within one mapping is an error, not a silent overwrite.

    It parses with libyaml when PyYAML was built with it, and with PyYAML's
    own parser otherwise. Both build the same documents through the same
    constructor; only the wording of a syntax error differs.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():  # the base rejects the rest
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # ``<<`` merges are flattened by the base constructor
            key = self.construct_object(key_node)
            if not isinstance(key, Hashable):
                continue  # the base constructor rejects it
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark, f"found duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep)


def _construct_int(loader: yaml.SafeLoader, node: yaml.ScalarNode) -> int:
    """PyYAML's int, but one whose decimal text passes Python's int-to-text limit is a YAML error with the int's line.

    The limit (``sys.get_int_max_str_digits()``, 4 300 digits by default)
    stops PyYAML reading a longer decimal int, and stops an output writing
    a long hex or octal one, with a ``ValueError`` that names no field.
    """
    try:
        value = yaml.constructor.SafeConstructor.construct_yaml_int(loader, node)
        str(value)  # as result.json would write it
    except ValueError as e:
        raise yaml.constructor.ConstructorError(None, None, f"integer too long: {e}", node.start_mark) from e
    return value


_UniqueKeyLoader.add_constructor("tag:yaml.org,2002:int", _construct_int)


def load_scenario(path) -> Scenario:
    """Parse a scenario file; YAML syntax errors, repeated keys and too-long integers keep their line marks.

    The file is read as bytes, so YAML decodes it by its own rule (UTF-16
    after a UTF-16 byte-order mark, else UTF-8), whatever the locale. A byte
    that does not decode is a parse error, like any other bad input.
    """
    try:
        with open(path, "rb") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except (yaml.YAMLError, RecursionError) as e:  # PyYAML's own parser recurses once per level of nesting
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

    if cfg == "local":
        root_of = {v.attached_to: v.id for v in state.volumes.values() if v.kind == volumes_mod.ROOT}  # one per VM
        hdfs_volumes = {vm_id: root_of[vm_id] for vm_id in vm_ids}
    else:
        hdfs_volumes = {}
        kind = volumes_mod.NETWORKED if cfg == "networked" else volumes_mod.LOCAL_PERSISTENT
        try:
            for vm_id in vm_ids:
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
    """Everything one storage config produced for one scenario.

    ``stats`` is the run's ``DfsioRun.stats``: each ``TaskStat`` is made when
    it is read, from the task's start and end.
    """

    config: str
    seed: int
    result: BenchmarkResult
    stats: TaskStats
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


def run_scenario(
    scenario: Scenario, storage_config: str | None = None, readers: Sequence[TraceReader] = ()
) -> ScenarioRun:
    """Run the benchmark under one storage config, snapshots included: one simulation.

    Read and mixed modes read input files that already exist, as TestDFSIO
    ``-read`` does: ``run_dfsio`` places them as a write pass dispatched in
    task order would, and nothing simulates that pass; a caller prepares
    nothing in any mode. Under the ``local`` config the run takes its
    snapshots as it goes, in the same simulation, so their transfers'
    contention is visible in the metrics.

    Only the measured run is billed: ``io_ops`` and the instance-hours
    count its trace and its ``finished_at``, because the benchmark prices
    the workload it measures, not the set-up of its input files.

    With ``readers`` the run streams its trace to them (see ``run_dfsio``),
    and the run's ``trace`` keeps its flows but no events.
    """
    cfg = storage_config or scenario.storage_config
    state, hdfs_volumes = build_state(scenario, cfg)

    run = run_dfsio(
        state,
        scenario.dfsio,
        hdfs_volumes,
        dfs_config=scenario.dfs,
        seed=scenario.seed,
        snapshots=scenario.snapshot if cfg == "local" else None,
        readers=readers,
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


def compare(
    scenario: Scenario, configs: list[str], readers: Callable[[str], Sequence[TraceReader]] | None = None
) -> ComparisonReport:
    """Run the identical workload and seed under each storage config, once each.

    A config named twice is an error. ``readers``, when given, is called
    with each config, before its run, for the readers its trace streams to.
    """
    if len(configs) < 2:
        raise ScenarioValidationError("compare needs at least two storage configs")
    repeated = sorted({cfg for cfg in configs if configs.count(cfg) > 1})
    if repeated:
        raise ScenarioValidationError(f"compare runs each storage config once; repeated: {', '.join(repeated)}")
    runs = {cfg: run_scenario(scenario, storage_config=cfg, readers=readers(cfg) if readers else ()) for cfg in configs}
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
