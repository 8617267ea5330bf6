"""Deterministic simulator for big-data storage on cloud infrastructure.

Compares DFS clusters backed by VM-local disks against controller-served
networked volumes: rack-aware replica placement over virtual racks,
capacity-checked VM placement, max-min fair I/O contention, DFSIO-style
benchmarking, dirty-byte snapshot overhead, and instance/volume pricing.
"""

from .bench import BenchmarkResult, DfsioRun, DfsioSpec, TaskStat, avg_io_rate, run_dfsio, stddev_io_rate, throughput
from .cost import CostReport, PriceTable, compute_cost, count_io_ops, savings
from .dfs import (
    BlockReplicaSet,
    DfsConfig,
    DfsFile,
    ReplicaCoLocationWarning,
    place_file,
    place_replicas,
    rack_spread,
    schedule_map_task,
)
from .placement import (
    ClusterState,
    VmInstance,
    VmSpec,
    filter_hosts,
    migrate_vm,
    place_vm,
    reference_vm_spec,
)
from .scenario import (
    ComparisonReport,
    Scenario,
    ScenarioRun,
    build_state,
    compare,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from .simengine import (
    FlowRecord,
    FlowSpec,
    Resource,
    SimTrace,
    Simulation,
    allocate_rates,
    build_resources,
    run,
    verify_trace,
)
from .snapshot import (
    SnapshotPolicy,
    SnapshotRecord,
    network_bytes,
    overhead_comparison,
    plan_snapshots,
    recoverable_bytes,
)
from .topology import (
    ClusterTopology,
    ControllerNode,
    DiskSpec,
    NetworkLink,
    PhysicalHost,
    reference_cluster,
    topology_issues,
    validate_topology,
)
from .volumes import ResourcePath, Volume, attach_volume, resolve_io_path, terminate_vm

__version__ = "0.1.0"
