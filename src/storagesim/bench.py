"""Distributed I/O benchmark: N files, one map task each, three metrics.

Write mode places each file's replicas and streams it through the task
VM's DFS volume path (followed, for replication factors above one, by a
pipeline of replica-copy flows; the task is done when the pipeline is).
Read mode re-reads previously written files, preferring the local replica.
Tasks queue behind per-VM slots and the cluster-wide map capacity and are
dispatched the instant a slot frees.

Throughput is total data over summed task time; the average I/O rate is
the mean of per-task rates. Both are evaluated in exact rational
arithmetic with a single final rounding, so N identical tasks yield
exactly equal metrics, not merely close ones. The standard deviation
keeps the reducer-style sum / sum-of-squares form.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dfs import DfsConfig, DfsFile, place_file, schedule_map_task
from .errors import EmptyStatsError, ReadBeforeWriteError, SimError
from .placement import ClusterState
from .simengine import FlowSpec, Simulation, SimTrace, build_resources
from .snapshot import SnapshotPolicy, SnapshotRecord, merge_snapshot_events, plan_snapshots
from .topology import management_path
from .volumes import ResourcePath, link_resource_id, resolve_io_path

WRITE = "write"
READ = "read"
MIXED = "mixed"


@dataclass(frozen=True)
class DfsioSpec:
    """Benchmark shape: how many files, how big, and how parallel."""

    n_files: int
    file_size_mb: float
    mode: str = WRITE
    map_capacity: int = 25  # cluster-wide concurrent tasks
    slots_per_vm: int = 5
    read_fraction: float = 0.5  # mixed mode only


@dataclass(frozen=True)
class TaskStat:
    task_index: int  # 1..N
    file_size_mb: float
    elapsed_s: float
    rate: float  # file_size_mb / elapsed_s


def _require_stats(stats: Sequence[TaskStat]) -> None:
    if not stats:
        raise EmptyStatsError("no task statistics")


def _exact_sum(values: Iterable[float]) -> Fraction:
    """The exact rational sum of floats or ints.

    Every float is n / 2**k, so the terms are summed as integers over the
    largest denominator, with one Fraction at the end instead of one per term.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return Fraction(sum(n * (den // d) for n, d in ratios), den)


def throughput(stats: Sequence[TaskStat]) -> float:
    """Total data over total task time: sum(size_i) / sum(time_i)."""
    _require_stats(stats)
    total_size = _exact_sum(s.file_size_mb for s in stats)
    total_time = _exact_sum(s.elapsed_s for s in stats)
    return float(total_size / total_time)


def avg_io_rate(stats: Sequence[TaskStat]) -> float:
    """Mean of per-task rates: sum(size_i / time_i) / N."""
    _require_stats(stats)
    return float(_exact_sum(s.rate for s in stats) / len(stats))


def stddev_io_rate(stats: Sequence[TaskStat]) -> float:
    """Population standard deviation of per-task rates.

    Computed from the running sum and sum-of-squares the reducer collects,
    clamped at zero against cancellation dust.
    """
    _require_stats(stats)
    n = len(stats)
    sum_rate = math.fsum(s.rate for s in stats)
    sum_sq = math.fsum(s.rate * s.rate for s in stats)
    return math.sqrt(max(0.0, sum_sq / n - (sum_rate / n) ** 2))


@dataclass
class BenchmarkResult:
    mode: str
    finished_at: float  # simulated seconds
    n_files: int
    total_mb: float
    throughput_mbps: float
    avg_io_rate_mbps: float
    stddev_io_rate_mbps: float
    sum_rate: float
    sum_rate_sq: float

    @classmethod
    def from_stats(cls, mode: str, stats: Sequence[TaskStat], finished_at: float) -> BenchmarkResult:
        return cls(
            mode=mode,
            finished_at=finished_at,
            n_files=len(stats),
            total_mb=math.fsum(s.file_size_mb for s in stats),
            throughput_mbps=throughput(stats),
            avg_io_rate_mbps=avg_io_rate(stats),
            stddev_io_rate_mbps=stddev_io_rate(stats),
            sum_rate=math.fsum(s.rate for s in stats),
            sum_rate_sq=math.fsum(s.rate * s.rate for s in stats),
        )

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "finished_at_s": self.finished_at,
            "n_files": self.n_files,
            "total_mb": self.total_mb,
            "throughput_mbps": self.throughput_mbps,
            "avg_io_rate_mbps": self.avg_io_rate_mbps,
            "stddev_io_rate_mbps": self.stddev_io_rate_mbps,
            "sum_rate": self.sum_rate,
            "sum_rate_sq": self.sum_rate_sq,
        }


@dataclass
class DfsioRun:
    result: BenchmarkResult
    trace: SimTrace
    stats: list[TaskStat]
    files: list[DfsFile]
    state: ClusterState
    snapshot_records: list[SnapshotRecord]


@dataclass
class _Task:
    index: int  # 0-based internally
    mode: str
    file_name: str
    size_mb: float
    writer_vm: str | None  # pinned target for writes
    file: DfsFile | None = None
    vm: str | None = None
    start: float | None = None
    end: float | None = None
    outstanding: set[str] = field(default_factory=set)
    write_targets: dict[str, float] = field(default_factory=dict)  # replica vm -> MB


def _interhost_links(state: ClusterState, src_host: str, dst_host: str) -> tuple[str, ...]:
    if src_host == dst_host:
        return ()
    return tuple(link_resource_id(l.id) for l in management_path(state.topology, src_host, dst_host))


def run_dfsio(
    state: ClusterState,
    spec: DfsioSpec,
    hdfs_volumes: Mapping[str, str],
    *,
    dfs_config: DfsConfig | None = None,
    seed: int = 0,
    files: Sequence[DfsFile] | None = None,
    pipeline: str = "full",  # full | ack_first
    snapshots: SnapshotPolicy | None = None,
) -> DfsioRun:
    """Run the benchmark over the VMs in ``hdfs_volumes`` (vm id -> volume id).

    Write tasks pin their writer round-robin over the members (task i on
    member i mod n, the even distribution a real job settles into), place
    the file's replicas there, and stream through the writer's volume
    path. Read tasks are scheduled by replica locality and read remote
    blocks over the management network when they must. With a
    ``snapshots`` policy, non-persistent volumes are snapshotted during
    the run and the transfers contend with the tasks. Returns the metric
    record, the flow trace (with snapshot markers), the placed files, the
    post-run state with dirty bytes accounted for snapshots, and the
    snapshot records.
    """
    if spec.n_files < 1 or spec.file_size_mb <= 0 or spec.map_capacity < 1 or spec.slots_per_vm < 1:
        raise ValueError(f"invalid benchmark spec {spec}")
    if spec.mode not in (WRITE, READ, MIXED):
        raise ValueError(f"unknown mode {spec.mode!r}")
    dfs_config = dfs_config or DfsConfig()
    members = sorted(hdfs_volumes)
    if not members:
        raise ValueError("no DFS members")
    for vm_id in members:
        vol = state.volumes.get(hdfs_volumes[vm_id])
        if vol is None or vol.attached_to != vm_id:
            raise SimError(f"hdfs volume {hdfs_volumes[vm_id]!r} is not attached to {vm_id}")

    rng = random.Random(seed)
    placement_rng = random.Random(dfs_config.seed)

    if spec.mode == WRITE:
        task_modes = [WRITE] * spec.n_files
    elif spec.mode == READ:
        task_modes = [READ] * spec.n_files
    else:
        task_modes = [READ if rng.random() < spec.read_fraction else WRITE for _ in range(spec.n_files)]
    if READ in task_modes and (files is None or len(files) < spec.n_files):
        raise ReadBeforeWriteError(f"{spec.n_files} files must be written before they can be read")

    work_state = state.clone()
    tasks = []
    for i in range(spec.n_files):
        name = f"test_io_{i}"
        target = files[i] if task_modes[i] == READ else None
        tasks.append(
            _Task(
                index=i,
                mode=task_modes[i],
                file_name=target.name if target else name,
                size_mb=target.size_mb if target else spec.file_size_mb,
                writer_vm=members[i % len(members)] if task_modes[i] == WRITE else None,
                file=target,
            )
        )

    sim = Simulation(build_resources(work_state.topology))
    records = [] if snapshots is None else plan_snapshots(sim, work_state.volumes, snapshots, work_state.topology)
    slots = {vm: spec.slots_per_vm for vm in members}
    queue: list[_Task] = list(tasks)
    running = [0]  # boxed for closure mutation
    by_flow: dict[str, _Task] = {}
    # Topology and volume attachments stay fixed during a run, so each path is resolved once.
    io_paths: dict[tuple[str, str], ResourcePath] = {}  # (vm, direction) -> DFS volume path
    host_links: dict[tuple[str, str], tuple[str, ...]] = {}  # (src host, dst host) -> link resources

    def io_path(vm: str, direction: str) -> ResourcePath:
        path = io_paths.get((vm, direction))
        if path is None:
            path = io_paths[vm, direction] = resolve_io_path(work_state, vm, hdfs_volumes[vm], direction)
        return path

    def links(src_host: str, dst_host: str) -> tuple[str, ...]:
        found = host_links.get((src_host, dst_host))
        if found is None:
            found = host_links[src_host, dst_host] = _interhost_links(work_state, src_host, dst_host)
        return found

    def start_write(task: _Task, now: float) -> None:
        vm = task.writer_vm
        task.vm = vm
        task.file = place_file(
            work_state, task.file_name, task.size_mb, vm, dfs_config, placement_rng, members=members
        )
        targets: dict[str, float] = {}
        for block in task.file.blocks:
            for peer, _rack in block.replicas[1:]:
                targets[peer] = targets.get(peer, 0.0) + block.bytes_mb
        task.write_targets = targets
        fid = f"t{task.index:04d}.write"
        vol = work_state.volumes[hdfs_volumes[vm]]
        sim.add_flow(
            FlowSpec(
                fid,
                io_path(vm, "write"),
                task.size_mb,
                tags={
                    "task": str(task.index),
                    "stage": "primary",
                    "vm": vm,
                    "volume_id": vol.id,
                    "volume_kind": vol.kind,
                },
            ),
            now,
        )
        task.outstanding = {fid}
        by_flow[fid] = task

    def start_replicas(task: _Task, now: float, background: bool) -> set[str]:
        src_host = work_state.instances[task.vm].host_id
        flow_ids = set()
        for peer in sorted(task.write_targets):
            mb = task.write_targets[peer]
            vol = work_state.volumes[hdfs_volumes[peer]]
            dst_host = work_state.instances[peer].host_id
            resources = tuple(dict.fromkeys(links(src_host, dst_host) + io_path(peer, "write").resources))
            fid = f"t{task.index:04d}.rep.{peer}"
            sim.add_flow(
                FlowSpec(
                    fid,
                    ResourcePath(resources, "write"),
                    mb,
                    tags={
                        "task": str(task.index),
                        "stage": "background" if background else "replica",
                        "vm": peer,
                        "volume_id": vol.id,
                        "volume_kind": vol.kind,
                    },
                ),
                now,
            )
            flow_ids.add(fid)
            by_flow[fid] = task
        return flow_ids

    def start_read(task: _Task, now: float, vm: str) -> None:
        task.vm = vm
        holder_of: dict[str, str] = {}
        for block in task.file.blocks:
            block_vms = block.vms()
            holder_of[block.block_id] = vm if vm in block_vms else min(block_vms)
        by_source: dict[str, float] = {}
        for block in task.file.blocks:
            src = holder_of[block.block_id]
            by_source[src] = by_source.get(src, 0.0) + block.bytes_mb
        dst_host = work_state.instances[vm].host_id
        for src in sorted(by_source):
            vol = work_state.volumes[hdfs_volumes[src]]
            src_host = work_state.instances[src].host_id
            resources = tuple(dict.fromkeys(io_path(src, "read").resources + links(src_host, dst_host)))
            fid = f"t{task.index:04d}.read.{src}"
            sim.add_flow(
                FlowSpec(
                    fid,
                    ResourcePath(resources, "read"),
                    by_source[src],
                    tags={
                        "task": str(task.index),
                        "stage": "read",
                        "vm": vm,
                        "volume_id": vol.id,
                        "volume_kind": vol.kind,
                    },
                ),
                now,
            )
            task.outstanding.add(fid)
            by_flow[fid] = task

    def finish_task(task: _Task, now: float) -> None:
        task.end = now
        slots[task.vm] += 1
        running[0] -= 1
        if task.mode == WRITE:
            work_state.volumes[hdfs_volumes[task.vm]].record_write(task.size_mb)
            for peer, mb in sorted(task.write_targets.items()):
                work_state.volumes[hdfs_volumes[peer]].record_write(mb)

    def dispatch(now: float) -> None:
        progressed = True
        while progressed and queue and running[0] < spec.map_capacity:
            progressed = False
            for task in list(queue):
                if running[0] >= spec.map_capacity:
                    break
                if task.mode == WRITE:
                    if slots[task.writer_vm] <= 0:
                        continue
                    vm = task.writer_vm
                else:
                    if all(s <= 0 for s in slots.values()):
                        break
                    vm = schedule_map_task(
                        work_state, f"t{task.index:04d}", slots, replicas=task.file.holders() if task.file else ()
                    )
                queue.remove(task)
                slots[vm] -= 1
                running[0] += 1
                task.start = now
                if task.mode == WRITE:
                    start_write(task, now)
                else:
                    start_read(task, now, vm)
                progressed = True

    def on_complete(_sim, records, now) -> None:
        for record in records:
            task = by_flow.get(record.flow_id)
            if task is None:
                continue
            task.outstanding.discard(record.flow_id)
            stage = record.tags.get("stage")
            if stage == "primary" and task.write_targets:
                if pipeline == "full":
                    task.outstanding |= start_replicas(task, now, background=False)
                else:  # ack_first: replicas continue without holding the slot
                    start_replicas(task, now, background=True)
            if not task.outstanding and task.end is None and stage != "background":
                finish_task(task, now)
        dispatch(now)

    dispatch(0.0)
    trace = sim.run(on_complete=on_complete)
    if snapshots is not None:
        merge_snapshot_events(trace, records)
    unfinished = [t.index for t in tasks if t.end is None]
    if unfinished:
        raise SimError(f"tasks never completed: {unfinished}")

    stats = [
        TaskStat(
            task_index=t.index + 1,
            file_size_mb=t.size_mb,
            elapsed_s=t.end - t.start,
            rate=t.size_mb / (t.end - t.start),
        )
        for t in sorted(tasks, key=lambda t: t.index)
    ]
    finished_at = max(t.end for t in tasks)
    result = BenchmarkResult.from_stats(spec.mode, stats, finished_at)
    out_files = [t.file for t in sorted(tasks, key=lambda t: t.index) if t.file is not None]
    return DfsioRun(
        result=result, trace=trace, stats=stats, files=out_files, state=work_state, snapshot_records=records
    )
