"""Distributed I/O benchmark: N files, one map task each, three metrics.

Write mode places each file's replicas and streams it through the task
VM's DFS volume path (followed, for replication factors above one, by a
pipeline of replica-copy flows; the task is done when its last replica
lands).
Read mode re-reads existing files, preferring the local replica. Like
TestDFSIO ``-read``, a read or mixed run measures files that exist before
it starts: ``run_dfsio`` places them itself, as a write pass that
dispatched in task order would, without simulating one.
Tasks queue behind per-VM slots and the cluster-wide map capacity and are
dispatched the instant a slot frees.

Throughput is total data over summed task time; the average I/O rate is
the mean of per-task rates. Both are evaluated in exact rational
arithmetic with a single final rounding, so N identical tasks yield
exactly equal metrics, not merely close ones. The standard deviation is
computed from the sum and sum of squares of the rates, as TestDFSIO's
reducer does; the result reports only the deviation, since ``tasks.csv``
holds every rate.
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .dfs import DfsConfig, DfsFile, PlacementTables, place_file, schedule_map_task
from .errors import EmptyStatsError, SimError
from .placement import ClusterState
from .simengine import COMPLETION_EPS, Simulation, SimTrace, TraceReader, build_resources
from .snapshot import SnapshotPolicy, SnapshotRecord, plan_snapshots
from .topology import management_path  # noqa: F401  (unused; perfbench's traced-run test asserts this binding)
from .volumes import ResourcePath, Routes

WRITE = "write"
READ = "read"
MIXED = "mixed"

# The most blocks a scenario's run may place: a read or mixed run places every input file before its first task.
# 10**6 is about 150 times the 6 400 blocks of the reference scenario on 80 hosts (400 files of 16 blocks).
MAX_BLOCKS_PER_RUN = 10**6


class DfsioSpec(NamedTuple):
    """Benchmark shape: how many files, how big, and how parallel."""

    n_files: int
    file_size_mb: float
    mode: str = WRITE
    map_capacity: int = 25  # cluster-wide concurrent tasks
    slots_per_vm: int = 5
    read_fraction: float = 0.5  # mixed mode only


class TaskStat(NamedTuple):
    task_index: int  # 1..N
    file_size_mb: float
    elapsed_s: float
    rate: float  # file_size_mb / elapsed_s


def _require_stats(stats: Sequence[TaskStat]) -> None:
    if not stats:
        raise EmptyStatsError("no task statistics")


def _exact_sum(values: Iterable[float]) -> tuple[int, int]:
    """The exact rational sum of floats or ints, as (numerator, denominator).

    Every float is n / 2**k, so the terms are summed as integers over the
    largest denominator. A quotient of such sums is then one ``int / int``,
    which rounds the exact ratio once, to the nearest float.

    One pass, holding no list: the running sum is kept over the largest
    denominator seen so far, and rescaled when a larger one arrives, so the
    pair is the one a sum over the largest denominator of all gives.
    """
    num, den = 0, 1
    for v in values:
        n, d = v.as_integer_ratio()
        if d > den:
            num *= d // den
            den = d
        num += n * (den // d)
    return num, den


def throughput(stats: Sequence[TaskStat]) -> float:
    """Total data over total task time: sum(size_i) / sum(time_i)."""
    _require_stats(stats)
    size_num, size_den = _exact_sum(s.file_size_mb for s in stats)
    time_num, time_den = _exact_sum(s.elapsed_s for s in stats)
    return (size_num * time_den) / (size_den * time_num)


def avg_io_rate(stats: Sequence[TaskStat]) -> float:
    """Mean of per-task rates: sum(size_i / time_i) / N."""
    _require_stats(stats)
    rate_num, rate_den = _exact_sum(s.rate for s in stats)
    return rate_num / (rate_den * len(stats))


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


class BenchmarkResult(NamedTuple):
    mode: str
    finished_at: float  # simulated seconds
    n_files: int
    total_mb: float
    throughput_mbps: float
    avg_io_rate_mbps: float
    stddev_io_rate_mbps: float

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
        }


class DfsioRun(NamedTuple):
    result: BenchmarkResult
    trace: SimTrace
    stats: list[TaskStat]
    files: list[DfsFile]
    snapshot_records: list[SnapshotRecord]


class _Task:
    __slots__ = ("index", "task_id", "mode", "writer_vm", "file", "vm", "start", "end", "outstanding")

    def __init__(
        self,
        index: int,  # 0-based internally
        mode: str,
        writer_vm: str,  # the file's writer: where a write task runs
        file: DfsFile | None,  # the file a read re-reads; placed at start for a write
    ):
        self.index = index
        self.task_id = f"t{index:04d}"  # the prefix of every flow id the task starts
        self.mode = mode
        self.writer_vm = writer_vm
        self.file = file
        self.vm: str | None = None
        self.start: float | None = None
        self.end: float | None = None
        self.outstanding = 0  # flows started and not yet completed


def _members(state: ClusterState, hdfs_volumes: Mapping[str, str]) -> list[str]:
    """The DFS members in id order, each checked to hold its DFS volume."""
    members = sorted(hdfs_volumes)
    if not members:
        raise ValueError("no DFS members")
    for vm_id in members:
        vol = state.volumes.get(hdfs_volumes[vm_id])
        if vol is None or vol.attached_to != vm_id:
            raise SimError(f"hdfs volume {hdfs_volumes[vm_id]!r} is not attached to {vm_id}")
    return members


def run_dfsio(
    state: ClusterState,
    spec: DfsioSpec,
    hdfs_volumes: Mapping[str, str],
    *,
    dfs_config: DfsConfig = DfsConfig(),
    seed: int = 0,
    snapshots: SnapshotPolicy | None = None,
    readers: Sequence[TraceReader] = (),
) -> DfsioRun:
    """Run the benchmark over the VMs in ``hdfs_volumes`` (vm id -> volume id).

    Write tasks pin their writer round-robin over the members (task i on
    member i mod n, the even distribution a real job settles into), place
    the file's replicas there, and stream through the writer's volume path.
    A read or mixed run first places its input files: all ``spec.n_files``,
    in task order, file i by task i's writer, from one
    ``random.Random(dfs_config.seed)``. That is the placement of a write
    pass that dispatched in task order, which holds unless a writer's slots
    are full when its task heads the queue. Read tasks are scheduled by
    replica locality and read remote blocks over the management network
    when they must. Input and written files share the run's one
    ``PlacementTables``, and every path comes from its one ``Routes``
    table. With a ``snapshots`` policy, non-persistent volumes are
    snapshotted during the run and the transfers contend with the tasks.
    Returns the metric record, the flow trace (with the snapshot markers the
    engine logged), the placed files and the snapshot records; ``state`` is
    only read, and the trace's write flows hold every byte the run wrote.

    With ``readers`` the simulation streams its trace to them window by
    window (see ``Simulation``), and the returned trace holds no events.
    """
    if spec.n_files < 1 or spec.file_size_mb <= COMPLETION_EPS or spec.map_capacity < 1 or spec.slots_per_vm < 1:
        raise ValueError(f"invalid benchmark spec {spec}")
    if spec.mode not in (WRITE, READ, MIXED):
        raise ValueError(f"unknown mode {spec.mode!r}")
    members = _members(state, hdfs_volumes)

    rng = random.Random(seed)
    placement_rng = random.Random(dfs_config.seed)

    if spec.mode == WRITE:
        task_modes = [WRITE] * spec.n_files
    elif spec.mode == READ:
        task_modes = [READ] * spec.n_files
    else:
        task_modes = [READ if rng.random() < spec.read_fraction else WRITE for _ in range(spec.n_files)]

    placement = PlacementTables(state, members)  # members and their hosts too: one set of pools per run
    # Every input file, not just those read: file i's replicas follow the draws for files 0..i-1.
    input_rng = random.Random(dfs_config.seed) if READ in task_modes else None
    tasks = []
    for i, mode in enumerate(task_modes):
        writer = members[i % len(members)]  # round-robin: task i on member i mod n
        file = place_file(placement, spec.file_size_mb, writer, dfs_config, input_rng) if input_rng else None
        tasks.append(_Task(i, mode, writer, file if mode == READ else None))

    routes = Routes(state, hdfs_volumes)
    sim = Simulation(build_resources(state.topology), readers)
    records = [] if snapshots is None else plan_snapshots(sim, state.volumes, snapshots, routes)
    slots = {vm: spec.slots_per_vm for vm in members}
    queue = deque(tasks)
    running = 0
    by_flow: dict[str, _Task] = {}

    @cache
    def route_tags(stage: str, vm: str, volume_vm: str) -> Mapping[str, str]:
        """The tags of every flow of one route, shared and read-only."""
        vol = state.volumes[hdfs_volumes[volume_vm]]
        return MappingProxyType({"stage": stage, "vm": vm, "volume_id": vol.id, "volume_kind": vol.kind})

    def start_flow(task: _Task, fid: str, path: ResourcePath, mb: float, stage: str, vm: str, volume_vm: str) -> None:
        sim.add_flow(fid, path, mb, route_tags(stage, vm, volume_vm))
        task.outstanding += 1
        by_flow[fid] = task

    def start_write(task: _Task) -> None:
        vm = task.vm = task.writer_vm
        task.file = place_file(placement, spec.file_size_mb, vm, dfs_config, placement_rng)
        start_flow(task, f"{task.task_id}.write", routes["volume", vm, "write"], spec.file_size_mb, "primary", vm, vm)

    def start_replicas(task: _Task) -> None:
        targets: dict[str, float] = {}  # replica vm -> MB, summed in block order
        for block in task.file.blocks:
            for peer, _rack in block.replicas[1:]:
                targets[peer] = targets.get(peer, 0.0) + block.bytes_mb
        for peer, mb in sorted(targets.items()):
            fid = f"{task.task_id}.rep.{peer}"
            start_flow(task, fid, routes["replica", task.vm, peer], mb, "replica", peer, peer)

    def start_read(task: _Task, vm: str) -> None:
        task.vm = vm
        by_source: dict[str, float] = {}
        for block in task.file.blocks:
            block_vms = block.vms()
            src = vm if vm in block_vms else min(block_vms)
            by_source[src] = by_source.get(src, 0.0) + block.bytes_mb
        for src in sorted(by_source):
            fid = f"{task.task_id}.read.{src}"
            start_flow(task, fid, routes["read", src, vm], by_source[src], "read", vm, src)

    def finish_task(task: _Task, now: float) -> None:
        nonlocal running
        task.end = now
        slots[task.vm] += 1
        running -= 1

    def dispatch(now: float) -> None:
        # Slots only fall and running only rises within a call, so a task skipped once stays skipped: one pass.
        nonlocal running
        i = 0
        while i < len(queue) and running < spec.map_capacity:
            task = queue[i]
            if task.mode == WRITE:
                vm = task.writer_vm
                if slots[vm] <= 0:
                    i += 1
                    continue
            elif all(s <= 0 for s in slots.values()):
                break
            else:
                vm = schedule_map_task(task.task_id, slots, replicas=task.file.holders())
            del queue[i]
            slots[vm] -= 1
            running += 1
            task.start = now
            if task.mode == WRITE:
                start_write(task)
            else:
                start_read(task, vm)

    def on_complete(_sim, records, now) -> None:
        for record in records:
            task = by_flow.pop(record.flow_id, None)
            if task is None:
                continue  # a snapshot transfer
            task.outstanding -= 1
            if record.tags["stage"] == "primary":
                start_replicas(task)  # none at rf = 1, so the task is done below
            if not task.outstanding:
                finish_task(task, now)
        dispatch(now)

    dispatch(0.0)
    trace = sim.run(on_complete=on_complete)
    unfinished = [t.index for t in tasks if t.end is None]
    if unfinished:
        raise SimError(f"tasks never completed: {unfinished}")

    stats = [
        TaskStat(
            task_index=t.index + 1,
            file_size_mb=spec.file_size_mb,
            elapsed_s=t.end - t.start,
            rate=spec.file_size_mb / (t.end - t.start),
        )
        for t in tasks
    ]
    finished_at = max(t.end for t in tasks)
    result = BenchmarkResult.from_stats(spec.mode, stats, finished_at)
    out_files = [t.file for t in tasks if t.file is not None]
    return DfsioRun(result=result, trace=trace, stats=stats, files=out_files, snapshot_records=records)
