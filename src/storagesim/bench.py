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
reducer does; those two sums are exact too, each rounded once. One pass
over the task stats keeps all four sums. The result reports only the
deviation, since ``tasks.csv`` holds every rate.
"""

from __future__ import annotations

import math
import random
from collections import deque
from functools import cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


class TaskStats(Sequence[TaskStat]):
    """A run's task stats, read-only: each ``TaskStat`` is made on access from its task's start and end.

    The run keeps each task's start and end, the step's own ``now``
    floats, in two lists, and the file size once. A stat's ``elapsed_s``
    is ``end - start`` and its ``rate`` is ``file_size_mb / elapsed_s``.
    """

    __slots__ = ("_size", "_starts", "_ends")

    def __init__(self, file_size_mb: float, starts: list[float], ends: list[float]):
        self._size, self._starts, self._ends = file_size_mb, starts, ends

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i: int) -> TaskStat:
        i = range(len(self._starts))[i]  # an IndexError past either end, and a negative index counted from the end
        elapsed = self._ends[i] - self._starts[i]
        return TaskStat(i + 1, self._size, elapsed, self._size / elapsed)

    def __iter__(self) -> Iterator[TaskStat]:
        size = self._size
        for i, (start, end) in enumerate(zip(self._starts, self._ends), 1):
            elapsed = end - start
            yield TaskStat(i, size, elapsed, size / elapsed)


class _ExactSum:
    """The exact running sum of floats or ints, as ``num / den``.

    Every float is n / 2**k, so the terms are summed as integers over the
    largest denominator seen so far, and the sum is rescaled when a larger
    one arrives: the pair is the one a sum over the largest denominator of
    all gives. ``num / den``, or a quotient of two such sums, is then one
    ``int / int``, which rounds the exact ratio once, to the nearest float:
    the float ``math.fsum`` gives for a sum, since both round correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self):
        self.num, self.den = 0, 1

    def add(self, value: float) -> None:
        n, d = value.as_integer_ratio()
        den = self.den
        if d == den:
            self.num += n
        elif d < den:
            self.num += n * (den // d)
        else:
            self.num = self.num * (d // den) + n
            self.den = d


class BenchmarkResult(NamedTuple):
    mode: str
    finished_at: float  # simulated seconds
    n_files: int
    total_mb: float
    throughput_mbps: float
    avg_io_rate_mbps: float
    stddev_io_rate_mbps: float

    @classmethod
    def from_stats(cls, mode: str, stats: Iterable[TaskStat], finished_at: float) -> BenchmarkResult:
        """The metrics of ``stats``, read in one pass.

        The pass keeps exact sums of the sizes, the task times, the rates
        and the squared rates ``rate * rate``, so each figure below rounds
        once. Throughput is sum(size_i) / sum(time_i), the average I/O rate
        sum(rate_i) / N, and the deviation the population one, from the sum
        and sum of squares of the rates as TestDFSIO's reducer keeps them,
        clamped at zero against cancellation dust.
        """
        n = 0
        size, time, rate, square = _ExactSum(), _ExactSum(), _ExactSum(), _ExactSum()
        for s in stats:
            n += 1
            size.add(s.file_size_mb)
            time.add(s.elapsed_s)
            r = s.rate
            rate.add(r)
            square.add(r * r)
        if not n:
            raise EmptyStatsError("no task statistics")
        mean_rate = rate.num / rate.den / n
        return cls(
            mode=mode,
            finished_at=finished_at,
            n_files=n,
            total_mb=size.num / size.den,
            throughput_mbps=(size.num * time.den) / (size.den * time.num),
            avg_io_rate_mbps=rate.num / (rate.den * n),
            stddev_io_rate_mbps=math.sqrt(max(0.0, square.num / square.den / n - mean_rate**2)),
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
    """One run's metrics, trace, per-task stats, read inputs and snapshot records.

    ``stats`` makes each task's ``TaskStat`` when it is read, from the
    task's start and end, so no stat outlives its reader. ``files`` holds
    each read task's input file, in task order: every file of a read run,
    the read tasks' of a mixed run, and none of a write run, whose files
    live only as long as the tasks that write them.
    """

    result: BenchmarkResult
    trace: SimTrace
    stats: TaskStats
    files: list[DfsFile]
    snapshot_records: list[SnapshotRecord]


class _Task:
    """A task from its dispatch until its last flow ends; nothing refers to it after that.

    A write task places its file when it starts, so the file goes with
    the task. The task's start and end times are kept by ``run_dfsio``,
    in lists indexed by task.
    """

    __slots__ = ("index", "task_id", "vm", "file", "outstanding")

    def __init__(self, index: int, vm: str, file: DfsFile | None):  # index is 0-based internally
        self.index = index
        self.task_id = f"t{index:04d}"  # the prefix of every flow id the task starts
        self.vm = vm
        self.file = file  # a read task's input; a write task's once it places it
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
    engine logged), the read tasks' input files and the snapshot records;
    ``state`` is only read, and the trace's write flows hold every byte the
    run wrote.

    A task's state lives only while it runs. The queue holds task indices,
    a ``_Task`` is made when its task is dispatched, and nothing refers to
    it once its last flow ends, so a write task's file goes with it. What
    the run keeps per task is its input file if it reads one, and its start
    and end: the step's own ``now`` floats, in two lists. The returned
    ``stats`` are those two lists and the file size, and the metrics are
    read from them in one pass, so no ``TaskStat`` is kept per task.

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
        reads: Sequence[bool] = ()  # no input files
    elif spec.mode == READ:
        reads = [True] * spec.n_files
    else:
        reads = [rng.random() < spec.read_fraction for _ in range(spec.n_files)]

    placement = PlacementTables(state, members)  # members and their hosts too: one set of pools per run
    inputs: list[DfsFile | None] = [None] * spec.n_files  # task -> the file it reads, None for a write task
    if any(reads):
        # Every input file, not just those read: file i's replicas follow the draws for files 0..i-1.
        input_rng = random.Random(dfs_config.seed)
        for i, read in enumerate(reads):
            writer = members[i % len(members)]  # round-robin: task i on member i mod n
            file = place_file(placement, spec.file_size_mb, writer, dfs_config, input_rng)
            if read:
                inputs[i] = file

    routes = Routes(state, hdfs_volumes)
    sim = Simulation(build_resources(state.topology), readers)
    records = [] if snapshots is None else plan_snapshots(sim, state.volumes, snapshots, routes)
    slots = {vm: spec.slots_per_vm for vm in members}
    queue = deque(range(spec.n_files))
    starts: list[float | None] = [None] * spec.n_files
    ends: list[float | None] = [None] * spec.n_files
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
        vm = task.vm
        task.file = place_file(placement, spec.file_size_mb, vm, dfs_config, placement_rng)
        start_flow(task, f"{task.task_id}.write", routes["volume", vm, "write"], spec.file_size_mb, "primary", vm, vm)

    # A flow that one block feeds takes that block's own `bytes_mb` object: it is positive, so `0.0 + bytes_mb`
    # is the same float, and a run of one-block files holds no second copy of it per flow.
    def start_replicas(task: _Task) -> None:
        targets: dict[str, float] = {}  # replica vm -> MB, summed in block order
        for block in task.file.blocks:
            for peer, _rack in block.replicas[1:]:
                mb = targets.get(peer)
                targets[peer] = block.bytes_mb if mb is None else mb + block.bytes_mb
        for peer, mb in sorted(targets.items()):
            fid = f"{task.task_id}.rep.{peer}"
            start_flow(task, fid, routes["replica", task.vm, peer], mb, "replica", peer, peer)

    def start_read(task: _Task) -> None:
        vm = task.vm
        by_source: dict[str, float] = {}
        for block in task.file.blocks:
            block_vms = block.vms()
            src = vm if vm in block_vms else min(block_vms)
            mb = by_source.get(src)
            by_source[src] = block.bytes_mb if mb is None else mb + block.bytes_mb
        for src in sorted(by_source):
            fid = f"{task.task_id}.read.{src}"
            start_flow(task, fid, routes["read", src, vm], by_source[src], "read", vm, src)

    def finish_task(task: _Task, now: float) -> None:
        nonlocal running
        ends[task.index] = now
        slots[task.vm] += 1
        running -= 1

    def dispatch(now: float) -> None:
        # Slots only fall and running only rises within a call, so a task skipped once stays skipped: one pass.
        nonlocal running
        i = 0
        while i < len(queue) and running < spec.map_capacity:
            index = queue[i]
            file = inputs[index]
            if file is None:  # a write task runs on its file's writer
                vm = members[index % len(members)]
                if slots[vm] <= 0:
                    i += 1
                    continue
            elif all(s <= 0 for s in slots.values()):
                break
            else:
                vm = schedule_map_task(f"t{index:04d}", slots, replicas=file.holders())
            del queue[i]
            slots[vm] -= 1
            running += 1
            starts[index] = now
            task = _Task(index, vm, file)
            if file is None:
                start_write(task)
            else:
                start_read(task)

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
    unfinished = [i for i, end in enumerate(ends) if end is None]
    if unfinished:
        raise SimError(f"tasks never completed: {unfinished}")

    stats = TaskStats(spec.file_size_mb, starts, ends)
    result = BenchmarkResult.from_stats(spec.mode, stats, max(ends))
    files = [file for file in inputs if file is not None]
    return DfsioRun(result=result, trace=trace, stats=stats, files=files, snapshot_records=records)
