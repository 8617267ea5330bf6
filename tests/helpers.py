"""Shared helpers: placed clusters, their placement tables or a DFS volume bound per VM, one-call engine runs,
named trace events, a simulation's capacity table, a flow's start time, the files a DFSIO run's tasks read or wrote,
each DFSIO metric of a list of task stats, and a fresh interpreter that parses scenarios with a chosen YAML parser."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import pytest
import yaml

from storagesim import bench
from storagesim.dfs import DfsFile, PlacementTables
from storagesim.placement import ClusterState, VmSpec, place_vm
from storagesim.simengine import CompletionHook, Resource, Simulation, SimTrace
from storagesim.topology import reference_cluster
from storagesim.volumes import LOCAL_PERSISTENT, NETWORKED, ROOT, ResourcePath, attach_volume


class TraceEvent(NamedTuple):
    """A trace event with named fields, for building traces by hand.

    The engine emits plain tuples in this field order, and a ``TraceEvent``
    equals the plain tuple with the same fields.
    """

    time: float
    kind: str  # flow_start | rate_change | flow_end | snapshot
    flow_id: str
    resource_id: str
    value: float


class FlowSpec(NamedTuple):
    """One flow of a test workload: ``Simulation.add_flow``'s arguments."""

    flow_id: str
    path: ResourcePath
    size_mb: float
    tags: Mapping[str, str] = Simulation.add_flow.__defaults__[0]  # the engine's shared empty tags


SMALL_VM = VmSpec(vcpus=1, ram_gb=1.0, root_disk_gb=10.0, ephemeral_gb=0.0, migratable=False)
PINNED_VM = VmSpec(vcpus=4, ram_gb=8.0, root_disk_gb=32.0, ephemeral_gb=20.0, migratable=False)


def placed_cluster(
    n_hosts: int = 5,
    vms_per_host: int = 1,
    spec: VmSpec = PINNED_VM,
    **topology_kwargs,
) -> ClusterState:
    state = ClusterState.from_topology(reference_cluster(n_hosts, **topology_kwargs))
    for _ in range(n_hosts * vms_per_host):
        state, _vm = place_vm(state, spec, policy="spread")
    return state


def member_tables(state: ClusterState) -> PlacementTables:
    """Placement tables whose members are every VM of ``state``, in id order."""
    return PlacementTables(state, sorted(state.instances))


def attached(state: ClusterState, vm_id: str) -> list[str]:
    """The ids of the volumes attached to ``vm_id``, in creation order: those whose ``attached_to`` names it."""
    return [vol.id for vol in state.volumes.values() if vol.attached_to == vm_id]


def bind_dfs_volumes(state: ClusterState, storage: str = "local", volume_size_gb: float = 100.0):
    """Attach/locate the DFS data volume for every VM; returns (state, map)."""
    hdfs: dict[str, str] = {}
    for vm_id in sorted(state.instances):
        if storage == "local":
            hdfs[vm_id] = next(v for v in attached(state, vm_id) if state.volumes[v].kind == ROOT)
        else:
            kind = NETWORKED if storage == "networked" else LOCAL_PERSISTENT
            state, vol = attach_volume(state, vm_id, kind, volume_size_gb)
            hdfs[vm_id] = vol.id
    return state, hdfs


def dfs_cluster(n_hosts=5, vms_per_host=1, storage="local", spec=PINNED_VM, **topology_kwargs):
    state = placed_cluster(n_hosts, vms_per_host, spec, **topology_kwargs)
    return bind_dfs_volumes(state, storage)


def run(
    resources: Mapping[str, Resource],
    workload: Iterable[tuple[FlowSpec, float]],
    on_complete: CompletionHook | None = None,
) -> SimTrace:
    """Simulate a finite workload of (flow spec, arrival time) pairs, each added by ``arrive`` in workload order."""
    sim = Simulation(resources)
    for spec, at_time in workload:
        arrive(sim, spec, at_time)
    return sim.run(on_complete=on_complete)


def arrive(sim: Simulation, spec: tuple, at_time: float) -> None:
    """Add a flow of ``add_flow`` arguments ``spec`` at 0.0 directly, or from a timer at a later ``at_time``."""
    if at_time == 0.0:
        sim.add_flow(*spec)
    else:
        sim.add_timer(at_time, lambda sim, now: sim.add_flow(*spec))


REPO = Path(__file__).resolve().parent.parent

# The scenario parser's two YAML parsers: libyaml when PyYAML has it, PyYAML's own otherwise.
PARSERS = [
    pytest.param("libyaml", marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML has no libyaml")),
    "pure",
]
_CHOOSE_PARSER = "import sys, yaml\nif sys.argv[1] == 'pure':\n    yaml.__with_libyaml__ = False\n"


def capacities(sim: Simulation) -> dict[str, float]:
    """``{resource id: capacity}`` of every resource ``sim`` indexed, in index order: its capacity table as a mapping.

    ``allocate_rates`` indexes a mapping in its order, so given this one it
    gives each record the ``hops`` ``sim`` gave it.
    """
    return dict(zip(sim._index, sim._caps))


def start_time(trace: SimTrace, flow_id: str) -> float:
    """The time of ``flow_id``'s one ``flow_start`` event: the trace is where a flow's start is kept."""
    (time,) = [time for time, kind, fid, _, _ in trace.events if kind == "flow_start" and fid == flow_id]
    return time


def dispatch_order(run: bench.DfsioRun) -> list[str]:
    """The task ids of a run's write tasks in the order it dispatched them: its primary flows' add order."""
    return [rec.flow_id.split(".", 1)[0] for rec in run.trace.flows.values() if rec.tags.get("stage") == "primary"]


def run_keeping_files(monkeypatch, *args, **kwargs) -> tuple[bench.DfsioRun, dict[str, DfsFile]]:
    """``run_dfsio(*args, **kwargs)``, and the file each of its tasks read or wrote, by task id.

    A run returns no file, so a spy on ``bench.place_file`` keeps them. A
    read or mixed run places its input files, all ``n_files`` of them in
    task order, before its first task starts, and then each write task
    places its file as the task starts. So the spy's last calls pair, in
    order, with the write tasks in dispatch order, and the calls before
    them with every task in task order. A write task's own file replaces
    the input it does not read. That pairing is checked against the trace:
    each task's read or replica flows carry, by peer, the MB of the blocks
    of its file that the peer serves or holds.
    """
    real_place_file, placed = bench.place_file, []

    def place_file(*place_args):
        placed.append(real_place_file(*place_args))
        return placed[-1]

    with monkeypatch.context() as patch:
        patch.setattr(bench, "place_file", place_file)
        run = bench.run_dfsio(*args, **kwargs)
    order = dispatch_order(run)
    inputs = placed[: len(placed) - len(order)]
    files = {f"t{i:04d}": file for i, file in enumerate(inputs)}
    files.update(zip(order, placed[len(inputs) :]))
    fed: dict[tuple[str, str], dict[str, float]] = {}  # (task, "read" or "rep") -> {peer: MB}
    reader: dict[str, str] = {}
    for rec in run.trace.flows.values():
        task, stage, peer = (rec.flow_id + ".").split(".")[:3]
        if stage in ("read", "rep"):
            fed.setdefault((task, stage), {})[peer] = rec.size_mb
        if stage == "read":
            reader[task] = rec.tags["vm"]
    for (task, stage), by_peer in fed.items():
        want: dict[str, float] = {}
        for block in files[task].blocks:
            vms = block.vms()
            if stage == "rep":
                peers = vms[1:]
            else:
                peers = [reader[task] if reader[task] in vms else min(vms)]
            for peer in peers:
                want[peer] = want.get(peer, 0.0) + block.bytes_mb
        assert by_peer == want, (task, stage)
    return run, files


def throughput(stats: Iterable[bench.TaskStat]) -> float:
    """The throughput ``BenchmarkResult.from_stats`` gives ``stats``: sum(size_i) / sum(time_i)."""
    return bench.BenchmarkResult.from_stats(bench.WRITE, stats, 0.0).throughput_mbps


def avg_io_rate(stats: Iterable[bench.TaskStat]) -> float:
    """The average I/O rate ``BenchmarkResult.from_stats`` gives ``stats``: sum(rate_i) / N."""
    return bench.BenchmarkResult.from_stats(bench.WRITE, stats, 0.0).avg_io_rate_mbps


def stddev_io_rate(stats: Iterable[bench.TaskStat]) -> float:
    """The deviation of the rates ``BenchmarkResult.from_stats`` gives ``stats``."""
    return bench.BenchmarkResult.from_stats(bench.WRITE, stats, 0.0).stddev_io_rate_mbps


def in_fresh_interpreter(parser: str, code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the package from source, with ``args`` in ``sys.argv[2:]``.

    ``parser="pure"`` hides libyaml from the package before ``code`` runs, so it falls back to PyYAML's own parser.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _CHOOSE_PARSER + code, parser, *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def cli_in_fresh_interpreter(parser: str, *argv: str) -> subprocess.CompletedProcess:
    """``storagesim *argv`` in a new interpreter, parsing with ``parser`` (see ``in_fresh_interpreter``)."""
    return in_fresh_interpreter(parser, "from storagesim.cli import main\nsys.exit(main(sys.argv[2:]))", *argv)
