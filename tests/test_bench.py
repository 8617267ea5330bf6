import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    SMALL_VM,
    avg_io_rate,
    bind_dfs_volumes,
    dfs_cluster,
    dispatch_order,
    placed_cluster,
    run_keeping_files,
    start_time,
    stddev_io_rate,
    throughput,
)
from oracles import avg_rate_oracle, throughput_oracle
from storagesim import bench, volumes
from storagesim.bench import BenchmarkResult, DfsioSpec, TaskStat, run_dfsio
from storagesim.dfs import DfsConfig
from storagesim.errors import EmptyStatsError
from storagesim.placement import ClusterState, place_vm
from storagesim.simengine import verify_trace
from storagesim.snapshot import SnapshotPolicy
from storagesim.volumes import ResourcePath, Routes, disk_resource_id


def task_of(rec):
    """The task a benchmark flow belongs to: its flow id names it (``tNNNN.<stage>...``)."""
    return rec.flow_id.split(".", 1)[0]


def stat(i, size, t):
    return TaskStat(task_index=i, file_size_mb=size, elapsed_s=t, rate=size / t)


def stats_of(pairs):
    return [stat(i + 1, s, t) for i, (s, t) in enumerate(pairs)]


# -- metric formulas ----------------------------------------------------------


def test_throughput_single_task():
    assert throughput(stats_of([(1000.0, 10.0)])) == 100.0


def test_throughput_hand_evaluated():
    assert throughput(stats_of([(100.0, 1.0), (100.0, 4.0)])) == 40.0  # 200/5


def test_throughput_identical_tasks():
    assert throughput(stats_of([(1000.0, 8.0)] * 10)) == 125.0


def test_avg_io_rate_single_task():
    assert avg_io_rate(stats_of([(1000.0, 10.0)])) == 100.0


def test_avg_io_rate_hand_evaluated():
    assert avg_io_rate(stats_of([(100.0, 1.0), (100.0, 4.0)])) == 62.5  # (100+25)/2


def test_identical_tasks_make_both_metrics_exactly_equal():
    rng = random.Random(4)
    for _ in range(300):
        size = rng.uniform(0.1, 1e6)
        t = rng.uniform(1e-3, 1e5)
        n = rng.randint(1, 40)
        tasks = stats_of([(size, t)] * n)
        assert throughput(tasks) == avg_io_rate(tasks) == tasks[0].rate


def test_heterogeneous_metrics_match_direct_formula_oracle():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 30)
        sizes = [rng.uniform(1.0, 5000.0) for _ in range(n)]
        times = [rng.uniform(0.01, 500.0) for _ in range(n)]
        tasks = stats_of(list(zip(sizes, times)))
        assert throughput(tasks) == pytest.approx(throughput_oracle(sizes, times), rel=1e-12)
        assert avg_io_rate(tasks) == pytest.approx(avg_rate_oracle(sizes, times), rel=1e-12)


def test_metrics_equal_the_fraction_sums_exactly():
    # the per-item Fraction sums the metrics are defined by, compared with ==
    def fraction_throughput(tasks):
        return float(sum(Fraction(t.file_size_mb) for t in tasks) / sum(Fraction(t.elapsed_s) for t in tasks))

    def fraction_avg_rate(tasks):
        return float(sum(Fraction(t.rate) for t in tasks) / len(tasks))

    rng = random.Random(12)
    for case in range(400):
        n = rng.randint(1, 40)
        if case % 4 == 0:  # YAML `file_size_mb: 1000` arrives as an int
            sizes = [rng.randint(1, 10_000)] * n if case % 8 else [rng.randint(1, 10_000) for _ in range(n)]
        else:  # spread over +/-40 binades
            sizes = [rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-40, 40) for _ in range(n)]
        times = [rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-40, 40) for _ in range(n)]
        if case % 3 == 0:  # identical tasks
            sizes, times = [sizes[0]] * n, [times[0]] * n
        tasks = stats_of(list(zip(sizes, times)))
        assert throughput(tasks) == fraction_throughput(tasks)
        assert avg_io_rate(tasks) == fraction_avg_rate(tasks)


def exact_sum(values):
    """The (numerator, denominator) pair of a running ``bench._ExactSum`` after adding ``values``."""
    total = bench._ExactSum()
    for v in values:
        total.add(v)
    return total.num, total.den


def test_exact_sum_gives_the_pair_over_the_largest_denominator_in_one_pass():
    rng = random.Random(32)
    tiny = math.ulp(0.0)  # the least subnormal
    draws = [
        lambda: rng.uniform(0.0, 1e4),
        lambda: rng.randint(-(10**6), 10**6),
        lambda: tiny * rng.randint(1, 2**52),  # a subnormal
        lambda: math.ldexp(rng.random(), rng.randint(-1074, -960)),
        lambda: math.ldexp(rng.random() + 1.0, rng.randint(960, 1000)),
        lambda: -rng.expovariate(1.0),
    ]
    for _ in range(300):
        values = [rng.choice(draws)() for _ in range(rng.randint(1, 40))]
        ratios = [v.as_integer_ratio() for v in values]
        den = max(d for _, d in ratios)  # the pair a sum over the largest denominator of all gives
        want = sum(n * (den // d) for n, d in ratios), den
        assert exact_sum(values) == want, values
        assert Fraction(*want) == sum(map(Fraction, values))
    assert exact_sum([3, 2**-1074, 2.5]) == (3 * 2**1074 + 1 + 5 * 2**1073, 2**1074)


def test_stddev_zero_for_identical_rates():
    assert stddev_io_rate(stats_of([(1000.0, 10.0)] * 5)) == 0.0


def test_stddev_hand_evaluated():
    # rates 100 and 50: mean 75, deviations +/-25
    assert stddev_io_rate(stats_of([(100.0, 1.0), (100.0, 2.0)])) == 25.0


def test_stddev_single_task_is_zero():
    assert stddev_io_rate(stats_of([(123.0, 7.0)])) == 0.0


def test_empty_stats_rejected():
    for fn in (throughput, avg_io_rate, stddev_io_rate):
        with pytest.raises(EmptyStatsError):
            fn([])


# -- workload execution -------------------------------------------------------


def test_local_write_closed_form():
    state, hdfs = dfs_cluster(n_hosts=5)
    run = run_dfsio(
        state,
        DfsioSpec(n_files=5, file_size_mb=1000.0, mode="write", map_capacity=25, slots_per_vm=1),
        hdfs,
        dfs_config=DfsConfig(replication_factor=1),
        seed=1,
    )
    r = run.result
    assert (r.throughput_mbps, r.avg_io_rate_mbps, r.stddev_io_rate_mbps) == (100.0, 100.0, 0.0)
    assert all(s.elapsed_s == 10.0 for s in run.stats)
    assert verify_trace(run.trace) == []


def test_a_runs_stats_are_made_on_access_from_each_tasks_start_and_end():
    state, hdfs = dfs_cluster(n_hosts=5, storage="networked")
    spec = DfsioSpec(n_files=12, file_size_mb=300, mode="write", map_capacity=4, slots_per_vm=1)  # an int size
    run = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=2), seed=3)
    stats = run.stats
    assert isinstance(stats, bench.TaskStats) and len(stats) == 12
    # the run keeps each task's start and end and the size, and no TaskStat
    assert not hasattr(stats, "__dict__") and len(stats._starts) == len(stats._ends) == 12 and stats._size == 300
    ends = {}  # a task ends with its last flow, and starts with its primary write
    for rec in run.trace.flows.values():
        ends[task_of(rec)] = max(ends.get(task_of(rec), 0.0), rec.end_time)
    want = []
    for i in range(12):
        elapsed = ends[f"t{i:04d}"] - start_time(run.trace, f"t{i:04d}.write")
        want.append(TaskStat(i + 1, 300, elapsed, 300 / elapsed))
    assert list(stats) == [stats[i] for i in range(12)] == [stats[i - 12] for i in range(12)] == want
    assert len({s.elapsed_s for s in stats}) > 1  # tasks that queued and shared the controller differ
    for bad in (12, -13):
        with pytest.raises(IndexError):
            stats[bad]
    assert run.result == BenchmarkResult.from_stats("write", want, max(rec.end_time for rec in run.trace.flows.values()))


def test_networked_write_fair_share_closed_form():
    # all five flows share the controller uplink: 125/5 = 25 MB/s each
    state, hdfs = dfs_cluster(n_hosts=5, storage="networked", controller_read_bw=1000.0, controller_write_bw=1000.0)
    run = run_dfsio(
        state,
        DfsioSpec(n_files=5, file_size_mb=1000.0, mode="write", map_capacity=25, slots_per_vm=1),
        hdfs,
        dfs_config=DfsConfig(replication_factor=1),
        seed=1,
    )
    assert run.result.throughput_mbps == 25.0
    assert run.result.finished_at == 40.0
    assert verify_trace(run.trace) == []


def test_write_then_read_locality_keeps_reads_local(monkeypatch):
    state, hdfs = dfs_cluster(n_hosts=5)
    spec = DfsioSpec(n_files=5, file_size_mb=1000.0, mode="write", slots_per_vm=1)
    cfg = DfsConfig(replication_factor=3)
    _w, written = run_keeping_files(monkeypatch, state, spec, hdfs, dfs_config=cfg, seed=2)
    r, read = run_keeping_files(monkeypatch, state, spec._replace(mode="read"), hdfs, dfs_config=cfg, seed=2)
    assert read == written  # the write pass dispatched in task order, so it placed the read run's inputs
    # every reader holds replica 1 of its own file: all reads are disk-local
    assert all(not rec.path.resources[0].startswith("link:") and len(rec.path.resources) == 1
               for rec in r.trace.flows.values())
    assert r.result.throughput_mbps == 100.0
    assert verify_trace(r.trace) == []


def test_a_flow_that_one_block_feeds_takes_that_blocks_size_object(monkeypatch):
    """A replica or read flow fed by one block holds the block's ``bytes_mb``; one fed by several, their sum from 0.0."""
    state, hdfs = dfs_cluster(n_hosts=5)
    seen = Counter()  # (stage, shared size object or not)
    for size in (64.0, 200.0):  # one block, then four
        spec = DfsioSpec(n_files=12, file_size_mb=size, mode="mixed", map_capacity=5, slots_per_vm=1)
        cfg = DfsConfig(block_size_mb=64.0, replication_factor=2, seed=3)
        run, files = run_keeping_files(monkeypatch, state, spec, hdfs, dfs_config=cfg, seed=4)
        for rec in run.trace.flows.values():
            task, stage, peer = (rec.flow_id + ".").split(".")[:3]
            file = files[task]
            if stage == "rep":
                feeding = [b.bytes_mb for b in file.blocks if peer in b.vms()[1:]]
            elif stage == "read":
                vm = rec.tags["vm"]
                feeding = [b.bytes_mb for b in file.blocks if (vm if vm in b.vms() else min(b.vms())) == peer]
            else:
                continue
            if len(feeding) == 1:
                assert rec.size_mb is feeding[0], rec.flow_id
            else:
                total = 0.0
                for mb in feeding:
                    total += mb
                assert rec.size_mb.hex() == total.hex(), rec.flow_id
            seen[stage, len(feeding) == 1] += 1
    assert set(seen) == {("rep", True), ("rep", False), ("read", True), ("read", False)}, seen


def test_replication_pipeline_extends_task_time():
    state, hdfs = dfs_cluster(n_hosts=5)
    spec = DfsioSpec(n_files=5, file_size_mb=500.0, mode="write", slots_per_vm=1)
    rf1 = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=3)
    rf3 = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=3), seed=3)
    assert rf3.result.finished_at > rf1.result.finished_at
    assert verify_trace(rf3.trace) == []
    # replica copies land on the peers' DFS volumes, so the trace's write flows hold triple the bytes
    writer_of = {task_of(rec): rec.tags["vm"] for rec in rf3.trace.flows.values() if rec.tags["stage"] == "primary"}
    written: dict[str, float] = {}
    for rec in rf3.trace.flows.values():
        assert rec.path.direction == "write"
        written[rec.tags["volume_id"]] = written.get(rec.tags["volume_id"], 0.0) + rec.size_mb
        if rec.tags["stage"] == "replica":
            peer = rec.tags["vm"]
            assert peer != writer_of[task_of(rec)] and rec.tags["volume_id"] == hdfs[peer]
            assert rec.path.resources[-1] == disk_resource_id(*state.volumes[hdfs[peer]].backing)
    assert set(written) <= set(hdfs.values())
    assert math.fsum(written.values()) == pytest.approx(3 * 5 * 500.0)


@pytest.mark.parametrize("mode", ["write", "mixed"])
def test_run_dfsio_leaves_its_input_state_alone(monkeypatch, mode):
    state, hdfs = dfs_cluster(n_hosts=5)
    cfg = DfsConfig(replication_factor=3)
    spec = DfsioSpec(n_files=10, file_size_mb=128.0, mode=mode, slots_per_vm=2)
    before = state.clone()
    cloned = []
    real_clone = ClusterState.clone

    def clone(self):
        cloned.append(self)
        return real_clone(self)

    monkeypatch.setattr(ClusterState, "clone", clone)
    run = run_dfsio(state, spec, hdfs, dfs_config=cfg, seed=8, snapshots=SnapshotPolicy(interval_s=2.0))
    assert cloned == []  # nothing is written to the state, so there is nothing to copy
    assert state == before
    stages = {rec.tags["stage"] for rec in run.trace.flows.values() if "stage" in rec.tags}
    assert stages == ({"primary", "replica", "read"} if mode == "mixed" else {"primary", "replica"})
    assert run.snapshot_records


def test_tasks_queue_behind_map_capacity_and_slots():
    state, hdfs = dfs_cluster(n_hosts=5)
    run = run_dfsio(
        state,
        DfsioSpec(n_files=10, file_size_mb=100.0, mode="write", map_capacity=3, slots_per_vm=1),
        hdfs,
        dfs_config=DfsConfig(replication_factor=1),
        seed=4,
    )
    # reconstruct task intervals from the trace: cluster concurrency never
    # tops map_capacity=3 and no VM ever runs two tasks (slots_per_vm=1)
    intervals = {}
    vm_of_task = {}
    for rec in run.trace.flows.values():
        idx = task_of(rec)
        s, e = intervals.get(idx, (math.inf, 0.0))
        intervals[idx] = (min(s, start_time(run.trace, rec.flow_id)), max(e, rec.end_time))
        if rec.tags["stage"] == "primary":
            vm_of_task[idx] = rec.tags["vm"]
    boundaries = sorted({t for s, e in intervals.values() for t in (s, e)})
    for a, b in zip(boundaries, boundaries[1:]):
        mid = (a + b) / 2
        running = [idx for idx, (s, e) in intervals.items() if s <= mid < e]
        assert len(running) <= 3
        per_vm = [vm_of_task[idx] for idx in running]
        assert len(per_vm) == len(set(per_vm))
    assert verify_trace(run.trace) == []


def test_mixed_mode_interleaves_reads_and_writes():
    state, hdfs = dfs_cluster(n_hosts=5)
    mixed = run_dfsio(
        state,
        DfsioSpec(n_files=6, file_size_mb=200.0, mode="mixed", slots_per_vm=2, read_fraction=0.5),
        hdfs,
        dfs_config=DfsConfig(replication_factor=1),
        seed=0,  # draws W W R R W R
    )
    stages = {rec.tags["stage"] for rec in mixed.trace.flows.values()}
    assert "read" in stages and "primary" in stages
    assert verify_trace(mixed.trace) == []


def test_input_files_are_the_files_a_write_pass_in_task_order_places(monkeypatch):
    rng = random.Random(26)
    in_order = read_files = 0
    for _ in range(40):
        n_hosts, vms_per_host = rng.randint(2, 4), rng.randint(1, 2)
        state, hdfs = dfs_cluster(n_hosts, vms_per_host, rng.choice(["local", "networked"]), spec=SMALL_VM)
        rf = rng.randint(1, min(3, n_hosts * vms_per_host))
        cfg = DfsConfig(replication_factor=rf, seed=rng.randrange(2**31))
        spec = DfsioSpec(
            n_files=rng.randint(1, 12),
            file_size_mb=rng.choice([16.0, 100.0, 300.0]),  # one 64 MB block, or several
            mode=rng.choice(["read", "mixed"]),
            map_capacity=rng.randint(1, 8),
            slots_per_vm=rng.randint(1, 3),
        )
        write_spec = spec._replace(mode="write")
        write_run, written = run_keeping_files(monkeypatch, state, write_spec, hdfs, dfs_config=cfg)
        order = dispatch_order(write_run)
        if order != sorted(order):
            continue  # a writer's slots were full when its task headed the queue
        in_order += 1
        run, files = run_keeping_files(monkeypatch, state, spec, hdfs, dfs_config=cfg)
        # a write task of a mixed run places its own file as it starts; a read task's is its input file
        reads = sorted({task_of(rec) for rec in run.trace.flows.values() if rec.tags["stage"] == "read"})
        for task in reads:
            assert files[task] == written[task], (spec, cfg, task)
            read_files += 1
    assert in_order >= 30 and read_files >= 100


def test_input_files_are_placed_in_task_order_when_the_write_pass_dispatches_out_of_order(monkeypatch):
    # three members on two hosts: vm001 and vm003 share h01's disk, so vm002 finishes first and its
    # second task is dispatched while vm001's second task still waits for vm001's only slot
    state = placed_cluster(n_hosts=2, vms_per_host=1, spec=SMALL_VM)
    state, _vm = place_vm(state, SMALL_VM, policy="spread")
    state, hdfs = bind_dfs_volumes(state, "local")
    assert [state.instances[vm].host_id for vm in sorted(hdfs)] == ["h01", "h02", "h01"]
    cfg = DfsConfig(replication_factor=2, seed=11)
    spec = DfsioSpec(n_files=6, file_size_mb=200.0, mode="read", map_capacity=3, slots_per_vm=1)
    write_spec = spec._replace(mode="write")
    slotted, slotted_files = run_keeping_files(monkeypatch, state, write_spec, hdfs, dfs_config=cfg)
    assert dispatch_order(slotted) == ["t0000", "t0001", "t0002", "t0004", "t0003", "t0005"]
    # with a slot per task no writer waits, so that write pass dispatches in task order
    write_spec = write_spec._replace(slots_per_vm=6)
    unslotted, unslotted_files = run_keeping_files(monkeypatch, state, write_spec, hdfs, dfs_config=cfg)
    assert dispatch_order(unslotted) == [f"t{i:04d}" for i in range(6)]
    _run, files = run_keeping_files(monkeypatch, state, spec, hdfs, dfs_config=cfg)
    assert files == unslotted_files
    assert files != slotted_files  # the out-of-order pass drew the shared stream in another order


@pytest.mark.parametrize("storage", ["networked", "local"])
def test_each_run_resolves_every_path_once(monkeypatch, storage):
    state, hdfs = dfs_cluster(n_hosts=5, storage=storage)
    dfs_config = DfsConfig(replication_factor=3)
    calls = Counter()
    real_management_path, real_resolve_io_path = volumes.management_path, volumes.resolve_io_path

    def management_path(topology, src, dst):
        calls["link", src, dst] += 1
        return real_management_path(topology, src, dst)

    def resolve_io_path(routes, vm_id, volume_id, direction):
        calls["volume", vm_id] += 1
        return real_resolve_io_path(routes, vm_id, volume_id, direction)

    monkeypatch.setattr(volumes, "management_path", management_path)
    monkeypatch.setattr(volumes, "resolve_io_path", resolve_io_path)
    run = run_dfsio(
        state,
        DfsioSpec(n_files=60, file_size_mb=128.0, mode="mixed", read_fraction=0.5),
        hdfs,
        dfs_config=dfs_config,
        seed=4,
        snapshots=SnapshotPolicy(interval_s=5.0) if storage == "local" else None,
    )
    flows = run.trace.flows.values()
    stages = {rec.tags.get("stage") for rec in flows}
    assert stages - {None} == {"primary", "replica", "read"}
    assert (None in stages) == (storage == "local")  # snapshot transfers carry no stage
    # one resolve per VM serves its reads and writes, and each ordered node pair's links are looked up once
    assert max(calls.values()) == 1, calls.most_common(3)
    assert {key[1] for key in calls if key[0] == "volume"} == set(hdfs)
    host_of = {vm: inst.host_id for vm, inst in state.instances.items()}
    to_controller = {("link", host, "controller") for host in host_of.values()}
    assert to_controller <= calls.keys()  # networked volume I/O, or local snapshot transfers
    topology = state.topology

    def links(src_host, dst_host):
        return tuple(f"link:{l.id}" for l in real_management_path(topology, src_host, dst_host))

    def shared_paths(stage, key_of):
        """key -> {id(path): path} over the flows of one stage."""
        paths = {}
        for rec in flows:
            if rec.tags.get("stage") == stage:
                paths.setdefault(key_of(rec), {})[id(rec.path)] = rec.path
        return paths

    # every replica flow of one (writer, peer) pair carries one path object, equal to a fresh resolve
    writer_of = {task_of(rec): rec.tags["vm"] for rec in flows if rec.tags.get("stage") == "primary"}
    replica_paths = shared_paths("replica", lambda rec: (writer_of[task_of(rec)], rec.tags["vm"]))

    def fresh_replica_path(writer, peer):
        volume = real_resolve_io_path(Routes(state, hdfs), peer, hdfs[peer], "write").resources
        return ResourcePath(links(host_of[writer], host_of[peer]) + volume, "write")

    assert all(list(paths.values()) == [fresh_replica_path(*key)] for key, paths in replica_paths.items())
    # and so does every read flow of one (source VM, reader VM) pair
    read_paths = shared_paths("read", lambda rec: (rec.flow_id.split(".read.")[1], rec.tags["vm"]))

    def fresh_read_path(src, reader):
        volume = real_resolve_io_path(Routes(state, hdfs), src, hdfs[src], "read").resources
        return ResourcePath(volume + links(host_of[src], host_of[reader]), "read")

    assert all(list(paths.values()) == [fresh_read_path(*key)] for key, paths in read_paths.items())
    n_reads = sum(rec.tags.get("stage") == "read" for rec in flows)
    assert n_reads > len(read_paths)  # some read path is shared
    assert any(host_of[src] != host_of[reader] for src, reader in read_paths)  # some read is remote


def test_vms_that_share_a_host_share_its_links_to_the_controller(monkeypatch):
    # two networked DFS VMs per host: both volume paths take the host's one ("links", host, controller) entry
    state, hdfs = dfs_cluster(n_hosts=3, vms_per_host=2, storage="networked", spec=SMALL_VM)
    calls = Counter()
    real_management_path = volumes.management_path

    def management_path(topology, src, dst):
        calls[src, dst] += 1
        return real_management_path(topology, src, dst)

    monkeypatch.setattr(volumes, "management_path", management_path)
    spec = DfsioSpec(n_files=12, file_size_mb=100.0, mode="mixed", read_fraction=0.5, slots_per_vm=1)
    run = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=3), seed=3)
    assert {rec.tags["stage"] for rec in run.trace.flows.values()} == {"primary", "replica", "read"}
    hosts = sorted({vm.host_id for vm in state.instances.values()})
    assert len(hosts) == 3 and len(hdfs) == 6
    assert {(host, "controller") for host in hosts} <= calls.keys()
    assert max(calls.values()) == 1, calls.most_common(3)  # one call per node pair routed


@pytest.mark.parametrize("storage", ["networked", "local"])
def test_flows_of_one_route_share_one_read_only_tags_mapping(storage):
    state, hdfs = dfs_cluster(n_hosts=5, storage=storage)
    spec = DfsioSpec(n_files=40, file_size_mb=128.0, mode="mixed", slots_per_vm=2)
    snapshots = SnapshotPolicy(interval_s=2.0) if storage == "local" else None
    run = run_dfsio(state, spec, hdfs, seed=6, snapshots=snapshots)
    flows = run.trace.flows.values()
    bench_flows = [rec for rec in flows if "stage" in rec.tags]
    snapshot_flows = [rec for rec in flows if rec.tags.get("kind") == "snapshot"]
    assert len(bench_flows) + len(snapshot_flows) == len(run.trace.flows)
    routes = {(rec.tags["stage"], rec.tags["vm"], rec.tags["volume_id"]) for rec in bench_flows}
    assert {stage for stage, _, _ in routes} == {"primary", "replica", "read"}
    assert len({id(rec.tags) for rec in bench_flows}) == len(routes) < len(bench_flows)
    # a snapshot transfer carries its volume's one mapping
    assert bool(snapshot_flows) == (storage == "local")
    assert len({id(rec.tags) for rec in snapshot_flows}) == len({rec.tags["volume_id"] for rec in snapshot_flows})
    for rec in flows:
        assert "task" not in rec.tags  # the flow id names the task
        with pytest.raises(TypeError):
            rec.tags["stage"] = "primary"  # shared, so read-only


def test_local_beats_networked_when_controller_path_is_tighter():
    for disk_bw, link_bw in [(100.0, 125.0), (150.0, 50.0), (60.0, 250.0)]:
        kwargs = dict(disk_read_bw=disk_bw, disk_write_bw=disk_bw, link_bw=link_bw)
        spec = DfsioSpec(n_files=10, file_size_mb=1000.0, mode="write", map_capacity=25, slots_per_vm=5)
        local_state, local_hdfs = dfs_cluster(n_hosts=5, **kwargs)
        net_state, net_hdfs = dfs_cluster(n_hosts=5, storage="networked", **kwargs)
        cfg = DfsConfig(replication_factor=1)
        local = run_dfsio(local_state, spec, local_hdfs, dfs_config=cfg, seed=7)
        net = run_dfsio(net_state, spec, net_hdfs, dfs_config=cfg, seed=7)
        per_flow_share = min(link_bw, disk_bw) / 10.0
        assert per_flow_share < disk_bw
        assert local.result.throughput_mbps > net.result.throughput_mbps


def test_benchmark_result_record_is_consistent():
    tasks = stats_of([(100.0, 2.0), (300.0, 4.0)])
    result = BenchmarkResult.from_stats("write", tasks, finished_at=4.0)
    assert result.n_files == 2
    assert result.total_mb == 400.0
    assert result.stddev_io_rate_mbps == stddev_io_rate(tasks) == 12.5
    d = result.to_dict()
    assert d["throughput_mbps"] == result.throughput_mbps
