import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import SMALL_VM, dfs_cluster
from oracles import avg_rate_oracle, throughput_oracle
from storagesim import bench
from storagesim.bench import BenchmarkResult, DfsioSpec, TaskStat, avg_io_rate, run_dfsio, stddev_io_rate, throughput
from storagesim.dfs import DfsConfig
from storagesim.errors import EmptyStatsError, ReadBeforeWriteError
from storagesim.simengine import verify_trace


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


def test_read_before_write_is_an_error():
    state, hdfs = dfs_cluster(n_hosts=3, spec=SMALL_VM)
    with pytest.raises(ReadBeforeWriteError):
        run_dfsio(state, DfsioSpec(n_files=3, file_size_mb=100.0, mode="read"), hdfs)


def test_write_then_read_locality_keeps_reads_local():
    state, hdfs = dfs_cluster(n_hosts=5)
    spec = DfsioSpec(n_files=5, file_size_mb=1000.0, mode="write", slots_per_vm=1)
    w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=3), seed=2)
    r = run_dfsio(
        w.state,
        DfsioSpec(n_files=5, file_size_mb=1000.0, mode="read", slots_per_vm=1),
        hdfs,
        dfs_config=DfsConfig(replication_factor=3),
        seed=2,
        files=w.files,
    )
    # every reader holds replica 1 of its own file: all reads are disk-local
    assert all(not rec.path.resources[0].startswith("link:") and len(rec.path.resources) == 1
               for rec in r.trace.flows.values())
    assert r.result.throughput_mbps == 100.0
    assert verify_trace(r.trace) == []


def test_replication_pipeline_extends_task_time():
    state, hdfs = dfs_cluster(n_hosts=5)
    spec = DfsioSpec(n_files=5, file_size_mb=500.0, mode="write", slots_per_vm=1)
    rf1 = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=3)
    rf3 = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=3), seed=3)
    assert rf3.result.finished_at > rf1.result.finished_at
    assert verify_trace(rf3.trace) == []
    # replica copies land on the peers' volumes: written bytes triple
    stored_rf3 = sum(v.stored_mb for v in rf3.state.volumes.values())
    assert stored_rf3 == pytest.approx(3 * 5 * 500.0)


def test_ack_first_pipeline_finishes_tasks_at_primary():
    state, hdfs = dfs_cluster(n_hosts=5)
    spec = DfsioSpec(n_files=5, file_size_mb=500.0, mode="write", slots_per_vm=1)
    full = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=3), seed=3)
    acked = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=3), seed=3, pipeline="ack_first")
    assert acked.result.finished_at <= full.result.finished_at
    # background replica flows still ran to completion
    assert all(rec.end_time is not None for rec in acked.trace.flows.values())
    assert verify_trace(acked.trace) == []


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
        idx = rec.tags["task"]
        s, e = intervals.get(idx, (math.inf, 0.0))
        intervals[idx] = (min(s, rec.start_time), max(e, rec.end_time))
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
    spec = DfsioSpec(n_files=6, file_size_mb=200.0, mode="write", slots_per_vm=2)
    w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=5)
    mixed = run_dfsio(
        w.state,
        DfsioSpec(n_files=6, file_size_mb=200.0, mode="mixed", slots_per_vm=2, read_fraction=0.5),
        hdfs,
        dfs_config=DfsConfig(replication_factor=1),
        seed=0,  # draws W W R R W R
        files=w.files,
    )
    stages = {rec.tags["stage"] for rec in mixed.trace.flows.values()}
    assert "read" in stages and "primary" in stages
    assert verify_trace(mixed.trace) == []


def test_each_run_resolves_every_path_once(monkeypatch):
    state, hdfs = dfs_cluster(n_hosts=5, storage="networked")
    dfs_config = DfsConfig(replication_factor=3)
    w = run_dfsio(state, DfsioSpec(n_files=60, file_size_mb=128.0), hdfs, dfs_config=dfs_config, seed=4)
    calls = Counter()
    real_management_path, real_resolve_io_path = bench.management_path, bench.resolve_io_path

    def management_path(topology, src, dst):
        calls["link", src, dst] += 1
        return real_management_path(topology, src, dst)

    def resolve_io_path(state, vm_id, volume_id, direction):
        calls["volume", vm_id, direction] += 1
        return real_resolve_io_path(state, vm_id, volume_id, direction)

    monkeypatch.setattr(bench, "management_path", management_path)
    monkeypatch.setattr(bench, "resolve_io_path", resolve_io_path)
    run = run_dfsio(
        w.state,
        DfsioSpec(n_files=60, file_size_mb=128.0, mode="mixed", read_fraction=0.5),
        hdfs,
        dfs_config=dfs_config,
        seed=4,
        files=w.files,
    )
    assert {rec.tags["stage"] for rec in run.trace.flows.values()} == {"primary", "replica", "read"}
    assert {key[0] for key in calls} == {"link", "volume"}
    assert {key[2] for key in calls if key[0] == "volume"} == {"read", "write"}
    assert max(calls.values()) == 1, calls.most_common(3)


def test_dirty_bytes_marked_for_snapshot_accounting():
    state, hdfs = dfs_cluster(n_hosts=2, spec=SMALL_VM)
    run = run_dfsio(
        state,
        DfsioSpec(n_files=2, file_size_mb=300.0, mode="write", slots_per_vm=1),
        hdfs,
        dfs_config=DfsConfig(replication_factor=1),
        seed=6,
    )
    dirty = {v.id: v.dirty_mb for v in run.state.volumes.values() if v.dirty_mb > 0}
    assert sum(dirty.values()) == 600.0


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
    assert result.sum_rate == pytest.approx(125.0)
    assert result.sum_rate_sq == pytest.approx(50.0**2 + 75.0**2)
    d = result.to_dict()
    assert d["throughput_mbps"] == result.throughput_mbps
