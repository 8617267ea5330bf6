"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time

import pytest

from helpers import SMALL_VM, arrive, avg_io_rate, dfs_cluster, member_tables, placed_cluster, throughput
from oracles import bottleneck_violations, maxmin_fill_oracle
from storagesim.bench import DfsioSpec, TaskStat, run_dfsio
from storagesim.cost import PriceTable, compute_cost, savings
from storagesim.dfs import DfsConfig, ReplicaCoLocationWarning, place_replicas
from storagesim.errors import MigrationDisabledError, NoCandidateHostError
from storagesim.placement import ClusterState, VmSpec, migrate_vm, place_vm
from storagesim.scenario import parse_scenario, run_scenario
from storagesim.topology import reference_cluster
from storagesim.simengine import FlowRecord, Simulation, allocate_rates, build_resources, verify_trace
from storagesim.snapshot import SnapshotPolicy, network_bytes, plan_snapshots
from storagesim.volumes import ResourcePath, Routes


def _line(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")


# -- 1. cost reproduction -------------------------------------------------------


def test_criterion_1_cost_reproduction():
    table = PriceTable()
    t0 = time.perf_counter()
    # The same hour of work: a local run performs no billed operations, a networked one a million.
    ephemeral = compute_cost(1.0, 0, table)
    ebs = compute_cost(1.0, 1_000_000, table)
    fraction = savings(ephemeral, ebs)
    elapsed = time.perf_counter() - t0
    ok = abs(fraction - 0.2941) <= 0.0001 and elapsed < 0.001
    _line(1, "one instance-hour with a million ops is 29% cheaper on local storage", ok,
          f"savings={fraction:.6f}, runtime={elapsed * 1e6:.0f} us")
    assert abs(fraction - 0.2941) <= 0.0001, fraction
    assert elapsed < 0.001, f"cost arithmetic took {elapsed:.6f} s"


# -- 2. metric identity ---------------------------------------------------------


def test_criterion_2_metric_identity():
    rng = random.Random(20)
    identical_ok = True
    for _ in range(200):
        size = rng.uniform(1e-3, 1e6)
        t = rng.uniform(1e-4, 1e5)
        n = rng.randint(1, 60)
        stats = [TaskStat(i + 1, size, t, size / t) for i in range(n)]
        if throughput(stats) != avg_io_rate(stats):
            identical_ok = False
            break

    oracle_ok = True
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 40)
        sizes = [rng.uniform(0.5, 10_000.0) for _ in range(n)]
        times = [rng.uniform(0.01, 1_000.0) for _ in range(n)]
        stats = [TaskStat(i + 1, s, t, s / t) for i, (s, t) in enumerate(zip(sizes, times))]
        thr_oracle = sum(sizes) / sum(times)
        avg_oracle = sum(s / t for s, t in zip(sizes, times)) / n
        err = max(
            abs(throughput(stats) - thr_oracle) / thr_oracle,
            abs(avg_io_rate(stats) - avg_oracle) / avg_oracle,
        )
        worst = max(worst, err)
        if err > 1e-12:
            oracle_ok = False
    ok = identical_ok and oracle_ok
    _line(2, "identical tasks give exactly equal metrics; 1000 random lists match the formulas", ok,
          f"worst relative error {worst:.2e}")
    assert identical_ok
    assert oracle_ok, f"worst {worst}"


# -- 3. performance ordering ----------------------------------------------------


def test_criterion_3_local_beats_networked_across_sweep():
    spec = DfsioSpec(n_files=10, file_size_mb=1000.0, mode="write", map_capacity=25, slots_per_vm=5)
    cfg = DfsConfig(replication_factor=1)
    checked = 0
    t0 = time.perf_counter()
    for disk_bw in [50.0 + 150.0 * i / 9.0 for i in range(10)]:
        for link_bw in [50.0 + 200.0 * j / 9.0 for j in range(10)]:
            kwargs = dict(disk_read_bw=disk_bw, disk_write_bw=disk_bw, link_bw=link_bw)
            local_state, local_hdfs = dfs_cluster(n_hosts=5, **kwargs)
            net_state, net_hdfs = dfs_cluster(n_hosts=5, storage="networked", **kwargs)
            local = run_dfsio(local_state, spec, local_hdfs, dfs_config=cfg, seed=3)
            networked = run_dfsio(net_state, spec, net_hdfs, dfs_config=cfg, seed=3)
            # ten concurrent flows share the controller path
            fair_share = min(link_bw, disk_bw) / 10.0
            if fair_share < disk_bw:
                assert local.result.throughput_mbps > networked.result.throughput_mbps, (disk_bw, link_bw)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and elapsed < 10.0
    _line(3, "local strictly beats networked across the 100-point bandwidth sweep", ok,
          f"{checked} orderings in {elapsed:.2f} s")
    assert checked == 100
    assert elapsed < 10.0


# -- 4. fair-share correctness --------------------------------------------------


def test_criterion_4_fair_share_matches_oracle():
    rng = random.Random(40)
    instances = 0
    worst = 0.0
    # structured corner cases first: star, chain, disjoint, single
    families = [
        ({"f0": ("r0",)}, {"r0": 100.0}),
        ({"f0": ("r0", "r1"), "f1": ("r1", "r2"), "f2": ("r2", "r3")}, {"r0": 80.0, "r1": 50.0, "r2": 30.0, "r3": 90.0}),
        ({f"f{j}": ("r0", f"r{j + 1}") for j in range(3)}, {"r0": 90.0, "r1": 10.0, "r2": 40.0, "r3": 100.0}),
        ({"f0": ("r0",), "f1": ("r1",)}, {"r0": 10.0, "r1": 20.0}),
    ]
    while instances < 520:
        if families:
            paths, caps = families.pop()
        else:
            n_res = rng.randint(1, 4)
            caps = {f"r{i}": rng.choice([5.0, 10.0, 25.0, 50.0, 100.0, 125.0, 200.0]) for i in range(n_res)}
            paths = {
                f"f{j}": tuple(rng.sample(sorted(caps), rng.randint(1, n_res)))
                for j in range(rng.randint(1, 5))
            }
        flows = [
            FlowRecord(fid, ResourcePath(p, "write"), 1000.0, None, {}, 1000.0)
            for fid, p in sorted(paths.items())
        ]
        got = allocate_rates(flows, caps)
        want = maxmin_fill_oracle(paths, caps)
        for fid in paths:
            worst = max(worst, abs(got[fid] - want[fid]))
            assert abs(got[fid] - want[fid]) <= 1e-9, (fid, got[fid], want[fid], paths, caps)
        assert bottleneck_violations(paths, caps, got) == [], (paths, caps, got)
        instances += 1
    ok = instances >= 500
    _line(4, "progressive filling matches the brute-force oracle on every small instance", ok,
          f"{instances} instances, worst |delta| {worst:.2e}")
    assert ok


# -- 5. rack awareness ----------------------------------------------------------


def test_criterion_5_rack_awareness_over_10000_placements():
    rng = random.Random(50)
    placements = 0
    clusters = []
    for _ in range(60):
        hosts = rng.randint(2, 10)
        per_host = rng.randint(1, 4)
        if hosts * per_host < 3:  # rf=3 needs three member VMs
            per_host = 2
        clusters.append(member_tables(placed_cluster(n_hosts=hosts, vms_per_host=per_host, spec=SMALL_VM)))
    while placements < 10_000:
        tables = clusters[placements % len(clusters)]
        members = tables.members
        writer = members[rng.randrange(len(members))]
        block = place_replicas(tables, writer, 64.0, rf=3, rng=rng)
        vms = block.vms()
        assert len(set(vms)) == 3, vms
        assert len({rack for _, rack in block.replicas}) >= 2, block
        assert vms[0] == writer
        placements += 1

    with pytest.warns(ReplicaCoLocationWarning):
        single = member_tables(placed_cluster(n_hosts=1, vms_per_host=3, spec=SMALL_VM))
        place_replicas(single, single.members[0], 64.0, rf=3, rng=rng)
    _line(5, "10,000 seeded placements all span >=2 racks on distinct VMs; single-rack warns", True,
          f"{placements} placements over {len(clusters)} cluster shapes")


# -- 6. snapshot accounting -----------------------------------------------------


def test_criterion_6_snapshot_byte_accounting():
    # write-once / read-5x of 10 GB: local ships 10 GB, networked 60 GB
    def run_phases(storage):
        state, hdfs = dfs_cluster(n_hosts=5, storage=storage)
        spec = DfsioSpec(n_files=10, file_size_mb=1024.0, mode="write", slots_per_vm=2)
        snapshots = SnapshotPolicy() if storage == "local" else None
        w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=6, snapshots=snapshots)
        traces = [w.trace]
        for _ in range(5):
            r = run_dfsio(state, DfsioSpec(n_files=10, file_size_mb=1024.0, mode="read", slots_per_vm=2), hdfs,
                          dfs_config=DfsConfig(replication_factor=1), seed=6)
            traces.append(r.trace)
        return traces

    local_traces = run_phases("local")
    networked_traces = run_phases("networked")
    local_mb = math.fsum(network_bytes(t) for t in local_traces)
    networked_mb = math.fsum(network_bytes(t) for t in networked_traces)
    exact_ok = local_mb == 10 * 1024.0 and networked_mb == 60 * 1024.0

    # conservation: snapshot bytes equal written bytes on 1,000 random
    # write-once workloads (trace-level: random flows onto root volumes)
    rng = random.Random(60)
    conserved = 0
    for _ in range(1000):
        n_flows = rng.randint(1, 6)
        topology = reference_cluster(disk_read_bw=1000.0, disk_write_bw=1000.0)
        sim = Simulation(build_resources(topology))
        total = 0.0
        for j in range(n_flows):
            size = rng.choice([16.0, 64.0, 333.0, 1024.0]) * rng.randint(1, 4)
            total += size
            flow = (
                f"w{j}",
                ResourcePath(("disk:h01:disk1",), "write"),
                size,
                {"volume_id": f"vol{j % 2:03d}", "volume_kind": "root"},
            )
            arrive(sim, flow, rng.uniform(0.0, 30.0))
        from storagesim.volumes import Volume

        volumes = {
            f"vol{k:03d}": Volume(f"vol{k:03d}", "root", 100.0, ("h01", "disk1")) for k in range(2)
        }
        policy = SnapshotPolicy(interval_s=rng.choice([3.0, 11.0, 3600.0]))
        records = plan_snapshots(sim, volumes, policy, Routes(ClusterState.from_topology(topology), {}))
        sim.run()
        copied = math.fsum(r.bytes_copied for r in records)
        if abs(copied - total) <= 1e-6 * total:
            conserved += 1
    ok = exact_ok and conserved == 1000
    _line(6, "network bytes 10 GB local+snapshot vs 60 GB networked; snapshots conserve written bytes", ok,
          f"local={local_mb} MB, networked={networked_mb} MB, {conserved}/1000 conserved")
    assert exact_ok, (local_mb, networked_mb)
    assert conserved == 1000


# -- 7. determinism and conservation ---------------------------------------------


def _scenario_doc():
    return {
        "schema": 1,
        "seed": 424,
        "topology": {"reference": {"n_hosts": 5}},
        "vms": [{"vcpus": 4, "ram_gb": 8, "root_disk_gb": 32, "ephemeral_gb": 20,
                 "long_running": True, "migratable": False, "count": 5, "policy": "spread"}],
        "storage_config": "local",
        "dfs": {"block_size_mb": 64, "replication_factor": 3, "seed": 7},
        "dfsio": {"n_files": 10, "file_size_mb": 1000, "mode": "write", "map_capacity": 25, "slots_per_vm": 5},
        "snapshot": {"interval_s": 60},
        "prices": {},
    }


def test_criterion_7_determinism_and_trace_conservation():
    runs = [run_scenario(parse_scenario(_scenario_doc()), storage_config=cfg)
            for cfg in ("local", "networked")]
    repeat = [run_scenario(parse_scenario(_scenario_doc()), storage_config=cfg)
              for cfg in ("local", "networked")]
    identical = all(
        list(a.trace.csv_lines()) == list(b.trace.csv_lines()) for a, b in zip(runs, repeat)
    )
    violations = [v for run in runs + repeat for v in verify_trace(run.trace)]
    ok = identical and not violations
    _line(7, "identical scenario+seed give byte-identical traces; all traces audit clean", ok,
          f"{sum(len(r.trace.events) for r in runs)} events checked, {len(violations)} violations")
    assert identical
    assert violations == []


# -- 8. migration rule -----------------------------------------------------------


def test_criterion_8_migration_disabled_leaves_state_unchanged():
    rng = random.Random(80)
    attempts = 0
    for _ in range(100):
        state = ClusterState.from_topology(reference_cluster(rng.randint(2, 6)))
        for _ in range(rng.randint(1, 8)):
            spec = VmSpec(
                vcpus=rng.randint(1, 2),
                ram_gb=rng.choice([1.0, 2.0]),
                root_disk_gb=10.0,
                ephemeral_gb=rng.choice([0.0, 5.0]),
                migratable=False,
            )
            try:
                state, _ = place_vm(state, spec, policy=rng.choice(["spread", "first_fit"]))
            except NoCandidateHostError:
                break  # cluster is full; what is placed suffices
        snapshot_before = state.clone()
        vm_id = rng.choice(sorted(state.instances))
        target = rng.choice([h.id for h in state.topology.hosts])
        with pytest.raises(MigrationDisabledError):
            migrate_vm(state, vm_id, target)
        assert state == snapshot_before
        attempts += 1
    _line(8, "pinned VMs never migrate and failed attempts change nothing", True,
          f"{attempts} random states")
