"""The headline comparison: DFS on local disks versus networked volumes.

Ten 1000 MB files over five VMs (one per host), written and then read
back. Local volumes only touch their host disk; networked volumes funnel
every byte through the controller's management uplink, which is where the
write-performance gap comes from. Reads stay local on the local config
because every reader holds a replica of its own file.
"""

from storagesim.bench import DfsioSpec, run_dfsio
from storagesim.dfs import DfsConfig
from storagesim.placement import ClusterState, place_vm, reference_vm_spec
from storagesim.topology import reference_cluster
from storagesim.volumes import NETWORKED, ROOT, attach_volume, resolve_io_path

SPEC = DfsioSpec(n_files=10, file_size_mb=1000.0, mode="write", map_capacity=25, slots_per_vm=5)
CFG = DfsConfig(replication_factor=1)


def build(storage):
    state = ClusterState.from_topology(reference_cluster())
    for _ in range(5):
        state, _ = place_vm(state, reference_vm_spec(), policy="spread")
    hdfs = {}
    for vm_id in sorted(state.instances):
        if storage == "local":
            vm = state.instances[vm_id]
            hdfs[vm_id] = next(v for v in vm.volumes if state.volumes[v].kind == ROOT)
        else:
            state, vol = attach_volume(state, vm_id, NETWORKED, 100.0)
            hdfs[vm_id] = vol.id
    return state, hdfs


for storage in ("local", "networked"):
    state, hdfs = build(storage)
    vm0 = sorted(hdfs)[0]
    path = resolve_io_path(state, vm0, hdfs[vm0], "write")
    print(f"{storage}: write path of {vm0} = {list(path.resources)}")

    write = run_dfsio(state, SPEC, hdfs, dfs_config=CFG, seed=42)
    read = run_dfsio(
        state,
        DfsioSpec(n_files=10, file_size_mb=1000.0, mode="read", map_capacity=25, slots_per_vm=5),
        hdfs,
        dfs_config=CFG,
        seed=42,
        files=write.files,
    )
    w, r = write.result, read.result
    print(f"  write: throughput {w.throughput_mbps:7.2f} MB/s, avg rate {w.avg_io_rate_mbps:7.2f}, exec {w.finished_at:6.1f} s")
    print(f"  read:  throughput {r.throughput_mbps:7.2f} MB/s, avg rate {r.avg_io_rate_mbps:7.2f}, exec {r.finished_at:6.1f} s")
    print()

print("throughput and average I/O rate agree exactly here because the tasks are identical;")
print("the local/networked ordering is the model-level analog of the measured comparison.")
