"""The headline comparison: DFS on local disks versus networked volumes.

Ten 1000 MB files over five VMs (one per host), written and then read
back. Local volumes only touch their host disk; networked volumes funnel
every byte through the controller's management uplink, which is where the
write-performance gap comes from. Reads stay local on the local config
because every reader holds a replica of its own file.
"""

from pathlib import Path

from storagesim.bench import DfsioSpec, run_dfsio
from storagesim.dfs import DfsConfig
from storagesim.scenario import build_state, load_scenario
from storagesim.volumes import Routes

# The canonical cluster and fleet: five pinned 4/8/32+20 VMs, one per host.
REFERENCE = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "reference.yaml")
SPEC = DfsioSpec(n_files=10, file_size_mb=1000.0, mode="write", map_capacity=25, slots_per_vm=5)
CFG = DfsConfig(replication_factor=1)


for storage in ("local", "networked"):
    state, hdfs = build_state(REFERENCE, storage)
    vm0 = sorted(hdfs)[0]
    path = Routes(state, hdfs)["volume", vm0, "write"]
    print(f"{storage}: write path of {vm0} = {list(path.resources)}")

    write = run_dfsio(state, SPEC, hdfs, dfs_config=CFG, seed=42)
    read = run_dfsio(
        state,
        DfsioSpec(n_files=10, file_size_mb=1000.0, mode="read", map_capacity=25, slots_per_vm=5),
        hdfs,
        dfs_config=CFG,
        seed=42,
    )
    w, r = write.result, read.result
    print(f"  write: throughput {w.throughput_mbps:7.2f} MB/s, avg rate {w.avg_io_rate_mbps:7.2f}, exec {w.finished_at:6.1f} s")
    print(f"  read:  throughput {r.throughput_mbps:7.2f} MB/s, avg rate {r.avg_io_rate_mbps:7.2f}, exec {r.finished_at:6.1f} s")
    print()

print("throughput and average I/O rate agree exactly here because the tasks are identical;")
print("the local/networked ordering is the model-level analog of the measured comparison.")
