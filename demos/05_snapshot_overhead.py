"""Why local storage plus snapshots beats shipping every byte twice.

Local volumes are not persistent, so dirty bytes are copied to the
controller every interval as background flows. Only writes cost network
traffic; a write-once/read-many workload therefore ships its data across
the wire once, while a networked-volume deployment ships every read too.
The crash story: a local volume's data dies with its VM, so only the
bytes covered by a snapshot taken before the crash survive.
"""

from pathlib import Path

from storagesim.bench import DfsioSpec, run_dfsio
from storagesim.dfs import DfsConfig
from storagesim.scenario import build_state, load_scenario
from storagesim.snapshot import SnapshotPolicy, network_bytes, recoverable_bytes

# The canonical cluster and fleet: five pinned 4/8/32+20 VMs, one per host.
REFERENCE = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "reference.yaml")


def write_then_read(storage, reads=5):
    """Write once (snapshotting local volumes hourly as it runs), then read."""
    state, hdfs = build_state(REFERENCE, storage)
    spec = DfsioSpec(n_files=10, file_size_mb=1024.0, mode="write", slots_per_vm=2)
    snapshots = SnapshotPolicy(interval_s=3600.0) if storage == "local" else None
    w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=9, snapshots=snapshots)
    traces = [w.trace]
    for _ in range(reads):
        r = run_dfsio(state, DfsioSpec(n_files=10, file_size_mb=1024.0, mode="read", slots_per_vm=2), hdfs,
                      dfs_config=DfsConfig(replication_factor=1), seed=9)
        traces.append(r.trace)
    return traces, w.snapshot_records


print("workload: write 10 GB once, read it five times\n")

local_traces, records = write_then_read("local")
print("hourly snapshots (dirty bytes per volume):")
for rec in records:
    print(f"  {rec.volume_id}: {rec.bytes_copied:.0f} MB at t={rec.taken_at:.0f} s")

local_net = sum(network_bytes(t) for t in local_traces)
networked_traces, _ = write_then_read("networked")
networked_net = sum(network_bytes(t) for t in networked_traces)
print(f"\nnetwork bytes, local + snapshots: {local_net:.0f} MB (the written 10 GB, once)")
print(f"network bytes, networked volumes: {networked_net:.0f} MB (10 GB written + 50 GB read)")

vol_id = records[0].volume_id
snapshotted = sum(r.bytes_copied for r in records if r.volume_id == vol_id)
print(f"\ncrash stories for {vol_id} ({snapshotted:.0f} MB written, all of it snapshotted by the end):")
print(f"  crash at t=1000 s, before any snapshot: {recoverable_bytes(vol_id, 1000.0, records):.0f} MB recoverable")
print(f"  crash at t=4000 s, after the snapshot:  {recoverable_bytes(vol_id, 4000.0, records):.0f} MB recoverable")
