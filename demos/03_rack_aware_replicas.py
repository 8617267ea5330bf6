"""Rack-aware replica placement over virtual racks.

Each physical host is one virtual rack, so the placement policy (writer
first, second replica off-rack, third on the second's rack) guarantees
two failure domains per block. On a single host, placement still spreads
over distinct VMs but warns: losing that host loses every copy, which is
exactly the co-location hazard the virtual racks exist to prevent.
"""

import random
import warnings

from storagesim.dfs import DfsConfig, PlacementTables, place_file
from storagesim.placement import ClusterState, VmSpec, place_vm
from storagesim.topology import reference_cluster

SMALL = VmSpec(vcpus=1, ram_gb=1.0, root_disk_gb=10.0, migratable=False)


def build(n_hosts, vms_per_host):
    """Placement tables over every VM of a fresh cluster, built once and used for all its files."""
    state = ClusterState.from_topology(reference_cluster(n_hosts))
    for _ in range(n_hosts * vms_per_host):
        state, _ = place_vm(state, SMALL, policy="spread")
    return PlacementTables(state, sorted(state.instances))


def rack_spread(f):
    """The fewest racks any block of ``f`` spans, read from its replicas' (vm, rack) pairs."""
    return min(len({rack for _, rack in block.replicas}) for block in f.blocks)


tables = build(n_hosts=5, vms_per_host=1)
f = place_file(tables, 200.0, "vm001", DfsConfig(block_size_mb=64.0, replication_factor=3), random.Random(7))
print("five hosts, rf=3, 200 MB file in 64 MB blocks:")
for i, block in enumerate(f.blocks):
    print(f"  block {i} ({block.bytes_mb:.0f} MB): {[f'{vm}@{rack}' for vm, rack in block.replicas]}")
print(f"minimum racks any block spans: {rack_spread(f)}")

print("\n1000 seeded placements, worst-case rack spread:")
worst = min(
    rack_spread(place_file(tables, 64.0, "vm003", DfsConfig(replication_factor=3), random.Random(i)))
    for i in range(1000)
)
print(f"  {worst} (never below 2 on a multi-rack cluster)")

print("\nthe degenerate case: three VMs packed on one host")
single = build(n_hosts=1, vms_per_host=3)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    f = place_file(single, 64.0, "vm001", DfsConfig(replication_factor=3), random.Random(0))
print(f"  replicas: {[vm for vm, _ in f.blocks[0].replicas]} all on rack h01")
print(f"  warning raised: {caught[0].message}")
