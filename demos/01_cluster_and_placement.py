"""Build the canonical 5-node cluster and place a DFS fleet on it.

Shows which hosts fit a VM, the virtual racks (a VM's rack is
its host), and why migration is refused for pinned VMs.
"""

from pathlib import Path

from storagesim.errors import MigrationDisabledError
from storagesim.placement import ClusterState, Usage, filter_hosts, migrate_vm, place_vm
from storagesim.scenario import load_scenario
from storagesim.topology import reference_cluster, validate_topology

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.yaml"

topo = validate_topology(reference_cluster())
print(f"cluster: {len(topo.hosts)} hosts, controller={topo.controller.id}")
for link in topo.management_links():
    print(f"  management link {link.id}: {link.bandwidth} MB/s between {link.endpoints}")

state = ClusterState.from_topology(topo)
spec = load_scenario(REFERENCE).vms[0].spec  # 4 vcpus, 8 GB RAM, 32 GB root + 20 GB ephemeral, pinned
print(f"\ncandidates for the first VM: {filter_hosts(state, spec)}")

for i in range(5):
    state, vm = place_vm(state, spec, policy="spread")
    print(f"placed {vm.id} on {vm.host_id} -> virtual rack {vm.host_id}")

vm_id = sorted(state.instances)[0]
print(f"\ntrying to migrate {vm_id} (a pinned DFS VM) to h05:")
try:
    migrate_vm(state, vm_id, "h05")
except MigrationDisabledError as e:
    print(f"  refused as designed: {e}")

print("\nper-host free capacity after placement:")
usage = Usage(state)
for host in topo.hosts:
    print(f"  {host.id}: {usage.free_vcpus(host.id)} vcpus, {usage.free_ram_gb(host.id)} GB RAM free")
