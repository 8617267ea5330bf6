"""VM placement, virtual racks, and the no-migration rule.

Every VM lands on a host with free vcpus, RAM and a disk with room for
its root and ephemeral storage, and, when the VM asks for one, a
local-persistent partition group. A VM's virtual rack is its host, so the
DFS layer reads ``host_id`` as the rack and treats co-located VMs as a
single failure domain. Hadoop-style VMs are pinned:
``migratable=False`` makes migration fail without touching state.

All operations are pure: they return a new ClusterState and never mutate
their input.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from . import volumes as volumes_mod
from .errors import (
    InsufficientCapacityError,
    MigrationDisabledError,
    NoCandidateHostError,
    VmNotFoundError,
)
from .topology import ClusterTopology, DiskSpec, PhysicalHost, validate_topology

Policy = Literal["first_fit", "spread"]

RUNNING = "running"


class VmSpec(NamedTuple):
    """Resource shape of a VM; ``scenarios/reference.yaml`` pins the reference shape, 4/8/32+20."""

    vcpus: int
    ram_gb: float
    root_disk_gb: float
    ephemeral_gb: float = 0.0
    requires_local_persistent: bool = False
    migratable: bool = True


class VmInstance:
    """A placed VM; its volumes are those whose ``attached_to`` names it."""

    __slots__ = ("id", "host_id", "spec", "state")

    def __init__(self, id: str, host_id: str, spec: VmSpec, state: str = RUNNING):
        self.id = id
        self.host_id = host_id
        self.spec = spec
        self.state = state

    __eq__ = volumes_mod.same_fields

    def copy(self) -> VmInstance:
        return VmInstance(self.id, self.host_id, self.spec, self.state)


class ClusterState:
    """The whole simulation state: topology plus placed VMs and volumes.

    Capacity bookkeeping is derived from the instance/volume tables rather
    than cached, so it cannot drift: ``disk_with_room`` reads one ``Usage``
    built for the call, and other readers build their own ``Usage``.
    ``hosts_by_id`` maps each host id to its ``PhysicalHost``, built from
    the topology once per state; an unknown id raises ``KeyError``.
    """

    __slots__ = ("topology", "instances", "volumes", "vm_seq", "vol_seq", "hosts_by_id")

    def __init__(
        self,
        topology: ClusterTopology,
        instances: dict[str, VmInstance] | None = None,
        volumes: dict[str, volumes_mod.Volume] | None = None,
        vm_seq: int = 0,
        vol_seq: int = 0,
    ):
        self.topology = topology
        self.instances = {} if instances is None else instances
        self.volumes = {} if volumes is None else volumes
        self.vm_seq = vm_seq
        self.vol_seq = vol_seq
        self.hosts_by_id = {h.id: h for h in topology.hosts}

    __eq__ = volumes_mod.same_fields

    @classmethod
    def from_topology(cls, topology: ClusterTopology) -> ClusterState:
        return cls(topology=validate_topology(topology))

    def clone(self) -> ClusterState:
        return ClusterState(
            self.topology,
            {k: v.copy() for k, v in self.instances.items()},
            {k: v.copy() for k, v in self.volumes.items()},
            self.vm_seq,
            self.vol_seq,
        )

    # -- capacity accounting ------------------------------------------------

    def disk_with_room(self, node_id: str, disks: tuple[DiskSpec, ...], gb: float) -> DiskSpec | None:
        """The first of ``disks`` (on ``node_id``) with ``gb`` free, or None."""
        return Usage(self).disk_with_room(node_id, disks, gb)

    def find_disk(self, node_id: str, disk_id: str) -> DiskSpec:
        if node_id == self.topology.controller.id:
            pool = self.topology.controller.disks
        else:
            host = self.hosts_by_id[node_id]
            pool = host.disks + host.local_persistent_group
        for d in pool:
            if d.id == disk_id:
                return d
        raise KeyError((node_id, disk_id))

    def running_vm(self, vm_id: str) -> VmInstance:
        vm = self.instances.get(vm_id)
        if vm is None or vm.state != RUNNING:
            raise VmNotFoundError(f"no running VM {vm_id!r}")
        return vm

    def next_vm_id(self) -> str:
        self.vm_seq += 1
        return f"vm{self.vm_seq:03d}"

    def next_volume_id(self) -> str:
        self.vol_seq += 1
        return f"vol{self.vol_seq:03d}"


class Usage:
    """What a state's running VMs and space-holding volumes take, from one pass over each table.

    ``running`` maps each host id to its running VMs and ``volume_gb`` each
    ``(node id, disk id)`` to the sizes of the volumes that occupy space
    there, both in table order. A placement that checks every host reads
    them instead of scanning the VMs and volumes once per host. Each total
    is the built-in ``sum`` of the same values in the same order as a scan
    per host or disk, so it is the same float on every CPython. A usage is
    a view of one moment: it is built per call and never kept, so it
    cannot drift from the tables.
    """

    __slots__ = ("state", "running", "volume_gb")

    def __init__(self, state: ClusterState):
        self.state = state
        self.running: dict[str, list[VmInstance]] = {}
        for vm in state.instances.values():
            if vm.state == RUNNING:
                self.running.setdefault(vm.host_id, []).append(vm)
        self.volume_gb: dict[tuple[str, str], list[float]] = {}
        for v in state.volumes.values():
            if v.occupies_space():
                self.volume_gb.setdefault(v.backing, []).append(v.size_gb)

    def free_vcpus(self, host_id: str) -> int:
        host = self.state.hosts_by_id[host_id]
        return host.vcpus - sum(vm.spec.vcpus for vm in self.running.get(host_id, ()))

    def free_ram_gb(self, host_id: str) -> float:
        host = self.state.hosts_by_id[host_id]
        return host.ram_gb - sum(vm.spec.ram_gb for vm in self.running.get(host_id, ()))

    def disk_used_gb(self, node_id: str, disk_id: str) -> float:
        return sum(self.volume_gb.get((node_id, disk_id), ()))

    def disk_free_gb(self, node_id: str, disk_id: str) -> float:
        return self.state.find_disk(node_id, disk_id).capacity_gb - self.disk_used_gb(node_id, disk_id)

    def disk_with_room(self, node_id: str, disks: tuple[DiskSpec, ...], gb: float) -> DiskSpec | None:
        """The first of ``disks`` (on ``node_id``) with ``gb`` free, or None."""
        return next((d for d in disks if self.disk_free_gb(node_id, d.id) >= gb), None)


def _fits(usage: Usage, host: PhysicalHost, spec: VmSpec) -> DiskSpec | None:
    """The disk of ``host`` that takes ``spec``'s root and ephemeral storage.

    None when the host lacks the free vcpus, the RAM or a disk with room.
    """
    if usage.free_vcpus(host.id) < spec.vcpus or usage.free_ram_gb(host.id) < spec.ram_gb:
        return None
    return usage.disk_with_room(host.id, host.disks, spec.root_disk_gb + spec.ephemeral_gb)


def filter_hosts(state: ClusterState, spec: VmSpec, usage: Usage | None = None) -> list[str]:
    """Hosts that fit ``spec``, in stable topology order; an empty list is a legal outcome.

    A spec that requires local-persistent storage also needs a host with a partition group.
    ``usage`` is ``state``'s, built here when not given.
    """
    if usage is None:
        usage = Usage(state)
    return [
        h.id
        for h in state.topology.hosts
        if _fits(usage, h, spec) and (h.local_persistent_group or not spec.requires_local_persistent)
    ]


def place_vm(
    state: ClusterState,
    spec: VmSpec,
    policy: Policy = "first_fit",
) -> tuple[ClusterState, VmInstance]:
    """Place one VM and provision its root (and ephemeral) volume.

    ``first_fit`` takes the first candidate in topology order; ``spread``
    takes the candidate running the fewest VMs, lowest host id on ties.
    Root and ephemeral storage land together on the host's first disk with
    enough free space.
    """
    usage = Usage(state)
    candidates = filter_hosts(state, spec, usage)
    if not candidates:
        raise NoCandidateHostError(f"no host fits spec {spec}")

    if policy == "spread":
        host_id = min(candidates, key=lambda h: (len(usage.running.get(h, ())), h))
    elif policy == "first_fit":
        host_id = candidates[0]
    else:
        raise ValueError(f"unknown policy {policy!r}")

    new = state.clone()
    vm_id = new.next_vm_id()
    vm = VmInstance(id=vm_id, host_id=host_id, spec=spec)
    new.instances[vm_id] = vm

    disk = _fits(usage, state.hosts_by_id[host_id], spec)
    volumes_mod.provision_local_volume(new, vm, volumes_mod.ROOT, spec.root_disk_gb, disk.id)
    if spec.ephemeral_gb > 0:
        volumes_mod.provision_local_volume(new, vm, volumes_mod.EPHEMERAL, spec.ephemeral_gb, disk.id)
    return new, vm


def migrate_vm(state: ClusterState, vm_id: str, target_host: str) -> ClusterState:
    """Move a migratable VM; local volume contents do not follow.

    VMs with ``migratable=False`` (the Hadoop case) fail with
    MigrationDisabledError and the state is returned untouched. On success
    the virtual rack follows the host, root/ephemeral volumes are re-provisioned
    empty on the target (contents lost), local-persistent volumes detach in
    place keeping their data, and networked volumes stay attached.
    """
    vm = state.running_vm(vm_id)
    if not vm.spec.migratable:
        raise MigrationDisabledError(f"vm {vm_id} is pinned (migratable=False)")
    target = state.hosts_by_id[target_host]  # KeyError on unknown host
    if target_host == vm.host_id:
        return state.clone()  # nothing moves, nothing lost

    target_disk = _fits(Usage(state), target, vm.spec)
    if target_disk is None:
        raise InsufficientCapacityError(f"host {target_host} lacks vcpus, RAM or disk room for {vm_id}")

    new = state.clone()
    for vol in new.volumes.values():
        if vol.attached_to != vm_id:
            continue
        if vol.kind in volumes_mod.VM_LIFETIME_KINDS:
            # file-backed local disk: recreated empty on the target
            vol.backing = (target_host, target_disk.id)
            vol.data_lost = True
        elif vol.kind == volumes_mod.LOCAL_PERSISTENT:
            # partition stays put with its data; volume detaches
            vol.attached_to = None
        # networked volumes remain attached unchanged
    new.instances[vm_id].host_id = target_host
    return new
