"""VM placement, virtual racks, and the no-migration rule.

Every VM lands on a host with free vcpus, RAM and a disk with room for
its root and ephemeral storage, and, when the VM asks for one, a
local-persistent partition group. A VM's virtual rack is its host, so the
DFS layer reads ``host_id`` as the rack and treats co-located VMs as a
single failure domain. Hadoop-style VMs are pinned:
``migratable=False`` makes migration fail without touching state.

All operations are pure, and the types keep them so: a ClusterState is two
tables of immutable records, an operation writes only into the tables of
the clone it returns, and a changed record is a ``_replace`` of the old.
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


class VmInstance(NamedTuple):
    """A placed VM; its volumes are those whose ``attached_to`` names it."""

    id: str
    host_id: str
    spec: VmSpec
    state: str = RUNNING


class ClusterState:
    """The whole simulation state: topology plus placed VMs and volumes.

    Capacity bookkeeping is derived from the instance/volume tables rather
    than cached, so it cannot drift: ``disk_with_room`` reads one ``Usage``
    built for the call, and other readers build their own ``Usage``.
    ``hosts_by_id`` maps each host id to its ``PhysicalHost``, built from
    the topology once per state; an unknown id raises ``KeyError``.

    Nothing removes a VM or a volume from its table (a terminated VM stays,
    as do detached volumes), so each table's size is the number of records
    ever created, and the next id follows from it.
    """

    __slots__ = ("topology", "instances", "volumes", "hosts_by_id")

    def __init__(
        self,
        topology: ClusterTopology,
        instances: dict[str, VmInstance] | None = None,
        volumes: dict[str, volumes_mod.Volume] | None = None,
    ):
        self.topology = topology
        self.instances = {} if instances is None else instances
        self.volumes = {} if volumes is None else volumes
        self.hosts_by_id = {h.id: h for h in topology.hosts}

    def __eq__(self, other):
        """The same topology and equal tables; ``hosts_by_id`` follows from the topology."""
        if other.__class__ is not ClusterState:
            return NotImplemented
        return (self.topology, self.instances, self.volumes) == (other.topology, other.instances, other.volumes)

    @classmethod
    def from_topology(cls, topology: ClusterTopology) -> ClusterState:
        return cls(topology=validate_topology(topology))

    def clone(self) -> ClusterState:
        """A state with its own two tables, holding the same (immutable) records."""
        return ClusterState(self.topology, dict(self.instances), dict(self.volumes))

    # -- capacity accounting ------------------------------------------------

    def disk_with_room(self, node_id: str, disks: tuple[DiskSpec, ...], gb: float) -> DiskSpec | None:
        """The first of ``disks`` (on ``node_id``) with ``gb`` free, or None."""
        return Usage(self).disk_with_room(node_id, disks, gb)

    def running_vm(self, vm_id: str) -> VmInstance:
        vm = self.instances.get(vm_id)
        if vm is None or vm.state != RUNNING:
            raise VmNotFoundError(f"no running VM {vm_id!r}")
        return vm

    def next_vm_id(self) -> str:
        return f"vm{len(self.instances) + 1:03d}"

    def next_volume_id(self) -> str:
        return f"vol{len(self.volumes) + 1:03d}"


class Usage:
    """What a state's running VMs and space-holding volumes take, from one pass over each table.

    ``running``, ``vcpus`` and ``ram_gb`` map each host id to the number of
    its running VMs and to their vCPUs and RAM; ``volume_gb`` maps each
    ``(node id, disk id)`` to the GB of the volumes that occupy space
    there. A host or disk that nothing takes has no entry. Every read is a
    lookup, so a placement that checks every host scans the VMs and volumes
    once, not once per host. Each total is a left fold, ``0 + v1 + v2 +
    ...`` in table order, as the engine sums (``_frozen_usage``): the float
    the built-in ``sum`` gives on CPython 3.10 and 3.11, which is
    compensated from 3.12 on (gh-100425) and could move a placement there.
    A usage is a view of one moment: it is built per call and never kept,
    so it cannot drift from the tables.
    """

    __slots__ = ("state", "running", "vcpus", "ram_gb", "volume_gb")

    def __init__(self, state: ClusterState):
        self.state = state
        self.running: dict[str, int] = {}
        self.vcpus: dict[str, int] = {}
        self.ram_gb: dict[str, float] = {}
        for vm in state.instances.values():
            if vm.state == RUNNING:
                host_id = vm.host_id
                self.running[host_id] = self.running.get(host_id, 0) + 1
                self.vcpus[host_id] = self.vcpus.get(host_id, 0) + vm.spec.vcpus
                self.ram_gb[host_id] = self.ram_gb.get(host_id, 0) + vm.spec.ram_gb
        self.volume_gb: dict[tuple[str, str], float] = {}
        for v in state.volumes.values():
            if v.occupies_space():
                self.volume_gb[v.backing] = self.volume_gb.get(v.backing, 0) + v.size_gb

    def free_vcpus(self, host_id: str) -> int:
        return self.state.hosts_by_id[host_id].vcpus - self.vcpus.get(host_id, 0)

    def free_ram_gb(self, host_id: str) -> float:
        return self.state.hosts_by_id[host_id].ram_gb - self.ram_gb.get(host_id, 0)

    def disk_with_room(self, node_id: str, disks: tuple[DiskSpec, ...], gb: float) -> DiskSpec | None:
        """The first of ``disks`` (on ``node_id``) with ``gb`` free, or None."""
        return next((d for d in disks if d.capacity_gb - self.volume_gb.get((node_id, d.id), 0) >= gb), None)


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
        host_id = min(candidates, key=lambda h: (usage.running.get(h, 0), h))
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
    for vol in state.volumes.values():
        if vol.attached_to != vm_id:
            continue
        if vol.kind in volumes_mod.VM_LIFETIME_KINDS:
            # file-backed local disk: recreated empty on the target
            new.volumes[vol.id] = vol._replace(backing=(target_host, target_disk.id), data_lost=True)
        elif vol.kind == volumes_mod.LOCAL_PERSISTENT:
            # partition stays put with its data; volume detaches
            new.volumes[vol.id] = vol._replace(attached_to=None)
        # networked volumes remain attached unchanged
    new.instances[vm_id] = vm._replace(host_id=target_host)
    return new
