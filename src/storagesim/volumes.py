"""The four storage kinds and the hardware path each VM-volume pair uses.

root/ephemeral: file-backed on the VM's host disk, created with the VM by
``place_vm`` and gone when the VM goes. networked: served from a
controller disk over the management network (the iSCSI-style default of
cloud stacks). local_persistent: a host disk partition that survives the
VM, attached whole and never reformatted. Only the last two are attached.

``resolve_io_path`` is the bridge into the flow simulator: it names the
shared resources (disks, links) an I/O stream crosses, which is where the
local-versus-networked performance difference comes from. A run takes
each of its paths from one ``Routes`` table.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Literal, Mapping, NamedTuple

from .errors import (
    InsufficientSpaceError,
    NoLocalPersistentGroupError,
    VmNotFoundError,
    VolumeNotAttachedError,
)
from .topology import management_path

if TYPE_CHECKING:  # placement imports this module at runtime
    from .placement import ClusterState, VmInstance

ROOT = "root"
EPHEMERAL = "ephemeral"
NETWORKED = "networked"
LOCAL_PERSISTENT = "local_persistent"

# File-backed on the VM's host disk: their data dies with the VM.
VM_LIFETIME_KINDS = frozenset({ROOT, EPHEMERAL})

Direction = Literal["read", "write"]


class Volume(NamedTuple):
    id: str
    kind: str
    size_gb: float
    backing: tuple[str, str]  # (node id, disk id)
    attached_to: str | None = None
    data_lost: bool = False

    def occupies_space(self) -> bool:
        # file-backed local disks are deleted on detach; persistent kinds
        # keep their allocation while holding data
        if self.kind in VM_LIFETIME_KINDS:
            return self.attached_to is not None
        return True


class ResourcePath(namedtuple("ResourcePath", ("resources", "direction"))):
    """Ordered shared resources (a tuple of ids) one I/O stream crosses, plus direction.

    Local kinds resolve to exactly one disk; networked volumes cross at
    least one management link before the controller disk. A resource named
    twice (a relayed path crossing the same link or disk again) is kept
    once, at its first position: duplicate hops share one reservation.
    """

    __slots__ = ()

    def __new__(cls, resources: tuple[str, ...], direction: Direction):
        if not resources:
            raise ValueError("empty resource path")
        return super().__new__(cls, tuple(dict.fromkeys(resources)), direction)

    @classmethod
    def _make(cls, iterable) -> ResourcePath:
        # namedtuple's own ``_make`` (which ``_replace`` calls) skips ``__new__`` and its checks.
        return cls(*iterable)


def disk_resource_id(node_id: str, disk_id: str) -> str:
    return f"disk:{node_id}:{disk_id}"


def link_resource_id(link_id: str) -> str:
    return f"link:{link_id}"


def is_link_resource(resource_id: str) -> bool:
    return resource_id.startswith("link:")


def provision_local_volume(state: ClusterState, vm: VmInstance, kind: str, size_gb: float, disk_id: str) -> Volume:
    """Create a root/ephemeral volume on a specific host disk.

    Internal helper for place_vm: adds the volume to the table of ``state``,
    the clone that place_vm returns.
    """
    vol = Volume(
        id=state.next_volume_id(),
        kind=kind,
        size_gb=size_gb,
        backing=(vm.host_id, disk_id),
        attached_to=vm.id,
    )
    state.volumes[vol.id] = vol
    return vol


def attach_volume(state: ClusterState, vm_id: str, kind: str, size_gb: float) -> tuple[ClusterState, Volume]:
    """Attach a new networked or local_persistent volume to a running VM.

    networked volumes land on the first controller disk with room;
    local_persistent attaches a whole partition from the host's group,
    adopting a previously detached partition (and its contents) when one
    exists. Root and ephemeral volumes come with the VM from ``place_vm``.
    """
    if kind not in (NETWORKED, LOCAL_PERSISTENT):
        raise ValueError(f"cannot attach a volume of kind {kind!r}: only {NETWORKED} and {LOCAL_PERSISTENT} attach")
    vm = state.running_vm(vm_id)  # raises VmNotFoundError

    if kind == NETWORKED:
        ctl = state.topology.controller
        disk = state.disk_with_room(ctl.id, ctl.disks, size_gb)
        if disk is None:
            raise InsufficientSpaceError(f"controller has no disk with {size_gb} GB free")
        vol = Volume(
            id=state.next_volume_id(),
            kind=kind,
            size_gb=size_gb,
            backing=(ctl.id, disk.id),
            attached_to=vm_id,
        )
    else:
        host = state.hosts_by_id[vm.host_id]
        if not host.local_persistent_group:
            raise NoLocalPersistentGroupError(f"host {vm.host_id} has no local-persistent partition group")
        vol = _attach_partition(state, vm, size_gb, host)

    new = state.clone()
    new.volumes[vol.id] = vol
    return new, vol


def _attach_partition(state: ClusterState, vm: VmInstance, size_gb: float, host) -> Volume:
    # adopt a detached partition first: never formatted, contents preserved
    detached = sorted(
        v.id
        for v in state.volumes.values()
        if v.kind == LOCAL_PERSISTENT and v.attached_to is None and v.backing[0] == host.id and v.size_gb >= size_gb
    )
    if detached:
        return state.volumes[detached[0]]._replace(attached_to=vm.id)
    occupied = {v.backing for v in state.volumes.values() if v.kind == LOCAL_PERSISTENT}
    for part in host.local_persistent_group:
        if (host.id, part.id) not in occupied and part.capacity_gb >= size_gb:
            return Volume(
                id=state.next_volume_id(),
                kind=LOCAL_PERSISTENT,
                size_gb=part.capacity_gb,  # the volume is the partition
                backing=(host.id, part.id),
                attached_to=vm.id,
            )
    raise InsufficientSpaceError(f"host {host.id} has no free local-persistent partition >= {size_gb} GB")


def resolve_io_path(routes: Routes, vm_id: str, volume_id: str, direction: Direction) -> ResourcePath:
    """Resources an I/O stream from this VM to this volume crosses.

    The stream crosses ``routes``' links from the VM's host to the volume's
    node, then the volume's disk. root/ephemeral/local_persistent sit on the
    VM's own host, so they touch only that disk and their performance never
    depends on the network. networked volumes cross the management links to
    the controller and end at the controller disk.
    """
    state = routes.state
    vm = state.instances.get(vm_id)
    if vm is None:
        raise VmNotFoundError(f"no VM {vm_id!r}")
    vol = state.volumes.get(volume_id)
    if vol is None or vol.attached_to != vm_id:
        raise VolumeNotAttachedError(f"volume {volume_id!r} is not attached to {vm_id}")

    node_id, disk_id = vol.backing
    return ResourcePath(routes["links", vm.host_id, node_id] + (disk_resource_id(node_id, disk_id),), direction)


class Routes(dict):
    """One run's routes, each resolved on first use and then shared by every flow that takes it.

    Keys: ``("links", src, dst)``, the management links between two nodes
    (none within one); ``("volume", vm, direction)``, a VM's DFS-volume path;
    ``("replica", src, dst)``, a copy from VM ``src``'s host into ``dst``'s
    volume; ``("read", src, dst)``, a read of ``src``'s volume to ``dst``'s
    host; and ``("snapshot", node, disk)``, the transfer of the volume on
    that disk to the controller's first disk.
    """

    def __init__(self, state: ClusterState, dfs_volumes: Mapping[str, str]):  # starts empty, like ``dict()``
        self.state = state
        self.dfs_volumes = dfs_volumes  # vm id -> DFS volume id

    def __missing__(self, key: tuple[str, str, str]):
        kind, a, b = key
        if kind == "links":
            route = () if a == b else tuple(link_resource_id(l.id) for l in management_path(self.state.topology, a, b))
        elif kind == "volume":
            route = resolve_io_path(self, a, self.dfs_volumes[a], b)
        elif kind == "replica":
            links = self["links", self.state.instances[a].host_id, self.state.instances[b].host_id]
            route = ResourcePath(links + self["volume", b, "write"].resources, "write")
        elif kind == "read":  # over the write path's resources, so one resolve serves both directions
            links = self["links", self.state.instances[a].host_id, self.state.instances[b].host_id]
            route = ResourcePath(self["volume", a, "write"].resources + links, "read")
        elif kind == "snapshot":
            ctl = self.state.topology.controller
            sink = disk_resource_id(ctl.id, ctl.disks[0].id)
            route = ResourcePath((disk_resource_id(a, b),) + self["links", a, ctl.id] + (sink,), "write")
        else:
            raise KeyError(key)
        self[key] = route
        return route


def terminate_vm(state: ClusterState, vm_id: str) -> ClusterState:
    """Terminate a VM and settle its volumes.

    Root/ephemeral data is lost (recoverable only from snapshots) while
    networked and local-persistent volumes survive detached.
    """
    vm = state.running_vm(vm_id)  # raises VmNotFoundError
    new = state.clone()
    for vol in state.volumes.values():
        if vol.attached_to == vm_id:
            if vol.kind in VM_LIFETIME_KINDS:
                new.volumes[vol.id] = vol._replace(attached_to=None, data_lost=True)
            else:
                new.volumes[vol.id] = vol._replace(attached_to=None)
    new.instances[vm_id] = vm._replace(state="terminated")
    return new
