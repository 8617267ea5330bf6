"""The four storage kinds and the hardware path each VM-volume pair uses.

root/ephemeral: file-backed on the VM's host disk, gone when the VM goes.
networked: served from a controller disk over the management network (the
iSCSI-style default of cloud stacks). local_persistent: a host disk
partition that survives the VM, attached whole and never reformatted.

``resolve_io_path`` is the bridge into the flow simulator: it names the
shared resources (disks, links) an I/O stream crosses, which is where the
local-versus-networked performance difference comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

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

KINDS = (ROOT, EPHEMERAL, NETWORKED, LOCAL_PERSISTENT)
LOCAL_KINDS = frozenset({ROOT, EPHEMERAL, LOCAL_PERSISTENT})

Direction = Literal["read", "write"]


@dataclass
class Volume:
    id: str
    kind: str
    size_gb: float
    backing: tuple[str, str]  # (node id, disk id)
    persistent: bool
    attached_to: str | None = None
    dirty_mb: float = 0.0  # written since the last snapshot
    stored_mb: float = 0.0  # live bytes
    data_lost: bool = False

    def occupies_space(self) -> bool:
        # file-backed local disks are deleted on detach; persistent kinds
        # keep their allocation while holding data
        if self.kind in (ROOT, EPHEMERAL):
            return self.attached_to is not None
        return True

    def record_write(self, mb: float) -> None:
        self.stored_mb += mb
        self.dirty_mb += mb


@dataclass(frozen=True)
class ResourcePath:
    """Ordered shared resources one I/O stream crosses, plus direction.

    Local kinds resolve to exactly one disk; networked volumes cross at
    least one management link before the controller disk.
    """

    resources: tuple[str, ...]
    direction: Direction

    def __post_init__(self):
        if not self.resources:
            raise ValueError("empty resource path")


def disk_resource_id(node_id: str, disk_id: str) -> str:
    return f"disk:{node_id}:{disk_id}"


def link_resource_id(link_id: str) -> str:
    return f"link:{link_id}"


def is_link_resource(resource_id: str) -> bool:
    return resource_id.startswith("link:")


def provision_local_volume(state: ClusterState, vm: VmInstance, kind: str, size_gb: float, disk_id: str) -> Volume:
    """Create a root/ephemeral volume on a specific host disk.

    Internal helper for place_vm/migrate; mutates the (already cloned)
    state in place.
    """
    vol = Volume(
        id=state.next_volume_id(),
        kind=kind,
        size_gb=size_gb,
        backing=(vm.host_id, disk_id),
        persistent=False,
        attached_to=vm.id,
    )
    state.volumes[vol.id] = vol
    vm.volumes.append(vol.id)
    return vol


def attach_volume(state: ClusterState, vm_id: str, kind: str, size_gb: float) -> tuple[ClusterState, Volume]:
    """Attach a new volume of the given kind to a running VM.

    networked volumes land on the first controller disk with room;
    local_persistent attaches a whole partition from the host's group,
    adopting a previously detached partition (and its contents) when one
    exists. root/ephemeral go on the host's own disks.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown volume kind {kind!r}")
    state.running_vm(vm_id)  # raises VmNotFoundError
    new = state.clone()
    vm = new.instances[vm_id]

    if kind == NETWORKED:
        ctl = new.topology.controller
        disk = next((d for d in ctl.disks if new.disk_free_gb(ctl.id, d.id) >= size_gb), None)
        if disk is None:
            raise InsufficientSpaceError(f"controller has no disk with {size_gb} GB free")
        vol = Volume(
            id=new.next_volume_id(),
            kind=kind,
            size_gb=size_gb,
            backing=(ctl.id, disk.id),
            persistent=True,
            attached_to=vm_id,
        )
    elif kind == LOCAL_PERSISTENT:
        host = new.topology.host(vm.host_id)
        if not host.local_persistent_group:
            raise NoLocalPersistentGroupError(f"host {vm.host_id} has no local-persistent partition group")
        vol = _attach_partition(new, vm, size_gb, host)
    else:  # root / ephemeral
        host = new.topology.host(vm.host_id)
        disk = next((d for d in host.disks if new.disk_free_gb(vm.host_id, d.id) >= size_gb), None)
        if disk is None:
            raise InsufficientSpaceError(f"host {vm.host_id} has no disk with {size_gb} GB free")
        vol = Volume(
            id=new.next_volume_id(),
            kind=kind,
            size_gb=size_gb,
            backing=(vm.host_id, disk.id),
            persistent=False,
            attached_to=vm_id,
        )

    if vol.id not in new.volumes:
        new.volumes[vol.id] = vol
    if vol.id not in vm.volumes:
        vm.volumes.append(vol.id)
    return new, vol


def _attach_partition(state: ClusterState, vm: VmInstance, size_gb: float, host) -> Volume:
    # adopt a detached partition first: never formatted, contents preserved
    detached = sorted(
        v.id
        for v in state.volumes.values()
        if v.kind == LOCAL_PERSISTENT and v.attached_to is None and v.backing[0] == host.id and v.size_gb >= size_gb
    )
    if detached:
        vol = state.volumes[detached[0]]
        vol.attached_to = vm.id
        return vol
    occupied = {v.backing for v in state.volumes.values() if v.kind == LOCAL_PERSISTENT}
    for part in host.local_persistent_group:
        if (host.id, part.id) not in occupied and part.capacity_gb >= size_gb:
            return Volume(
                id=state.next_volume_id(),
                kind=LOCAL_PERSISTENT,
                size_gb=part.capacity_gb,  # the volume is the partition
                backing=(host.id, part.id),
                persistent=True,
                attached_to=vm.id,
            )
    raise InsufficientSpaceError(f"host {host.id} has no free local-persistent partition >= {size_gb} GB")


def resolve_io_path(state: ClusterState, vm_id: str, volume_id: str, direction: Direction) -> ResourcePath:
    """Resources an I/O stream from this VM to this volume crosses.

    root/ephemeral/local_persistent touch only the host disk, so their
    performance never depends on the network. networked volumes cross the
    management links to the controller and end at the controller disk.
    """
    vm = state.instances.get(vm_id)
    if vm is None:
        raise VmNotFoundError(f"no VM {vm_id!r}")
    vol = state.volumes.get(volume_id)
    if vol is None or vol.attached_to != vm_id:
        raise VolumeNotAttachedError(f"volume {volume_id!r} is not attached to {vm_id}")

    node_id, disk_id = vol.backing
    if vol.kind in LOCAL_KINDS:
        return ResourcePath((disk_resource_id(node_id, disk_id),), direction)
    links = management_path(state.topology, vm.host_id, state.topology.controller.id)
    resources = tuple(link_resource_id(l.id) for l in links) + (disk_resource_id(node_id, disk_id),)
    return ResourcePath(resources, direction)


def terminate_vm(
    state: ClusterState,
    vm_id: str,
    mode: Literal["clean", "crash"] = "clean",
    reboot_within_grace: bool = False,
) -> ClusterState:
    """Terminate or crash a VM and settle its volumes.

    Clean termination loses root/ephemeral data (recoverable only from
    snapshots) while networked and local-persistent volumes survive
    detached. A crash rebooted within the grace window keeps everything
    and the VM returns to running; a slow reboot is a clean terminate.
    """
    vm = state.instances.get(vm_id)
    if vm is None or vm.state != "running":
        raise VmNotFoundError(f"no running VM {vm_id!r}")
    new = state.clone()
    vm = new.instances[vm_id]

    if mode == "crash" and reboot_within_grace:
        return new  # storage had not been reclaimed yet; VM is back up

    for vol_id in list(vm.volumes):
        vol = new.volumes[vol_id]
        if vol.kind in (ROOT, EPHEMERAL):
            vol.data_lost = True
            vol.stored_mb = 0.0
            vol.dirty_mb = 0.0
        vol.attached_to = None
    vm.volumes.clear()
    vm.state = "terminated" if mode == "clean" else "crashed"
    return new
