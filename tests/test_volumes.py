import random

import pytest

from helpers import SMALL_VM, attached, placed_cluster
from storagesim.errors import InsufficientSpaceError, NoLocalPersistentGroupError, VolumeNotAttachedError
from storagesim.placement import Usage, place_vm
from storagesim.volumes import (
    EPHEMERAL,
    LOCAL_PERSISTENT,
    NETWORKED,
    ROOT,
    attach_volume,
    ResourcePath,
    Routes,
    is_link_resource,
    resolve_io_path,
    terminate_vm,
)


@pytest.fixture
def state():
    return placed_cluster(n_hosts=2, spec=SMALL_VM, local_persistent_gb=200.0)


def vm_of(state, i=0):
    return sorted(state.instances)[i]


def test_networked_volume_backs_on_controller(state):
    state, vol = attach_volume(state, vm_of(state), NETWORKED, 100.0)
    assert vol.backing == ("controller", "disk1")


def test_local_persistent_requires_partition_group():
    bare = placed_cluster(n_hosts=1, spec=SMALL_VM)  # no partitions carved
    with pytest.raises(NoLocalPersistentGroupError):
        attach_volume(bare, vm_of(bare), LOCAL_PERSISTENT, 50.0)


def test_attach_beyond_disk_capacity_fails(state):
    with pytest.raises(InsufficientSpaceError):
        attach_volume(state, vm_of(state), NETWORKED, 10_000.0)


@pytest.mark.parametrize("kind", [ROOT, EPHEMERAL])
def test_root_and_ephemeral_volumes_do_not_attach(state, kind):
    with pytest.raises(ValueError, match=kind):
        attach_volume(state, vm_of(state), kind, 5.0)


def test_volume_sizes_never_exceed_disk_capacity(state):
    vm = vm_of(state)
    # keep attaching 300 GB networked volumes until the 1 TB controller disk fills
    attached = 0
    while True:
        try:
            state, _ = attach_volume(state, vm, NETWORKED, 300.0)
            attached += 1
        except InsufficientSpaceError:
            break
    assert attached == 3  # 3x300 fits, a 4th would not
    assert Usage(state).disk_used_gb("controller", "disk1") <= 1000.0


def test_io_path_local_kinds_touch_only_the_host_disk(state):
    vm = vm_of(state)
    root = next(v for v in attached(state, vm) if state.volumes[v].kind == ROOT)
    path = resolve_io_path(Routes(state, {}), vm, root, "read")
    assert path.resources == ("disk:h01:disk1",)
    assert path.direction == "read"

    state, placed = place_vm(state, SMALL_VM._replace(ephemeral_gb=5.0), policy="first_fit")
    eph = next(v for v in attached(state, placed.id) if state.volumes[v].kind == EPHEMERAL)
    assert resolve_io_path(Routes(state, {}), placed.id, eph, "write").resources == (f"disk:{placed.host_id}:disk1",)

    state, part = attach_volume(state, vm, LOCAL_PERSISTENT, 50.0)
    assert resolve_io_path(Routes(state, {}), vm, part.id, "write").resources == ("disk:h01:part1",)


def test_io_path_networked_crosses_management_links(state):
    vm = vm_of(state)
    state, vol = attach_volume(state, vm, NETWORKED, 100.0)
    path = resolve_io_path(Routes(state, {}), vm, vol.id, "write")
    assert path.resources == ("link:mgmt-h01", "link:mgmt-controller", "disk:controller:disk1")
    assert sum(is_link_resource(r) for r in path.resources) >= 1


def test_route_links_name_the_management_route_and_nothing_within_a_node(state):
    routes = Routes(state, {})
    assert routes["links", "h01", "controller"] == ("link:mgmt-h01", "link:mgmt-controller")
    assert routes["links", "h01", "h02"] == ("link:mgmt-h01", "link:mgmt-h02")
    assert routes["links", "h01", "h01"] == ()


def test_routes_compose_volume_paths_and_management_links(state):
    a, b = vm_of(state, 0), vm_of(state, 1)
    state, net = attach_volume(state, a, NETWORKED, 10.0)
    root = next(v for v in attached(state, b) if state.volumes[v].kind == ROOT)
    routes = Routes(state, {a: net.id, b: root})
    to_controller = ("link:mgmt-h01", "link:mgmt-controller", "disk:controller:disk1")
    assert routes["volume", a, "write"] == ResourcePath(to_controller, "write")
    # a hop named twice is kept once, at its first position
    assert routes["replica", b, a] == ResourcePath(("link:mgmt-h02",) + to_controller, "write")
    assert routes["read", a, b] == ResourcePath(to_controller + ("link:mgmt-h02",), "read")
    assert routes["read", b, a] == ResourcePath(("disk:h02:disk1", "link:mgmt-h02", "link:mgmt-h01"), "read")
    assert routes["read", b, b] == ResourcePath(("disk:h02:disk1",), "read")
    snapshot = ("disk:h02:disk1", "link:mgmt-h02", "link:mgmt-controller", "disk:controller:disk1")
    assert routes["snapshot", "h02", "disk1"] == ResourcePath(snapshot, "write")
    with pytest.raises(KeyError):
        routes["bogus", a, b]


def test_path_shape_matches_kind_invariant(state):
    vm = vm_of(state)
    state, net = attach_volume(state, vm, NETWORKED, 10.0)
    state, part = attach_volume(state, vm, LOCAL_PERSISTENT, 10.0)
    for vol_id in attached(state, vm):
        vol = state.volumes[vol_id]
        path = resolve_io_path(Routes(state, {}), vm, vol_id, "read")
        links = [r for r in path.resources if is_link_resource(r)]
        if vol.kind == NETWORKED:
            assert len(links) >= 1 and path.resources[-1].startswith("disk:controller:")
        else:
            assert links == [] and len(path.resources) == 1


def test_detached_volume_has_no_path(state):
    vm = vm_of(state)
    state, vol = attach_volume(state, vm, NETWORKED, 10.0)
    after = terminate_vm(state, vm)
    with pytest.raises(VolumeNotAttachedError):
        resolve_io_path(Routes(after, {}), vm, vol.id, "read")


def test_clean_terminate_loses_root_keeps_networked(state):
    vm = vm_of(state)
    root = next(v for v in attached(state, vm) if state.volumes[v].kind == ROOT)
    state, net = attach_volume(state, vm, NETWORKED, 10.0)

    after = terminate_vm(state, vm)
    assert after.volumes[root].data_lost
    assert not after.volumes[net.id].data_lost
    assert after.volumes[net.id].attached_to is None
    assert after.instances[vm].state == "terminated"


def test_local_persistent_partition_survives_and_reattaches(state):
    vm = vm_of(state)
    state, part = attach_volume(state, vm, LOCAL_PERSISTENT, 50.0)
    state = terminate_vm(state, vm)
    assert not state.volumes[part.id].data_lost  # data stays on the partition

    # a new VM on the same host adopts the partition, contents intact
    state, vm2 = place_vm(state, SMALL_VM, policy="first_fit")
    assert vm2.host_id == "h01"
    state, again = attach_volume(state, vm2.id, LOCAL_PERSISTENT, 50.0)
    assert again.id == part.id and not again.data_lost


def test_persistent_volumes_never_lost_under_random_operations():
    rng = random.Random(3)
    for _ in range(20):
        state = placed_cluster(n_hosts=2, vms_per_host=2, spec=SMALL_VM, local_persistent_gb=100.0)
        persistent_ids = []
        for vm_id in sorted(state.instances):
            kind = rng.choice([NETWORKED, LOCAL_PERSISTENT])
            try:
                state, vol = attach_volume(state, vm_id, kind, 30.0)
                persistent_ids.append(vol.id)
            except InsufficientSpaceError:
                pass
        for vm_id in sorted(state.instances):
            if rng.random() < 0.7:
                state = terminate_vm(state, vm_id)
        for vol_id in persistent_ids:
            assert not state.volumes[vol_id].data_lost


def test_multi_hop_networked_path():
    # host -> aggregation -> core -> controller: three management hops
    from storagesim.topology import ClusterTopology, ControllerNode, DiskSpec, NetworkLink, PhysicalHost

    def disk(node):
        return DiskSpec(id="d1", capacity_gb=1000.0, write_bw=100.0, read_bw=100.0)

    topo = ClusterTopology(
        hosts=(PhysicalHost(id="h1", vcpus=4, ram_gb=16.0, disks=(disk("h1"),)),),
        controller=ControllerNode(id="ctl", disks=(disk("ctl"),)),
        links=(
            NetworkLink(id="l1", bandwidth=125.0, endpoints=("h1", "agg")),
            NetworkLink(id="l2", bandwidth=125.0, endpoints=("agg", "core")),
            NetworkLink(id="l3", bandwidth=125.0, endpoints=("core", "ctl")),
        ),
    )
    from storagesim.placement import ClusterState, VmSpec, place_vm as _place

    state = ClusterState.from_topology(topo)
    state, vm = _place(state, VmSpec(vcpus=1, ram_gb=1.0, root_disk_gb=10.0))
    state, vol = attach_volume(state, vm.id, NETWORKED, 50.0)
    path = resolve_io_path(Routes(state, {}), vm.id, vol.id, "write")
    assert path.resources == ("link:l1", "link:l2", "link:l3", "disk:ctl:d1")


def test_terminate_unknown_vm_errors():
    from storagesim.errors import VmNotFoundError

    state = placed_cluster(n_hosts=1, spec=SMALL_VM)
    with pytest.raises(VmNotFoundError):
        terminate_vm(state, "vm999")
    state2 = terminate_vm(state, "vm001")
    with pytest.raises(VmNotFoundError):  # already gone
        terminate_vm(state2, "vm001")
