import copy
import random

import pytest

from helpers import PINNED_VM, SMALL_VM, attached
from oracles import capacity_violations
from storagesim.errors import InsufficientCapacityError, MigrationDisabledError, NoCandidateHostError
from storagesim.placement import (
    ClusterState,
    Usage,
    VmSpec,
    filter_hosts,
    migrate_vm,
    place_vm,
)
from storagesim.topology import ClusterTopology, reference_cluster
from storagesim.volumes import NETWORKED, attach_volume, terminate_vm


@pytest.fixture
def empty_state():
    return ClusterState.from_topology(reference_cluster())


def test_local_persistent_filter_keeps_partitioned_hosts():
    # two-host cluster where only h01 carries a partition group
    topo = reference_cluster(2, local_persistent_gb=100.0)
    hosts = (topo.hosts[0], topo.hosts[1]._replace(local_persistent_group=()))
    topo = ClusterTopology(hosts=hosts, controller=topo.controller, links=topo.links)
    state = ClusterState.from_topology(topo)
    spec = VmSpec(vcpus=1, ram_gb=1, root_disk_gb=10, requires_local_persistent=True)
    assert filter_hosts(state, spec) == ["h01"]


def test_capacity_filter_accounts_for_running_vms(empty_state):
    # 16 GB host running an 8 GB VM still fits a second 8 GB VM
    spec = VmSpec(vcpus=2, ram_gb=8.0, root_disk_gb=10.0)
    state, _ = place_vm(empty_state, spec, policy="first_fit")
    assert "h01" in filter_hosts(state, spec)
    # but not a third
    state, _ = place_vm(state, spec, policy="first_fit")
    assert "h01" not in filter_hosts(state, spec)


def test_spread_places_one_vm_per_host(empty_state):
    state = empty_state
    hosts = []
    for _ in range(5):
        state, vm = place_vm(state, PINNED_VM, policy="spread")
        hosts.append(vm.host_id)
    assert sorted(hosts) == ["h01", "h02", "h03", "h04", "h05"]
    assert capacity_violations(state) == []


def test_first_fit_picks_first_candidate(empty_state):
    state, vm = place_vm(empty_state, PINNED_VM, policy="first_fit")
    assert vm.host_id == "h01"


def test_placement_is_deterministic(empty_state):
    a = place_vm(empty_state, PINNED_VM, policy="spread")[1]
    b = place_vm(empty_state, PINNED_VM, policy="spread")[1]
    assert (a.id, a.host_id) == (b.id, b.host_id)


def test_no_candidate_when_spec_exceeds_host(empty_state):
    with pytest.raises(NoCandidateHostError):
        place_vm(empty_state, VmSpec(vcpus=4, ram_gb=64.0, root_disk_gb=32.0))


def test_place_creates_root_and_ephemeral_on_same_disk(empty_state):
    state, vm = place_vm(empty_state, PINNED_VM)
    kinds = {state.volumes[v].kind for v in attached(state, vm.id)}
    assert kinds == {"root", "ephemeral"}
    backings = {state.volumes[v].backing for v in attached(state, vm.id)}
    assert backings == {(vm.host_id, "disk1")}
    assert Usage(state).disk_used_gb(vm.host_id, "disk1") == 52.0


def test_colocated_vms_share_rack_distinct_hosts_do_not(empty_state):
    state, a = place_vm(empty_state, SMALL_VM, policy="first_fit")
    state, b = place_vm(state, SMALL_VM, policy="first_fit")
    assert a.host_id == b.host_id
    state, c = place_vm(state, SMALL_VM, policy="spread")
    assert c.host_id != a.host_id


def test_migration_disabled_for_pinned_vms(empty_state):
    state, vm = place_vm(empty_state, PINNED_VM)
    before = copy.deepcopy(state)
    with pytest.raises(MigrationDisabledError):
        migrate_vm(state, vm.id, "h02")
    assert state == before


def test_migration_moves_rack_and_loses_local_data(empty_state):
    spec = VmSpec(vcpus=2, ram_gb=4.0, root_disk_gb=20.0, ephemeral_gb=10.0, migratable=True)
    state, vm = place_vm(empty_state, spec, policy="first_fit")
    state, net_vol = attach_volume(state, vm.id, NETWORKED, 50.0)
    root_id = next(v for v in attached(state, vm.id) if state.volumes[v].kind == "root")

    moved = migrate_vm(state, vm.id, "h02")
    vm2 = moved.instances[vm.id]
    assert vm2.host_id == "h02"
    root = moved.volumes[root_id]
    assert root.backing[0] == "h02" and root.data_lost
    net = moved.volumes[net_vol.id]
    assert net.attached_to == vm.id and not net.data_lost and net.backing[0] == "controller"
    assert Usage(moved).free_vcpus("h01") == 4  # capacity returned to the source host
    assert capacity_violations(moved) == []


def test_migration_to_full_host_fails(empty_state):
    big = VmSpec(vcpus=4, ram_gb=12.0, root_disk_gb=20.0, migratable=True)
    state, a = place_vm(empty_state, big, policy="first_fit")  # h01
    state, b = place_vm(state, big, policy="first_fit")  # h02
    with pytest.raises(InsufficientCapacityError):
        migrate_vm(state, a.id, "h02")


def test_migration_to_host_without_disk_room_fails(empty_state):
    # h02 keeps free vcpus and RAM, but its 1000 GB disk has 900 GB taken
    spec = VmSpec(vcpus=1, ram_gb=1.0, root_disk_gb=200.0, migratable=True)
    state, vm = place_vm(empty_state, spec, policy="first_fit")  # h01
    state, filler = place_vm(state, spec._replace(root_disk_gb=900.0), policy="spread")  # h02
    assert filler.host_id == "h02"
    usage = Usage(state)
    assert usage.free_vcpus("h02") >= spec.vcpus and usage.free_ram_gb("h02") >= spec.ram_gb
    before = copy.deepcopy(state)
    with pytest.raises(InsufficientCapacityError, match="h02"):
        migrate_vm(state, vm.id, "h02")
    assert state == before


def test_random_place_terminate_sequences_never_overcommit():
    rng = random.Random(7)
    for trial in range(30):
        state = ClusterState.from_topology(reference_cluster(rng.randint(1, 4)))
        live = []
        for _ in range(rng.randint(1, 25)):
            if live and rng.random() < 0.4:
                vm_id = live.pop(rng.randrange(len(live)))
                state = terminate_vm(state, vm_id)
            else:
                spec = VmSpec(
                    vcpus=rng.randint(1, 2),
                    ram_gb=rng.choice([1.0, 2.0, 4.0]),
                    root_disk_gb=rng.choice([5.0, 10.0]),
                    ephemeral_gb=rng.choice([0.0, 5.0]),
                )
                try:
                    state, vm = place_vm(state, spec, policy=rng.choice(["spread", "first_fit"]))
                    live.append(vm.id)
                except NoCandidateHostError:
                    pass
            assert capacity_violations(state) == []


class _CountedWalks(tuple):
    """A host tuple that counts the walks over it."""

    walks = 0

    def __iter__(self):
        _CountedWalks.walks += 1
        return super().__iter__()


def test_host_lookups_read_the_state_table_and_unknown_ids_raise_key_error():
    topology = reference_cluster(40)
    counted = ClusterState(topology._replace(hosts=_CountedWalks(topology.hosts)))
    plain = ClusterState.from_topology(topology)
    spec = VmSpec(vcpus=1, ram_gb=1.0, root_disk_gb=5.0)  # migratable
    _CountedWalks.walks = 0
    for policy in ["spread", "first_fit"] * 10:
        counted, vm = place_vm(counted, spec, policy=policy)
        plain, want = place_vm(plain, spec, policy=policy)
        assert vm.host_id == want.host_id
    # each placement walks the hosts twice: once to filter them, once to build its new state's table
    assert _CountedWalks.walks == 2 * 20
    assert counted.hosts_by_id["h01"] is topology.hosts[0]
    for lookup in (
        lambda: Usage(plain).free_vcpus("h99"),
        lambda: Usage(plain).free_ram_gb("h99"),
        lambda: plain.find_disk("h99", "disk1"),
        lambda: migrate_vm(plain, vm.id, "h99"),
    ):
        with pytest.raises(KeyError):
            lookup()


class _CountedTable(dict):
    """A state table that counts the passes over it."""

    passes = 0

    def _count(self, view):
        _CountedTable.passes += 1
        return view

    def __iter__(self):
        return self._count(super().__iter__())

    def keys(self):
        return self._count(super().keys())

    def values(self):
        return self._count(super().values())

    def items(self):
        return self._count(super().items())


def test_a_placement_passes_over_the_vms_and_volumes_a_fixed_number_of_times():
    """``place_vm`` reads every host's load from one pass over each table, however many hosts it checks."""
    spec = VmSpec(vcpus=1, ram_gb=0.5, root_disk_gb=5.0, ephemeral_gb=2.5)
    passes = {}
    for n_hosts in (5, 20, 80):
        plain = ClusterState.from_topology(reference_cluster(n_hosts))
        for _ in range(n_hosts):
            plain, vm = place_vm(plain, spec, policy="spread")
            plain, _ = attach_volume(plain, vm.id, NETWORKED, 1.0)
        counted = plain.clone()
        counted.instances, counted.volumes = _CountedTable(counted.instances), _CountedTable(counted.volumes)
        for policy in ("spread", "first_fit"):
            _CountedTable.passes = 0
            _, vm = place_vm(counted, spec, policy=policy)
            passes[n_hosts, policy] = _CountedTable.passes
            assert vm.host_id == place_vm(plain, spec, policy=policy)[1].host_id
    # one pass over each table to read the load, one over each to clone the state
    assert set(passes.values()) == {4}, passes
