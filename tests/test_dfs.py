import random
import warnings

import pytest

from helpers import SMALL_VM, placed_cluster
from storagesim.dfs import (
    DfsConfig,
    ReplicaCoLocationWarning,
    dfs_members,
    place_file,
    place_replicas,
    rack_spread,
    schedule_map_task,
)
from storagesim.errors import InsufficientVmsError, NoFreeSlotsError


@pytest.fixture
def five_hosts():
    return placed_cluster(n_hosts=5, spec=SMALL_VM)


@pytest.fixture
def one_host_three_vms():
    return placed_cluster(n_hosts=1, vms_per_host=3, spec=SMALL_VM)


def test_rf1_places_only_on_writer(five_hosts):
    block = place_replicas(five_hosts, "vm001", "b0", 64.0, rf=1, rng=random.Random(0))
    assert block.vms() == ("vm001",)


def test_writer_always_holds_first_replica(five_hosts):
    for seed in range(50):
        block = place_replicas(five_hosts, "vm003", "b0", 64.0, rf=3, rng=random.Random(seed))
        assert block.replicas[0][0] == "vm003"


def test_multi_rack_placement_every_seed_spans_two_racks(five_hosts):
    # exhaustive over seeds: distinct VMs, at least two racks, every time
    for seed in range(500):
        block = place_replicas(five_hosts, "vm001", "b0", 64.0, rf=3, rng=random.Random(seed))
        vms = block.vms()
        assert len(set(vms)) == 3
        assert len(block.racks()) >= 2


def test_single_rack_cluster_warns_and_spreads_vms(one_host_three_vms):
    with pytest.warns(ReplicaCoLocationWarning):
        block = place_replicas(one_host_three_vms, "vm001", "b0", 64.0, rf=3, rng=random.Random(1))
    assert len(set(block.vms())) == 3
    assert block.racks() == {"h01"}


def test_rf1_never_warns(one_host_three_vms):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        place_replicas(one_host_three_vms, "vm001", "b0", 64.0, rf=1, rng=random.Random(1))


def test_insufficient_vms(five_hosts):
    with pytest.raises(InsufficientVmsError):
        place_replicas(five_hosts, "vm001", "b0", 64.0, rf=6, rng=random.Random(0))


def test_third_replica_prefers_second_replicas_rack():
    state = placed_cluster(n_hosts=3, vms_per_host=2, spec=SMALL_VM)
    for seed in range(100):
        block = place_replicas(state, "vm001", "b0", 64.0, rf=3, rng=random.Random(seed))
        racks = [rack for _, rack in block.replicas]
        assert racks[0] != racks[1]  # second replica off the writer's rack
        assert racks[2] == racks[1]  # third rides along on a different VM there
        assert block.replicas[2][0] != block.replicas[1][0]


def test_placement_deterministic_for_a_seed(five_hosts):
    a = place_replicas(five_hosts, "vm002", "b7", 64.0, rf=3, rng=random.Random(99))
    b = place_replicas(five_hosts, "vm002", "b7", 64.0, rf=3, rng=random.Random(99))
    assert a == b


def test_place_file_blocks_and_sizes(five_hosts):
    f = place_file(five_hosts, "data", 200.0, "vm001", DfsConfig(block_size_mb=64.0, replication_factor=3), random.Random(0))
    assert len(f.blocks) == 4  # ceil(200/64)
    assert [b.bytes_mb for b in f.blocks] == [64.0, 64.0, 64.0, 8.0]
    assert rack_spread(f) >= 2


def test_rack_spread_degenerate_cases(five_hosts, one_host_three_vms):
    rf1 = place_file(five_hosts, "a", 64.0, "vm001", DfsConfig(replication_factor=1), random.Random(0))
    assert rack_spread(rf1) == 1
    with pytest.warns(ReplicaCoLocationWarning):
        single = place_file(one_host_three_vms, "b", 64.0, "vm001", DfsConfig(replication_factor=3), random.Random(0))
    assert rack_spread(single) == 1


def test_schedule_prefers_replica_holder_with_free_slot(five_hosts):
    slots = {"vm001": 0, "vm002": 0, "vm003": 1, "vm004": 1, "vm005": 1}
    vm = schedule_map_task(five_hosts, "t0", slots, replicas=("vm002", "vm004"))
    assert vm == "vm004"


def test_schedule_falls_back_to_lowest_free_vm(five_hosts):
    slots = {"vm001": 1, "vm002": 1, "vm003": 0, "vm004": 0, "vm005": 0}
    vm = schedule_map_task(five_hosts, "t0", slots, replicas=("vm003", "vm004"))
    assert vm == "vm001"


def test_schedule_no_free_slots(five_hosts):
    with pytest.raises(NoFreeSlotsError):
        schedule_map_task(five_hosts, "t", {m: 0 for m in dfs_members(five_hosts)})


def test_locality_schedule_returns_holder_whenever_one_is_free(five_hosts):
    rng = random.Random(17)
    members = dfs_members(five_hosts)
    for _ in range(300):
        slots = {m: rng.randint(0, 2) for m in members}
        if all(v == 0 for v in slots.values()):
            continue
        replicas = tuple(rng.sample(members, rng.randint(1, 3)))
        vm = schedule_map_task(five_hosts, "t", slots, replicas=replicas)
        free_holders = [m for m in replicas if slots[m] > 0]
        if free_holders:
            assert vm in free_holders
        else:
            assert slots[vm] > 0
