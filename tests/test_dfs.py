import math
import random
import warnings

import pytest

from helpers import SMALL_VM, member_tables, placed_cluster
from oracles import place_replicas_reference
from storagesim.dfs import (
    DfsConfig,
    PlacementTables,
    ReplicaCoLocationWarning,
    place_file,
    place_replicas,
    schedule_map_task,
)
from storagesim.errors import InsufficientVmsError, NoFreeSlotsError


@pytest.fixture
def five_hosts():
    return member_tables(placed_cluster(n_hosts=5, spec=SMALL_VM))


@pytest.fixture
def one_host_three_vms():
    return member_tables(placed_cluster(n_hosts=1, vms_per_host=3, spec=SMALL_VM))


def racks_of(block):
    return {rack for _, rack in block.replicas}


def test_rf1_places_only_on_writer(five_hosts):
    block = place_replicas(five_hosts, "vm001", 64.0, rf=1, rng=random.Random(0))
    assert block.vms() == ("vm001",)


def test_writer_always_holds_first_replica(five_hosts):
    for seed in range(50):
        block = place_replicas(five_hosts, "vm003", 64.0, rf=3, rng=random.Random(seed))
        assert block.replicas[0][0] == "vm003"


def test_multi_rack_placement_every_seed_spans_two_racks(five_hosts):
    # exhaustive over seeds: distinct VMs, at least two racks, every time
    for seed in range(500):
        block = place_replicas(five_hosts, "vm001", 64.0, rf=3, rng=random.Random(seed))
        vms = block.vms()
        assert len(set(vms)) == 3
        assert len(racks_of(block)) >= 2


def test_single_rack_cluster_warns_and_spreads_vms(one_host_three_vms):
    with pytest.warns(ReplicaCoLocationWarning):
        block = place_replicas(one_host_three_vms, "vm001", 64.0, rf=3, rng=random.Random(1))
    assert len(set(block.vms())) == 3
    assert racks_of(block) == {"h01"}


def test_rf1_never_warns(one_host_three_vms):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        place_replicas(one_host_three_vms, "vm001", 64.0, rf=1, rng=random.Random(1))


def test_insufficient_vms(five_hosts):
    with pytest.raises(InsufficientVmsError):
        place_replicas(five_hosts, "vm001", 64.0, rf=6, rng=random.Random(0))


def test_third_replica_prefers_second_replicas_rack():
    tables = member_tables(placed_cluster(n_hosts=3, vms_per_host=2, spec=SMALL_VM))
    for seed in range(100):
        block = place_replicas(tables, "vm001", 64.0, rf=3, rng=random.Random(seed))
        racks = [rack for _, rack in block.replicas]
        assert racks[0] != racks[1]  # second replica off the writer's rack
        assert racks[2] == racks[1]  # third rides along on a different VM there
        assert block.replicas[2][0] != block.replicas[1][0]


def test_placement_deterministic_for_a_seed(five_hosts):
    a = place_replicas(five_hosts, "vm002", 64.0, rf=3, rng=random.Random(99))
    b = place_replicas(five_hosts, "vm002", 64.0, rf=3, rng=random.Random(99))
    assert a == b


def test_place_file_blocks_and_sizes(five_hosts):
    f = place_file(five_hosts, 200.0, "vm001", DfsConfig(block_size_mb=64.0, replication_factor=3), random.Random(0))
    assert len(f.blocks) == 4  # ceil(200/64)
    assert [b.bytes_mb for b in f.blocks] == [64.0, 64.0, 64.0, 8.0]
    assert all(len(racks_of(b)) >= 2 for b in f.blocks)


def test_rf1_and_single_rack_files_span_one_rack(five_hosts, one_host_three_vms):
    rf1 = place_file(five_hosts, 64.0, "vm001", DfsConfig(replication_factor=1), random.Random(0))
    assert [racks_of(b) for b in rf1.blocks] == [{"h01"}]
    with pytest.warns(ReplicaCoLocationWarning):
        single = place_file(one_host_three_vms, 64.0, "vm001", DfsConfig(replication_factor=3), random.Random(0))
    assert [racks_of(b) for b in single.blocks] == [{"h01"}]


def _recorded(call):
    """``call()``'s result, and the category of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [w.category for w in caught]


def test_per_run_tables_place_every_file_like_the_per_block_reference():
    # One PlacementTables per cluster and member set serves every file, writer and rf,
    # as in a run; each file's blocks, draws and warnings must match a per-block rebuild.
    rng = random.Random(13)
    layouts = [(1, 4)] + [(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(30)]  # (hosts, VMs per host)
    files = warned = 0
    rfs = set()
    for n_hosts, per_host in layouts:
        state = placed_cluster(n_hosts=n_hosts, vms_per_host=per_host, spec=SMALL_VM)
        vms = sorted(state.instances)
        members = rng.sample(vms, rng.randint(1, len(vms)))  # a random subset, in random order
        tables = PlacementTables(state, members)
        for rf in range(1, min(5, len(members)) + 1):
            config = DfsConfig(block_size_mb=64.0, replication_factor=rf)
            seed = rng.randrange(2**32)
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for writer in members:
                size_mb = rng.choice([10.0, 64.0, 200.0, 640.0])
                got, got_warnings = _recorded(lambda: place_file(tables, size_mb, writer, config, got_rng))
                want, want_warnings = _recorded(
                    lambda: [
                        place_replicas_reference(state, writer, min(64.0, size_mb - i * 64.0), rf, want_rng, members)
                        for i in range(max(1, math.ceil(size_mb / 64.0)))
                    ]
                )
                assert list(got.blocks) == want, (n_hosts, per_host, members, rf, writer)
                assert got_rng.getstate() == want_rng.getstate()
                assert got_warnings == want_warnings
                files += 1
                warned += bool(want_warnings)
            rfs.add(rf)
    assert files > 300 and warned > 0 and rfs == {1, 2, 3, 4, 5}


def test_blocks_placed_through_one_table_share_its_replica_pairs():
    state = placed_cluster(n_hosts=4, vms_per_host=2, spec=SMALL_VM)
    tables = member_tables(state)
    members = tables.members
    got_rng, want_rng = random.Random(21), random.Random(21)
    pairs = set()
    for writer in members:
        got = place_file(tables, 640.0, writer, DfsConfig(), got_rng)
        want = [place_replicas_reference(state, writer, 64.0, 3, want_rng, members) for _ in range(10)]
        assert list(got.blocks) == want
        for block in got.blocks:
            for pair in block.replicas:
                assert pair is tables.pair_of[pair[0]]  # the table's own object, not an equal copy
                pairs.add(id(pair))
    assert len(pairs) == len(members)  # 80 blocks, 240 replicas, one pair object per member


class PoolRecorder:
    """An rng that records each pool ``choice`` draws from, as a list, and draws as ``random.Random(seed)`` does."""

    def __init__(self, seed):
        self.rng, self.pools = random.Random(seed), []

    def choice(self, pool):
        self.pools.append(list(pool))
        return self.rng.choice(pool)

    def sample(self, population, k):
        return self.rng.sample(population, k)


def spy_pools(tables):
    """Record each pool ``tables`` hands out, as the list its (items, skip) pair stands for."""
    pools = []

    def recorded(pool):
        def call(*args):
            items, skip = pool(*args)
            assert list(skip) == sorted(set(skip)) and all(0 <= at < len(items) for at in skip)
            pools.append([vm for at, vm in enumerate(items) if at not in skip])
            return items, skip

        return call

    tables.second_pool, tables.third_pool = recorded(tables.second_pool), recorded(tables.third_pool)
    return pools


def test_replica_pools_are_the_rebuilt_pools_on_racks_of_several_vms():
    rng = random.Random(37)
    pools = 0
    for _ in range(40):
        state = placed_cluster(n_hosts=rng.randint(1, 5), vms_per_host=rng.randint(2, 4), spec=SMALL_VM)
        vms = sorted(state.instances)
        members = rng.sample(vms, rng.randint(3, len(vms)) if len(vms) > 3 else len(vms))  # in random order
        tables = PlacementTables(state, members)
        got_pools = spy_pools(tables)
        rf = rng.randint(2, min(5, len(members)))
        seed = rng.randrange(2**32)
        got, want = random.Random(seed), PoolRecorder(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReplicaCoLocationWarning)
            for writer in members * 3:
                assert place_replicas(tables, writer, 64.0, rf, got) == place_replicas_reference(
                    state, writer, 64.0, rf, want, members
                )
        assert got_pools == want.pools
        assert got.getstate() == want.rng.getstate()
        pools += len(got_pools)
    assert pools > 500


def test_randrange_draws_as_choice_over_as_many_entries():
    # dfs._draw relies on it: randrange(n) and choice over n entries each make one _randbelow(n) draw
    for seed in range(5):
        by_index, by_entry = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            assert by_index.randrange(n) == by_entry.choice(list(range(n)))
            assert by_index.getstate() == by_entry.getstate()


def lists_held(tables):
    """The lists a ``PlacementTables`` keeps, as attributes or as values of its dicts."""
    values = [v for value in vars(tables).values() for v in (value.values() if isinstance(value, dict) else [value])]
    return sum(isinstance(v, list) for v in values)


def test_placement_tables_keep_lists_per_member_and_rack_not_per_block():
    state = placed_cluster(n_hosts=60, spec=SMALL_VM)
    tables = member_tables(state)
    rng, config = random.Random(5), DfsConfig(replication_factor=3)
    for i in range(2000):
        place_file(tables, 64.0, tables.members[i % 60], config, rng)
    # the members as given, all members sorted and one list per rack; a pool per writer would be 60 more
    assert lists_held(tables) <= tables.n_racks + 2


def test_replicas_past_the_third_are_sampled_as_from_the_rebuilt_leftover_members():
    # rf 4 and 5 sample from the sorted members without the chosen ones, cut from the tables' sorted list: the
    # population, the draws and the rng state after them are those of the per-block rebuild
    rng = random.Random(41)
    blocks = 0
    for n_hosts, per_host in [(4, 1), (3, 2), (12, 2), (30, 1)]:
        state = placed_cluster(n_hosts=n_hosts, vms_per_host=per_host, spec=SMALL_VM)
        members = rng.sample(sorted(state.instances), len(state.instances))  # every VM, in random order
        tables = PlacementTables(state, members)
        for rf in (4, 5):
            if rf > len(members):
                continue
            seed = rng.randrange(2**32)
            got, want = random.Random(seed), random.Random(seed)
            for writer in members * 3:
                block = place_replicas(tables, writer, 64.0, rf, got)
                assert block == place_replicas_reference(state, writer, 64.0, rf, want, members)
                assert got.getstate() == want.getstate()
                chosen = list(block.vms()[:3])
                assert tables.others(chosen) == sorted(m for m in members if m not in chosen)
                blocks += 1
    assert blocks > 300


def test_schedule_prefers_replica_holder_with_free_slot(five_hosts):
    slots = {"vm001": 0, "vm002": 0, "vm003": 1, "vm004": 1, "vm005": 1}
    vm = schedule_map_task("t0", slots, replicas=("vm002", "vm004"))
    assert vm == "vm004"


def test_schedule_falls_back_to_lowest_free_vm(five_hosts):
    slots = {"vm001": 1, "vm002": 1, "vm003": 0, "vm004": 0, "vm005": 0}
    vm = schedule_map_task("t0", slots, replicas=("vm003", "vm004"))
    assert vm == "vm001"


def test_schedule_no_free_slots(five_hosts):
    with pytest.raises(NoFreeSlotsError):
        schedule_map_task("t", {m: 0 for m in five_hosts.members})


def test_locality_schedule_returns_holder_whenever_one_is_free(five_hosts):
    rng = random.Random(17)
    members = five_hosts.members
    for _ in range(300):
        slots = {m: rng.randint(0, 2) for m in members}
        if all(v == 0 for v in slots.values()):
            continue
        replicas = tuple(rng.sample(members, rng.randint(1, 3)))
        vm = schedule_map_task("t", slots, replicas=replicas)
        free_holders = [m for m in replicas if slots[m] > 0]
        if free_holders:
            assert vm in free_holders
        else:
            assert slots[vm] > 0
