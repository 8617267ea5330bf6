"""The cluster state's operations are pure, and its ids follow its tables.

Random sequences of ``place_vm``, ``attach_volume``, ``terminate_vm`` and
``migrate_vm`` run on small reference clusters, with or without a
local-persistent partition per host and with a small or a large controller
disk, so each operation both succeeds and fails in each of its expected
ways. After every operation, its input state still equals a deep copy taken
before it; VM and volume ids run ``vm001``/``vol001`` upward with no gap, in
creation order; and ``clone`` gives new tables that hold the same records.
"""

import copy

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from storagesim.errors import SimError  # noqa: E402
from storagesim.placement import ClusterState, VmSpec, migrate_vm, place_vm  # noqa: E402
from storagesim.topology import reference_cluster  # noqa: E402
from storagesim.volumes import EPHEMERAL, LOCAL_PERSISTENT, NETWORKED, attach_volume, terminate_vm  # noqa: E402

SPECS = st.builds(
    VmSpec,
    vcpus=st.integers(1, 4),
    ram_gb=st.sampled_from([1.0, 4.0, 8.0]),
    root_disk_gb=st.sampled_from([10.0, 200.0, 600.0]),
    ephemeral_gb=st.sampled_from([0.0, 20.0]),
    requires_local_persistent=st.booleans(),
    migratable=st.booleans(),
)
# A VM is drawn by position among every id ever made, so terminated VMs are drawn too, and the last pick is
# a VM that was never made; a host is drawn by position among the hosts and one unknown host.
UNKNOWN = 20
PICK = st.integers(0, UNKNOWN)
OPERATIONS = st.one_of(
    st.tuples(st.just("place"), SPECS, st.sampled_from(["first_fit", "spread"])),
    st.tuples(
        st.just("attach"),
        PICK,
        st.sampled_from([NETWORKED, LOCAL_PERSISTENT, EPHEMERAL]),  # ephemeral volumes do not attach: ValueError
        st.sampled_from([5.0, 50.0, 400.0]),
    ),
    st.tuples(st.just("terminate"), PICK),
    st.tuples(st.just("migrate"), PICK, PICK),
)


def _vm(state: ClusterState, pick: int) -> str:
    ids = list(state.instances)
    return ids[pick % len(ids)] if ids and pick < UNKNOWN else "vm999"


def _apply(state: ClusterState, op: tuple) -> ClusterState:
    kind = op[0]
    if kind == "place":
        new, vm = place_vm(state, op[1], op[2])
        assert vm.id == f"vm{len(state.instances) + 1:03d}" and new.instances[vm.id] is vm
    elif kind == "attach":
        new, vol = attach_volume(state, _vm(state, op[1]), op[2], op[3])
        if vol.id in state.volumes:  # an adopted partition keeps its id
            assert state.volumes[vol.id].attached_to is None and vol.kind == LOCAL_PERSISTENT
        else:
            assert vol.id == f"vol{len(state.volumes) + 1:03d}"
        assert new.volumes[vol.id] is vol
    elif kind == "terminate":
        new = terminate_vm(state, _vm(state, op[1]))
    else:
        hosts = [h.id for h in state.topology.hosts] + ["h99"]
        new = migrate_vm(state, _vm(state, op[1]), hosts[op[2] % len(hosts)])
    return new


SMALL = VmSpec(vcpus=1, ram_gb=1.0, root_disk_gb=10.0)


@settings(max_examples=200)
@given(
    st.integers(1, 4),
    st.sampled_from([0.0, 300.0]),
    st.sampled_from([60.0, 1000.0]),
    st.lists(OPERATIONS, min_size=1, max_size=25),
)
# a terminated VM's partition is adopted by the next VM on its host; a migrated VM's partition detaches in place
@example(1, 300.0, 1000.0, [
    ("place", SMALL, "spread"), ("attach", 0, LOCAL_PERSISTENT, 5.0), ("terminate", 0),
    ("place", SMALL, "spread"), ("attach", 1, LOCAL_PERSISTENT, 50.0),
])
@example(2, 300.0, 1000.0, [
    ("place", SMALL, "spread"), ("attach", 0, LOCAL_PERSISTENT, 5.0), ("attach", 0, NETWORKED, 5.0), ("migrate", 0, 1),
])
def test_operations_leave_their_input_unchanged_and_ids_follow_the_tables(n_hosts, lp_gb, controller_gb, ops):
    state = ClusterState.from_topology(
        reference_cluster(n_hosts, local_persistent_gb=lp_gb, controller_disk_capacity_gb=controller_gb)
    )
    for op in ops:
        before = copy.deepcopy(state)
        try:
            new = _apply(state, op)
        except (SimError, KeyError, ValueError):
            new = state  # an expected failure: no host fits, no room, no such VM or host, a pinned VM, ...
        assert state == before, op
        state = new
        assert list(state.instances) == [f"vm{i:03d}" for i in range(1, len(state.instances) + 1)]
        assert list(state.volumes) == [f"vol{i:03d}" for i in range(1, len(state.volumes) + 1)]
        assert all(vm.id == key for key, vm in state.instances.items())
        assert all(vol.id == key for key, vol in state.volumes.items())

        twin = state.clone()
        assert twin == state and twin.instances is not state.instances and twin.volumes is not state.volumes
        assert all(twin.instances[k] is vm for k, vm in state.instances.items())
        assert all(twin.volumes[k] is vol for k, vol in state.volumes.items())
