import math

import pytest

from storagesim.errors import TopologyValidationError
from storagesim.topology import (
    ClusterTopology,
    ControllerNode,
    DiskSpec,
    NetworkLink,
    PhysicalHost,
    management_path,
    reference_cluster,
    topology_issues,
    validate_topology,
)


def disk(i="d1", cap=1000.0, bw=100.0):
    return DiskSpec(id=i, capacity_gb=cap, write_bw=bw, read_bw=bw)


def test_reference_cluster_shape():
    topo = reference_cluster()
    assert len(topo.hosts) == 5
    assert validate_topology(topo) is topo
    for h in topo.hosts:
        assert h.ram_gb == 16.0 and h.vcpus == 4
        assert h.disks[0].capacity_gb == 1000.0


def test_reference_cluster_link_bandwidth_is_one_gbps():
    # 1 Gbit/s = 1000/8 MB/s with no protocol overhead factor
    assert 1000.0 / 8.0 == 125.0
    topo = reference_cluster()
    assert all(l.bandwidth == 125.0 for l in topo.links)


def test_validate_is_idempotent_and_returns_same_object():
    topo = reference_cluster()
    assert validate_topology(validate_topology(topo)) is topo


def test_zero_hosts_is_an_error():
    topo = ClusterTopology(hosts=(), controller=ControllerNode(id="c", disks=(disk(),)), links=())
    codes = [i.code for i in topology_issues(topo)]
    assert "empty-topology" in codes


def test_unreachable_host_without_management_link():
    host = PhysicalHost(id="h1", vcpus=4, ram_gb=16, disks=(disk(),))
    topo = ClusterTopology(hosts=(host,), controller=ControllerNode(id="c", disks=(disk(),)), links=())
    codes = [i.code for i in topology_issues(topo)]
    assert "unreachable-host" in codes


def test_every_violation_reported_independently():
    # three independent faults: nonpositive capacity, duplicate id, a link from a node to itself
    bad_disk = DiskSpec(id="d1", capacity_gb=-1.0, write_bw=100.0, read_bw=100.0)
    host_a = PhysicalHost(id="h1", vcpus=4, ram_gb=16, disks=(bad_disk,))
    host_b = PhysicalHost(id="h1", vcpus=4, ram_gb=16, disks=(disk(),))
    topo = ClusterTopology(
        hosts=(host_a, host_b),
        controller=ControllerNode(id="c", disks=(disk(),)),
        links=(
            NetworkLink(id="m1", bandwidth=125.0, endpoints=("h1", "c")),
            NetworkLink(id="m2", bandwidth=125.0, endpoints=("h1", "c")),
            NetworkLink(id="loop", bandwidth=125.0, endpoints=("c", "c")),
        ),
    )
    codes = [i.code for i in topology_issues(topo)]
    assert codes.count("nonpositive-capacity") == 1
    assert codes.count("duplicate-id") == 1
    assert codes.count("identical-endpoints") == 1
    assert len(codes) == 3
    with pytest.raises(TopologyValidationError) as exc:
        validate_topology(topo)
    assert len(exc.value.issues) == len(codes)


def test_nonpositive_capacity_detected():
    topo = reference_cluster()
    bad = ClusterTopology(
        hosts=topo.hosts,
        controller=topo.controller,
        links=topo.links[:-1] + (NetworkLink(id="zero", bandwidth=0.0, endpoints=("a", "b")),),
    )
    assert any(i.code == "nonpositive-capacity" for i in topology_issues(bad))
    # NaN and infinity are no usable capacity either: NaN fails every comparison and inf never drains
    host, rest = topo.hosts[0], topo.hosts[1:]
    for value in (0.0, -1.0, math.nan, math.inf):
        bad_topologies = [
            topo._replace(links=(topo.links[0]._replace(bandwidth=value),) + topo.links[1:]),
            topo._replace(hosts=(host._replace(ram_gb=value),) + rest),
            topo._replace(hosts=(host._replace(disks=(disk(cap=value),)),) + rest),
            topo._replace(hosts=(host._replace(disks=(disk()._replace(read_bw=value),)),) + rest),
            topo._replace(controller=topo.controller._replace(disks=(disk()._replace(write_bw=value),))),
        ]
        for bad in bad_topologies:
            assert [i.code for i in topology_issues(bad)] == ["nonpositive-capacity"], (value, bad)
    with pytest.raises(TopologyValidationError, match="nonpositive-capacity"):
        reference_cluster(2, link_bw=math.nan)


def test_management_path_host_to_controller():
    topo = reference_cluster()
    links = management_path(topo, "h01", "controller")
    assert [l.id for l in links] == ["mgmt-h01", "mgmt-controller"]
    assert management_path(topo, "h01", "h01") == []


def test_management_path_is_deterministic_between_hosts():
    topo = reference_cluster()
    assert [l.id for l in management_path(topo, "h01", "h02")] == ["mgmt-h01", "mgmt-h02"]


def two_route_topology() -> ClusterTopology:
    """h1 reaches controller c over s1 (links b1, b2) or s2 (links a1, a2); h2 has no management link."""

    def mgmt(link_id, a, b):
        return NetworkLink(id=link_id, bandwidth=125.0, endpoints=(a, b))

    return ClusterTopology(
        hosts=(
            PhysicalHost(id="h1", vcpus=1, ram_gb=1, disks=(disk(),)),
            PhysicalHost(id="h2", vcpus=1, ram_gb=1, disks=(disk(),)),
        ),
        controller=ControllerNode(id="c", disks=(disk(),)),
        links=(mgmt("b1", "h1", "s1"), mgmt("b2", "s1", "c"), mgmt("a1", "h1", "s2"), mgmt("a2", "s2", "c")),
    )


def test_management_path_takes_the_route_through_lower_link_ids():
    topo = two_route_topology()
    assert [l.id for l in management_path(topo, "h1", "c")] == ["a1", "a2"]
    assert [l.id for l in management_path(topo, "c", "h1")] == ["a2", "a1"]


def test_management_path_raises_and_topology_flags_a_disconnected_host():
    topo = two_route_topology()
    with pytest.raises(KeyError):
        management_path(topo, "h2", "c")
    with pytest.raises(KeyError):
        management_path(topo, "c", "h2")
    assert [(i.code, "h2" in i.message) for i in topology_issues(topo)] == [("unreachable-host", True)]
