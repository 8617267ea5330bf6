"""Simulated hardware: compute hosts, a controller node, disks, and networks.

The model is deliberately small. Hosts own local disks (and optionally a
group of local-persistent partitions), a single controller node backs all
networked volumes, and point-to-point links form two shared networks: a
management network that carries every simulated byte of networked-volume
traffic, and a public network that carries none. A node's links are the
links whose ``endpoints`` name it; nodes list none themselves.

Units: capacities in GB, bandwidth in MB/s (1 Gbit/s = 125 MB/s).
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .errors import TopologyValidationError

MBPS_PER_GBPS = 125.0  # 1 Gbit/s in MB/s; no protocol overhead by default

ROLE_MANAGEMENT = "management"
ROLE_PUBLIC = "public"
CONTROLLER_ID = "controller"


class DiskSpec(NamedTuple):
    """A physical disk with separate sequential read/write bandwidth."""

    id: str
    capacity_gb: float
    write_bw: float  # MB/s
    read_bw: float  # MB/s


class NetworkLink(NamedTuple):
    """A shared point-to-point link between two nodes."""

    id: str
    bandwidth: float  # MB/s
    endpoints: tuple[str, str]
    role: str = ROLE_MANAGEMENT


class PhysicalHost(NamedTuple):
    """A compute host: vcpus, RAM and local disks; its links are those whose endpoints name it.

    ``local_persistent_group`` models the proposed storage class: disk
    partitions that survive VM termination and are never reformatted.
    """

    id: str
    vcpus: int
    ram_gb: float
    disks: tuple[DiskSpec, ...]
    local_persistent_group: tuple[DiskSpec, ...] = ()


class ControllerNode(NamedTuple):
    """The node whose disks back every networked volume."""

    disks: tuple[DiskSpec, ...]
    id: str = CONTROLLER_ID


class ClusterTopology(NamedTuple):
    hosts: tuple[PhysicalHost, ...]
    controller: ControllerNode
    links: tuple[NetworkLink, ...] = ()

    def management_links(self) -> tuple[NetworkLink, ...]:
        return tuple(l for l in self.links if l.role == ROLE_MANAGEMENT)


class TopologyIssue(NamedTuple):
    """One violated invariant; validation reports all of them."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def _finite_positive(x: float) -> bool:
    return 0 < x < math.inf  # False for NaN too


def _disk_issues(owner: str, disks: tuple[DiskSpec, ...]) -> list[TopologyIssue]:
    issues = []
    for d in disks:
        if not _finite_positive(d.capacity_gb):
            issues.append(TopologyIssue("nonpositive-capacity", f"disk {owner}/{d.id} capacity_gb={d.capacity_gb}"))
        if not (_finite_positive(d.read_bw) and _finite_positive(d.write_bw)):
            issues.append(
                TopologyIssue("nonpositive-capacity", f"disk {owner}/{d.id} bandwidth read={d.read_bw} write={d.write_bw}")
            )
    return issues


def topology_issues(t: ClusterTopology) -> list[TopologyIssue]:
    """Collect every violated invariant in the topology.

    Each independent violation is reported as its own issue so a k-fault
    topology yields k entries.
    """
    issues: list[TopologyIssue] = []

    if not t.hosts:
        issues.append(TopologyIssue("empty-topology", "topology has zero hosts"))

    seen: set[str] = set()
    for node_id in [h.id for h in t.hosts] + [t.controller.id] + [l.id for l in t.links]:
        if node_id in seen:
            issues.append(TopologyIssue("duplicate-id", f"id {node_id!r} used more than once"))
        seen.add(node_id)

    for l in t.links:
        if not _finite_positive(l.bandwidth):
            issues.append(TopologyIssue("nonpositive-capacity", f"link {l.id} bandwidth={l.bandwidth}"))
        if l.endpoints[0] == l.endpoints[1]:
            issues.append(TopologyIssue("identical-endpoints", f"link {l.id} connects {l.endpoints[0]} to itself"))

    for h in t.hosts:
        if h.vcpus <= 0:
            issues.append(TopologyIssue("nonpositive-capacity", f"host {h.id} vcpus={h.vcpus}"))
        if not _finite_positive(h.ram_gb):
            issues.append(TopologyIssue("nonpositive-capacity", f"host {h.id} ram_gb={h.ram_gb}"))
        if not h.disks:
            issues.append(TopologyIssue("nonpositive-capacity", f"host {h.id} has no disks"))
        issues.extend(_disk_issues(h.id, h.disks))
        issues.extend(_disk_issues(h.id, h.local_persistent_group))

    if not t.controller.disks:
        issues.append(TopologyIssue("nonpositive-capacity", f"controller {t.controller.id} has no disks"))
    issues.extend(_disk_issues(t.controller.id, t.controller.disks))

    reachable = _management_tree(t, t.controller.id)
    for h in t.hosts:
        if h.id not in reachable:
            issues.append(
                TopologyIssue("unreachable-host", f"host {h.id} not reachable from {t.controller.id} via management links")
            )

    return issues


def _management_tree(t: ClusterTopology, src: str) -> dict[str, tuple[str, NetworkLink | None]]:
    """BFS over management links from ``src``: reached node -> (previous node, link into it).

    Links are visited in id order, so among shortest paths the one through
    lower link ids wins. ``src`` maps to ``(src, None)``.
    """
    adjacency: dict[str, list[tuple[str, NetworkLink]]] = {}
    for l in sorted(t.management_links(), key=lambda x: x.id):
        a, b = l.endpoints
        adjacency.setdefault(a, []).append((b, l))
        adjacency.setdefault(b, []).append((a, l))
    tree: dict[str, tuple[str, NetworkLink | None]] = {src: (src, None)}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for nxt, link in adjacency.get(node, ()):
            if nxt not in tree:
                tree[nxt] = (node, link)
                frontier.append(nxt)
    return tree


def management_path(t: ClusterTopology, src_node: str, dst_node: str) -> list[NetworkLink]:
    """Shortest management-link path between two nodes, deterministic.

    Ties are broken by link id order. Raises KeyError when no path exists.
    """
    tree = _management_tree(t, src_node)
    if dst_node not in tree:
        raise KeyError(f"no management path from {src_node} to {dst_node}")
    path = []
    cur = dst_node
    while cur != src_node:
        cur, link = tree[cur]
        path.append(link)
    return path[::-1]


def validate_topology(t: ClusterTopology) -> ClusterTopology:
    """Return the topology unchanged if every invariant holds.

    Otherwise raise :class:`TopologyValidationError` carrying every
    violation. Validating an already-validated topology returns the very
    same object, so validation is idempotent.
    """
    issues = topology_issues(t)
    if issues:
        raise TopologyValidationError(issues)
    return t


# Virtual switch node ids used by the reference cluster's star networks.
MANAGEMENT_NET = "mgmt-net"
PUBLIC_NET = "pub-net"

# The most hosts a scenario's reference cluster may have. Placing a VM reads every host's load from one pass over the
# placed VMs and volumes, then copies the state, so building a cluster's state grows with the square of its VMs.
MAX_REFERENCE_HOSTS = 1000


def reference_cluster(
    n_hosts: int = 5,
    *,
    disk_capacity_gb: float = 1000.0,
    disk_read_bw: float = 100.0,
    disk_write_bw: float = 100.0,
    controller_disk_capacity_gb: float = 1000.0,
    controller_read_bw: float | None = None,
    controller_write_bw: float | None = None,
    link_bw: float = MBPS_PER_GBPS,
    local_persistent_gb: float = 0.0,
    vcpus: int = 4,
    ram_gb: float = 16.0,
) -> ClusterTopology:
    """The canonical cluster: n hosts, one controller, two 1 Gbps networks.

    Each host gets one 1000 GB disk, 16 GB RAM, and a management plus a
    public link into star networks; the controller's single management
    uplink is shared by all networked-volume traffic. Controller disk
    bandwidth defaults to the host disk bandwidth so either the network or
    the controller disk can be made the bottleneck.

    ``local_persistent_gb`` > 0 carves one persistent partition of that
    size per host.
    """
    hosts = []
    links = []
    for i in range(1, n_hosts + 1):
        hid = f"h{i:02d}"
        mgmt = NetworkLink(id=f"mgmt-{hid}", bandwidth=link_bw, endpoints=(hid, MANAGEMENT_NET))
        pub = NetworkLink(id=f"pub-{hid}", bandwidth=link_bw, endpoints=(hid, PUBLIC_NET), role=ROLE_PUBLIC)
        links.extend([mgmt, pub])
        group = ()
        if local_persistent_gb > 0:
            group = (
                DiskSpec(
                    id="part1",
                    capacity_gb=local_persistent_gb,
                    write_bw=disk_write_bw,
                    read_bw=disk_read_bw,
                ),
            )
        hosts.append(
            PhysicalHost(
                id=hid,
                vcpus=vcpus,
                ram_gb=ram_gb,
                disks=(DiskSpec(id="disk1", capacity_gb=disk_capacity_gb, write_bw=disk_write_bw, read_bw=disk_read_bw),),
                local_persistent_group=group,
            )
        )

    ctl_mgmt = NetworkLink(id="mgmt-controller", bandwidth=link_bw, endpoints=(CONTROLLER_ID, MANAGEMENT_NET))
    ctl_pub = NetworkLink(id="pub-controller", bandwidth=link_bw, endpoints=(CONTROLLER_ID, PUBLIC_NET), role=ROLE_PUBLIC)
    links.extend([ctl_mgmt, ctl_pub])
    controller = ControllerNode(
        id=CONTROLLER_ID,
        disks=(
            DiskSpec(
                id="disk1",
                capacity_gb=controller_disk_capacity_gb,
                write_bw=controller_write_bw if controller_write_bw is not None else disk_write_bw,
                read_bw=controller_read_bw if controller_read_bw is not None else disk_read_bw,
            ),
        ),
    )
    return validate_topology(ClusterTopology(hosts=tuple(hosts), controller=controller, links=tuple(links)))
