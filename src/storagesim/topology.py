"""Simulated hardware: compute hosts, a controller node, disks, and networks.

The model is deliberately small. Hosts own local disks (and optionally a
group of local-persistent partitions), a single controller node backs all
networked volumes, and point-to-point links form two shared networks: a
management network that carries every simulated byte of networked-volume
traffic, and a public network that carries none.

Units: capacities in GB, bandwidth in MB/s (1 Gbit/s = 125 MB/s).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import TopologyValidationError

MBPS_PER_GBPS = 125.0  # 1 Gbit/s in MB/s; no protocol overhead by default

ROLE_MANAGEMENT = "management"
ROLE_PUBLIC = "public"


@dataclass(frozen=True)
class DiskSpec:
    """A physical disk with separate sequential read/write bandwidth."""

    id: str
    capacity_gb: float
    write_bw: float  # MB/s
    read_bw: float  # MB/s


@dataclass(frozen=True)
class NetworkLink:
    """A shared point-to-point link between two nodes.

    ``efficiency`` is a calibration scalar in (0, 1] applied to the raw
    bandwidth; the default of 1.0 models no protocol overhead.
    """

    id: str
    bandwidth: float  # MB/s
    endpoints: tuple[str, str]
    role: str = ROLE_MANAGEMENT
    efficiency: float = 1.0

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.efficiency


@dataclass(frozen=True)
class PhysicalHost:
    """A compute host: vcpus, RAM, local disks, and NIC attachments.

    ``local_persistent_group`` models the proposed storage class: disk
    partitions that survive VM termination and are never reformatted.
    """

    id: str
    vcpus: int
    ram_gb: float
    disks: tuple[DiskSpec, ...]
    local_persistent_group: tuple[DiskSpec, ...] = ()
    nic_links: tuple[str, ...] = ()


@dataclass(frozen=True)
class ControllerNode:
    """The node whose disks back every networked volume."""

    id: str
    disks: tuple[DiskSpec, ...]
    nic_links: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClusterTopology:
    hosts: tuple[PhysicalHost, ...]
    controller: ControllerNode
    links: tuple[NetworkLink, ...]

    def host(self, host_id: str) -> PhysicalHost:
        for h in self.hosts:
            if h.id == host_id:
                return h
        raise KeyError(host_id)

    def management_links(self) -> tuple[NetworkLink, ...]:
        return tuple(l for l in self.links if l.role == ROLE_MANAGEMENT)

    def host_ids(self) -> tuple[str, ...]:
        return tuple(h.id for h in self.hosts)


@dataclass(frozen=True)
class TopologyIssue:
    """One violated invariant; validation reports all of them."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def _disk_issues(owner: str, disks: tuple[DiskSpec, ...]) -> list[TopologyIssue]:
    issues = []
    for d in disks:
        if d.capacity_gb <= 0:
            issues.append(TopologyIssue("nonpositive-capacity", f"disk {owner}/{d.id} capacity_gb={d.capacity_gb}"))
        if d.read_bw <= 0 or d.write_bw <= 0:
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

    link_ids = {l.id for l in t.links}
    for l in t.links:
        if l.bandwidth <= 0:
            issues.append(TopologyIssue("nonpositive-capacity", f"link {l.id} bandwidth={l.bandwidth}"))
        if not 0 < l.efficiency <= 1:
            issues.append(TopologyIssue("nonpositive-capacity", f"link {l.id} efficiency={l.efficiency} outside (0, 1]"))
        if l.endpoints[0] == l.endpoints[1]:
            issues.append(TopologyIssue("identical-endpoints", f"link {l.id} connects {l.endpoints[0]} to itself"))

    for h in t.hosts:
        if h.vcpus <= 0:
            issues.append(TopologyIssue("nonpositive-capacity", f"host {h.id} vcpus={h.vcpus}"))
        if h.ram_gb <= 0:
            issues.append(TopologyIssue("nonpositive-capacity", f"host {h.id} ram_gb={h.ram_gb}"))
        if not h.disks:
            issues.append(TopologyIssue("nonpositive-capacity", f"host {h.id} has no disks"))
        issues.extend(_disk_issues(h.id, h.disks))
        issues.extend(_disk_issues(h.id, h.local_persistent_group))
        for lid in h.nic_links:
            if lid not in link_ids:
                issues.append(TopologyIssue("dangling-link-reference", f"host {h.id} references unknown link {lid!r}"))

    if not t.controller.disks:
        issues.append(TopologyIssue("nonpositive-capacity", f"controller {t.controller.id} has no disks"))
    issues.extend(_disk_issues(t.controller.id, t.controller.disks))
    for lid in t.controller.nic_links:
        if lid not in link_ids:
            issues.append(
                TopologyIssue("dangling-link-reference", f"controller {t.controller.id} references unknown link {lid!r}")
            )

    reachable = _management_reachable(t)
    for h in t.hosts:
        if h.id not in reachable:
            issues.append(
                TopologyIssue("unreachable-host", f"host {h.id} not reachable from {t.controller.id} via management links")
            )

    return issues


def _management_reachable(t: ClusterTopology) -> set[str]:
    """Node ids reachable from the controller over management links (BFS)."""
    adjacency: dict[str, set[str]] = {}
    for l in t.management_links():
        a, b = l.endpoints
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    reached = {t.controller.id}
    frontier = deque([t.controller.id])
    while frontier:
        node = frontier.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached


def management_path(t: ClusterTopology, src_node: str, dst_node: str) -> list[NetworkLink]:
    """Shortest management-link path between two nodes, deterministic.

    Ties are broken by link id order. Raises KeyError when no path exists.
    """
    if src_node == dst_node:
        return []
    adjacency: dict[str, list[tuple[str, NetworkLink]]] = {}
    for l in sorted(t.management_links(), key=lambda x: x.id):
        a, b = l.endpoints
        adjacency.setdefault(a, []).append((b, l))
        adjacency.setdefault(b, []).append((a, l))
    frontier = deque([src_node])
    came_from: dict[str, tuple[str, NetworkLink]] = {}
    while frontier:
        node = frontier.popleft()
        for nxt, link in adjacency.get(node, ()):
            if nxt in came_from or nxt == src_node:
                continue
            came_from[nxt] = (node, link)
            if nxt == dst_node:
                path = []
                cur = dst_node
                while cur != src_node:
                    prev, l = came_from[cur]
                    path.append(l)
                    cur = prev
                return list(reversed(path))
            frontier.append(nxt)
    raise KeyError(f"no management path from {src_node} to {dst_node}")


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
CONTROLLER_ID = "controller"


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
                nic_links=(mgmt.id, pub.id),
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
        nic_links=(ctl_mgmt.id, ctl_pub.id),
    )
    return validate_topology(ClusterTopology(hosts=tuple(hosts), controller=controller, links=tuple(links)))
