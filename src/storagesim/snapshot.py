"""Periodic dirty-byte snapshots: the price of non-persistent local storage.

Local (root/ephemeral) volumes lose their data with the VM, so every
interval the bytes written since the last snapshot are copied off to the
controller as background flows over the management network. Only writes
cost anything; a write-once/read-many workload ships its data across the
network once, whereas serving the same workload from networked volumes
ships every read too. That asymmetry is what the overhead comparison
quantifies.

Snapshots are taken inside the measured run, on engine timers: at each
interval boundary a volume's dirty bytes are the bytes the engine has
moved into it since its previous snapshot, and its transfer starts at
once and contends with the workload it copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import merge
from operator import attrgetter
from typing import Iterable, Mapping

from .simengine import FlowSpec, Resource, SimTrace, Simulation, TraceEvent
from .topology import ClusterTopology, management_path
from .volumes import (
    EPHEMERAL,
    ROOT,
    ResourcePath,
    Volume,
    disk_resource_id,
    is_link_resource,
    link_resource_id,
)

SNAPSHOT_KINDS = frozenset({ROOT, EPHEMERAL})


@dataclass(frozen=True)
class SnapshotPolicy:
    interval_s: float = 3600.0
    bandwidth_cap: float | None = None  # MB/s per snapshot transfer


@dataclass(frozen=True)
class SnapshotRecord:
    volume_id: str
    taken_at: float
    bytes_copied: float  # MB, exactly the dirty bytes at taken_at


def _written_mb(sim: Simulation, volumes: Mapping[str, Volume]) -> dict[str, float]:
    """MB the engine has moved into each snapshotted volume so far."""
    parts: dict[str, list[float]] = {}
    for record, moved in sim.progress():
        vol_id = record.tags.get("volume_id")
        if (
            record.path.direction == "write"
            and vol_id in volumes
            and volumes[vol_id].kind in SNAPSHOT_KINDS
            and record.tags.get("kind") != "snapshot"
        ):
            parts.setdefault(vol_id, []).append(moved)
    return {vol_id: math.fsum(mb) for vol_id, mb in parts.items()}


def plan_snapshots(
    sim: Simulation,
    volumes: Mapping[str, Volume],
    policy: SnapshotPolicy,
    topology: ClusterTopology,
) -> list[SnapshotRecord]:
    """Snapshot every non-persistent volume at each interval boundary of ``sim``.

    Arms a timer at ``k * interval_s``. At each boundary every volume
    with bytes written since its previous snapshot gets a SnapshotRecord
    and a transfer flow from its host to the controller over the
    management path (subject to the policy's per-transfer bandwidth
    cap). Each boundary leaves every written volume's dirty counter at
    zero, as all its bytes are then covered. The timer re-arms while any
    flow is pending or active, so the last snapshot falls at the first
    boundary at or after the last write.

    Returns the record list, which fills in as ``sim`` runs.
    """
    if policy.interval_s <= 0:
        raise ValueError(f"snapshot interval must be positive, got {policy.interval_s}")
    records: list[SnapshotRecord] = []
    covered: dict[str, float] = {}  # volume id -> MB captured so far
    k = 0  # boundaries passed

    def take(sim: Simulation, now: float) -> None:
        nonlocal k
        k += 1
        for vol_id, written in sorted(_written_mb(sim, volumes).items()):
            dirty = written - covered.get(vol_id, 0.0)
            volumes[vol_id].dirty_mb = 0.0
            if dirty <= 0:
                continue  # nothing written since the last snapshot
            records.append(SnapshotRecord(vol_id, taken_at=now, bytes_copied=dirty))
            covered[vol_id] = written
            flow_id = f"snap.{vol_id}.{k:03d}"
            host_id, disk_id = volumes[vol_id].backing
            links = tuple(
                link_resource_id(l.id) for l in management_path(topology, host_id, topology.controller.id)
            )
            sink = disk_resource_id(topology.controller.id, topology.controller.disks[0].id)
            resources = (disk_resource_id(host_id, disk_id),) + links + (sink,)
            if policy.bandwidth_cap is not None:
                cap_id = f"cap:{flow_id}"
                sim.resources[cap_id] = Resource(cap_id, policy.bandwidth_cap, policy.bandwidth_cap)
                resources = (cap_id,) + resources
            sim.add_flow(
                FlowSpec(
                    flow_id,
                    ResourcePath(resources, "write"),
                    dirty,
                    tags={"kind": "snapshot", "volume_id": vol_id},
                ),
                now,
            )
        if not sim.idle:
            sim.add_timer((k + 1) * policy.interval_s, take)

    sim.add_timer(policy.interval_s, take)
    return records


def merge_snapshot_events(trace: SimTrace, records: Iterable[SnapshotRecord]) -> SimTrace:
    """Splice snapshot marker events into a time-ordered trace, in one pass.

    Records must be in ``taken_at`` order; a marker follows the trace's
    events at its instant.
    """
    markers = (
        TraceEvent(r.taken_at, "snapshot", f"snap.{r.volume_id}", r.volume_id, r.bytes_copied) for r in records
    )
    trace.events = list(merge(trace.events, markers, key=attrgetter("time")))
    return trace


def recoverable_bytes(
    volume: Volume,
    crash_time: float,
    records: Iterable[SnapshotRecord],
    quick_reboot: bool = False,
) -> float:
    """MB that survive a crash at ``crash_time``.

    A reboot within the grace window keeps the whole volume; otherwise
    only the bytes captured by snapshots taken at or before the crash
    remain.
    """
    if quick_reboot:
        return volume.stored_mb
    return math.fsum(
        r.bytes_copied for r in records if r.volume_id == volume.id and r.taken_at <= crash_time
    )


def network_bytes(trace: SimTrace) -> float:
    """MB that crossed any network link in this trace (completed flows)."""
    return math.fsum(
        rec.size_mb
        for rec in trace.flows.values()
        if rec.end_time is not None and any(is_link_resource(rid) for rid in rec.path.resources)
    )


def overhead_comparison(
    local_traces: Iterable[SimTrace],
    networked_traces: Iterable[SimTrace],
) -> tuple[float, float]:
    """Total network bytes: (local HDFS + snapshots, networked HDFS).

    Both sides must have run the same workload. For any workload with
    reads, the local side ships only the written bytes (as snapshots)
    while the networked side ships reads too, so the first element is
    strictly smaller; a pure-write workload is the equality boundary.
    """
    return (
        math.fsum(network_bytes(t) for t in local_traces),
        math.fsum(network_bytes(t) for t in networked_traces),
    )
