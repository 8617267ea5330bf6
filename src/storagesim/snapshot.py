"""Periodic dirty-byte snapshots: the price of non-persistent local storage.

Local (root/ephemeral) volumes lose their data with the VM, so every
interval the bytes written since the last snapshot are copied off to the
controller as background flows over the management network. Only writes
cost anything; a write-once/read-many workload ships its data across the
network once, whereas serving the same workload from networked volumes
ships every read too. ``network_bytes`` of each side's traces measures
that asymmetry.

Snapshots are taken inside the measured run, on engine timers: at each
interval boundary a volume's dirty bytes are the bytes the engine has
moved into it since its previous snapshot, and its transfer starts at
once and contends with the workload it copies. Each snapshot's marker is
logged in the engine's trace at the same instant, after every other event
of that instant.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .simengine import FlowRecord, Resource, SimTrace, Simulation
from .volumes import VM_LIFETIME_KINDS, ResourcePath, Routes, Volume, is_link_resource


class SnapshotPolicy(NamedTuple):
    interval_s: float = 3600.0
    bandwidth_cap: float | None = None  # MB/s per snapshot transfer


class SnapshotRecord(NamedTuple):
    volume_id: str
    taken_at: float
    bytes_copied: float  # MB, exactly the dirty bytes at taken_at


def plan_snapshots(
    sim: Simulation,
    volumes: Mapping[str, Volume],
    policy: SnapshotPolicy,
    routes: Routes,
) -> list[SnapshotRecord]:
    """Snapshot every non-persistent volume at each interval boundary of ``sim``.

    Arms a timer at ``k * interval_s``. At each boundary every volume
    with bytes written since its previous snapshot gets a SnapshotRecord
    and a transfer flow to the controller over its ``"snapshot"`` route
    in the run's ``routes`` (behind a cap resource of its own when the
    policy caps each transfer's bandwidth), and a take that made records
    logs their markers through ``merge_snapshot_events``. The timer re-arms
    while any flow is active or another timer is pending (a later arrival
    is a timer), so the last snapshot falls at the first boundary at or
    after the last write. Two chains that each re-arm while the other is
    pending never stop, so call this at most once per simulation.

    Returns the record list, which fills in as ``sim`` runs.
    """
    if policy.interval_s <= 0:
        raise ValueError(f"snapshot interval must be positive, got {policy.interval_s}")
    records: list[SnapshotRecord] = []
    covered: dict[str, float] = {}  # volume id -> MB captured so far
    k = 0  # boundaries passed
    @cache
    def transfer_tags(vol_id: str) -> Mapping[str, str]:
        """The tags of every transfer of volume ``vol_id``, shared and read-only."""
        return MappingProxyType({"kind": "snapshot", "volume_id": vol_id})

    # The write flows into snapshotted volumes, each sorted out once, when first seen.
    seen = 0  # flows of the simulation already sorted out
    running: list[tuple[str, FlowRecord]] = []  # (volume id, write flow into it) running at the last take
    ended: dict[str, list[float]] = {}  # volume id -> MB of each write flow into it that has ended

    def written_mb(sim: Simulation) -> dict[str, float]:
        """MB the engine has moved into each snapshotted volume so far.

        Visits only the flows running at the last take and those started
        since. ``math.fsum`` is exactly rounded, so the order of a volume's
        parts does not change the float it gives.
        """
        nonlocal seen
        new = sim.started(seen)
        seen += len(new)
        for record in new:
            vol_id = record.tags.get("volume_id")
            if (
                record.path.direction == "write"
                and vol_id in volumes
                and volumes[vol_id].kind in VM_LIFETIME_KINDS
                and record.tags.get("kind") != "snapshot"
            ):
                running.append((vol_id, record))
        moved: dict[str, list[float]] = {}  # volume id -> MB moved by each write flow into it still running
        still_running = []
        for vol_id, record in running:
            if record.end_time is None:
                moved.setdefault(vol_id, []).append(record.size_mb - record.remaining_mb)
                still_running.append((vol_id, record))
            else:
                ended.setdefault(vol_id, []).append(record.size_mb)
        running[:] = still_running
        return {vol_id: math.fsum(chain(ended.get(vol_id, ()), moved.get(vol_id, ()))) for vol_id in ended.keys() | moved}

    def take(sim: Simulation, now: float) -> None:
        nonlocal k
        k += 1
        made = len(records)
        for vol_id, written in sorted(written_mb(sim).items()):
            dirty = written - covered.get(vol_id, 0.0)
            if dirty <= 0:
                continue  # nothing written since the last snapshot
            records.append(SnapshotRecord(vol_id, taken_at=now, bytes_copied=dirty))
            covered[vol_id] = written
            flow_id = f"snap.{vol_id}.{k:03d}"
            path = routes[("snapshot", *volumes[vol_id].backing)]
            if policy.bandwidth_cap is not None:  # each transfer gets its own cap resource, so its own path
                cap_id = f"cap:{flow_id}"
                sim.resources[cap_id] = Resource(cap_id, policy.bandwidth_cap, policy.bandwidth_cap)
                path = ResourcePath((cap_id,) + path.resources, "write")
            sim.add_flow(flow_id, path, dirty, transfer_tags(vol_id))
        if len(records) > made:
            merge_snapshot_events(sim, records[made:])
        if not sim.idle:
            sim.add_timer((k + 1) * policy.interval_s, take)

    sim.add_timer(policy.interval_s, take)
    return records


def merge_snapshot_events(sim: Simulation, records: Iterable[SnapshotRecord]) -> None:
    """Log the marker of each of ``records``, taken at ``sim.now``, in ``sim``'s trace, in order.

    A marker is the event ``(taken_at, "snapshot", "snap.<volume>", volume,
    MB copied)``. ``Simulation.mark`` logs it after every other event of its
    instant, so the trace is the stable merge by time of the flow events and
    the markers. This is the one place that turns records into markers; it
    stays a function because perfbench's tracer times it by this name.
    """
    for r in records:
        sim.mark((r.taken_at, "snapshot", f"snap.{r.volume_id}", r.volume_id, r.bytes_copied))


def recoverable_bytes(volume_id: str, crash_time: float, records: Iterable[SnapshotRecord]) -> float:
    """MB of volume ``volume_id`` that survive a crash at ``crash_time``: those its snapshots took at or before it."""
    return math.fsum(r.bytes_copied for r in records if r.volume_id == volume_id and r.taken_at <= crash_time)


def network_bytes(trace: SimTrace) -> float:
    """MB that crossed any network link in this trace (completed flows).

    Many flows share a path, so whether one crosses a link is decided once
    per distinct resource tuple.
    """
    crosses_link: dict[tuple[str, ...], bool] = {}
    sizes = []
    for rec in trace.flows.values():
        if rec.end_time is None:
            continue
        resources = rec.path.resources
        crosses = crosses_link.get(resources)
        if crosses is None:
            crosses = crosses_link[resources] = any(is_link_resource(rid) for rid in resources)
        if crosses:
            sizes.append(rec.size_mb)
    return math.fsum(sizes)

