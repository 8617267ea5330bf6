"""Independent reference implementations the tests check the package against.

These deliberately use different algorithm structure than the package:
the fair-share oracle raises rates by explicit uniform increments instead
of solving saturation levels, and the metric oracles are the naive direct
formulas, or the multi-pass ``math.fsum`` and exact-sum formulas that
``BenchmarkResult.from_stats`` computes in one pass. The capacity oracle
checks every committed resource against its total after placement. The trace references are the plain one-pass forms
of the package's trace writer and audit, kept so that their faster forms
can be checked for byte-equal output. The placement and network-bytes
references rebuild per block and per flow what the package keeps per run.
They must stay independent of the code paths they audit.
"""

from __future__ import annotations

import math
import random
import warnings

from storagesim.dfs import BlockReplicaSet, ReplicaCoLocationWarning
from storagesim.errors import InsufficientVmsError
from storagesim.placement import ClusterState, Usage
from storagesim.simengine import BYTE_REL_TOL, CAPACITY_REL_EPS, FlowRecord, SimTrace, TraceViolation
from storagesim.volumes import ResourcePath, is_link_resource

EPS = 1e-12


def maxmin_fill_oracle(paths: dict[str, tuple[str, ...]], capacities: dict[str, float]) -> dict[str, float]:
    """Brute-force progressive filling by uniform increments.

    paths: flow id -> resource ids it crosses (duplicates ignored).
    Returns the max-min fair rate per flow.
    """
    users = {r: sorted({f for f, p in paths.items() if r in p}) for r in capacities}
    rates = {f: 0.0 for f in paths}
    frozen: set[str] = set()
    while len(frozen) < len(rates):
        # largest uniform raise before some resource with unfrozen users saturates
        delta = None
        for r, cap in capacities.items():
            unfrozen_users = [f for f in users[r] if f not in frozen]
            if not unfrozen_users:
                continue
            used = sum(rates[f] for f in users[r])
            room = (cap - used) / len(unfrozen_users)
            if delta is None or room < delta:
                delta = room
        if delta is None:
            break  # remaining flows cross no capacitated resource
        delta = max(delta, 0.0)
        for f in rates:
            if f not in frozen:
                rates[f] += delta
        for r, cap in capacities.items():
            if not users[r]:
                continue
            used = sum(rates[f] for f in users[r])
            if used >= cap - EPS * max(cap, 1.0):
                frozen.update(users[r])
    return rates


def bottleneck_violations(
    paths: dict[str, tuple[str, ...]],
    capacities: dict[str, float],
    rates: dict[str, float],
    tol: float = 1e-9,
) -> list[str]:
    """Structural max-min optimality check.

    A rate vector is max-min fair iff no resource is over capacity and
    every flow crosses a saturated resource on which it is among the
    fastest flows (so raising it would require lowering a slower one).
    """
    out = []
    usage = {r: sum(rates[f] for f, p in paths.items() if r in p) for r in capacities}
    for r, used in usage.items():
        if used > capacities[r] * (1 + tol) + tol:
            out.append(f"resource {r} over capacity: {used} > {capacities[r]}")
    for f, p in paths.items():
        has_bottleneck = False
        for r in set(p):
            saturated = usage[r] >= capacities[r] * (1 - tol) - tol
            fastest = rates[f] >= max(rates[g] for g, q in paths.items() if r in q) - tol
            if saturated and fastest:
                has_bottleneck = True
                break
        if not has_bottleneck:
            out.append(f"flow {f} has no bottleneck resource (rate {rates[f]})")
    return out


def throughput_oracle(sizes: list[float], times: list[float]) -> float:
    return sum(sizes) / sum(times)


def avg_rate_oracle(sizes: list[float], times: list[float]) -> float:
    return sum(s / t for s, t in zip(sizes, times)) / len(sizes)


def _exact_sum_reference(values) -> tuple[int, int]:
    """The exact sum of floats or ints as (numerator, denominator), over the largest denominator of all."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return sum(n * (den // d) for n, d in ratios), den


def dfsio_metrics_reference(stats) -> tuple[float, float, float, float]:
    """``BenchmarkResult.from_stats``' total MB, throughput, average rate and rate deviation, a pass per sum."""
    n = len(stats)
    size_num, size_den = _exact_sum_reference(s.file_size_mb for s in stats)
    time_num, time_den = _exact_sum_reference(s.elapsed_s for s in stats)
    rate_num, rate_den = _exact_sum_reference(s.rate for s in stats)
    sum_rate = math.fsum(s.rate for s in stats)
    sum_sq = math.fsum(s.rate * s.rate for s in stats)
    return (
        math.fsum(s.file_size_mb for s in stats),
        (size_num * time_den) / (size_den * time_num),
        rate_num / (rate_den * n),
        math.sqrt(max(0.0, sum_sq / n - (sum_rate / n) ** 2)),
    )


def capacity_violations(state: ClusterState) -> list[str]:
    """Committed-resources-over-total violations; empty when healthy."""
    out, usage = [], Usage(state)
    for host in state.topology.hosts:
        if usage.free_vcpus(host.id) < 0:
            out.append(f"host {host.id} vcpus overcommitted")
        if usage.free_ram_gb(host.id) < -1e-9:
            out.append(f"host {host.id} ram overcommitted")
        for disk in host.disks + host.local_persistent_group:
            if usage.disk_free_gb(host.id, disk.id) < -1e-9:
                out.append(f"disk {host.id}/{disk.id} overcommitted")
    for disk in state.topology.controller.disks:
        if usage.disk_free_gb(state.topology.controller.id, disk.id) < -1e-9:
            out.append(f"controller disk {disk.id} overcommitted")
    return out


def csv_lines_reference(trace: SimTrace) -> list[str]:
    """``SimTrace.csv_lines`` formatting every field of every event."""
    lines = ["time,event_kind,flow_id,resource_id,value"]
    for time, kind, flow_id, resource_id, value in trace.events:
        lines.append(f"{time!r},{kind},{flow_id},{resource_id},{value!r}")
    return lines


def verify_trace_reference(trace: SimTrace) -> list[TraceViolation]:
    """``verify_trace`` re-checking every resource in use at every interval."""
    violations: list[TraceViolation] = []
    resources = trace.resources
    prev_t = -math.inf
    active: dict[str, FlowRecord] = {}
    hops: dict[str, tuple[str, ...]] = {}
    rate: dict[str, float] = {}
    moved: dict[str, float] = {}

    def directions() -> dict[str, set[str]]:
        dirs: dict[str, set[str]] = {}
        for rec in active.values():
            for rid in rec.path.resources:
                dirs.setdefault(rid, set()).add(rec.path.direction)
        return dirs

    def check_interval(t0: float, t1: float) -> None:
        dt = t1 - t0
        usage: dict[str, float] = {}
        for fid, fhops in hops.items():
            r = rate.get(fid, 0.0)
            for rid in fhops:
                usage[rid] = usage.get(rid, 0.0) + r
            moved[fid] += r * dt
        over: list[tuple[str, str]] = []
        for rid, used in usage.items():
            resource = resources.get(rid)
            if resource is None:
                over.append((rid, f"unknown resource {rid!r} in use"))
                continue
            cap = resource.read_capacity
            if cap != resource.write_capacity:
                cap = resource.capacity_for(frozenset(directions()[rid]))
            if not used <= cap * (1 + CAPACITY_REL_EPS):
                over.append((rid, f"{rid} carries {used} MB/s > capacity {cap}"))
        for _, message in sorted(over):
            violations.append(TraceViolation("capacity", t0, message))

    for t, kind, fid, _, value in trace.events:
        if t < prev_t:
            violations.append(TraceViolation("monotonicity", t, f"timestamp {t} after {prev_t}"))
        else:
            if t > prev_t and active:
                check_interval(prev_t, t)
            prev_t = t

        if kind == "flow_start":
            rec = active[fid] = trace.flows.get(fid) or FlowRecord(fid, ResourcePath(("?",), "read"), value, None, {})
            hops[fid] = rec.path.resources
            moved.setdefault(fid, 0.0)  # a start after the id's end begins a new flow, at 0.0 MB
        elif kind == "rate_change":
            rate[fid] = value
        elif kind == "flow_end":
            rec = active.pop(fid, None)
            if rec is None:
                violations.append(TraceViolation("unmatched-flow", t, f"end without start: {fid}"))
            else:
                got = moved.get(fid, 0.0)
                tol = max(BYTE_REL_TOL * rec.size_mb, 1e-6)
                if not abs(got - rec.size_mb) <= tol:
                    message = f"flow {fid} moved {got} MB of {rec.size_mb} MB"
                    violations.append(TraceViolation("byte-conservation", t, message))
            rate.pop(fid, None)
            hops.pop(fid, None)
            moved.pop(fid, None)

    for fid in active:
        violations.append(TraceViolation("unmatched-flow", prev_t, f"start without end: {fid}"))
    return violations


def place_replicas_reference(
    state: ClusterState,
    writer_vm: str,
    bytes_mb: float,
    rf: int,
    rng: random.Random,
    members: list[str],
) -> BlockReplicaSet:
    """``dfs.place_replicas`` over ``members`` of ``state``, rebuilding the rack map and every pool for each block."""
    if writer_vm not in members:
        raise InsufficientVmsError(f"writer {writer_vm!r} is not a DFS member")
    if rf < 1:
        raise ValueError(f"replication factor {rf} < 1")
    if len(members) < rf:
        raise InsufficientVmsError(f"{len(members)} DFS VMs < replication factor {rf}")

    rack_of = {vm: state.instances[vm].host_id for vm in members}
    member_racks = set(rack_of.values())
    chosen = [writer_vm]

    if rf >= 2:
        off_rack = sorted(m for m in members if rack_of[m] != rack_of[writer_vm])
        pool = off_rack or sorted(m for m in members if m not in chosen)
        chosen.append(rng.choice(pool))
    if rf >= 3:
        same_as_second = sorted(m for m in members if m not in chosen and rack_of[m] == rack_of[chosen[1]])
        pool = same_as_second or sorted(m for m in members if m not in chosen)
        chosen.append(rng.choice(pool))
    if rf > 3:
        rest = sorted(m for m in members if m not in chosen)
        chosen.extend(rng.sample(rest, rf - 3))

    if rf >= 2 and len(member_racks) == 1:
        warnings.warn(
            f"all {rf} replicas share rack {rack_of[writer_vm]!r} (single-rack cluster)",
            ReplicaCoLocationWarning,
            stacklevel=2,
        )
    return BlockReplicaSet(replicas=tuple((vm, rack_of[vm]) for vm in chosen), bytes_mb=bytes_mb)


def network_bytes_reference(trace: SimTrace) -> float:
    """``snapshot.network_bytes`` testing every completed flow's path for a link."""
    return math.fsum(
        rec.size_mb
        for rec in trace.flows.values()
        if rec.end_time is not None and any(is_link_resource(rid) for rid in rec.path.resources)
    )
