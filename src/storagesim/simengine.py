"""Deterministic fluid simulation of concurrent I/O flows.

Flows are continuous streams (no packets, no seeks) competing for disks
and links. At every arrival or completion the engine recomputes the
max-min fair allocation by progressive filling (Bertsekas & Gallager,
*Data Networks*, 6.5.2): all unfrozen flows rise together until some
resource saturates, the flows crossing it freeze there, and the rest keep
rising. Each resource's saturation level is cached and re-solved only
when one of its flows freezes, its frozen usage summed at C level. A
resource that reads as fast as it writes (every link, and every disk of
the shipped scenarios) has one capacity for the whole run; only an
asymmetric one is pooled over the directions of the flows crossing it,
at each step. Between events rates are constant, so completion times are
closed-form and runs are exactly reproducible.

The solver sums in flow-id order and no float depends on set or dict
iteration order; identical inputs produce byte-identical traces.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import SimulationStalledError, UnknownResourceError, UnresolvablePathError
from .topology import ClusterTopology
from .volumes import ResourcePath, disk_resource_id, link_resource_id

# A flow is complete when this much (MB) or less remains; absorbs float dust.
COMPLETION_EPS = 1e-9


@dataclass(frozen=True)
class Resource:
    """One shared capacity: a disk (direction-dependent) or a link."""

    id: str
    read_capacity: float  # MB/s
    write_capacity: float  # MB/s

    def capacity_for(self, directions: frozenset[str]) -> float:
        """Pooled capacity given the directions of the flows sharing it.

        Same-direction flows share the matching bandwidth; mixed
        read/write traffic shares the smaller of the two.
        """
        if directions == frozenset({"read"}):
            return self.read_capacity
        if directions == frozenset({"write"}):
            return self.write_capacity
        return min(self.read_capacity, self.write_capacity)


def build_resources(topology: ClusterTopology) -> dict[str, Resource]:
    """Map every disk, partition, and link of a topology to a Resource."""
    resources: dict[str, Resource] = {}
    for host in topology.hosts:
        for d in host.disks + host.local_persistent_group:
            rid = disk_resource_id(host.id, d.id)
            resources[rid] = Resource(rid, read_capacity=d.read_bw, write_capacity=d.write_bw)
    for d in topology.controller.disks:
        rid = disk_resource_id(topology.controller.id, d.id)
        resources[rid] = Resource(rid, read_capacity=d.read_bw, write_capacity=d.write_bw)
    for l in topology.links:
        rid = link_resource_id(l.id)
        bw = l.effective_bandwidth
        resources[rid] = Resource(rid, read_capacity=bw, write_capacity=bw)
    return resources


def _directions(paths: Iterable[ResourcePath]) -> dict[str, set[str]]:
    """The directions of the paths crossing each resource, for ``Resource.capacity_for``."""
    crossed: dict[str, set[str]] = {}  # direction -> resources its paths cross
    for p in paths:
        crossed.setdefault(p.direction, set()).update(p.resources)
    dirs: dict[str, set[str]] = {}
    for direction, rids in crossed.items():
        for rid in rids:
            dirs.setdefault(rid, set()).add(direction)
    return dirs


@dataclass(frozen=True)
class FlowSpec:
    """A transfer to simulate: id, path, size; tags are free-form labels."""

    flow_id: str
    path: ResourcePath
    size_mb: float
    tags: Mapping[str, str] = field(default_factory=dict)


@dataclass
class IoFlow:
    flow_id: str
    path: ResourcePath
    size_mb: float
    remaining_mb: float
    rate: float = 0.0


def allocate_rates(flows: Iterable[IoFlow], capacities: Mapping[str, float]) -> dict[str, float]:
    """Max-min fair rates by progressive filling.

    All unfrozen flows rise uniformly; each round, every resource whose
    saturation level is at most the round's level (the lowest cached
    level, never below the previous round's) freezes its unfrozen flows
    at that level. Repeats until every flow is frozen. Raises
    UnknownResourceError for a path resource with no capacity entry;
    entries for resources no flow crosses are never read.

    Each resource caches its live (unfrozen) flow count and its saturation
    level, ``(capacity - frozen usage) / live count``. Only the resources
    crossed by a newly frozen flow are re-solved after a round. Exactness
    contract: a re-solved frozen usage is the plain ``sum`` of its members'
    rates in member (flow-id) order, a live member counting 0.0 (``x + 0.0
    == x`` for every ``x >= 0``, so this is the sum over the frozen members
    alone), never ``fsum`` or a running total, and no float depends on the
    order of a set or of the inputs. The rates are therefore the same
    floats for any order of ``flows`` and ``capacities``, and equal those
    of a full rescan every round.
    """
    flow_list = sorted(flows, key=attrgetter("flow_id"))
    # resource -> {flow id: its frozen rate, 0.0 while live}, keyed in flow-id order
    members: defaultdict[str, dict[str, float]] = defaultdict(dict)
    hops: dict[str, dict[str, None]] = {}  # flow id -> its distinct resources
    for f in flow_list:
        fid = f.flow_id
        hops[fid] = fhops = dict.fromkeys(f.path.resources)  # duplicate hops share one reservation
        for rid in fhops:
            members[rid][fid] = 0.0
    if not members.keys() <= capacities.keys():
        for f in flow_list:
            for rid in f.path.resources:
                if rid not in capacities:
                    raise UnknownResourceError(f"flow {f.flow_id} crosses unknown resource {rid!r}")

    rates = dict.fromkeys(hops, 0.0)
    unfrozen = set(rates)
    n_live = {rid: len(fids) for rid, fids in members.items()}
    saturation = {rid: capacities[rid] / n for rid, n in n_live.items()}
    level = 0.0
    # no math.inf guard: ResourcePath rejects empty paths, so `saturation` empties only when all flows froze
    while saturation:
        level = max(level, min(saturation.values()))
        # no float-corner fallback: the argmin resource passes its own `<= level` test
        newly_frozen = set()
        for rid, lvl in saturation.items():
            if lvl <= level:
                newly_frozen.update(members[rid])
        newly_frozen &= unfrozen
        unfrozen -= newly_frozen
        touched = set()
        for fid in newly_frozen:
            rates[fid] = level
            fhops = hops[fid]
            for rid in fhops:
                members[rid][fid] = level
                n_live[rid] -= 1
            touched.update(fhops)
        for rid in touched:
            n = n_live[rid]
            if n:
                saturation[rid] = (capacities[rid] - sum(members[rid].values())) / n
            else:
                del saturation[rid]
    return rates


class TraceEvent(NamedTuple):
    time: float
    kind: str  # flow_start | rate_change | flow_end | snapshot
    flow_id: str
    resource_id: str
    value: float


@dataclass
class FlowRecord:
    flow_id: str
    path: ResourcePath
    size_mb: float
    start_time: float
    end_time: float | None
    tags: dict[str, str]


@dataclass
class SimTrace:
    """Ordered event history plus the flow/resource tables to audit it."""

    events: list[TraceEvent] = field(default_factory=list)
    flows: dict[str, FlowRecord] = field(default_factory=dict)
    resources: dict[str, Resource] = field(default_factory=dict)

    def csv_lines(self) -> list[str]:
        lines = ["time,event_kind,flow_id,resource_id,value"]
        for e in self.events:
            lines.append(f"{e.time!r},{e.kind},{e.flow_id},{e.resource_id},{e.value!r}")
        return lines

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


# Callback invoked after completions at one instant; may add_flow() at `now`.
CompletionHook = Callable[["Simulation", list[FlowRecord], float], None]
# Callback invoked at its scheduled time; may add_flow() or add_timer().
TimerCallback = Callable[["Simulation", float], None]


class Simulation:
    """Event-driven executor over a resource set.

    Flows can be injected up front, from a completion hook (which is how
    the benchmark layer dispatches queued tasks the moment a slot frees),
    or from a timer (which is how snapshots are taken mid-run). The trace
    shares ``resources``, so a resource added there mid-run, before the
    first flow that crosses it, is audited with the rest. A resource's
    capacities are read once, when the first flow crossing it is added.
    """

    def __init__(self, resources: Mapping[str, Resource]):
        self.resources = dict(resources)
        self.now = 0.0
        self._pending: list[tuple[float, int, FlowSpec]] = []
        self._pending_ids: set[str] = set()
        self._timers: list[tuple[float, int, TimerCallback]] = []
        self._active: dict[str, IoFlow] = {}
        self._seq = 0
        self._trace = SimTrace(resources=self.resources)
        # Filled as flows are added: a symmetric resource's one capacity, and
        # the asymmetric resources, pooled afresh at each reallocation.
        self._capacities: dict[str, float] = {}
        self._pooled: dict[str, Resource] = {}

    def add_flow(self, spec: FlowSpec, at_time: float) -> None:
        if at_time < self.now:
            raise ValueError(f"cannot schedule {spec.flow_id} in the past ({at_time} < {self.now})")
        if spec.flow_id in self._trace.flows or spec.flow_id in self._pending_ids:
            raise ValueError(f"duplicate flow id {spec.flow_id!r}")
        for rid in spec.path.resources:
            if rid not in self._capacities and rid not in self._pooled:
                resource = self.resources.get(rid)
                if resource is None:
                    raise UnresolvablePathError(f"flow {spec.flow_id} references unknown resource {rid!r}")
                if resource.read_capacity == resource.write_capacity:
                    self._capacities[rid] = resource.read_capacity
                else:
                    self._pooled[rid] = resource
        heappush(self._pending, (at_time, self._seq, spec))
        self._pending_ids.add(spec.flow_id)
        self._seq += 1

    def add_timer(self, at_time: float, callback: TimerCallback) -> None:
        """Call ``callback(sim, now)`` at ``at_time``.

        Due timers fire after the completions at that instant and after
        the completion hook; flows they add at ``now`` start at once.
        """
        if at_time < self.now:
            raise ValueError(f"cannot set a timer in the past ({at_time} < {self.now})")
        heappush(self._timers, (at_time, self._seq, callback))
        self._seq += 1

    @property
    def idle(self) -> bool:
        """True when no flow is pending or active."""
        return not (self._pending or self._active)

    def progress(self) -> Iterator[tuple[FlowRecord, float]]:
        """Each started flow, in flow-id order, with the MB it has moved by ``now``."""
        for fid in sorted(self._trace.flows):
            record = self._trace.flows[fid]
            flow = self._active.get(fid)
            yield record, record.size_mb if flow is None else flow.size_mb - flow.remaining_mb

    # -- internals ----------------------------------------------------------

    def _effective_capacities(self) -> dict[str, float]:
        """Capacity of each resource the active flows cross, or a superset of them.

        While no flow has crossed an asymmetric resource, this is the fixed
        table of symmetric capacities, returned as is (it must not be
        mutated). Once one has, every reallocation gathers the directions of
        all active flows and builds a table over their resources alone,
        pooling only the asymmetric ones.
        """
        if not self._pooled:
            return self._capacities
        fixed, pooled = self._capacities, self._pooled
        return {
            rid: pooled[rid].capacity_for(frozenset(d)) if rid in pooled else fixed[rid]
            for rid, d in _directions(f.path for f in self._active.values()).items()
        }

    def _reallocate(self) -> None:
        rates = allocate_rates(self._active.values(), self._effective_capacities())
        active, events, now = self._active, self._trace.events, self.now
        for fid, r in rates.items():  # flow-id order
            flow = active[fid]
            # A new flow's rate is 0.0, so its first allocation is logged unless it is 0.0, which
            # only a zero capacity gives, and such a run ends in SimulationStalledError.
            if flow.rate != r:
                flow.rate = r
                events.append(TraceEvent(now, "rate_change", fid, "", r))

    def _slack_per_rate(self) -> float:
        """A flow is due now once ``remaining_mb <= max(COMPLETION_EPS, rate * this)``.

        A remainder that cannot advance the clock (progress below the float
        resolution of ``now``) must complete now or spin forever.
        """
        return 8.0 * math.ulp(max(self.now, 1.0))

    def _next_completion(self) -> float:
        now = self.now
        per_rate = self._slack_per_rate()
        t = math.inf
        for f in self._active.values():
            remaining, rate = f.remaining_mb, f.rate
            if remaining <= COMPLETION_EPS or remaining <= rate * per_rate:
                return now  # no other flow can finish before now
            if rate > 0:
                end = now + remaining / rate
                if end < t:
                    t = end
        return t

    def _start_arrivals(self) -> None:
        while self._pending and self._pending[0][0] <= self.now:
            _, _, spec = heappop(self._pending)
            self._pending_ids.discard(spec.flow_id)
            self._active[spec.flow_id] = IoFlow(spec.flow_id, spec.path, spec.size_mb, remaining_mb=spec.size_mb)
            self._trace.flows[spec.flow_id] = FlowRecord(
                flow_id=spec.flow_id,
                path=spec.path,
                size_mb=spec.size_mb,
                start_time=self.now,
                end_time=None,
                tags=dict(spec.tags),
            )
            self._trace.events.append(TraceEvent(self.now, "flow_start", spec.flow_id, "", spec.size_mb))

    def run(self, on_complete: CompletionHook | None = None) -> SimTrace:
        """Execute until no flow or timer is pending and no flow is active; returns the trace."""
        while self._pending or self._active or self._timers:
            t_arrival = self._pending[0][0] if self._pending else math.inf
            t_flows = min(t_arrival, self._next_completion())
            if self._active and math.isinf(t_flows):
                raise SimulationStalledError(f"{len(self._active)} active flows cannot progress at t={self.now}")
            t = min(t_flows, self._timers[0][0] if self._timers else math.inf)

            dt = t - self.now
            advance = dt > 0
            if advance:
                self.now = t
            per_rate = self._slack_per_rate()
            completed = []
            for f in self._active.values():  # advance to now and collect the due flows in one pass
                remaining = f.remaining_mb
                if advance:
                    remaining -= f.rate * dt
                    f.remaining_mb = remaining = remaining if remaining > 0.0 else 0.0  # max(0.0, remaining)
                if remaining <= COMPLETION_EPS or remaining <= f.rate * per_rate:
                    completed.append(f)
            completed.sort(key=attrgetter("flow_id"))
            done_records = []
            for f in completed:
                del self._active[f.flow_id]
                record = self._trace.flows[f.flow_id]
                record.end_time = self.now
                self._trace.events.append(TraceEvent(self.now, "flow_end", f.flow_id, "", f.size_mb))
                done_records.append(record)

            self._start_arrivals()
            if done_records and on_complete is not None:
                on_complete(self, done_records, self.now)
                self._start_arrivals()  # the hook may have queued flows for right now
            while self._timers and self._timers[0][0] <= self.now:
                heappop(self._timers)[2](self, self.now)
                self._start_arrivals()  # the timer may have queued flows for right now
            if self._active:
                self._reallocate()
        return self._trace


def run(
    resources: Mapping[str, Resource],
    workload: Iterable[tuple[FlowSpec, float]],
    on_complete: CompletionHook | None = None,
) -> SimTrace:
    """Simulate a finite workload of (flow spec, arrival time) pairs."""
    sim = Simulation(resources)
    for spec, at_time in workload:
        sim.add_flow(spec, at_time)
    return sim.run(on_complete=on_complete)


@dataclass(frozen=True)
class TraceViolation:
    code: str  # monotonicity | capacity | byte-conservation | unmatched-flow
    time: float
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] t={self.time}: {self.message}"


# Float slack: capacity is exact in the model, binary float needs an ulp.
CAPACITY_REL_EPS = 1e-9
BYTE_REL_TOL = 1e-6


def verify_trace(trace: SimTrace) -> list[TraceViolation]:
    """Audit a trace: monotone time, byte conservation, capacity limits.

    Returns violations as data (empty list means the trace is clean), so
    hand-built traces can be checked the same way as simulated ones.
    """
    violations: list[TraceViolation] = []
    resources = trace.resources
    prev_t = -math.inf
    active: dict[str, FlowRecord] = {}
    hops: dict[str, tuple[str, ...]] = {}  # each active flow's distinct resources; keyed like `active`
    rate: dict[str, float] = {}
    moved: dict[str, float] = {}

    def check_interval(t0: float, t1: float) -> None:
        dt = t1 - t0
        usage: dict[str, float] = {}
        used_by = usage.get
        for fid, fhops in hops.items():  # the active flows, in start order
            r = rate.get(fid, 0.0)
            for rid in fhops:
                usage[rid] = used_by(rid, 0.0) + r
            moved[fid] += r * dt
        dirs = None  # gathered only if an asymmetric resource is in use
        over: list[tuple[str, str]] = []  # (resource, message), sorted below
        for rid, used in usage.items():
            resource = resources.get(rid)
            if resource is None:
                over.append((rid, f"unknown resource {rid!r} in use"))
                continue
            cap = resource.read_capacity
            if cap != resource.write_capacity:
                if dirs is None:
                    dirs = _directions(rec.path for rec in active.values())
                cap = resource.capacity_for(frozenset(dirs[rid]))
            if used > cap * (1 + CAPACITY_REL_EPS):
                over.append((rid, f"{rid} carries {used} MB/s > capacity {cap}"))
        for _, message in sorted(over):
            violations.append(TraceViolation("capacity", t0, message))

    for event in trace.events:
        if event.time < prev_t:
            violations.append(
                TraceViolation("monotonicity", event.time, f"timestamp {event.time} after {prev_t}")
            )
        else:
            if event.time > prev_t and active:
                check_interval(prev_t, event.time)
            prev_t = event.time

        if event.kind == "flow_start":
            rec = active[event.flow_id] = trace.flows.get(event.flow_id) or FlowRecord(
                event.flow_id, ResourcePath(("?",), "read"), event.value, event.time, None, {}
            )
            hops[event.flow_id] = tuple(dict.fromkeys(rec.path.resources))
            moved.setdefault(event.flow_id, 0.0)
        elif event.kind == "rate_change":
            rate[event.flow_id] = event.value
        elif event.kind == "flow_end":
            rec = active.pop(event.flow_id, None)
            if rec is None:
                violations.append(TraceViolation("unmatched-flow", event.time, f"end without start: {event.flow_id}"))
            else:
                got = moved.get(event.flow_id, 0.0)
                tol = max(BYTE_REL_TOL * rec.size_mb, 1e-6)
                if abs(got - rec.size_mb) > tol:
                    violations.append(
                        TraceViolation(
                            "byte-conservation",
                            event.time,
                            f"flow {event.flow_id} moved {got} MB of {rec.size_mb} MB",
                        )
                    )
            rate.pop(event.flow_id, None)
            hops.pop(event.flow_id, None)
        # snapshot events are informational markers

    for fid in active:
        violations.append(TraceViolation("unmatched-flow", prev_t, f"start without end: {fid}"))
    return violations
