"""Deterministic fluid simulation of concurrent I/O flows.

Flows are continuous streams (no packets, no seeks) competing for disks
and links. At every arrival or completion the engine recomputes the
max-min fair allocation by progressive filling (Bertsekas & Gallager,
*Data Networks*, 6.5.2): all unfrozen flows rise together until some
resource saturates, the flows crossing it freeze there, and the rest keep
rising. The saturation levels sit in a heap, and a resource that a
freeze touches is only marked stale: it is re-summed (left to right) when its
old entry comes within a slack of a round's level, so a resource touched
in several rounds is summed once. A freeze below a resource's level can
only raise it, bar rounding far below the slack, so an old entry never
hides a resource that saturates; and with no member changed since its last
touch, the re-sum is the float a re-sum after every touch gives. The
rounds, their levels and every rate are thus the floats of a full rescan
every round (see ``_fill``). A resource that reads as fast as it writes
(every link, and every disk of the shipped scenarios) has one capacity for
the whole run; an asymmetric one is re-pooled over the directions of the
flows crossing it as they start and end. Between events rates are constant,
so completion times are closed-form and runs are exactly reproducible.
A flow starts when it is added: ``add_flow`` builds its ``FlowRecord``,
which is at once the trace's entry for it and is advanced and completed
in place; a later arrival is a timer that adds the flow. Every step reads
each active record's rate and remainder, so a record is a slotted object.
A path's resources are checked once per simulation, when the first flow
on that path object is added. A trace event is an exact tuple ``(time, kind,
flow_id, resource_id, value)`` (see ``SimTrace``): one allocation each, and
CPython stops tracking it for cycle collection at the first pass. Other
interpreters lose that gain, not correctness. A marker logged with
``mark`` waits until the clock leaves its instant, so it follows all of
that instant's events.

A simulation given trace readers streams its events: at the end of a step
at which the trace holds ``CSV_CHUNK_LINES`` events or more, ``run`` hands
the trace to each reader and then empties its event list, and it hands over
what is left, the last instant's marks included, once more when the run
ends. Readers only read. So the events held at once are bounded by a window
plus one step, whatever the run's length. The audit (``verify_trace``) and
the CSV writer (``SimTrace.write_csv``) each take one window at a time and
give the bytes and violations of one pass over the whole trace. A
simulation with no readers keeps every event.

The solve is warm-started. Filling rounds run in increasing level order,
and a step can only change the rounds at or above a cut, the lowest of:

- the previous rate of each flow that ended since the last solve;
- for each flow that started, ``(1 - 1e-9)`` times the equal share of its
  tightest resource, ``min(capacity / flows crossing it)``. A max-min rate
  is never below that share; the factor absorbs the rounding of the
  frozen-usage sums.

A departure only raises the saturation of resources that froze no flow
below its old rate, and an arrival cannot freeze anything below its own
new rate, so every round below the cut freezes the same flows at the same
float. Each flow whose previous rate is below the cut keeps it; the rest
and the arrivals are re-solved from the highest kept rate. A resource's
saturation at the cut, recomputed as ``(capacity - sum(members)) / live``
over the same members in the same order, is the float the full solve
cached at that point.

The cut stays as it is when a step re-pools an asymmetric capacity. The
capacity falls only when an arrival adds a direction, since mixed traffic
pools the smaller bandwidth, and that arrival's equal share is taken at
the new capacity. It rises only when a departure removes a direction, and
the departed flow's old rate is at most the resource's old saturation, or
when every flow crossing it is an arrival. Either way the resource freezes
nothing below the cut, before the step or after it.

The solver sums in flow-id order and no float depends on set or dict
iteration order; identical inputs produce byte-identical traces.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Mapping
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SimulationStalledError, UnknownResourceError
from .topology import ClusterTopology
from .volumes import ResourcePath, disk_resource_id, link_resource_id

# A flow is complete when this much (MB) or less remains; absorbs float dust.
COMPLETION_EPS = 1e-9


class Resource(NamedTuple):
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
        resources[rid] = Resource(rid, read_capacity=l.bandwidth, write_capacity=l.bandwidth)
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


# The tags of a flow added without any: one shared mapping, read-only so no flow can write into another's labels.
_NO_TAGS: Mapping[str, str] = MappingProxyType({})


class FlowRecord:
    """A flow, and the engine's only object for it, from ``Simulation.add_flow`` on.

    Its start time is its ``flow_start`` event's, in the trace. The engine
    advances ``remaining_mb`` and ``rate`` in place while the flow runs, and
    sets ``end_time`` and zeroes ``remaining_mb`` when it ends.
    """

    __slots__ = ("flow_id", "path", "size_mb", "end_time", "tags", "remaining_mb", "rate")

    def __init__(
        self,
        flow_id: str,
        path: ResourcePath,
        size_mb: float,
        end_time: float | None,
        tags: Mapping[str, str],
        remaining_mb: float = 0.0,
        rate: float = 0.0,  # MB/s
    ):
        self.flow_id = flow_id
        self.path = path
        self.size_mb = size_mb
        self.end_time = end_time
        self.tags = tags
        self.remaining_mb = remaining_mb
        self.rate = rate


# Rounding can leave a re-summed saturation below its value before a freeze touched it,
# by far less than this share of the fill's largest capacity (see `_fill`).
LEVEL_KEY_SLACK = 1e-9


def _left_sum(rates: Iterable[float]) -> float:
    """``0.0 + r1 + r2 + ...``, left to right: the same float on every CPython.

    The built-in ``sum`` of floats is compensated from CPython 3.12 on
    (gh-100425), so it can differ from this in the last bit there.
    """
    total = 0.0
    for rate in rates:
        total += rate
    return total


def _fill(
    members: Mapping[str, dict[str, float]],
    hops: dict[str, tuple[str, ...]],
    live: dict[str, set[str]],
    level: float,
    capacities: Mapping[str, float],
    keep_tables: bool = True,
) -> dict[str, float]:
    """Progressive filling of the live flows ``hops`` upward from ``level``.

    ``members`` maps each resource to ``{flow id: rate}`` in flow-id order,
    a live flow counting 0.0 until it freezes, when its rate is written
    there. ``live`` maps each resource the live flows cross to those flows,
    and is emptied as they freeze. Returns the live flows' rates, in
    ``hops`` order.

    With ``keep_tables`` false the caller drops ``members`` and ``live``
    after the call, so the round that freezes every flow still live writes
    its level into the returned rates alone and the fill returns there: no
    later read could see the skipped writes. The warm solve keeps its
    ``members`` across steps and so keeps every write.

    A resource's saturation is ``(capacity - _left_sum(members)) / live flows``.
    Each round freezes, at the round's level, the live flows of every
    resource whose saturation is at most that level: the least saturation,
    never below the previous round's level.

    The saturations sit in a heap of ``(saturation, resource id)``. A
    resource that a freeze touches keeps its entry and is only marked
    stale. A stale entry at the top is re-summed and put back. Once the top
    is fresh, the round pops every entry up to ``slack`` above the level
    the top gives, re-summing the stale ones, and its level is the least
    saturation popped. So a stale resource whose re-sum ties the level, or
    falls below the top's saturation, counts in that round. No member
    changed since the last touch, so a re-sum is the float a re-sum after
    every touch gives, and the rounds freeze the same flows at the same
    floats as a full rescan every round.

    Why no saturation lies more than ``slack`` below its entry: freezing
    flows below a resource's saturation can only raise it, exactly by
    ``(saturation - level) * frozen / still live``. A re-sum over ``m``
    members rounds it by about ``m * 2**-53`` capacities, which over the
    touches of a resource with ``n`` live flows adds up to under ``(m + 2)
    * (ln n + 3) * 2**-53`` capacities: below ``LEVEL_KEY_SLACK`` for any
    resource under 10**5 flows.
    """
    rates = dict.fromkeys(hops, 0.0)
    n_live = len(rates)
    heap = [((capacities[rid] - _left_sum(members[rid].values())) / len(fids), rid) for rid, fids in live.items()]
    heapify(heap)
    slack = LEVEL_KEY_SLACK * max(map(capacities.__getitem__, live), default=0.0)
    stale: set[str] = set()  # touched by a freeze since its entry was summed
    while heap:
        least, rid = heap[0]
        fids = live[rid]
        if not fids:  # every flow of it froze at another resource
            heappop(heap)
            continue
        if rid in stale:
            stale.remove(rid)
            heapreplace(heap, ((capacities[rid] - _left_sum(members[rid].values())) / len(fids), rid))
            continue
        # The top is fresh. Every resource whose saturation is at most the
        # round's level, which is at most `reach - slack`, has its entry within reach.
        reach = (level if level > least else least) + slack
        popped = []  # (saturation, resource id)
        while heap and heap[0][0] <= reach:
            lvl, rid = heappop(heap)
            fids = live[rid]
            if fids:
                if rid in stale:
                    stale.remove(rid)
                    lvl = (capacities[rid] - _left_sum(members[rid].values())) / len(fids)
                if lvl < least:
                    least = lvl
                popped.append((lvl, rid))
        if least > level:
            level = least
        newly_frozen: set[str] = set()
        for lvl, rid in popped:
            if lvl <= level:
                newly_frozen |= live[rid]
            else:
                heappush(heap, (lvl, rid))
        n_live -= len(newly_frozen)
        if not (n_live or keep_tables):
            rates.update(dict.fromkeys(newly_frozen, level))
            return rates
        for fid in newly_frozen:
            rates[fid] = level
            fhops = hops[fid]
            for rid in fhops:
                members[rid][fid] = level
                live[rid].discard(fid)
            stale.update(fhops)
    return rates


def allocate_rates(flows: Iterable[FlowRecord], capacities: Mapping[str, float]) -> dict[str, float]:
    """Max-min fair rates by progressive filling.

    All unfrozen flows rise uniformly; each round, every resource whose
    saturation level is at most the round's level (the lowest cached
    level, never below the previous round's) freezes its unfrozen flows
    at that level. Repeats until every flow is frozen. Raises
    UnknownResourceError for a path resource with no capacity entry;
    entries for resources no flow crosses are never read.

    Each resource's saturation level is ``(capacity - frozen usage) / live
    count``; ``_fill`` keeps the levels in a heap and re-sums a resource
    touched by a freeze only when the round's level could reach it. The
    solve's tables die with the call, so ``_fill`` returns as soon as a
    round freezes every flow still live, without writing that round into
    them: a solve that one round settles is one pass over the heap.
    Exactness contract: a re-summed frozen usage is the uncompensated
    left-to-right sum (``_left_sum``) of its members' rates in member
    (flow-id) order, a live member counting 0.0 (``x + 0.0 == x`` for every
    ``x >= 0``, so this is the sum over the frozen members alone), never
    ``fsum``, the compensated built-in ``sum`` of CPython 3.12 on, or a
    running total, and no float depends on the order of a set or of the
    inputs. The rates are therefore the same floats for any order of
    ``flows`` and ``capacities`` and on every CPython, and equal those of a
    full rescan every round.
    """
    flow_list = sorted(flows, key=attrgetter("flow_id"))
    # resource -> {flow id: its frozen rate, 0.0 while live}, keyed in flow-id order
    members: defaultdict[str, dict[str, float]] = defaultdict(dict)
    hops: dict[str, tuple[str, ...]] = {}  # flow id -> its distinct resources
    for f in flow_list:
        fid = f.flow_id
        hops[fid] = fhops = f.path.resources
        for rid in fhops:
            members[rid][fid] = 0.0
    if not members.keys() <= capacities.keys():
        for f in flow_list:
            for rid in f.path.resources:
                if rid not in capacities:
                    raise UnknownResourceError(f"flow {f.flow_id} crosses unknown resource {rid!r}")

    return _fill(members, hops, {rid: set(fids) for rid, fids in members.items()}, 0.0, capacities, False)


# (time, kind, flow id, resource id, value); see ``SimTrace``.
Event = tuple[float, str, str, str, float]


# Lines per write of ``SimTrace.write_csv``, which bounds the chunk's text to a few hundred KB, and the events a
# simulation with trace readers gathers before it hands them over.
CSV_CHUNK_LINES = 4096


class SimTrace:
    """Ordered event history plus the flow/resource tables to audit it.

    Each event is an exact ``tuple`` ``(time, kind, flow_id, resource_id,
    value)``, in the order of the ``trace.csv`` header, where ``kind`` is
    ``flow_start``, ``rate_change``, ``flow_end`` or ``snapshot`` (a marker,
    logged by ``Simulation.mark``). Readers unpack events by position. A
    plain tuple takes one allocation, and since its fields are all atomic,
    CPython's cycle collector untracks it at its first pass, so later passes
    no longer walk the trace; a tuple subclass would stay tracked for its
    whole life. ``write_csv`` streams the CSV from the events in chunks, so
    the text of the whole file never exists at once.

    ``events`` holds the whole history when the simulation has no trace
    readers. With readers it holds one window at a time: the events since
    the last hand-over, and nothing once the run has ended. ``flows`` keeps
    every flow's record either way.
    """

    __slots__ = ("events", "flows", "resources")

    def __init__(
        self,
        events: list[Event] | None = None,
        flows: dict[str, FlowRecord] | None = None,
        resources: dict[str, Resource] | None = None,
    ):
        self.events = [] if events is None else events
        self.flows = {} if flows is None else flows
        self.resources = {} if resources is None else resources

    def csv_lines(self) -> Iterator[str]:
        """The header, then one line per event, made as they are read; floats written by ``repr``.

        A float is formatted once per run of events that hold the same
        object in its column. A step stamps all of its events with one
        ``now`` object, and the flows frozen in one filling round share the
        round's level object, so most runs are long. Objects are compared by
        identity (``is``), never by ``==``, so ``-0.0`` and ``0.0`` each keep
        their own text.
        """
        yield "time,event_kind,flow_id,resource_id,value"
        last_time = last_value = object()
        time_text = value_text = ""
        for time, kind, flow_id, resource_id, value in self.events:
            if time is not last_time:
                last_time, time_text = time, repr(time)
            if value is not last_value:
                last_value, value_text = value, repr(value)
            yield f"{time_text},{kind},{flow_id},{resource_id},{value_text}"

    def write_csv(self, path, append: bool = False) -> None:
        """``csv_lines``, one per line, streamed: ``CSV_CHUNK_LINES`` lines are made, joined and written at a time.

        Only one chunk's lines and text are held at once, so the writer's
        memory does not grow with the trace. No line is empty, so an empty
        chunk means the lines have run out. With ``append`` the events'
        lines go after the end of the file, with no header: a trace handed
        over in windows is written as the first window, then each later one
        appended, and the file is the one a single write of the whole trace
        makes.
        """
        lines = self.csv_lines()
        if append:
            next(lines)  # the header
        with open(path, "a" if append else "w") as fh:
            while chunk := "\n".join(islice(lines, CSV_CHUNK_LINES)):
                fh.write(chunk)
                fh.write("\n")


# Callback invoked after the completions at one instant; each add_flow() in it starts a flow at `now`.
CompletionHook = Callable[["Simulation", list[FlowRecord], float], None]
# Callback invoked at its scheduled time; each add_flow() in it starts a flow at `now`, and it may add_timer().
TimerCallback = Callable[["Simulation", float], None]
# Callback handed the trace holding one window of events, and whether that window is the run's last.
TraceReader = Callable[[SimTrace, bool], None]


class Simulation:
    """Event-driven executor over a resource set.

    Flows can be added up front, from a completion hook (which is how
    the benchmark layer dispatches queued tasks the moment a slot frees),
    or from a timer (which is how snapshots are taken mid-run). The hook
    gets the completed flows' records in flow-id order. The trace shares
    ``resources``, so a resource added there mid-run, before the first flow
    that crosses it, is audited with the rest. A resource's capacities are
    read once, when the first flow crossing it is added.

    Each reallocation re-solves only the flows at or above the cut (see the
    module docstring) and logs their changed rates in flow-id order; a step
    that starts and ends no flow re-solves nothing. The full solve,
    ``allocate_rates``, runs only when there is nothing to keep: the first
    solve, and a step after every previous flow ended.

    ``add_flow`` starts a flow at ``now``, and the next solve rates it. An
    instant's events are thus its ``flow_end``s in flow-id order, the hook's
    flows in add order, each due timer's flows in (time, add) order, then
    one batch of ``rate_change``s, and the zero-length steps that follow;
    the events logged by ``mark`` come last. A later arrival is a timer that
    adds the flow: it starts after the hook's flows at its instant, and while
    pending it does not keep a stalled flow from raising
    ``SimulationStalledError``. Flows added before ``run`` are rated before
    the timers due at the start instant fire.

    ``readers`` are called in order with each window of the trace (see the
    module docstring), and only read it. A run that raises hands no further
    window over.
    """

    def __init__(self, resources: Mapping[str, Resource], readers: Sequence[TraceReader] = ()):
        self.resources = dict(resources)
        self.readers = tuple(readers)
        self.now = 0.0
        # id -> each path whose every resource has a capacity entry; holding the path keeps its id unique.
        self._checked_paths: dict[int, ResourcePath] = {}
        self._timers: list[tuple[float, int, TimerCallback]] = []
        self._active: dict[str, FlowRecord] = {}
        self._seq = 0
        self._trace = SimTrace(resources=self.resources)
        self._marks: list[Event] = []  # logged when the clock leaves their instant (see `mark`)
        # Filled as flows are added: each crossed resource's capacity, and each asymmetric resource
        # with the directions of the active flows crossing it, counted for `_reallocate` to re-pool it.
        self._capacities: dict[str, float] = {}
        self._pooled: dict[str, tuple[Resource, Counter[str]]] = {}
        # Warm-start state: the flows started and ended since the last solve, and each
        # resource's {flow id: rate} in flow-id order (None: rebuilt from `_active` when needed).
        self._arrived: list[FlowRecord] = []
        self._departed: list[FlowRecord] = []
        self._members: defaultdict[str, dict[str, float]] | None = None

    def add_flow(self, flow_id: str, path: ResourcePath, size_mb: float, tags: Mapping[str, str] = _NO_TAGS) -> None:
        """Start a transfer of ``size_mb`` MB over ``path`` at ``now``; ``tags`` are free-form labels.

        The flow's ``FlowRecord`` enters the trace and its ``flow_start`` is
        logged at once; it is rated at the next solve. A rejected flow
        (a bad size, a repeated id, ``tags`` that are not a mapping, or an
        unknown resource) leaves no trace.
        """
        if not 0.0 <= size_mb < math.inf:
            raise ValueError(f"flow {flow_id} has size {size_mb} MB")
        flows = self._trace.flows
        if flow_id in flows:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        # every package caller passes a read-only proxy, so the exact type test spares it the ABC check
        if type(tags) is not MappingProxyType and not isinstance(tags, Mapping):
            raise TypeError(f"flow {flow_id} has tags of type {type(tags).__name__}, not a mapping")
        if self._checked_paths.get(id(path)) is not path:
            for rid in path.resources:
                if rid not in self._capacities:
                    resource = self.resources.get(rid)
                    if resource is None:
                        raise UnknownResourceError(f"flow {flow_id} crosses unknown resource {rid!r}")
                    if resource.read_capacity != resource.write_capacity:
                        self._pooled[rid] = (resource, Counter())
                    self._capacities[rid] = min(resource.read_capacity, resource.write_capacity)
            self._checked_paths[id(path)] = path
        now = self.now
        self._active[flow_id] = flows[flow_id] = record = FlowRecord(flow_id, path, size_mb, None, tags, size_mb)
        self._trace.events.append((now, "flow_start", flow_id, "", size_mb))
        self._arrived.append(record)

    def add_timer(self, at_time: float, callback: TimerCallback) -> None:
        """Call ``callback(sim, now)`` at ``at_time``.

        Due timers fire after the completions at that instant and after
        the completion hook; the flows they add start at once.
        """
        if not math.isfinite(at_time):
            raise ValueError(f"cannot set a timer at {at_time}")
        if at_time < self.now:
            raise ValueError(f"cannot set a timer in the past ({at_time} < {self.now})")
        heappush(self._timers, (at_time, self._seq, callback))
        self._seq += 1

    def mark(self, event: Event) -> None:
        """Log the informational ``event``, stamped ``now``, after every other event of this instant, in mark order.

        It waits until the clock leaves the instant or the run ends, so it
        also follows the instant's later flows and zero-length steps.
        """
        if event[0] != self.now:
            raise ValueError(f"cannot mark an event at {event[0]} at time {self.now}")
        self._marks.append(event)

    @property
    def idle(self) -> bool:
        """True when no flow is active and no timer is pending; a timer that is firing no longer counts."""
        return not (self._active or self._timers)

    def started(self, skip: int) -> list[FlowRecord]:
        """The flows started after the first ``skip``, in start order.

        They are read from the newest back, so a caller that passes the
        number it has already seen visits only the flows started since.
        """
        flows = self._trace.flows
        new = list(islice(reversed(flows.values()), len(flows) - skip))
        new.reverse()
        return new

    # -- internals ----------------------------------------------------------

    def _reallocate(self) -> None:
        active, arrived, departed = self._active, self._arrived, self._departed
        self._arrived, self._departed = [], []
        if self._pooled:  # re-pool each asymmetric resource that a started or ended flow crosses
            pooled, touched = self._pooled, set()
            for flows, step in ((arrived, 1), (departed, -1)):
                for f in flows:
                    for rid in f.path.resources:
                        if rid in pooled:
                            pooled[rid][1][f.path.direction] += step
                            touched.add(rid)
            for rid in touched:
                resource, crossing = pooled[rid]
                self._capacities[rid] = resource.capacity_for(frozenset(d for d, n in crossing.items() if n))
        if len(arrived) == len(active):  # nothing to keep
            self._members = None
            rates = allocate_rates(active.values(), self._capacities)
        elif arrived or departed:
            rates = self._resolve(arrived, departed)
        else:
            return  # the same flows over the same capacities keep their rates
        append, now = self._trace.events.append, self.now
        for fid, r in rates.items():  # flow-id order
            flow = active[fid]
            # A new flow's rate is 0.0, so its first allocation is logged unless it is 0.0, which
            # only a zero capacity gives, and such a run ends in SimulationStalledError.
            if flow.rate != r:
                flow.rate = r
                append((now, "rate_change", fid, "", r))

    def _resolve(self, arrived: list[FlowRecord], departed: list[FlowRecord]) -> dict[str, float]:
        """Re-solve the flows at or above the cut, and the arrivals; return their rates in flow-id order."""
        active, capacities, members = self._active, self._capacities, self._members
        if members is None:
            members = self._members = defaultdict(dict)
            for fid in sorted(active):
                f = active[fid]
                for rid in f.path.resources:
                    members[rid][fid] = f.rate
        else:
            for f in departed:
                for rid in f.path.resources:
                    del members[rid][f.flow_id]
            batches: defaultdict[str, list[str]] = defaultdict(list)
            for f in sorted(arrived, key=attrgetter("flow_id")):
                for rid in f.path.resources:
                    batches[rid].append(f.flow_id)
            for rid, fids in batches.items():
                m = members[rid]
                in_order = not m or next(reversed(m)) < fids[0]
                m.update(dict.fromkeys(fids, 0.0))
                if not in_order:
                    members[rid] = dict(sorted(m.items()))

        cut = min([f.rate for f in departed], default=math.inf)
        for f in arrived:
            share = min(capacities[rid] / len(members[rid]) for rid in f.path.resources)
            cut = min(cut, (1 - 1e-9) * share)
        live = {f.flow_id: f for f in arrived}
        level = 0.0  # the highest kept rate: the last round the new solve shares with the old one
        for fid, f in active.items():
            r = f.rate
            if r >= cut:
                live[fid] = f
            elif r > level:
                level = r
        hops: dict[str, tuple[str, ...]] = {}
        flows_of: dict[str, set[str]] = {}  # resource -> the live flows crossing it
        for fid in sorted(live):
            hops[fid] = fhops = live[fid].path.resources
            for rid in fhops:
                members[rid][fid] = 0.0
                fids = flows_of.get(rid)
                if fids is None:
                    flows_of[rid] = {fid}
                else:
                    fids.add(fid)
        return _fill(members, hops, flows_of, level, capacities)

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

    def run(self, on_complete: CompletionHook | None = None) -> SimTrace:
        """Execute until no flow is active and no timer is pending; returns the trace."""
        while self._active or self._timers:
            if self._active:
                self._reallocate()
            t_flows = self._next_completion()
            if self._active and math.isinf(t_flows):
                raise SimulationStalledError(f"{len(self._active)} active flows cannot progress at t={self.now}")
            t = min(t_flows, self._timers[0][0] if self._timers else math.inf)

            dt = t - self.now
            advance = dt > 0
            if advance:  # the clock leaves its instant: the marks made there follow all of its events
                self._trace.events += self._marks
                self._marks.clear()
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
            self._departed += completed
            now, active, events = self.now, self._active, self._trace.events
            for f in completed:
                fid = f.flow_id
                del active[fid]
                f.end_time = now
                f.remaining_mb = 0.0
                events.append((now, "flow_end", fid, "", f.size_mb))

            if completed and on_complete is not None:
                on_complete(self, completed, self.now)
            while self._timers and self._timers[0][0] <= self.now:
                heappop(self._timers)[2](self, self.now)
            if self.readers and len(events) >= CSV_CHUNK_LINES:
                self._hand_over(last=False)
        self._trace.events += self._marks
        self._marks.clear()
        if self.readers:
            self._hand_over(last=True)
        return self._trace

    def _hand_over(self, last: bool) -> None:
        """Hand the trace's window of events to every reader, then empty it."""
        trace = self._trace
        for reader in self.readers:
            reader(trace, last)
        trace.events.clear()


class TraceViolation(NamedTuple):
    code: str  # monotonicity | capacity | byte-conservation | unmatched-flow
    time: float
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] t={self.time}: {self.message}"


# Float slack: capacity is exact in the model, binary float needs an ulp.
CAPACITY_REL_EPS = 1e-9
BYTE_REL_TOL = 1e-6


class AuditState:
    """What ``verify_trace`` carries from one window of a trace to the next.

    ``prev_t`` is the last time seen. ``active``, ``hops`` and ``rate`` hold
    each flow started and not yet ended: its record, its distinct resources
    and its rate (0.0 from its start until its first ``rate_change``).
    ``moved`` holds the MB each flow has moved, and ``limits`` each symmetric
    resource's capacity with the float slack.
    """

    __slots__ = ("prev_t", "active", "hops", "rate", "moved", "limits")

    def __init__(self):
        self.prev_t = -math.inf
        self.active: dict[str, FlowRecord] = {}
        self.hops: dict[str, tuple[str, ...]] = {}  # keyed like `active`
        self.rate: dict[str, float] = {}
        self.moved: dict[str, float] = {}
        self.limits: dict[str, float] = {}


def verify_trace(trace: SimTrace, state: AuditState | None = None, last: bool = True) -> list[TraceViolation]:
    """Audit a trace: monotone time, byte conservation, capacity limits.

    Returns violations as data (empty list means the trace is clean), so
    hand-built traces can be checked the same way as simulated ones.

    A trace handed over in windows is audited one window per call, each
    call going on from the ``state`` the previous one left, with ``last``
    false until the run's last window; a flow still active after that one
    has a start without an end. Each call returns the violations found in
    its window, and together they are those of one call on the whole trace.
    """
    if state is None:
        state = AuditState()
    violations: list[TraceViolation] = []
    resources = trace.resources
    prev_t = state.prev_t
    active, hops, rate, moved, limits = state.active, state.hops, state.rate, state.moved, state.limits

    def check_interval(t0: float, t1: float) -> None:
        dt = t1 - t0
        usage: dict[str, float] = {}
        used_by = usage.get
        for fid, fhops in hops.items():  # the active flows, in start order
            r = rate[fid]
            for rid in fhops:
                usage[rid] = used_by(rid, 0.0) + r
            moved[fid] += r * dt
        dirs = None  # gathered only if an asymmetric resource is in use
        over: list[tuple[str, str]] = []  # (resource, message)
        for rid, used in usage.items():
            limit = limits.get(rid)
            if limit is not None and used <= limit:
                continue
            resource = resources.get(rid)
            if resource is None:
                over.append((rid, f"unknown resource {rid!r} in use"))
                continue
            cap = resource.read_capacity
            if cap == resource.write_capacity:
                limit = limits[rid] = cap * (1 + CAPACITY_REL_EPS)
            else:
                if dirs is None:
                    dirs = _directions(rec.path for rec in active.values())
                cap = resource.capacity_for(frozenset(dirs[rid]))
                limit = cap * (1 + CAPACITY_REL_EPS)
            if not used <= limit:  # a NaN is flagged
                over.append((rid, f"{rid} carries {used} MB/s > capacity {cap}"))
        if over:
            for _, message in sorted(over):
                violations.append(TraceViolation("capacity", t0, message))

    for time, kind, fid, _, value in trace.events:
        if time < prev_t:
            violations.append(TraceViolation("monotonicity", time, f"timestamp {time} after {prev_t}"))
        else:
            if time > prev_t and active:
                check_interval(prev_t, time)
            prev_t = time

        if kind == "flow_start":
            rec = active[fid] = trace.flows.get(fid) or FlowRecord(fid, ResourcePath(("?",), "read"), value, None, {})
            hops[fid] = rec.path.resources
            rate.setdefault(fid, 0.0)
            moved.setdefault(fid, 0.0)
        elif kind == "rate_change":
            rate[fid] = value
        elif kind == "flow_end":
            rec = active.pop(fid, None)
            if rec is None:
                violations.append(TraceViolation("unmatched-flow", time, f"end without start: {fid}"))
            else:
                got = moved.get(fid, 0.0)
                tol = max(BYTE_REL_TOL * rec.size_mb, 1e-6)
                if not abs(got - rec.size_mb) <= tol:  # a NaN is flagged
                    violations.append(
                        TraceViolation("byte-conservation", time, f"flow {fid} moved {got} MB of {rec.size_mb} MB")
                    )
            rate.pop(fid, None)
            hops.pop(fid, None)
        # snapshot events are informational markers

    state.prev_t = prev_t
    if last:
        for fid in active:
            violations.append(TraceViolation("unmatched-flow", prev_t, f"start without end: {fid}"))
    return violations
