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
hides a resource that saturates; and with no rate changed since its last
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

The solver works on integers. A simulation gives each resource the next
index when a path first crosses it, keeps the tuple of its path's indices
beside each checked path, and hands that tuple to every record on the
path as its ``hops``. Capacities, each resource's crossing records, live
counts, stale marks and heap keys are then lists and ints over that index
(see ``_fill``), and no float depends on it. The audit keeps its own index,
built from the trace's paths, so it never reads what it checks.

A simulation given trace readers streams its events: at the end of a step
at which the trace holds ``CSV_CHUNK_LINES`` events or more, ``run`` hands
the trace to each reader and then empties its event list, and it hands over
what is left, the last instant's marks included, once more when the run
ends. Readers only read. So the events held at once are bounded by a window
plus one step, whatever the run's length, and a window of 512 events is
small beside the run's per-flow records. The audit (``verify_trace``) and
the CSV writer (``SimTrace.write_csv``) each take one window at a time and
give the bytes and violations of one pass over the whole trace; the audit
empties its state once it has read the last window, so none of it outlives
the run. A simulation with no readers keeps every event.

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
and the arrivals are re-solved from the highest kept rate. The solver's
table is the records themselves: each resource keeps the list of active
records crossing it, in flow-id order, and a solve reads and writes their
``rate`` in place. A re-solved record counts 0.0 until it freezes, and a
kept record is never written. A resource's saturation at the cut,
recomputed as ``(capacity - sum of its records' rates) / live`` over the
same records in the same order, is the float the full solve cached at that
point.

The cut stays as it is when a step re-pools an asymmetric capacity. The
capacity falls only when an arrival adds a direction, since mixed traffic
pools the smaller bandwidth, and that arrival's equal share is taken at
the new capacity. It rises only when a departure removes a direction, and
the departed flow's old rate is at most the resource's old saturation, or
when every flow crossing it is an arrival. Either way the resource freezes
nothing below the cut, before the step or after it.

The solver sums in flow-id order and no float depends on set or dict
iteration order, or on the resource index; identical inputs produce
byte-identical traces.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter
from collections.abc import Mapping
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice
from operator import attrgetter, le
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
    advances ``remaining_mb`` in place while the flow runs, and sets
    ``end_time`` and zeroes ``remaining_mb`` when it ends. ``rate`` and
    ``hops`` are the solver's scratch. ``_fill`` writes ``rate`` in place,
    0.0 while the flow is live in a solve and its round's level once it
    freezes. ``hops`` holds the solver's index of each resource of ``path``,
    in path order: ``add_flow`` sets it from its simulation's index, and
    ``allocate_rates`` given a ``{resource id: capacity}`` mapping rewrites it
    from the mapping's order.
    """

    __slots__ = ("flow_id", "path", "size_mb", "end_time", "tags", "remaining_mb", "rate", "hops")

    def __init__(
        self,
        flow_id: str,
        path: ResourcePath,
        size_mb: float,
        end_time: float | None,
        tags: Mapping[str, str],
        remaining_mb: float = 0.0,
        rate: float = 0.0,  # MB/s
        hops: tuple[int, ...] = (),
    ):
        self.flow_id = flow_id
        self.path = path
        self.size_mb = size_mb
        self.end_time = end_time
        self.tags = tags
        self.remaining_mb = remaining_mb
        self.rate = rate
        self.hops = hops


# Rounding can leave a re-summed saturation below its value before a freeze touched it,
# by far less than this share of the fill's largest capacity (see `_fill`).
LEVEL_KEY_SLACK = 1e-9


def _frozen_usage(records: Iterable[FlowRecord]) -> float:
    """``0.0 + r1.rate + r2.rate + ...``, left to right: the same float on every CPython.

    The built-in ``sum`` of floats is compensated from CPython 3.12 on
    (gh-100425), so it can differ from this in the last bit there.
    """
    total = 0.0
    for f in records:
        total += f.rate
    return total


def _fill(
    crossing: Sequence[list[FlowRecord]], live: list[FlowRecord], level: float, capacities: Sequence[float]
) -> None:
    """Progressive filling of the ``live`` records upward from ``level``; each record's rate is written in place.

    Resources are integer indices: a record's ``hops`` index ``capacities``
    and ``crossing``, and ``crossing[i]`` holds every record crossing
    resource ``i``, in flow-id order: the live ones, and those whose rates
    stay as they are. The fill sets each live record's rate to 0.0 first,
    and to its round's level when it freezes.

    A resource's saturation is ``(capacity - frozen usage) / live count``,
    its frozen usage the left-to-right sum (``_frozen_usage``) of the rates
    of the records crossing it, a live record counting 0.0. Each round
    freezes, at the round's level, the live records of every resource whose
    saturation is at most that level: the least saturation, never below the
    previous round's level. The round that freezes every record still live
    is the last, and returns once it has written its rates.

    The saturations sit in a heap of ``(saturation, resource index)``. A
    resource that a freeze touches keeps its entry and is only marked
    stale. A stale entry at the top is re-summed and put back. Once the top
    is fresh, the round pops every entry up to ``slack`` above the level
    the top gives, re-summing the stale ones, and its level is the least
    saturation popped. So a stale resource whose re-sum ties the level, or
    falls below the top's saturation, counts in that round. No rate changed
    since the last touch, so a re-sum is the float a re-sum after every
    touch gives, and the rounds freeze the same records at the same floats
    as a full rescan every round. The order in which tied entries pop
    changes no float.

    Why no saturation lies more than ``slack`` below its entry: freezing
    flows below a resource's saturation can only raise it, exactly by
    ``(saturation - level) * frozen / still live``. A re-sum over ``m``
    records rounds it by about ``m * 2**-53`` capacities, which over the
    touches of a resource with ``n`` live records adds up to under ``(m +
    2) * (ln n + 3) * 2**-53`` capacities: below ``LEVEL_KEY_SLACK`` for
    any resource under 10**5 flows.
    """
    n_live = [0] * len(capacities)  # resource -> the live records crossing it
    for f in live:
        f.rate = 0.0
        for i in f.hops:
            n_live[i] += 1
    used = [i for i, n in enumerate(n_live) if n]  # the resources of the live records
    unfrozen = set(live)
    heap = [((capacities[i] - _frozen_usage(crossing[i])) / n_live[i], i) for i in used]
    heapify(heap)
    slack = LEVEL_KEY_SLACK * max(map(capacities.__getitem__, used), default=0.0)
    stale = [False] * len(capacities)  # touched by a freeze since its entry was summed
    while heap:
        least, i = heap[0]
        n = n_live[i]
        if not n:  # every record of it froze at another resource
            heappop(heap)
            continue
        if stale[i]:
            stale[i] = False
            heapreplace(heap, ((capacities[i] - _frozen_usage(crossing[i])) / n, i))
            continue
        # The top is fresh. Every resource whose saturation is at most the
        # round's level, which is at most `reach - slack`, has its entry within reach.
        reach = (level if level > least else least) + slack
        popped = []  # (saturation, resource index)
        while heap and heap[0][0] <= reach:
            lvl, i = heappop(heap)
            n = n_live[i]
            if n:
                if stale[i]:
                    stale[i] = False
                    lvl = (capacities[i] - _frozen_usage(crossing[i])) / n
                if lvl < least:
                    least = lvl
                popped.append((lvl, i))
        if least > level:
            level = least
        frozen = []
        for lvl, i in popped:
            if lvl <= level:
                for f in crossing[i]:
                    if f in unfrozen:
                        unfrozen.remove(f)
                        frozen.append(f)
            else:
                heappush(heap, (lvl, i))
        for f in frozen:
            f.rate = level
        if not unfrozen:
            return
        for f in frozen:
            for i in f.hops:
                n_live[i] -= 1
                stale[i] = True


def allocate_rates(flows: Iterable[FlowRecord], capacities: Mapping[str, float] | list[float]) -> dict[str, float]:
    """Max-min fair rates by progressive filling, written into the records' ``rate``; returns ``{flow id: rate}``.

    All unfrozen flows rise uniformly; each round, every resource whose
    saturation level is at most the round's level (the lowest cached
    level, never below the previous round's) freezes its unfrozen flows
    at that level. Repeats until every flow is frozen.

    ``capacities`` takes one of two forms. A ``{resource id: capacity}``
    mapping indexes its resources in the mapping's order and rewrites each
    record's ``hops`` from it; the solve raises UnknownResourceError for a
    path resource with no entry, before it writes any record, and never
    reads the entries of resources no flow crosses. A list is a
    ``Simulation``'s own capacity table, which the records' ``hops``
    already index; the engine's cold solve passes it. A record that no
    simulation indexed (``hops == ()``, as a hand-built ``FlowRecord`` has)
    raises UnknownResourceError; no other check is made. The mapping form
    stays public although the engine passes its list: it is the full solve
    from resource ids alone, which acceptance criterion 4 checks against
    the fair-share oracle, the warm-equals-cold checks take as the
    reference for the engine's warm solves, and the fair-sharing demo
    shows.

    The solve rates ``flows`` in place: ``_fill`` sets each record's
    ``rate`` to 0.0, then to its level, and the returned mapping, in
    flow-id order, holds those same floats. A caller that must keep its
    records' rates or ``hops`` passes copies.

    Each resource's saturation level is ``(capacity - frozen usage) / live
    count``; ``_fill`` keeps the levels in a heap and re-sums a resource
    touched by a freeze only when the round's level could reach it, and it
    returns as soon as a round freezes every flow still live: a solve that
    one round settles is one pass over the heap.
    Exactness contract: a re-summed frozen usage is the uncompensated
    left-to-right sum (``_frozen_usage``) of the rates of the records
    crossing the resource, in flow-id order, a live record counting 0.0
    (``x + 0.0 == x`` for every ``x >= 0``, so this is the sum over the
    frozen records alone), never ``fsum``, the compensated built-in ``sum``
    of CPython 3.12 on, or a running total, and no float depends on the
    order of a set, of the inputs or of the index. The rates are therefore
    the same floats for any order of ``flows`` and ``capacities`` and on
    every CPython, and equal those of a full rescan every round.
    """
    flow_list = sorted(flows, key=attrgetter("flow_id"))
    if isinstance(capacities, Mapping):
        index = {rid: i for i, rid in enumerate(capacities)}
        for f in flow_list:
            for rid in f.path.resources:
                if rid not in index:
                    raise UnknownResourceError(f"flow {f.flow_id} crosses unknown resource {rid!r}")
        for f in flow_list:
            f.hops = tuple([index[rid] for rid in f.path.resources])
        capacities = list(capacities.values())
    elif () in map(attrgetter("hops"), flow_list):  # one C-level scan: a record no simulation indexed crosses nothing
        unindexed = next(f.flow_id for f in flow_list if not f.hops)
        raise UnknownResourceError(f"flow {unindexed} has no resource index; pass a {{resource id: capacity}} mapping")
    crossing: list[list[FlowRecord]] = [[] for _ in capacities]  # resource -> its records, in flow-id order
    for f in flow_list:
        for i in f.hops:
            crossing[i].append(f)
    _fill(crossing, flow_list, 0.0, capacities)
    return {f.flow_id: f.rate for f in flow_list}


# (time, kind, flow id, resource id, value); see ``SimTrace``.
Event = tuple[float, str, str, str, float]


# Lines per write of ``SimTrace.write_csv``, which bounds the chunk's text to about 30 KB, and the events a
# simulation with trace readers gathers before it hands them over. At 512 neither a window's events nor its text
# sets a streamed run's peak memory; the run's flow records do.
CSV_CHUNK_LINES = 512


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
        """``csv_lines``, one per line, streamed by ``write_lines``: ``CSV_CHUNK_LINES`` lines at a time.

        Only one chunk's lines and text, about 30 KB, are held at once, so
        the writer's memory does not grow with the trace. With ``append`` the events'
        lines go after the end of the file, with no header: a trace handed
        over in windows is written as the first window, then each later one
        appended, and the file is the one a single write of the whole trace
        makes.
        """
        lines = self.csv_lines()
        if append:
            next(lines)  # the header
        write_lines(path, lines, append)


def write_lines(path, lines: Iterator[str], append: bool = False) -> None:
    """Write the iterator ``lines``, one per line, ``CSV_CHUNK_LINES`` at a time; one chunk's text is held at once.

    The file holds the lines joined by newlines with one after the last,
    or, with ``append``, that text after its end. No line may be empty,
    since an empty chunk means the lines have run out.
    """
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
    read once, when the first flow crossing it is added, and it then takes
    the next index of the solver's tables (see the module docstring).

    Each reallocation re-solves only the flows at or above the cut (see the
    module docstring) and logs their changed rates in flow-id order; a step
    that starts and ends no flow re-solves nothing. The warm solve keeps, for
    each resource, the list of active records crossing it, and rates the
    records in place. The full solve, ``allocate_rates``, runs only when
    there is nothing to keep: the first solve, and a step after every
    previous flow ended.

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
        # id -> each path whose every resource is indexed, and its `hops`; holding the path keeps its id unique.
        self._checked_paths: dict[int, tuple[ResourcePath, tuple[int, ...]]] = {}
        self._timers: list[tuple[float, int, TimerCallback]] = []
        self._active: dict[str, FlowRecord] = {}
        self._seq = 0
        self._trace = SimTrace(resources=self.resources)
        self._marks: list[Event] = []  # logged when the clock leaves their instant (see `mark`)
        # Filled as flows are added: each crossed resource's index, its capacity at that index, and each
        # asymmetric resource with the directions of the active flows crossing it, counted for
        # `_reallocate` to re-pool it.
        self._index: dict[str, int] = {}
        self._caps: list[float] = []
        self._pooled: dict[int, tuple[Resource, Counter[str]]] = {}
        # Warm-start state: the flows started and ended since the last solve, and each resource's
        # active records in flow-id order (None: rebuilt from `_active` when needed).
        self._arrived: list[FlowRecord] = []
        self._departed: list[FlowRecord] = []
        self._crossing: list[list[FlowRecord]] | None = None

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
        checked = self._checked_paths.get(id(path))
        if checked is None or checked[0] is not path:
            index, caps, hops = self._index, self._caps, []
            for rid in path.resources:
                i = index.get(rid)
                if i is None:  # the first flow crossing it: the resource takes the next index
                    resource = self.resources.get(rid)
                    if resource is None:
                        raise UnknownResourceError(f"flow {flow_id} crosses unknown resource {rid!r}")
                    i = index[rid] = len(caps)
                    caps.append(min(resource.read_capacity, resource.write_capacity))
                    if resource.read_capacity != resource.write_capacity:
                        self._pooled[i] = (resource, Counter())
                    if self._crossing is not None:
                        self._crossing.append([])
                hops.append(i)
            checked = self._checked_paths[id(path)] = (path, tuple(hops))
        now = self.now
        record = FlowRecord(flow_id, path, size_mb, None, tags, size_mb, 0.0, checked[1])
        self._active[flow_id] = flows[flow_id] = record
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
                    for i in f.hops:
                        if i in pooled:
                            pooled[i][1][f.path.direction] += step
                            touched.add(i)
            for i in touched:
                resource, crossing = pooled[i]
                self._caps[i] = resource.capacity_for(frozenset(d for d, n in crossing.items() if n))
        if len(arrived) == len(active):  # nothing to keep
            self._crossing = None
            append, now = self._trace.events.append, self.now
            # Every active flow is new, so its old rate is 0.0 and its first allocation is logged unless it is
            # 0.0, which only a zero capacity gives, and such a run ends in SimulationStalledError.
            for fid, r in allocate_rates(active.values(), self._caps).items():  # flow-id order
                if r != 0.0:
                    append((now, "rate_change", fid, "", r))
        elif arrived or departed:
            self._resolve(arrived, departed)
        # else the same flows over the same capacities keep their rates

    def _resolve(self, arrived: list[FlowRecord], departed: list[FlowRecord]) -> None:
        """Re-solve the flows at or above the cut, and the arrivals; log their changed rates in flow-id order."""
        active, capacities, crossing = self._active, self._caps, self._crossing
        if crossing is None:
            crossing = self._crossing = [[] for _ in capacities]
            for fid in sorted(active):
                f = active[fid]
                for i in f.hops:
                    crossing[i].append(f)
        else:
            for f in departed:
                for i in f.hops:
                    crossing[i].remove(f)
            flow_id = attrgetter("flow_id")
            for f in arrived:
                for i in f.hops:
                    insort(crossing[i], f, key=flow_id)

        cut = min([f.rate for f in departed], default=math.inf)
        for f in arrived:
            share = min(capacities[i] / len(crossing[i]) for i in f.hops)
            cut = min(cut, (1 - 1e-9) * share)
        live = {f.flow_id: f for f in arrived}
        level = 0.0  # the highest kept rate: the last round the new solve shares with the old one
        for fid, f in active.items():
            r = f.rate
            if r >= cut:
                live[fid] = f
            elif r > level:
                level = r
        records = [live[fid] for fid in sorted(live)]
        old = [f.rate for f in records]
        _fill(crossing, records, level, capacities)
        append, now = self._trace.events.append, self.now
        for f, r in zip(records, old):
            if f.rate != r:
                append((now, "rate_change", f.flow_id, "", f.rate))

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

    ``prev_t`` is the last time seen. The audit keeps its own index of the
    resources, built from the paths of the records in ``trace.flows`` and
    never from the engine's ``hops``: ``index`` maps each resource id met so
    far to its index, in order of first meeting, and ``paths`` holds each
    path object met with its index tuple. ``limits`` holds each resource's
    screen: the smaller of its capacities with the float slack, which is a
    symmetric resource's limit and at most an asymmetric one's for any
    directions, or NaN for an unknown resource or a NaN capacity.

    ``cells`` holds one cell per flow started and not yet ended, in start
    order: ``[rate, MB moved, index tuple, record]``, its rate 0.0 from its
    start until its first ``rate_change``. A cell goes at its flow's
    ``flow_end``, and nothing is kept for an ended flow: a later
    ``flow_start`` of its id begins a new flow at 0.0 MB moved. ``pending``
    holds the rate of a ``rate_change`` for a flow not active, which its
    start takes. ``verify_trace`` empties every table once it has audited
    the last window.
    """

    __slots__ = ("prev_t", "index", "paths", "limits", "cells", "pending")

    def __init__(self):
        self.prev_t = -math.inf
        self.index: dict[str, int] = {}
        self.paths: dict[int, tuple[ResourcePath, tuple[int, ...]]] = {}  # id -> the path and its index tuple
        self.limits: list[float] = []
        self.cells: dict[str, list] = {}
        self.pending: dict[str, float] = {}


def verify_trace(trace: SimTrace, state: AuditState | None = None, last: bool = True) -> list[TraceViolation]:
    """Audit a trace: monotone time, byte conservation, capacity limits.

    Returns violations as data (empty list means the trace is clean), so
    hand-built traces can be checked the same way as simulated ones.

    Each interval between two event times re-sums each resource's usage,
    from 0.0 over the active flows in start order, into a list over the
    audit's own index (see ``AuditState``), and one pass compares it with
    the screens. A resource that no active flow crosses has usage 0.0, and
    one whose usage is at most its screen is within its limit whatever the
    directions, so only a resource over its screen is checked in full: an
    asymmetric one against ``Resource.capacity_for`` over the directions of
    the active flows crossing it. Those directions are gathered only then,
    or to tell whether a resource whose usage is 0.0 is in use, since only
    a resource in use can fail.

    Each flow is checked at its ``flow_end`` for the MB it moved since its
    ``flow_start``. A repeated ``flow_start`` while the flow is active keeps
    its rate, MB moved and place in start order; a ``flow_start`` after the
    id's ``flow_end`` starts a new flow, at 0.0 MB, so the audit keeps
    nothing for a flow once it ends.

    A trace handed over in windows is audited one window per call, each
    call going on from the ``state`` the previous one left, with ``last``
    false until the run's last window; a flow still active after that one
    has a start without an end. Each call returns the violations found in
    its window, and together they are those of one call on the whole trace.
    The call on the last window leaves ``state`` empty, bar ``prev_t``.
    """
    if state is None:
        state = AuditState()
    violations: list[TraceViolation] = []
    resources, flows = trace.resources, trace.flows
    prev_t = state.prev_t
    index, paths, limits = state.index, state.paths, state.limits
    cells, pending = state.cells, state.pending

    def hops_of(path: ResourcePath) -> tuple[int, ...]:
        """The index tuple of ``path``, each resource new to the index taking the next index and its limit."""
        hops = []
        for rid in path.resources:
            i = index.get(rid)
            if i is None:
                i = index[rid] = len(limits)
                resource = resources.get(rid)
                if resource is None or math.isnan(resource.read_capacity) or math.isnan(resource.write_capacity):
                    limits.append(math.nan)
                else:  # at most the limit of any directions, since `capacity_for` pools at least the smaller
                    limits.append(min(resource.read_capacity, resource.write_capacity) * (1 + CAPACITY_REL_EPS))
            hops.append(i)
        return tuple(hops)

    def check_interval(t0: float, t1: float) -> None:
        dt = t1 - t0
        usage = [0.0] * len(limits)
        for cell in cells.values():  # the active flows, in start order
            r = cell[0]
            for i in cell[2]:
                usage[i] += r
            cell[1] += r * dt
        if all(map(le, usage, limits)):  # a NaN, in a usage or a limit, fails
            return
        dirs = None  # gathered only for a resource over its screen that is asymmetric or may be out of use
        over: list[tuple[str, str]] = []  # (resource, message)
        for rid, used, limit in zip(index, usage, limits):
            if used <= limit:
                continue
            resource = resources.get(rid)
            asymmetric = resource is not None and resource.read_capacity != resource.write_capacity
            if asymmetric or used == 0.0:  # a usage other than 0.0 has a flow crossing it
                if dirs is None:
                    dirs = _directions(cell[3].path for cell in cells.values())
                if rid not in dirs:  # not in use
                    continue
            if resource is None:
                over.append((rid, f"unknown resource {rid!r} in use"))
                continue
            cap = resource.read_capacity
            if asymmetric:
                cap = resource.capacity_for(frozenset(dirs[rid]))
            if not used <= cap * (1 + CAPACITY_REL_EPS):  # a NaN is flagged
                over.append((rid, f"{rid} carries {used} MB/s > capacity {cap}"))
        for _, message in sorted(over):
            violations.append(TraceViolation("capacity", t0, message))

    for time, kind, fid, _, value in trace.events:
        if time < prev_t:
            violations.append(TraceViolation("monotonicity", time, f"timestamp {time} after {prev_t}"))
        else:
            if time > prev_t and cells:
                check_interval(prev_t, time)
            prev_t = time

        if kind == "flow_start":
            rec = flows.get(fid) or FlowRecord(fid, ResourcePath(("?",), "read"), value, None, {})
            path = rec.path
            checked = paths.get(id(path))
            if checked is None or checked[0] is not path:
                checked = paths[id(path)] = (path, hops_of(path))
            cell = cells.get(fid)
            if cell is None:
                cells[fid] = [pending.pop(fid, 0.0) if pending else 0.0, 0.0, checked[1], rec]
            else:  # a repeated start keeps the flow's rate, MB moved and place in start order
                cell[2], cell[3] = checked[1], rec
        elif kind == "rate_change":
            cell = cells.get(fid)
            if cell is None:
                pending[fid] = value
            else:
                cell[0] = value
        elif kind == "flow_end":
            cell = cells.pop(fid, None)
            if cell is None:
                violations.append(TraceViolation("unmatched-flow", time, f"end without start: {fid}"))
                pending.pop(fid, None)
            else:
                got = cell[1]
                rec = cell[3]
                tol = max(BYTE_REL_TOL * rec.size_mb, 1e-6)
                if not abs(got - rec.size_mb) <= tol:  # a NaN is flagged
                    violations.append(
                        TraceViolation("byte-conservation", time, f"flow {fid} moved {got} MB of {rec.size_mb} MB")
                    )
        # snapshot events are informational markers

    state.prev_t = prev_t
    if last:
        for fid in cells:
            violations.append(TraceViolation("unmatched-flow", prev_t, f"start without end: {fid}"))
        for table in (index, paths, limits, cells, pending):  # no later window reads them
            table.clear()
    return violations
