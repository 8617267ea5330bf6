"""HDFS-style replicated file layer over placed VMs.

Files split into fixed-size blocks; each block's replicas are placed with
the classic rack-aware policy (first on the writer, second off-rack, third
on the second's rack but another VM). Racks here are virtual: one per
physical host, so the placement guard is exactly the thing that stops a
cloud scheduler from silently stacking all three replicas on one machine.

Single-rack clusters are modeled rather than rejected: placement still
spreads over distinct VMs but emits a ReplicaCoLocationWarning, because
demonstrating the failure mode is the point.

``PlacementTables`` is the one placement context: the DFS members, their
rack map, the candidate pools and each member's ``(vm, rack)`` replica
pair. Members and their hosts stay fixed for a whole cluster, so the
caller builds the tables once and passes them to every file and block it
places, and every block names its replicas by the same pair objects. Each
pool is a sorted list the tables keep and the positions in it to skip, and
one function, ``_draw``, picks from it with one ``randrange``. The draws
are those of ``choice`` over a per-block rebuild of the pool, so the draw
sequence does not depend on how long the tables have been kept.
"""

from __future__ import annotations

import math
import random
import warnings
from typing import NamedTuple

from .errors import InsufficientVmsError, NoFreeSlotsError
from .placement import ClusterState


class ReplicaCoLocationWarning(UserWarning):
    """All replicas share one rack: a host loss would take every copy."""


# The most blocks a scenario's file may split into; HDFS's NameNode bounds a file the same way
# (dfs.namenode.fs-limits.max-blocks-per-file). ``place_file`` builds a replica set per block.
MAX_BLOCKS_PER_FILE = 10_000


class DfsConfig(NamedTuple):
    block_size_mb: float = 64.0
    replication_factor: int = 3
    seed: int = 0


class BlockReplicaSet(NamedTuple):
    replicas: tuple[tuple[str, str], ...]  # (vm id, rack id), writer first
    bytes_mb: float

    def vms(self) -> tuple[str, ...]:
        return tuple(vm for vm, _ in self.replicas)


class DfsFile(NamedTuple):
    blocks: tuple[BlockReplicaSet, ...]

    def holders(self) -> tuple[str, ...]:
        return tuple(sorted({vm for b in self.blocks for vm in b.vms()}))


def _draw(rng: random.Random, items: list[str], skip: tuple[int, ...]) -> str:
    """``rng.choice`` over ``items`` without the entries at ``skip``'s positions, given in increasing order.

    ``randrange(n)`` and ``choice`` over n entries each make one
    ``_randbelow(n)`` draw on CPython 3.10–3.13, so this draws the same entry
    and leaves the same rng state as ``choice`` over that list, which is
    never built.
    """
    i = rng.randrange(len(items) - len(skip))
    for at in skip:
        if i < at:
            break
        i += 1
    return items[i]


class PlacementTables:
    """The members' virtual racks, replica pairs and candidate pools, fixed while members and hosts are.

    Every pool is a sorted list kept here, the members or one rack's
    members, and a tuple of increasing positions in it to leave out. So the
    tables hold one list of all members, one per rack and the members as
    given, however many writers and blocks they place. Replicas past the
    third are sampled from ``others``: the sorted members without the
    chosen ones, a list cut from the sorted members for each block.
    """

    def __init__(self, state: ClusterState, members: list[str]):
        self.members = members
        self.rack_of = rack_of = {vm: state.instances[vm].host_id for vm in members}  # a VM's virtual rack is its host
        self.pair_of = {vm: (vm, rack) for vm, rack in rack_of.items()}  # every block's replica entries
        self._sorted = sorted(members)
        self._at = {vm: i for i, vm in enumerate(self._sorted)}  # member -> its place in the sorted members
        self._on_rack: dict[str, list[str]] = {}  # rack -> its members, sorted
        for vm in self._sorted:
            self._on_rack.setdefault(rack_of[vm], []).append(vm)
        self._at_on_rack = {vm: i for on_rack in self._on_rack.values() for i, vm in enumerate(on_rack)}
        # rack -> its members' places in the sorted members, increasing
        self._rack_at = {rack: tuple(self._at[vm] for vm in on_rack) for rack, on_rack in self._on_rack.items()}
        self.n_racks = len(self._on_rack)

    def second_pool(self, writer: str) -> tuple[list[str], tuple[int, ...]]:
        """Off the writer's rack, or any other member on a single rack: the sorted members and places to skip."""
        if self.n_racks > 1:
            return self._sorted, self._rack_at[self.rack_of[writer]]
        return self._sorted, (self._at[writer],)

    def third_pool(self, writer: str, second: str) -> tuple[list[str], tuple[int, ...]]:
        """Another member on the second replica's rack, or any member not yet chosen: a sorted list and places to skip."""
        rack_of = self.rack_of
        rack = rack_of[second]
        on_rack = self._on_rack[rack]
        if rack_of[writer] != rack:
            if len(on_rack) > 1:
                return on_rack, (self._at_on_rack[second],)
        elif len(on_rack) > 2:
            i, j = self._at_on_rack[writer], self._at_on_rack[second]
            return on_rack, (i, j) if i < j else (j, i)
        i, j = self._at[writer], self._at[second]
        return self._sorted, (i, j) if i < j else (j, i)

    def others(self, chosen: list[str]) -> list[str]:
        """The sorted members not in ``chosen``, cut from the sorted members at the chosen ones' places."""
        items, rest, start = self._sorted, [], 0
        for at in sorted(self._at[vm] for vm in chosen):
            rest += items[start:at]
            start = at + 1
        rest += items[start:]
        return rest


def place_replicas(
    tables: PlacementTables,
    writer_vm: str,
    bytes_mb: float,
    rf: int,
    rng: random.Random,
) -> BlockReplicaSet:
    """Pick rf replica holders for one block, writer first.

    Whenever the members span at least two racks the result does too:
    replica 2 goes off the writer's rack, replica 3 onto replica 2's rack
    but a different VM when one exists. Remaining replicas are drawn
    uniformly from the leftover VMs. Selection is deterministic for a
    given rng state, whether ``tables`` were built for this block or kept
    from earlier ones.
    """
    members, rack_of = tables.members, tables.rack_of
    if writer_vm not in rack_of:  # keyed by the members: a lookup, not a scan of the list
        raise InsufficientVmsError(f"writer {writer_vm!r} is not a DFS member")
    if rf < 1:
        raise ValueError(f"replication factor {rf} < 1")
    if len(members) < rf:
        raise InsufficientVmsError(f"{len(members)} DFS VMs < replication factor {rf}")

    chosen = [writer_vm]
    if rf >= 2:
        chosen.append(_draw(rng, *tables.second_pool(writer_vm)))
    if rf >= 3:
        chosen.append(_draw(rng, *tables.third_pool(writer_vm, chosen[1])))
    if rf > 3:
        chosen.extend(rng.sample(tables.others(chosen), rf - 3))

    if rf >= 2 and tables.n_racks == 1:
        # stable message so the default warning filter collapses repeats
        warnings.warn(
            f"all {rf} replicas share rack {rack_of[writer_vm]!r} (single-rack cluster)",
            ReplicaCoLocationWarning,
            stacklevel=2,
        )
    return BlockReplicaSet(tuple([tables.pair_of[vm] for vm in chosen]), bytes_mb)


def place_file(
    tables: PlacementTables,
    size_mb: float,
    writer_vm: str,
    config: DfsConfig,
    rng: random.Random,
) -> DfsFile:
    """Split a file into blocks and place each block's replica set over ``tables``' members."""
    block_size_mb, rf = config.block_size_mb, config.replication_factor
    blocks = []
    for i in range(max(1, math.ceil(size_mb / block_size_mb))):
        block_mb = min(block_size_mb, size_mb - i * block_size_mb)
        blocks.append(place_replicas(tables, writer_vm, block_mb, rf, rng))
    return DfsFile(tuple(blocks))


def schedule_map_task(task_id: str, slots: dict[str, int], replicas: tuple[str, ...] = ()) -> str:
    """Pick the VM a map task runs on, by locality.

    Prefers a replica holder with a free slot (lowest vm id on ties) and
    falls back to the lowest free VM.
    """
    free = [vm for vm in sorted(slots) if slots[vm] > 0]
    if not free:
        raise NoFreeSlotsError(f"no free slot for task {task_id}")
    holder_set = set(replicas)
    local = [vm for vm in free if vm in holder_set]
    return local[0] if local else free[0]
