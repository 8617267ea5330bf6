"""HDFS-style replicated file layer over placed VMs.

Files split into fixed-size blocks; each block's replicas are placed with
the classic rack-aware policy (first on the writer, second off-rack, third
on the second's rack but another VM). Racks here are virtual: one per
physical host, so the placement guard is exactly the thing that stops a
cloud scheduler from silently stacking all three replicas on one machine.

Single-rack clusters are modeled rather than rejected: placement still
spreads over distinct VMs but emits a ReplicaCoLocationWarning, because
demonstrating the failure mode is the point.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

from .errors import InsufficientVmsError, NoFreeSlotsError
from .placement import RUNNING, ClusterState


class ReplicaCoLocationWarning(UserWarning):
    """All replicas share one rack: a host loss would take every copy."""


@dataclass(frozen=True)
class DfsConfig:
    block_size_mb: float = 64.0
    replication_factor: int = 3
    seed: int = 0


@dataclass(frozen=True)
class BlockReplicaSet:
    block_id: str
    replicas: tuple[tuple[str, str], ...]  # (vm id, rack id), writer first
    bytes_mb: float

    def vms(self) -> tuple[str, ...]:
        return tuple(vm for vm, _ in self.replicas)

    def racks(self) -> set[str]:
        return {rack for _, rack in self.replicas}


@dataclass(frozen=True)
class DfsFile:
    name: str
    size_mb: float
    block_size_mb: float
    replication_factor: int
    blocks: tuple[BlockReplicaSet, ...]

    def holders(self) -> tuple[str, ...]:
        return tuple(sorted({vm for b in self.blocks for vm in b.vms()}))


def dfs_members(state: ClusterState) -> list[str]:
    """Running VMs participating in the DFS, in id order."""
    return sorted(vm.id for vm in state.instances.values() if vm.state == RUNNING)


def place_replicas(
    state: ClusterState,
    writer_vm: str,
    block_id: str,
    bytes_mb: float,
    rf: int,
    rng: random.Random,
    members: list[str] | None = None,
) -> BlockReplicaSet:
    """Pick rf replica holders for one block, writer first.

    Whenever the members span at least two racks the result does too:
    replica 2 goes off the writer's rack, replica 3 onto replica 2's rack
    but a different VM when one exists. Remaining replicas are drawn
    uniformly from the leftover VMs. Selection is deterministic for a
    given rng state.
    """
    if members is None:
        members = dfs_members(state)
    if writer_vm not in members:
        raise InsufficientVmsError(f"writer {writer_vm!r} is not a DFS member")
    if rf < 1:
        raise ValueError(f"replication factor {rf} < 1")
    if len(members) < rf:
        raise InsufficientVmsError(f"{len(members)} DFS VMs < replication factor {rf}")

    rack_of = {vm: state.instances[vm].host_id for vm in members}  # a VM's virtual rack is its host
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
        # stable message so the default warning filter collapses repeats
        warnings.warn(
            f"all {rf} replicas share rack {rack_of[writer_vm]!r} (single-rack cluster)",
            ReplicaCoLocationWarning,
            stacklevel=2,
        )
    return BlockReplicaSet(
        block_id=block_id,
        replicas=tuple((vm, rack_of[vm]) for vm in chosen),
        bytes_mb=bytes_mb,
    )


def place_file(
    state: ClusterState,
    name: str,
    size_mb: float,
    writer_vm: str,
    config: DfsConfig,
    rng: random.Random,
    members: list[str] | None = None,
) -> DfsFile:
    """Split a file into blocks and place each block's replica set."""
    n_blocks = max(1, math.ceil(size_mb / config.block_size_mb))
    blocks = []
    for i in range(n_blocks):
        block_bytes = min(config.block_size_mb, size_mb - i * config.block_size_mb)
        blocks.append(
            place_replicas(
                state,
                writer_vm,
                block_id=f"{name}:b{i:04d}",
                bytes_mb=block_bytes,
                rf=config.replication_factor,
                rng=rng,
                members=members,
            )
        )
    return DfsFile(
        name=name,
        size_mb=size_mb,
        block_size_mb=config.block_size_mb,
        replication_factor=config.replication_factor,
        blocks=tuple(blocks),
    )


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


def rack_spread(file: DfsFile) -> int:
    """Minimum number of distinct racks any block's replicas span."""
    return min(len(b.racks()) for b in file.blocks)
