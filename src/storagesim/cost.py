"""Price a benchmark run: instance hours plus per-operation volume charges.

The default prices are the 2013 North Virginia numbers the comparison was
built on: $0.24/hour for an m1.large and $0.10 per million I/O operations
on standard networked volumes. Local storage is bundled into the instance
price, which is the entire cost case for it: a one-hour run doing a
million I/O operations costs $0.34 on networked volumes and $0.24 on local
disks, 29% less. Only networked-volume flows count as billed operations,
so one rule prices every storage config, and a report need not name the
config it prices: the run that holds it does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .simengine import SimTrace

KB_PER_MB = 1024.0
DEFAULT_OP_SIZE_KB = 64.0


class PriceTable(NamedTuple):
    instance_per_hour: float = 0.24
    ebs_standard_per_million_ops: float = 0.10


class CostReport(NamedTuple):
    instance_cost: float
    storage_cost: float

    @property
    def total(self) -> float:
        return self.instance_cost + self.storage_cost

    def to_dict(self) -> dict:
        return {
            "instance_cost_usd": self.instance_cost,
            "storage_cost_usd": self.storage_cost,
            "total_usd": self.total,
        }


def compute_cost(instance_hours: float, io_ops: int, prices: PriceTable) -> CostReport:
    """Price ``instance_hours`` (aggregate, rounded up to whole hours) and ``io_ops``.

    Every operation is billed at the networked-volume rate; a local run
    performs none, since ``count_io_ops`` counts networked-volume flows only.
    """
    instance_cost = math.ceil(instance_hours) * prices.instance_per_hour
    storage_cost = (io_ops / 1_000_000) * prices.ebs_standard_per_million_ops
    return CostReport(instance_cost=instance_cost, storage_cost=storage_cost)


def savings(cheap: CostReport, expensive: CostReport) -> float:
    """Fraction saved: (expensive - cheap) / expensive."""
    if expensive.total <= 0:
        raise ValueError("expensive total must be positive")
    return (expensive.total - cheap.total) / expensive.total


def count_io_ops(trace: SimTrace, op_size_kb: float = DEFAULT_OP_SIZE_KB) -> int:
    """I/O operations implied by the networked-volume flows of a trace.

    Monitoring-grade op counts are not simulated; instead each completed
    flow that touched a networked volume contributes ceil(bytes/op_size).
    """
    if op_size_kb <= 0:
        raise ValueError(f"op size must be positive, got {op_size_kb}")
    ops = 0
    for rec in trace.flows.values():
        if rec.end_time is None or rec.tags.get("volume_kind") != "networked":
            continue
        ops += math.ceil(rec.size_mb * KB_PER_MB / op_size_kb)
    return ops
