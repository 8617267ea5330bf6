"""Deterministic simulator for big-data storage on cloud infrastructure.

Compares DFS clusters backed by VM-local disks against controller-served
networked volumes: rack-aware replica placement over virtual racks,
capacity-checked VM placement, max-min fair I/O contention, DFSIO-style
benchmarking, dirty-byte snapshot overhead, and instance/volume pricing.

Import names from their modules (``storagesim.bench``, ``storagesim.scenario``
and so on). Importing the package loads every module but the CLI.
"""

from . import bench, cost, dfs, errors, placement, scenario, simengine, snapshot, topology, volumes  # noqa: F401

__version__ = "0.1.0"
