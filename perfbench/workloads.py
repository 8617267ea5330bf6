"""Seeded DFSIO scenarios, one per benchmark workload.

Every workload starts from the knobs of ``scenarios/reference.yaml`` and
changes only the fields listed in ``WORKLOADS``. The scenario seed and the
DFS placement seed are drawn from the benchmark's seed argument, so the
same (workload, seed) pair always yields the same scenario file.
"""

from __future__ import annotations

import copy
import random

# The knobs of scenarios/reference.yaml, restated so the generated
# scenario does not depend on any file outside the benchmark.
REFERENCE = {
    "schema": 1,
    "seed": 42,
    "topology": {
        "reference": {
            "n_hosts": 5,
            "disk_capacity_gb": 1000,
            "disk_read_bw": 100,
            "disk_write_bw": 100,
            "link_bw": 125,
            "local_persistent_gb": 200,
        }
    },
    "vms": [
        {
            "vcpus": 4,
            "ram_gb": 8,
            "root_disk_gb": 32,
            "ephemeral_gb": 20,
            "long_running": True,
            "migratable": False,
            "count": 5,
            "policy": "spread",
        }
    ],
    "storage_config": "local",
    "dfs": {"block_size_mb": 64, "replication_factor": 3, "seed": 7},
    "dfsio": {"n_files": 10, "file_size_mb": 1000, "mode": "write", "map_capacity": 25, "slots_per_vm": 5},
    "snapshot": {"interval_s": 3600, "bandwidth_cap": None, "target": "controller"},
    "prices": {"instance_per_hour": 0.24, "ebs_standard_per_million_ops": 0.10, "ebs_provisioned_per_iops_month": 0.10},
    "volume_size_gb": 100,
    "op_size_kb": 64,
}

# name -> (hosts, one DFS VM each; storage config; dfsio overrides; snapshot interval; why)
WORKLOADS = {
    "local_write_wide": {
        "scenarios_per_run": 4,
        "n_hosts": 16,
        "storage_config": "local",
        "dfsio": {"n_files": 40, "file_size_mb": 1000, "mode": "write", "map_capacity": 25},
        "snapshot_interval_s": 3600,
        "why": "Solver-bound: ~25 tasks each drive a primary and 2 replica flows over shared disks and "
        "links, and run_dfsio runs twice for the snapshot re-simulation.",
    },
    "networked_small_files": {
        "scenarios_per_run": 1,
        "n_hosts": 5,
        "storage_config": "networked",
        "dfsio": {"n_files": 5000, "file_size_mb": 64, "mode": "write", "map_capacity": 25},
        "snapshot_interval_s": 3600,
        "why": "Bypasses the solver: few flows at once, so time goes to per-task path lookups, block "
        "placement, dispatch and per-event trace work.",
    },
    "local_mixed_snapshots": {
        "scenarios_per_run": 4,
        "n_hosts": 10,
        "storage_config": "local",
        "dfsio": {"n_files": 100, "file_size_mb": 256, "mode": "mixed", "read_fraction": 0.5, "map_capacity": 25},
        "snapshot_interval_s": 10,
        "why": "Reads beside writes: prep pass, measured pass and snapshot re-pass with ~80 snapshot "
        "records, locality-aware scheduling and remote reads.",
    },
}


def task_count(name: str, n_files: int) -> int:
    """DFSIO map tasks a run asks for: the measured pass plus any prep write pass."""
    passes = 2 if WORKLOADS[name]["dfsio"]["mode"] in ("read", "mixed") else 1
    return passes * n_files


def scenario_data(name: str, seed: int, part: int = 0) -> dict:
    """Scenario ``part`` of one workload run with this benchmark seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}:{part}")
    data = copy.deepcopy(REFERENCE)
    data["seed"] = rng.randrange(2**31)
    data["dfs"]["seed"] = rng.randrange(2**31)
    data["topology"]["reference"]["n_hosts"] = w["n_hosts"]
    data["vms"][0]["count"] = w["n_hosts"]
    data["storage_config"] = w["storage_config"]
    data["dfsio"].update(w["dfsio"])
    data["snapshot"]["interval_s"] = w["snapshot_interval_s"]
    return data
