"""End-to-end properties of `storagesim run` over generated valid scenarios.

Each example is a small reference cluster with drawn knobs: 1-4 hosts,
disks that may read and write at different speeds, every storage config
and benchmark mode, replication up to the host count, and snapshot
intervals with or without a bandwidth cap. Every run must exit 0 (so its
measured and prep traces pass the audit), write byte-identical outputs
when repeated, and keep the DFSIO identities of tasks.csv exactly.
"""

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from storagesim.cli import main  # noqa: E402

OUTPUTS = ("result.json", "trace.csv", "tasks.csv", "cost.json")


@st.composite
def scenarios(draw) -> dict:
    n_hosts = draw(st.integers(1, 4))
    return {
        "seed": draw(st.integers(0, 2**31 - 1)),
        "topology": {
            "reference": {
                "n_hosts": n_hosts,
                "disk_read_bw": draw(st.integers(20, 200)),
                "disk_write_bw": draw(st.integers(20, 200)),
                "link_bw": draw(st.integers(50, 250)),
                "local_persistent_gb": 200,
            }
        },
        "vms": [{"vcpus": 4, "ram_gb": 8, "root_disk_gb": 32, "ephemeral_gb": 20, "count": n_hosts}],
        "storage_config": draw(st.sampled_from(["local", "networked", "local_persistent"])),
        "dfs": {
            "block_size_mb": draw(st.sampled_from([16, 64, 128])),
            "replication_factor": draw(st.integers(1, min(3, n_hosts))),
            "seed": draw(st.integers(0, 1000)),
        },
        "dfsio": {
            "n_files": draw(st.integers(1, 6)),
            "file_size_mb": draw(st.floats(1.0, 1000.0)),
            "mode": draw(st.sampled_from(["write", "read", "mixed"])),
            "map_capacity": draw(st.integers(1, 6)),
            "slots_per_vm": draw(st.integers(1, 3)),
            "read_fraction": draw(st.sampled_from([0.0, 0.5, 1.0])),
        },
        "snapshot": {
            "interval_s": draw(st.sampled_from([1, 7.5, 60, 3600])),
            "bandwidth_cap": draw(st.sampled_from([None, 5, 50])),
        },
    }


def dfsio_identities(out: Path, n_files: int) -> None:
    """Recompute the DFSIO metrics from tasks.csv and compare them exactly."""
    result = json.loads((out / "result.json").read_text())["result"]
    rows = [line.split(",") for line in (out / "tasks.csv").read_text().splitlines()[1:]]
    assert len(rows) == result["n_files"] == n_files
    size = [float(r[1]) for r in rows]
    elapsed = [float(r[2]) for r in rows]
    rate = [float(r[3]) for r in rows]
    assert rate == [s / e for s, e in zip(size, elapsed)]
    assert result["total_mb"] == math.fsum(size)
    assert result["throughput_mbps"] == float(sum(map(Fraction, size)) / sum(map(Fraction, elapsed)))
    assert result["avg_io_rate_mbps"] == float(sum(map(Fraction, rate)) / n_files)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(scenarios())
def test_generated_scenarios_run_clean_repeat_exactly_and_keep_dfsio_identities(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario = tmp / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        outputs = []
        for name in ("a", "b"):
            assert main(["run", "--scenario", str(scenario), "--out", str(tmp / name)]) == 0
            outputs.append({f: (tmp / name / f).read_bytes() for f in OUTPUTS})
        assert outputs[0] == outputs[1]
        dfsio_identities(tmp / "a", doc["dfsio"]["n_files"])
