"""End-to-end properties of `storagesim run` over generated valid scenarios.

Each example is a small cluster of 1-4 hosts: either the reference
cluster with drawn knobs, or an explicit topology whose hosts sit behind
one or two switches, so a management path crosses two or three links.
Disks may read and write at different speeds; every storage config and
benchmark mode is drawn, with replication up to the host count (at most
4), and snapshot intervals with or without a bandwidth cap. Every run must exit 0 (so its
one trace passes the audit), write byte-identical outputs
when repeated, and keep the DFSIO identities of tasks.csv exactly. Its
snapshot markers must be result.json's records, one for one, each last at
its instant and equal to the transfer it starts.
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

OUTPUTS = ("result.json", "trace.csv", "tasks.csv")


DISK_BW = st.integers(20, 200)
LINK_BW = st.integers(50, 250)


@st.composite
def switched_topologies(draw, n_hosts: int) -> dict:
    """Hosts behind switch sw1 or sw2; the controller hangs off sw1, and a trunk joins sw2 to it."""

    def link(link_id: str, a: str, b: str) -> dict:
        return {"id": link_id, "bandwidth": draw(LINK_BW), "endpoints": [a, b]}

    def disk(disk_id: str, capacity_gb: int) -> dict:
        return {"id": disk_id, "capacity_gb": capacity_gb, "write_bw": draw(DISK_BW), "read_bw": draw(DISK_BW)}

    n_switches = draw(st.integers(1, 2))
    links = [link("up-controller", "controller", "sw1")]
    if n_switches == 2:
        links.append(link("trunk", "sw1", "sw2"))
    hosts = []
    for i in range(1, n_hosts + 1):
        host_id = f"h{i}"
        links.append(link(f"up-{host_id}", host_id, f"sw{draw(st.integers(1, n_switches))}"))
        hosts.append(
            {
                "id": host_id,
                "vcpus": 4,
                "ram_gb": 16,
                "disks": [disk("disk1", 1000)],
                "local_persistent_group": [disk("part1", 200)],
            }
        )
    controller = {"id": "controller", "disks": [disk("disk1", 1000)]}
    return {"hosts": hosts, "controller": controller, "links": links}


@st.composite
def reference_topologies(draw, n_hosts: int) -> dict:
    return {
        "reference": {
            "n_hosts": n_hosts,
            "disk_read_bw": draw(DISK_BW),
            "disk_write_bw": draw(DISK_BW),
            "link_bw": draw(LINK_BW),
            "local_persistent_gb": 200,
        }
    }


@st.composite
def scenarios(draw) -> dict:
    n_hosts = draw(st.integers(1, 4))
    return {
        "seed": draw(st.integers(0, 2**31 - 1)),
        "topology": draw(st.one_of(reference_topologies(n_hosts), switched_topologies(n_hosts))),
        "vms": [{"vcpus": 4, "ram_gb": 8, "root_disk_gb": 32, "ephemeral_gb": 20, "count": n_hosts}],
        "storage_config": draw(st.sampled_from(["local", "networked", "local_persistent"])),
        "dfs": {
            "block_size_mb": draw(st.sampled_from([16, 64, 128])),
            "replication_factor": draw(st.integers(1, n_hosts)),
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


def snapshot_markers(out: Path) -> None:
    """Check trace.csv's snapshot markers against result.json's records and the transfers they start."""
    records = json.loads((out / "result.json").read_text())["snapshots"]
    rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
    markers = [row for row in rows if row[1] == "snapshot"]
    assert [(float(t), vol, float(mb)) for t, _, _, vol, mb in markers] == [
        (r["taken_at_s"], r["volume_id"], r["bytes_copied_mb"]) for r in records
    ]
    for row, after in zip(rows, rows[1:]):  # times never fall, so a marker is last at its instant if the next row is
        if row[1] == "snapshot" and float(after[0]) == float(row[0]):
            assert after[1] == "snapshot", (row, after)
    transfers = {}  # (time text, "snap.<volume>") -> MB text of the snapshot transfer started then
    for t, kind, fid, _, mb in rows:
        if kind == "flow_start" and fid.startswith("snap."):
            stem, k = fid.rsplit(".", 1)
            assert k.isdigit() and (t, stem) not in transfers
            transfers[t, stem] = mb
    for t, _, fid, vol, mb in markers:
        assert fid == f"snap.{vol}" and transfers[t, fid] == mb
    assert len(transfers) == len(markers)


@settings(max_examples=50)
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
        snapshot_markers(tmp / "a")
