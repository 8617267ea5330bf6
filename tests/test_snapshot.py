import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import storagesim
from helpers import SMALL_VM, dfs_cluster
from storagesim import cli
from storagesim import scenario as scenario_mod
from storagesim.bench import DfsioSpec, run_dfsio
from storagesim.dfs import DfsConfig
from storagesim.simengine import verify_trace
from storagesim.snapshot import (
    SnapshotPolicy,
    SnapshotRecord,
    network_bytes,
    overhead_comparison,
    recoverable_bytes,
)
from storagesim.scenario import parse_scenario, run_scenario
from storagesim.volumes import Volume

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write_run(sizes, interval_s=100.0, bandwidth_cap=None):
    """One VM writing `sizes` MB files back to back, snapshotted as it goes."""
    state, hdfs = dfs_cluster(n_hosts=1, spec=SMALL_VM)
    return run_dfsio(
        state,
        DfsioSpec(n_files=len(sizes), file_size_mb=sizes[0], mode="write", slots_per_vm=1),
        hdfs,
        dfs_config=DfsConfig(replication_factor=1),
        seed=0,
        snapshots=SnapshotPolicy(interval_s=interval_s, bandwidth_cap=bandwidth_cap),
    )


def _snapshot_flows(trace):
    return [rec for rec in trace.flows.values() if rec.tags.get("kind") == "snapshot"]


def test_read_only_trace_produces_no_snapshots():
    state, hdfs = dfs_cluster(n_hosts=2, spec=SMALL_VM)
    w = run_dfsio(state, DfsioSpec(n_files=2, file_size_mb=100.0, mode="write", slots_per_vm=1), hdfs,
                  dfs_config=DfsConfig(replication_factor=1), seed=0)
    r = run_dfsio(w.state, DfsioSpec(n_files=2, file_size_mb=100.0, mode="read", slots_per_vm=1), hdfs,
                  dfs_config=DfsConfig(replication_factor=1), seed=0, files=w.files,
                  snapshots=SnapshotPolicy(interval_s=10.0))
    assert r.snapshot_records == []
    assert _snapshot_flows(r.trace) == []


def test_write_once_yields_one_snapshot_then_silence():
    # 1000 MB written in the first interval, nothing after
    run = _write_run([1000.0], interval_s=100.0)
    assert len(run.snapshot_records) == 1
    rec = run.snapshot_records[0]
    assert rec.bytes_copied == 1000.0
    assert rec.taken_at == 100.0
    # the volume's dirty counter is reset by the snapshot
    assert run.state.volumes[rec.volume_id].dirty_mb == 0.0


def test_nonpositive_interval_is_rejected():
    for interval_s in (0.0, -10.0):  # the timer would never leave t=0
        with pytest.raises(ValueError, match="interval"):
            _write_run([100.0], interval_s=interval_s)


def test_steady_writes_yield_equal_snapshots_per_interval():
    # one VM, 100 MB/s disk, three 1000 MB files, 10-second intervals. Each
    # snapshot copies exactly what its interval wrote. The transfers read
    # the same disk, so they take a fair share of it and slow later writes:
    # 1000 MB alone, then 500 beside one transfer, 1000/3 beside two, ...
    run = _write_run([1000.0, 1000.0, 1000.0], interval_s=10.0)
    assert [r.bytes_copied for r in run.snapshot_records] == pytest.approx(
        [1000.0, 500.0, 1000 / 3, 1000 / 3, 2000 / 3, 500 / 3], rel=1e-12
    )
    assert [r.taken_at for r in run.snapshot_records] == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    assert math.fsum(r.bytes_copied for r in run.snapshot_records) == pytest.approx(3000.0, rel=1e-12)


def test_snapshot_flows_route_over_management_network():
    run = _write_run([500.0])
    (rec,) = _snapshot_flows(run.trace)
    assert rec.start_time == 100.0
    assert rec.size_mb == 500.0
    assert any(r.startswith("link:") for r in rec.path.resources)
    assert rec.path.resources[-1] == "disk:controller:disk1"
    assert rec.tags["volume_id"] == run.snapshot_records[0].volume_id


def test_bandwidth_cap_limits_snapshot_transfer():
    run = _write_run([500.0], bandwidth_cap=10.0)
    (rec,) = _snapshot_flows(run.trace)
    cap = run.trace.resources[rec.path.resources[0]]
    assert (cap.read_capacity, cap.write_capacity) == (10.0, 10.0)
    # 500 MB at the 10 MB/s cap takes 50 s
    assert rec.end_time - rec.start_time == pytest.approx(50.0)
    assert verify_trace(run.trace) == []


def test_conservation_snapshot_bytes_equal_written_bytes():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        size = rng.choice([64.0, 256.0, 1000.0])
        state, hdfs = dfs_cluster(n_hosts=rng.randint(1, 3), spec=SMALL_VM)
        run = run_dfsio(state, DfsioSpec(n_files=n, file_size_mb=size, mode="write", slots_per_vm=2), hdfs,
                        dfs_config=DfsConfig(replication_factor=1), seed=rng.randrange(1000),
                        snapshots=SnapshotPolicy(interval_s=rng.choice([5.0, 50.0, 3600.0])))
        assert math.fsum(r.bytes_copied for r in run.snapshot_records) == pytest.approx(n * size, rel=1e-9)
        assert all(v.dirty_mb == 0.0 for v in run.state.volumes.values())


def test_recoverable_bytes_cases():
    vol = Volume(id="v1", kind="root", size_gb=32.0, backing=("h01", "disk1"), persistent=False, stored_mb=3000.0)
    records = [SnapshotRecord("v1", taken_at=100.0, bytes_copied=2000.0)]
    assert recoverable_bytes(vol, 50.0, records) == 0.0  # crash before the first snapshot
    assert recoverable_bytes(vol, 150.0, records) == 2000.0  # only the covered 2 GB
    full = [SnapshotRecord("v1", 100.0, 3000.0)]
    assert recoverable_bytes(vol, 150.0, full) == 3000.0  # snapshot covered everything
    assert recoverable_bytes(vol, 50.0, records, quick_reboot=True) == 3000.0  # grace window


def test_write_once_read_five_times_network_bytes():
    # 10 x 1024 MB files: written once locally, read five times.
    def phases(storage):
        state, hdfs = dfs_cluster(n_hosts=5, storage=storage)
        spec = DfsioSpec(n_files=10, file_size_mb=1024.0, mode="write", slots_per_vm=2)
        snapshots = SnapshotPolicy() if storage == "local" else None
        w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=1, snapshots=snapshots)
        traces = [w.trace]
        st = w.state
        for i in range(5):
            r = run_dfsio(st, DfsioSpec(n_files=10, file_size_mb=1024.0, mode="read", slots_per_vm=2), hdfs,
                          dfs_config=DfsConfig(replication_factor=1), seed=1, files=w.files)
            st = r.state
            traces.append(r.trace)
        return st, traces

    _, local_traces = phases("local")
    _, networked_traces = phases("networked")
    local_mb, networked_mb = overhead_comparison(local_traces, networked_traces)
    assert local_mb == 10 * 1024.0  # exactly the written bytes
    assert networked_mb == 6 * 10 * 1024.0  # writes once plus five reads
    assert local_mb < networked_mb


def test_pure_write_workload_is_the_equality_boundary():
    state, hdfs = dfs_cluster(n_hosts=5, storage="networked")
    spec = DfsioSpec(n_files=5, file_size_mb=500.0, mode="write", slots_per_vm=1)
    networked = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=2)

    lstate, lhdfs = dfs_cluster(n_hosts=5, storage="local")
    local = run_dfsio(lstate, spec, lhdfs, dfs_config=DfsConfig(replication_factor=1), seed=2,
                      snapshots=SnapshotPolicy())
    local_mb, networked_mb = overhead_comparison([local.trace], [networked.trace])
    assert local_mb == networked_mb == 2500.0


def test_zero_io_workload_comparison_is_zero():
    assert overhead_comparison([], []) == (0.0, 0.0)


def test_ratio_identity_for_read_write_mix():
    # W written, r*W read back: networked ships W(1+r), local+snapshot ships W
    for reads in (1, 3):
        state, hdfs = dfs_cluster(n_hosts=2, spec=SMALL_VM, storage="networked")
        spec = DfsioSpec(n_files=2, file_size_mb=400.0, mode="write", slots_per_vm=1)
        w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=3)
        traces = [w.trace]
        st = w.state
        for _ in range(reads):
            r = run_dfsio(st, DfsioSpec(n_files=2, file_size_mb=400.0, mode="read", slots_per_vm=1), hdfs,
                          dfs_config=DfsConfig(replication_factor=1), seed=3, files=w.files)
            st, traces = r.state, traces + [r.trace]
        total = math.fsum(network_bytes(t) for t in traces)
        assert total == pytest.approx(800.0 * (1 + reads))


def test_merge_snapshot_events_keeps_time_order():
    run = _write_run([500.0, 500.0], interval_s=4.0)
    events = run.trace.events
    assert [e.time for e in events] == sorted(e.time for e in events)
    markers = [i for i, e in enumerate(events) if e.kind == "snapshot"]
    assert [(events[i].time, events[i].value) for i in markers] == [
        (r.taken_at, r.bytes_copied) for r in run.snapshot_records
    ]
    # a marker follows every event of its instant, the transfer's start included
    for i in markers:
        assert all(e.kind == "snapshot" for e in events[i + 1 :] if e.time == events[i].time)


# -- snapshots inside a full run ------------------------------------------------


def _reference_every_30s(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "reference.yaml").read_text())
    doc["snapshot"]["interval_s"] = 30
    path = tmp_path / "reference_30s.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def _written_at(trace_csv, writes_into, times):
    """MB the trace puts into each volume by each of ``times``, from its rates."""
    pending = sorted(set(times))
    written, rate, at = {}, {}, {}
    now = 0.0

    def advance(t):
        nonlocal now
        for fid, r in rate.items():
            vol = writes_into[fid]
            written[vol] = written.get(vol, 0.0) + r * (t - now)
        now = t

    for line in trace_csv.read_text().splitlines()[1:]:
        t, kind, fid, _rid, value = line.split(",")
        while pending and pending[0] <= float(t):
            advance(pending[0])
            at[pending.pop(0)] = dict(written)
        advance(float(t))
        if fid in writes_into and kind == "rate_change":
            rate[fid] = float(value)
        elif fid in writes_into and kind == "flow_end":
            rate.pop(fid, None)
    for b in pending:
        at[b] = dict(written)
    return at


def test_snapshot_records_match_the_emitted_trace(tmp_path, monkeypatch):
    runs = []

    def keep(*args, **kwargs):
        runs.append(run_scenario(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_scenario", keep)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(_reference_every_30s(tmp_path)), "--out", str(out)]) == 0
    writes_into = {
        fid: rec.tags["volume_id"]
        for fid, rec in runs[0].trace.flows.items()
        if rec.path.direction == "write" and "volume_id" in rec.tags and rec.tags.get("kind") != "snapshot"
    }
    snapshots = json.loads((out / "result.json").read_text())["snapshots"]
    assert len({s["taken_at_s"] for s in snapshots}) > 1
    at = _written_at(out / "trace.csv", writes_into, [0.0] + [s["taken_at_s"] for s in snapshots])
    previous = {}
    for s in snapshots:
        vol, t = s["volume_id"], s["taken_at_s"]
        expected = at[t].get(vol, 0.0) - at[previous.get(vol, 0.0)].get(vol, 0.0)
        assert s["bytes_copied_mb"] == pytest.approx(expected, rel=1e-9), (vol, t)
        previous[vol] = t


def test_one_simulation_per_measured_run(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].mode)
        return run_dfsio(*args, **kwargs)

    monkeypatch.setattr(scenario_mod, "run_dfsio", counted)
    doc = yaml.safe_load((SCENARIOS / "reference.yaml").read_text())
    run_scenario(parse_scenario(doc))
    assert calls == ["write"]
    doc["dfsio"]["mode"] = "mixed"
    calls.clear()
    run_scenario(parse_scenario(doc))
    assert calls == ["write", "mixed"]  # the prep write pass, then the measured run


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    path = _reference_every_30s(tmp_path)
    src = Path(storagesim.__file__).resolve().parent.parent
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-m", "storagesim.cli", "run", "--scenario", str(path), "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
            timeout=120,
        )
        outputs.append({name: (out / name).read_bytes() for name in ("result.json", "trace.csv", "tasks.csv")})
    assert outputs[0] == outputs[1]
