import heapq
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
from helpers import SMALL_VM, TraceEvent, dfs_cluster, start_time
from oracles import network_bytes_reference
from test_golden import GOLDEN
from storagesim import cli
from storagesim import scenario as scenario_mod
from storagesim.bench import DfsioSpec, run_dfsio
from storagesim.dfs import DfsConfig
from storagesim.simengine import FlowRecord, SimTrace, verify_trace
from storagesim.snapshot import (
    SnapshotPolicy,
    SnapshotRecord,
    merge_snapshot_events,
    network_bytes,
    recoverable_bytes,
)
from storagesim.scenario import parse_scenario, run_scenario
from storagesim.volumes import ResourcePath, Routes

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
    r = run_dfsio(state, DfsioSpec(n_files=2, file_size_mb=100.0, mode="read", slots_per_vm=1), hdfs,
                  dfs_config=DfsConfig(replication_factor=1), seed=0,
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
    assert start_time(run.trace, rec.flow_id) == 100.0
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
    assert rec.end_time - start_time(run.trace, rec.flow_id) == pytest.approx(50.0)
    assert verify_trace(run.trace) == []
    # each take adds its own cap resource mid-run, and every transfer stays under it
    run = _write_run([500.0] * 3, interval_s=4.0, bandwidth_cap=10.0)
    snaps = {rec.flow_id for rec in _snapshot_flows(run.trace)}
    rates = [value for _, kind, fid, _, value in run.trace.events if kind == "rate_change" and fid in snaps]
    assert len(snaps) >= 3 and max(rates) <= 10.0
    assert verify_trace(run.trace) == []


@pytest.mark.parametrize("cap", [None, 10.0])
def test_snapshots_of_one_volume_share_one_path_unless_capped(cap):
    state, hdfs = dfs_cluster(n_hosts=3, spec=SMALL_VM)
    run = run_dfsio(state, DfsioSpec(n_files=6, file_size_mb=500.0, mode="write", slots_per_vm=1), hdfs,
                    dfs_config=DfsConfig(replication_factor=1), seed=0,
                    snapshots=SnapshotPolicy(interval_s=4.0, bandwidth_cap=cap))
    by_volume = {}
    for rec in _snapshot_flows(run.trace):
        by_volume.setdefault(rec.tags["volume_id"], []).append(rec)
    assert len(by_volume) == 3 and min(len(recs) for recs in by_volume.values()) > 1
    routes = Routes(state, hdfs)
    for vol_id, recs in by_volume.items():
        host, disk = state.volumes[vol_id].backing
        route = (f"disk:{host}:{disk}", f"link:mgmt-{host}", "link:mgmt-controller", "disk:controller:disk1")
        assert routes["snapshot", host, disk].resources == route
        if cap is None:  # one path object, equal to the table's
            assert len({id(rec.path) for rec in recs}) == 1
            assert recs[0].path == routes["snapshot", host, disk]
        else:  # each transfer crosses its own cap resource ahead of the same route
            assert [rec.path.resources for rec in recs] == [(f"cap:{rec.flow_id}",) + route for rec in recs]
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


def test_recoverable_bytes_cases():
    records = [SnapshotRecord("v1", taken_at=100.0, bytes_copied=2000.0)]
    assert recoverable_bytes("v1", 50.0, records) == 0.0  # crash before the first snapshot
    assert recoverable_bytes("v1", 150.0, records) == 2000.0  # only the covered 2 GB
    full = [SnapshotRecord("v1", 100.0, 3000.0)]
    assert recoverable_bytes("v1", 150.0, full) == 3000.0  # snapshot covered everything


def test_write_once_read_five_times_network_bytes():
    # 10 x 1024 MB files: written once locally, read five times.
    def phases(storage):
        state, hdfs = dfs_cluster(n_hosts=5, storage=storage)
        spec = DfsioSpec(n_files=10, file_size_mb=1024.0, mode="write", slots_per_vm=2)
        snapshots = SnapshotPolicy() if storage == "local" else None
        w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=1, snapshots=snapshots)
        traces = [w.trace]
        for i in range(5):
            r = run_dfsio(state, DfsioSpec(n_files=10, file_size_mb=1024.0, mode="read", slots_per_vm=2), hdfs,
                          dfs_config=DfsConfig(replication_factor=1), seed=1)
            traces.append(r.trace)
        return traces

    local_traces = phases("local")
    networked_traces = phases("networked")
    local_mb = math.fsum(network_bytes(t) for t in local_traces)
    networked_mb = math.fsum(network_bytes(t) for t in networked_traces)
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
    assert network_bytes(local.trace) == network_bytes(networked.trace) == 2500.0


def test_ratio_identity_for_read_write_mix():
    # W written, r*W read back: networked ships W(1+r), local+snapshot ships W
    for reads in (1, 3):
        state, hdfs = dfs_cluster(n_hosts=2, spec=SMALL_VM, storage="networked")
        spec = DfsioSpec(n_files=2, file_size_mb=400.0, mode="write", slots_per_vm=1)
        w = run_dfsio(state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=3)
        traces = [w.trace]
        for _ in range(reads):
            r = run_dfsio(state, DfsioSpec(n_files=2, file_size_mb=400.0, mode="read", slots_per_vm=1), hdfs,
                          dfs_config=DfsConfig(replication_factor=1), seed=3)
            traces.append(r.trace)
        total = math.fsum(network_bytes(t) for t in traces)
        assert total == pytest.approx(800.0 * (1 + reads))


def test_network_bytes_equals_the_reference_on_every_golden_trace():
    for name, (doc, _digests) in sorted(GOLDEN.items()):
        run = run_scenario(parse_scenario(doc))
        assert network_bytes(run.trace) == network_bytes_reference(run.trace), name
        assert run.network_mb == network_bytes_reference(run.trace)


def test_network_bytes_equals_the_reference_on_hand_built_traces():
    over_link = ResourcePath(("disk:h01:d1", "link:l1", "disk:ctl:d1"), "write")
    paths = [
        over_link,
        ResourcePath(over_link.resources, "read"),  # a distinct object with an equal resource tuple
        ResourcePath(("link:l2",), "read"),
        ResourcePath(("disk:h01:d1",), "write"),
        ResourcePath(("disk:h02:d1", "disk:h02:d2"), "read"),
    ]
    fixed = SimTrace(
        flows={
            "a": FlowRecord("a", over_link, 0.1, 1.0, {}),
            "b": FlowRecord("b", over_link, 0.2, 2.0, {}),
            "c": FlowRecord("c", over_link, 1e16, None, {}),  # unfinished: not counted
            "d": FlowRecord("d", paths[3], 5.0, 1.0, {}),  # no link
        }
    )
    assert network_bytes(fixed) == network_bytes_reference(fixed) == 0.1 + 0.2
    rng = random.Random(31)
    sizes = [0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 64.0, 1e16]
    for _ in range(200):
        flows = {}
        for i in range(rng.randint(0, 25)):
            path = rng.choice(paths)
            if rng.random() < 0.3:
                path = ResourcePath(path.resources, path.direction)  # equal to a shared path, not the same object
            end = None if rng.random() < 0.2 else rng.uniform(0.0, 100.0)
            flows[f"f{i}"] = FlowRecord(f"f{i}", path, rng.choice(sizes), end, {})
        trace = SimTrace(flows=flows)
        assert network_bytes(trace) == network_bytes_reference(trace)


def test_merge_snapshot_events_keeps_time_order():
    run = _write_run([500.0, 500.0], interval_s=4.0)
    events = run.trace.events
    times = [t for t, _, _, _, _ in events]
    assert times == sorted(times)
    markers = [i for i, (_, kind, _, _, _) in enumerate(events) if kind == "snapshot"]
    assert [(events[i][0], events[i][4]) for i in markers] == [  # (time, value)
        (r.taken_at, r.bytes_copied) for r in run.snapshot_records
    ]
    # a marker follows every event of its instant, the transfer's start included
    for i in markers:
        assert all(kind == "snapshot" for t, kind, _, _, _ in events[i + 1 :] if t == events[i][0])


def test_merge_snapshot_events_equals_a_stable_merge_by_time():
    rng = random.Random(5)
    for _ in range(50):
        times = sorted(rng.choice([0.0, 1.0, 2.5, 4.0, 7.0]) for _ in range(rng.randint(0, 12)))
        events = [TraceEvent(t, "flow_start", f"f{i}", "", 1.0) for i, t in enumerate(times)]
        # markers before, between, at and after the events' instants; several per instant
        taken = sorted(rng.choice([-1.0, 0.0, 1.0, 3.0, 4.0, 9.0]) for _ in range(rng.randint(0, 6)))
        records = [SnapshotRecord(f"v{i}", t, 1.0) for i, t in enumerate(taken)]
        markers = [
            TraceEvent(r.taken_at, "snapshot", f"snap.{r.volume_id}", r.volume_id, r.bytes_copied) for r in records
        ]
        want = list(heapq.merge(events, markers, key=lambda e: e.time))
        trace = SimTrace(events=list(events))
        assert merge_snapshot_events(trace, records) == len(records)
        assert trace.events == want


def test_merge_snapshot_events_in_windows_equals_a_stable_merge_by_time():
    rng = random.Random(32)
    ends_a_window = 0  # markers whose instant is the last event time of some window
    for _ in range(300):
        times = sorted(rng.choice([0.0, 1.0, 2.5, 4.0, 7.0]) for _ in range(rng.randint(0, 12)))
        events = [TraceEvent(t, "flow_start", f"f{i}", "", 1.0) for i, t in enumerate(times)]
        taken = sorted(rng.choice([-1.0, 0.0, 1.0, 3.0, 4.0, 9.0]) for _ in range(rng.randint(0, 6)))
        records = [SnapshotRecord(f"v{i}", t, 1.0) for i, t in enumerate(taken)]
        markers = [
            TraceEvent(r.taken_at, "snapshot", f"snap.{r.volume_id}", r.volume_id, r.bytes_copied) for r in records
        ]
        want = list(heapq.merge(events, markers, key=lambda e: e.time))
        cuts = sorted(rng.sample(range(1, len(events)), rng.randint(0, max(0, len(events) - 1)))) if events else []
        bounds = [0, *cuts, len(events)]
        got, start = [], 0
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            window = SimTrace(events=events[lo:hi])
            last = i == len(bounds) - 2
            if window.events:
                ends_a_window += sum(r.taken_at == window.events[-1].time for r in records)
            start = merge_snapshot_events(window, records, start, last)
            got += window.events
        assert start == len(records)
        assert got == want, (times, taken, cuts)
    assert ends_a_window > 100


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
    for mode in ("write", "read", "mixed"):  # read and mixed runs place their input files without a write pass
        doc["dfsio"]["mode"] = mode
        calls.clear()
        run_scenario(parse_scenario(doc))
        assert calls == [mode]


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
