"""Correctness checks and model outputs for one ``storagesim run``.

A run passes when the CLI exited 0 (so the measured trace passed its
audit), every prep-pass trace also passes ``verify_trace``, and the DFSIO
identities recomputed from ``tasks.csv`` hold exactly. The caller adds the
last condition: the digest repeats across runs of one scenario.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

DIGESTED = ("result.json", "trace.csv", "tasks.csv")


def output_digest(out_dir: Path) -> str:
    """sha256 over result.json, trace.csv and tasks.csv, each prefixed by its name."""
    h = hashlib.sha256()
    for name in DIGESTED:
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def dfsio_problems(tasks_csv: Path, result: dict, n_tasks: int) -> list[str]:
    """Recompute the DFSIO metrics from tasks.csv and compare exactly."""
    rows = [line.split(",") for line in tasks_csv.read_text().splitlines()[1:]]
    problems = []
    if len(rows) != n_tasks or result["n_files"] != n_tasks:
        problems.append(f"tasks.csv has {len(rows)} rows, result.json {result['n_files']}, workload asks {n_tasks}")
    if not rows:
        return problems
    size = [Fraction(float(r[1])) for r in rows]
    elapsed = [Fraction(float(r[2])) for r in rows]
    rate = [float(r[3]) for r in rows]
    if any(r != float(s) / float(e) for r, s, e in zip(rate, size, elapsed)):
        problems.append("a task rate differs from file_size_mb / elapsed_s")
    throughput = float(sum(size) / sum(elapsed))
    if throughput != result["throughput_mbps"]:
        problems.append(f"throughput {result['throughput_mbps']!r} != sum(size)/sum(elapsed) {throughput!r}")
    avg = float(sum(Fraction(r) for r in rate) / len(rate))
    if avg != result["avg_io_rate_mbps"]:
        problems.append(f"avg_io_rate {result['avg_io_rate_mbps']!r} != mean task rate {avg!r}")
    return problems


def trace_figures(trace_csv: Path, run) -> dict:
    """Event counts of the written trace, and the snapshot-record mismatch.

    The mismatch is, summed over snapshot records, |record MB - MB the
    written trace puts into that volume over the record's interval|. Bytes
    come from integrating the trace's piecewise-constant rates; which flow
    writes which volume comes from the run's flow tags (snapshot copies are
    not writes into the volume they copy).
    """
    writes_into = {
        fid: rec.tags["volume_id"]
        for fid, rec in run.trace.flows.items()
        if rec.path.direction == "write" and "volume_id" in rec.tags and rec.tags.get("kind") != "snapshot"
    }
    boundaries = sorted({r.taken_at for r in run.snapshot_records})
    written: dict[str, float] = defaultdict(float)  # volume -> MB written so far
    writers: dict[str, dict[str, float]] = defaultdict(dict)  # volume -> {flow: rate}
    vol_rate: dict[str, float] = {}
    at_boundary: dict[float, dict[str, float]] = {0.0: {}}
    now = 0.0

    def advance(t: float) -> None:
        nonlocal now
        if t > now:
            for vol, r in vol_rate.items():
                written[vol] += r * (t - now)
            now = t

    events = rate_changes = flows = active = peak = 0
    b = 0
    with open(trace_csv) as fh:
        next(fh)
        for line in fh:
            t_s, kind, fid, _rid, value = line.rstrip("\n").split(",")
            t = float(t_s)
            events += 1
            while b < len(boundaries) and boundaries[b] <= t:
                advance(boundaries[b])
                at_boundary[boundaries[b]] = dict(written)
                b += 1
            advance(t)
            if kind == "flow_start":
                flows += 1
                active += 1
                peak = max(peak, active)
                continue
            if kind == "flow_end":
                active -= 1
            elif kind == "rate_change":
                rate_changes += 1
            else:
                continue
            vol = writes_into.get(fid)
            if vol is not None:
                if kind == "flow_end":
                    writers[vol].pop(fid, None)
                else:
                    writers[vol][fid] = float(value)
                vol_rate[vol] = math.fsum(writers[vol].values())
    for boundary in boundaries[b:]:
        at_boundary[boundary] = dict(written)

    mismatch = 0.0
    covered: dict[str, float] = defaultdict(float)
    for r in sorted(run.snapshot_records, key=lambda r: (r.taken_at, r.volume_id)):
        mb = at_boundary[r.taken_at].get(r.volume_id, 0.0) - at_boundary[covered[r.volume_id]].get(r.volume_id, 0.0)
        mismatch += abs(r.bytes_copied - mb)
        covered[r.volume_id] = r.taken_at
    return {
        "counts": {
            "simengine.events": events,
            "simengine.rate_changes": rate_changes,
            "simengine.flows": flows,
            "simengine.peak_active_flows": peak,
            "snapshot.records": len(run.snapshot_records),
        },
        "snapshot_mismatch_mb": mismatch,
    }


def check_run(rc: int, out_dir: Path, run, n_tasks: int) -> dict:
    """Problems found, plus the model outputs and trace counts of a finished run."""
    if rc != 0 or run is None:
        return {"problems": [f"storagesim run exited {rc}"]}
    from storagesim.simengine import verify_trace

    problems = [
        f"prep trace {i}: {v}" for i, trace in enumerate(run.prep_traces) for v in verify_trace(trace)
    ]
    doc = json.loads((out_dir / "result.json").read_text())
    problems += dfsio_problems(out_dir / "tasks.csv", doc["result"], n_tasks)
    figures = trace_figures(out_dir / "trace.csv", run)
    return {
        "problems": problems,
        "trace_counts": figures["counts"],
        "model": {
            "model.finished_at_s": doc["result"]["finished_at_s"],
            "model.throughput_mbps": doc["result"]["throughput_mbps"],
            "model.network_mb": doc["network_mb"],
            "model.io_ops": doc["io_ops"],
            "model.cost_usd": doc["cost"]["total_usd"],
            "model.snapshot_mismatch_mb": figures["snapshot_mismatch_mb"],
            "model.digest": output_digest(out_dir),
        },
    }
