"""storagesim benchmark: seeded DFSIO workloads, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop of one. Each repetition is one fresh process
that runs one scenario, and only one runs at a time. Every timing is host
time; wall_s and setup_s are scaled to a reference host speed (see
PROBE_REF_S). Workloads and their reasons are in ``workloads.py``; the
recorded baseline and output digests are in ``baseline.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run beside untraced runs of the same
scenario. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, scenario_data, task_count  # noqa: E402

WORKER = HERE / "worker.py"
WORK_DIR = HERE / "_work"
BASELINE = HERE / "baseline.json"

# The string-hash seed sets set and dict layout, and with it the simulator's
# speed: one 40-file local_write_wide scenario took 1.59-2.40 s under random
# hash seeds and 1.86-1.92 s (one outlier aside) under a fixed one, on a
# 2-vCPU VM. Every run cycles through the same hash seeds, so that this
# variation is the same in every run instead of adding to the spread.
HASH_SEEDS = (1, 2, 3, 4)
SETUP_SAMPLES_PER_ROUND = 2
# Host speed on a shared VM swings for minutes at a time: over ten 30 s runs
# of one workload, wall_s ranged from 1.40 to 2.39 s, and setup_s moved in
# step with it. Each round therefore also times probe processes
# (``worker.probe``: start an interpreter and import standard-library code,
# no storagesim), and wall_s and setup_s are scaled to a host on which the
# probe's median takes PROBE_REF_S.
PROBE_REF_S = 0.145
CHILD_TIMEOUT_S = 60
GIVE_UP_S = 150  # seconds; with --seconds 50 or less, a run that gives up ends within three minutes

END_TO_END = {"wall_s": "s", "setup_s": "s", "tasks_per_s": "tasks/s", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run: ".s" is inclusive host seconds,
# ".self_s" the same minus time in traced children, ".calls" a count. A
# function that some workload never calls is timed only inside its layer's
# total, so that no reported time is exactly zero on every run.
PER_LAYER = {
    name: ("s" if name.endswith(("_s", ".s")) else "ratio" if name.endswith("_frac") else "count")
    for name in (
        "cli.main.s",
        "cli.main.self_s",
        "scenario.load_scenario.s",
        "scenario.build_state.s",
        "scenario.run_scenario.self_s",
        "placement.place_vm.calls",
        "placement.place_vm.s",
        "placement.ClusterState.clone.calls",
        "placement.ClusterState.clone.s",
        "volumes.s",
        "volumes.attach_volume.calls",
        "volumes.resolve_io_path.calls",
        "volumes.resolve_io_path.self_s",
        "topology.management_path.calls",
        "topology.management_path.s",
        "topology.management_path.distinct_frac",
        "dfs.s",
        "dfs.place_file.calls",
        "dfs.place_file.s",
        "dfs.schedule_map_task.calls",
        "bench.run_dfsio.calls",
        "bench.run_dfsio.self_s",
        "bench.on_complete.calls",
        "bench.on_complete.self_s",
        "simengine.Simulation.run.calls",
        "simengine.Simulation.run.self_s",
        "simengine.allocate_rates.calls",
        "simengine.allocate_rates.s",
        "simengine.allocate_rates.mean_flows",
        "simengine.allocate_rates.changed_frac",
        "simengine.add_flow.calls",
        "simengine.add_flow.s",
        "simengine.verify_trace.s",
        "simengine.SimTrace.write_csv.s",
        "simengine.events",
        "simengine.rate_changes",
        "simengine.flows",
        "simengine.peak_active_flows",
        "snapshot.s",
        "snapshot.plan_snapshots.calls",
        "snapshot.merge_snapshot_events.calls",
        "snapshot.network_bytes.s",
        "snapshot.records",
        "cost.count_io_ops.s",
        "cost.compute_cost.s",
        "trace.overhead_frac",
        "trace.unattributed_s",
    )
}


def schedule(rounds: int, k: int) -> tuple[int, int]:
    """Scenario and hash-seed index of round ``rounds`` of a run with ``k`` scenarios.

    Round r runs scenario i = r mod k under hash seed i + r // k (mod 4).
    With k = 1 or k = 4, each cycle of lcm(k, 4) rounds uses every hash seed
    equally often, and each repetition of a scenario moves to the next hash
    seed, so its digest is compared across hash seeds.
    """
    i = rounds % k
    return i, (i + rounds // k) % len(HASH_SEEDS)


def stop_rule(rounds: int, elapsed: float, seconds: float, cycle: int, min_rounds: int) -> str:
    """What the run does after ``rounds`` rounds in ``elapsed`` seconds.

    It stops after whole cycles, once the run has done ``min_rounds``
    rounds and another cycle would overrun ``seconds``. It gives up once
    ``elapsed`` is far past ``seconds``: past 150 s, or three times
    ``seconds`` for a run asked to measure longer than 50 s.
    """
    if rounds >= min_rounds and rounds % cycle == 0 and (rounds + cycle) * elapsed / rounds > seconds:
        return "stop"
    if elapsed > max(GIVE_UP_S, 3 * seconds):
        return "give up"
    return "go"


def _spawn(args: list[str], hash_seed: int) -> dict | None:
    """Run the worker in a fresh process; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=os.environ | {"PYTHONHASHSEED": str(hash_seed)},
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {args}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed ({proc.returncode}): {args}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Runs:
    """Repetitions of the run's scenarios, and what their checks found."""

    def __init__(self, scenarios: list[Path], n_files: int, work: Path):
        self.scenarios = scenarios
        self.n_files = n_files
        self.work = work
        self.results: dict[bool, list[list[dict]]] = {False: [[] for _ in scenarios], True: [[] for _ in scenarios]}
        self.setup_samples: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, tag: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{tag}: {p}" for p in problems]

    def setup(self, i: int, hash_seed: int) -> None:
        self.attempted += 1
        out = _spawn(["setup", str(self.scenarios[i]), str(time.monotonic_ns())], hash_seed)
        if out is None:
            self._fail(f"setup-{self.attempted}", ["worker process failed"])
        else:
            self.setup_samples.append(out["setup_s"])

    def probe(self, hash_seed: int) -> None:
        self.attempted += 1
        out = _spawn(["probe", str(time.monotonic_ns())], hash_seed)
        if out is None:
            self._fail(f"probe-{self.attempted}", ["worker process failed"])
        else:
            self.probes.append(out["probe_s"])

    def run(self, i: int, hash_seed: int, traced: bool) -> None:
        self.attempted += 1
        tag = f"s{i}-{self.attempted}"
        args = ["run", str(self.scenarios[i]), str(self.work / tag), str(self.n_files)]
        if traced:
            args += ["--trace", str(self.work / f"spans-s{i}.json")]  # the scenario's last traced run
        out = _spawn(args, hash_seed) or {"problems": ["worker process failed"]}
        shutil.rmtree(self.work / tag, ignore_errors=True)  # trace.csv files are large
        earlier = self.results[False][i] + self.results[True][i]
        if not out["problems"] and earlier and out["model"]["model.digest"] != earlier[0]["model"]["model.digest"]:
            out["problems"] = ["model.digest differs from an earlier run of the same scenario"]
        if out["problems"]:
            self._fail(tag, out["problems"])
        else:
            self.results[traced][i].append(out)

    def complete(self, traced: bool) -> bool:
        runs_done = all(self.results[False]) and (not traced or all(self.results[True]))
        return bool(self.setup_samples) and bool(self.probes) and runs_done

    def aggregate(self, value, traced: bool = False) -> float:
        """Per scenario the median over its repetitions, then the mean over scenarios."""
        return statistics.fmean(statistics.median(value(r) for r in reps) for reps in self.results[traced])

    def digest(self) -> str:
        h = hashlib.sha256()
        for reps in self.results[False]:
            h.update(reps[0]["model"]["model.digest"].encode())
        return h.hexdigest()


def _recorded_digest(name: str, seed: int) -> str | None:
    try:
        doc = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    return doc.get("workloads", {}).get(name, {}).get("digests", {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time for the repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "storagesim" / "__init__.py").is_file():
        print(f"error: no storagesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name = args.workload
    workload = WORKLOADS[name]
    n_files = workload["dfsio"]["n_files"]
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenarios = []
    for i in range(workload["scenarios_per_run"]):
        data = scenario_data(name, args.seed, i)
        path = work / f"scenario-{i}.yaml"
        path.write_text(json.dumps(data, indent=2) + "\n")  # JSON is YAML
        scenarios.append(path)

    # Every scenario runs at least twice: a traced run repeats its scenario
    # under the next hash seed.
    runs = Runs(scenarios, n_files, work)
    cycle = math.lcm(len(scenarios), len(HASH_SEEDS))
    min_rounds = cycle if args.trace else max(cycle, 2 * len(scenarios))
    started = time.monotonic()
    rounds = 0
    while True:
        i, j = schedule(rounds, len(scenarios))
        for _ in range(SETUP_SAMPLES_PER_ROUND):
            runs.setup(i, HASH_SEEDS[j])
            runs.probe(HASH_SEEDS[j])
        runs.run(i, HASH_SEEDS[j], traced=False)
        if args.trace:
            runs.run(i, HASH_SEEDS[(j + 1) % len(HASH_SEEDS)], traced=True)
        rounds += 1
        step = stop_rule(rounds, time.monotonic() - started, args.seconds, cycle, min_rounds)
        if step == "stop":
            break
        if step == "give up":
            print(f"error: gave up after {rounds} round(s)", file=sys.stderr)
            return 1

    if not runs.complete(bool(args.trace)):
        print("error: a scenario has no successful repetition", file=sys.stderr)
        for p in runs.problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    print(f"workload {name} seed {args.seed}: {len(scenarios)} scenario(s), {rounds} round(s), "
          f"{runs.attempted} process(es), {runs.failed} failed")
    for p in runs.problems:
        print(f"FAILED {p}")
    for traced in (False, True):
        for i, reps in enumerate(runs.results[traced]):
            if reps:
                label = "traced " if traced else ""
                print(f"scenario {i} {label}wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in reps))
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in runs.setup_samples))
    probe_s = statistics.median(runs.probes)
    host_wall_s = runs.aggregate(lambda r: r["wall_s"])
    host_setup_s = statistics.median(runs.setup_samples)
    print(f"{'host.probe_s':<48} {probe_s:>16.6g} s  (median of {len(runs.probes)} processes)")
    print(f"{'host.wall_s':<48} {host_wall_s:>16.6g} s  (unscaled)")
    print(f"{'host.setup_s':<48} {host_setup_s:>16.6g} s  (unscaled)")

    # Per-layer figures stay in host seconds of the traced runs.
    wall_s = host_wall_s * PROBE_REF_S / probe_s
    if args.trace:
        values = {
            key: runs.aggregate(lambda r, key=key: r["layers"][key], traced=True)
            for key in PER_LAYER
            if key != "trace.overhead_frac"
        }
        values["trace.overhead_frac"] = runs.aggregate(lambda r: r["wall_s"], traced=True) / host_wall_s - 1
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": host_setup_s * PROBE_REF_S / probe_s,
            "tasks_per_s": task_count(name, n_files) / wall_s,
            "peak_rss_mb": runs.aggregate(lambda r: r["peak_rss_mb"]),
        }
        units = END_TO_END
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}

    for key, m in metrics.items():
        print(f"{key:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<48} {runs.failed / runs.attempted:>16.6g} ratio")
    model = dict(runs.results[False][0][0]["model"], **{"model.digest": runs.digest()})
    for key, value in model.items():
        print(f"{key:<48} {value}" + ("  (scenario 0)" if key != "model.digest" else "  (all scenarios)"))
    recorded = _recorded_digest(name, args.seed)
    if recorded is None:
        print("model_digest_unrecorded: baseline.json has no digest for this seed")
    elif recorded != model["model.digest"]:
        print("model_changed: model.digest differs from the one recorded in baseline.json")

    print(json.dumps({"correct": runs.failed == 0, "attempted": runs.attempted, "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
