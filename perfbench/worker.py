"""One benchmark repetition, run by ``run.py`` in a fresh process.

    python3 perfbench/worker.py setup SCENARIO SPAWNED_NS
    python3 perfbench/worker.py probe SPAWNED_NS
    python3 perfbench/worker.py run SCENARIO OUT_DIR N_TASKS [--trace SPANS_JSON]

``setup`` times what ``storagesim validate`` does, from process start:
``import storagesim``, ``load_scenario`` and ``build_state``. ``probe``
times the same kind of work without storagesim, as a gauge of host speed.
``run`` times one in-process ``cli.main(["run", ...])``, then, outside the
timed span, audits and checks what it wrote. Each prints one JSON line.
"""

import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Pure-Python standard-library modules: parsers, data formats, I/O and test code.
PROBE_MODULES = (
    "decimal", "csv", "logging", "email.message", "email.parser", "http.client", "xml.dom.minidom",
    "unittest", "tomllib", "zipfile", "tarfile", "urllib.request", "difflib", "pprint", "configparser",
    "optparse", "gettext", "calendar",
)


def probe(spawned_ns: int) -> dict:
    """Seconds from the parent's spawn call to importing ``PROBE_MODULES``.

    Like ``setup`` it starts an interpreter and imports code, so it slows
    down with the host; it runs no storagesim code, so no change to the
    program can move it. ``run.py`` scales its timings by it.
    """
    for name in PROBE_MODULES:
        importlib.import_module(name)
    return {"probe_s": (time.monotonic_ns() - spawned_ns) / 1e9}


def setup(scenario_path: str, spawned_ns: int) -> dict:
    """Seconds from the parent's spawn call to a validated, placed cluster."""
    import storagesim  # noqa: F401
    from storagesim.scenario import build_state, load_scenario

    build_state(load_scenario(scenario_path))
    return {"setup_s": (time.monotonic_ns() - spawned_ns) / 1e9}


def run_once(scenario_path: str, out_dir: str, n_tasks: int, spans_path: str | None = None) -> dict:
    """Time one ``storagesim run`` in this process and check its outputs.

    With ``spans_path`` the run is traced: every layer is wrapped for the
    call, and the spans are written there afterwards.
    """
    import resource

    from storagesim import cli

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{Path(scenario_path).stem}:{Path(out_dir).name}")
    runs = []
    argv = ["run", "--scenario", scenario_path, "--out", out_dir]
    if tracer:
        tracer.install()
    scenario_run = cli.run_scenario  # the span wrapper, when traced

    def capture(*args, **kwargs):
        run = scenario_run(*args, **kwargs)
        runs.append(run)
        return run

    try:
        cli.run_scenario = capture
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - t0
    finally:
        cli.run_scenario = scenario_run
        if tracer:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from checks import check_run

    out = {"wall_s": wall_s, "peak_rss_mb": rss_mb, "rc": rc}
    out.update(check_run(rc, Path(out_dir), runs[0] if runs else None, n_tasks))
    if tracer:
        tracer.write_json(spans_path)
        out["layers"] = layer_metrics(tracer, wall_s, out.get("trace_counts", {}))
    return out


def layer_metrics(tracer, traced_wall_s: float, trace_counts: dict) -> dict:
    """The per-layer figures of one traced run (everything but the overhead)."""
    from tracer import HOOK_SPAN, TARGETS

    times = tracer.layer_times()
    out = {}
    for name in [t[2] for t in TARGETS] + [HOOK_SPAN]:
        row = times.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    for layer in ("volumes", "dfs", "snapshot"):  # no function of these calls another of its layer
        out[f"{layer}.s"] = sum(row["s"] for name, row in times.items() if name.startswith(f"{layer}."))
    calls = out["topology.management_path.calls"]
    out["topology.management_path.distinct_frac"] = len(set(tracer.path_pairs)) / calls if calls else 0.0
    calls = out["simengine.allocate_rates.calls"]
    out["simengine.allocate_rates.mean_flows"] = tracer.alloc_flows / calls if calls else 0.0
    out["simengine.allocate_rates.changed_frac"] = tracer.alloc_changed / tracer.alloc_flows if tracer.alloc_flows else 0.0
    out.update(trace_counts)
    out["trace.unattributed_s"] = traced_wall_s - sum(row["self_s"] for row in times.values())
    return out


def main(argv: list[str]) -> int:
    import json

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1], int(argv[2]))
    elif mode == "probe":
        result = probe(int(argv[1]))
    elif mode == "run":
        spans = argv[argv.index("--trace") + 1] if "--trace" in argv else None
        result = run_once(argv[1], argv[2], int(argv[3]), spans)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
