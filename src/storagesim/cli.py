"""Command-line front end: run, compare, cost, and validate scenarios.

Outputs are machine-first (result.json, trace.csv, cost.json); the tables
printed to stdout are renderings of the same data. Exit codes: 0 ok,
2 scenario parse error, 3 validation error, 4 internal invariant
violation (a produced trace failing its own audit) or internal error,
whose traceback goes to ``<out>/error.log``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .errors import (
    EmptyStatsError,
    InsufficientCapacityError,
    InsufficientSpaceError,
    InsufficientVmsError,
    MigrationDisabledError,
    NoCandidateHostError,
    NoFreeSlotsError,
    NoLocalPersistentGroupError,
    ReadBeforeWriteError,
    ScenarioParseError,
    ScenarioValidationError,
    SimError,
    TopologyValidationError,
)
from .scenario import (
    Scenario,
    ScenarioRun,
    build_state,
    compare,
    load_scenario,
    render_comparison_table,
    run_scenario,
)
from .simengine import verify_trace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

_VALIDATION_ERRORS = (
    ScenarioValidationError,
    TopologyValidationError,
    InsufficientVmsError,
    InsufficientCapacityError,
    InsufficientSpaceError,
    NoCandidateHostError,
    NoFreeSlotsError,
    NoLocalPersistentGroupError,
    MigrationDisabledError,
    ReadBeforeWriteError,
    EmptyStatsError,
)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _verify_or_fail(run: ScenarioRun) -> None:
    """Audit the measured trace and every prep-pass trace."""
    violations = [str(v) for v in verify_trace(run.trace)]
    for i, trace in enumerate(run.prep_traces):
        violations += [f"prep trace {i}: {v}" for v in verify_trace(trace)]
    if violations:
        raise _InternalViolation("\n".join(violations))


class _InternalViolation(Exception):
    pass


def _emit_run(run: ScenarioRun, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "result.json", run.to_dict())
    run.trace.write_csv(out / "trace.csv")
    lines = ["task_index,file_size_mb,elapsed_s,rate_mbps"]
    lines += [f"{s.task_index},{s.file_size_mb!r},{s.elapsed_s!r},{s.rate!r}" for s in run.stats]
    (out / "tasks.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "cost.json", run.cost.to_dict() | {"io_ops": run.io_ops})


def _emit_gnuplot(runs: dict[str, ScenarioRun], path: Path) -> None:
    lines = ["# config throughput_mbps avg_io_rate_mbps"]
    for name, run in runs.items():
        lines.append(f"{name} {run.result.throughput_mbps!r} {run.result.avg_io_rate_mbps!r}")
    path.write_text("\n".join(lines) + "\n")


def cmd_run(scenario: Scenario, args) -> int:
    run = run_scenario(scenario)
    _verify_or_fail(run)
    out = Path(args.out)
    _emit_run(run, out)
    if args.emit_gnuplot_data:
        _emit_gnuplot({run.config: run}, out / "gnuplot.dat")
    print(
        f"{run.config}: throughput {run.result.throughput_mbps:.3f} MB/s, "
        f"avg rate {run.result.avg_io_rate_mbps:.3f} MB/s, "
        f"exec {run.result.finished_at:.2f} s -> {out}/"
    )
    return EXIT_OK


def cmd_compare(scenario: Scenario, args) -> int:
    report = compare(scenario, list(args.configs))
    for run in report.runs.values():
        _verify_or_fail(run)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "comparison.json", report.to_dict())
    for name, run in report.runs.items():
        run.trace.write_csv(out / f"trace_{name}.csv")  # reports stay recomputable
    if args.emit_gnuplot_data:
        _emit_gnuplot(report.runs, out / "gnuplot.dat")
    print(render_comparison_table(report))
    return EXIT_OK


def cmd_cost(scenario: Scenario, args) -> int:
    run = run_scenario(scenario)
    _verify_or_fail(run)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "cost.json", run.cost.to_dict() | {"io_ops": run.io_ops})
    print(f"{'config':<18} {'instance $':>12} {'storage $':>12} {'total $':>10}")
    print(f"{run.cost.config:<18} {run.cost.instance_cost:>12.4f} {run.cost.storage_cost:>12.4f} {run.cost.total:>10.4f}")
    return EXIT_OK


def cmd_validate(scenario: Scenario, args) -> int:
    build_state(scenario)  # raises on inconsistency
    print(f"scenario OK: {args.scenario}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storagesim",
        description="Deterministic storage benchmark simulator for cloud-hosted DFS clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("run", cmd_run, "run one scenario and emit result.json, trace.csv, cost.json"),
        ("compare", cmd_compare, "run the same workload under several storage configs"),
        ("cost", cmd_cost, "price a scenario run"),
        ("validate", cmd_validate, "parse and validate a scenario without running it"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="path to the scenario YAML file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--emit-gnuplot-data", action="store_true", help="write bar-chart columns")
        if name == "compare":
            p.add_argument(
                "--configs",
                nargs="+",
                default=["local", "networked"],
                help="storage configs to compare (default: local networked)",
            )
        p.set_defaults(handler=handler)
    return parser


def _internal_error(out: Path, message: str) -> int:
    """Report an unexpected failure in one line; the traceback goes to ``out/error.log``."""
    log = out / "error.log"
    try:
        out.mkdir(parents=True, exist_ok=True)
        log.write_text(traceback.format_exc())
    except OSError as e:
        print(f"internal error: {message} (could not write {log}: {e})", file=sys.stderr)
    else:
        print(f"internal error: {message} (traceback in {log})", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        return args.handler(scenario, args)
    except ScenarioParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except _VALIDATION_ERRORS as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except _InternalViolation as e:
        print(f"internal invariant violation:\n{e}", file=sys.stderr)
        return EXIT_INTERNAL
    except SimError as e:
        return _internal_error(Path(args.out), str(e))
    except Exception as e:  # last resort: the traceback goes to a file, not the UI
        return _internal_error(Path(args.out), f"{type(e).__name__}: {e}")


if __name__ == "__main__":
    sys.exit(main())
