"""Command-line front end: run, compare, and validate scenarios.

Outputs are machine-first (result.json, tasks.csv, trace.csv from ``run``;
comparison.json and one trace per config from ``compare``); the lines
printed to stdout are renderings of the same data. ``run`` and
``compare`` create ``--out`` as soon as the scenario has parsed, so an
unusable output path fails before anything is simulated. A run streams
its trace: each window of events is audited and appended to
``<trace>.part`` in ``--out`` as the simulation goes, and only once every
audit of the command has passed are the outputs written and each part
renamed to its trace file. A command that fails deletes its parts, so it
leaves no output but, after an internal error, ``error.log``. Exit codes: 0 ok,
2 scenario parse error or an ``--out`` that cannot be created or written, 3
validation error, 4 internal invariant violation (a produced trace
failing its own audit) or internal error, whose traceback goes to
``<out>/error.log``, or to stderr when that file cannot be written.

A command runs with CPython's automatic cycle collection paused, and
``main`` restores the caller's setting when it returns. A run builds tens of
thousands of objects that live until its outputs are written and leaves only
a few hundred in reference cycles, so the collector's passes would walk the
live model again and again and reclaim almost nothing. ``main`` owns the
process; library entry points such as ``run_scenario`` leave the collector
as they find it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import traceback
from itertools import chain
from pathlib import Path

from .errors import ScenarioParseError, ScenarioValidationError, SimError, TopologyValidationError
from .scenario import (
    Scenario,
    build_state,
    compare,
    load_scenario,
    render_comparison_table,
    run_scenario,
)
from .simengine import AuditState, SimTrace, TraceReader, TraceViolation, verify_trace, write_lines

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

# The only errors a scenario can raise past parsing: build_state wraps placement and attach
# failures, and reference_cluster validates its knobs. Any other SimError is a bug.
_VALIDATION_ERRORS = (ScenarioValidationError, TopologyValidationError)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class _InternalViolation(Exception):
    pass


class _Traces:
    """The trace files of one command, each audited and written window by window as its run streams it.

    ``reader(name)`` gives the reader of one run's trace: it audits each
    window, going on from the last, and appends the window to
    ``<name>.part`` in ``out``. Leaving the ``with`` block by an exception
    deletes every part, so the trace files already in ``out`` stay as they
    were.
    """

    def __init__(self, out: Path):
        self.out = out
        self.violations: dict[str, list[TraceViolation]] = {}  # file name -> its audit's findings, in run order

    def reader(self, name: str) -> TraceReader:
        part, audit = self.out / f"{name}.part", AuditState()
        found = self.violations[name] = []
        first = True

        def read(trace: SimTrace, last: bool) -> None:
            nonlocal first
            found.extend(verify_trace(trace, audit, last))
            trace.write_csv(part, append=not first)
            first = False

        return read

    def verify(self) -> None:
        """Raise on the first run whose trace failed its audit."""
        for found in self.violations.values():
            if found:
                raise _InternalViolation("\n".join(map(str, found)))

    def publish(self, name: str) -> None:
        (self.out / f"{name}.part").replace(self.out / name)

    def __enter__(self) -> _Traces:
        return self

    def __exit__(self, kind, *_) -> None:
        if kind is not None:
            for name in self.violations:
                (self.out / f"{name}.part").unlink(missing_ok=True)


def cmd_run(scenario: Scenario, args) -> int:
    out = Path(args.out)
    with _Traces(out) as traces:
        run = run_scenario(scenario, readers=(traces.reader("trace.csv"),))
        traces.verify()
        _write_json(out / "result.json", run.to_dict())
        traces.publish("trace.csv")
        rows = (f"{s.task_index},{s.file_size_mb!r},{s.elapsed_s!r},{s.rate!r}" for s in run.stats)
        write_lines(out / "tasks.csv", chain(("task_index,file_size_mb,elapsed_s,rate_mbps",), rows))
    print(
        f"{run.config}: throughput {run.result.throughput_mbps:.3f} MB/s, "
        f"avg rate {run.result.avg_io_rate_mbps:.3f} MB/s, "
        f"exec {run.result.finished_at:.2f} s -> {out}/"
    )
    return EXIT_OK


def cmd_compare(scenario: Scenario, args) -> int:
    out = Path(args.out)
    with _Traces(out) as traces:
        report = compare(scenario, list(args.configs), lambda label: (traces.reader(f"trace_{label}.csv"),))
        traces.verify()
        _write_json(out / "comparison.json", report.to_dict())
        for name in report.runs:
            traces.publish(f"trace_{name}.csv")  # reports stay recomputable
    print(render_comparison_table(report))
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
        ("run", cmd_run, "run one scenario and emit result.json, tasks.csv, trace.csv"),
        ("compare", cmd_compare, "run the same workload under several storage configs"),
        ("validate", cmd_validate, "parse and validate a scenario without running it"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="path to the scenario YAML file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if name != "validate":  # build_state never reads the seed
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
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
    """Report an unexpected failure in one line; the traceback goes to ``out/error.log``.

    When that file cannot be written, the traceback follows the line on stderr instead.
    """
    log = out / "error.log"
    text = traceback.format_exc()  # taken here: inside the handler below it would be the OSError's
    try:
        out.mkdir(parents=True, exist_ok=True)
        log.write_text(text)
    except OSError as e:
        print(f"internal error: {message} (could not write {log}: {e})", file=sys.stderr)
        sys.stderr.write(text)
    else:
        print(f"internal error: {message} (traceback in {log})", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # before the parser too: building it allocates enough to start a collection
    try:
        return _command(_parser().parse_args(argv))
    finally:
        if collecting:
            gc.enable()


def _command(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if getattr(args, "seed", None) is not None:
            scenario = scenario._replace(seed=args.seed)
        if args.command != "validate":  # validate writes nothing
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as e:
                print(f"cannot create --out {args.out}: {e}", file=sys.stderr)
                return EXIT_PARSE
            if not os.access(args.out, os.W_OK | os.X_OK):
                print(f"cannot write to --out {args.out}", file=sys.stderr)
                return EXIT_PARSE
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
    except Exception as e:  # last resort: the traceback goes to a file when it can, not the UI
        return _internal_error(Path(args.out), f"{type(e).__name__}: {e}")


if __name__ == "__main__":
    sys.exit(main())
