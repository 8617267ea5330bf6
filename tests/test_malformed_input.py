"""Exit codes of `storagesim run` on malformed scenarios.

Each example takes one of three valid documents (the reference scenario
under `local` and under `networked`, and a one-host explicit topology)
and changes one leaf: it deletes the leaf, replaces it from a fixed
palette of wrong types and edge values, or adds an unknown key beside it.
The run must exit 0, 2 or 3, and every parse error must name a field. An
alarm bounds each run, so a hang surfaces as an exit 4 through the CLI's
last-resort handler instead of stalling the suite. A key repeated within
one mapping, which ``yaml.safe_dump`` cannot write, is checked on the text
of the reference scenario, under each YAML parser the package can use.
"""

import contextlib
import copy
import io
import math
import signal
import tempfile
from pathlib import Path

import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import PARSERS, cli_in_fresh_interpreter  # noqa: E402
from storagesim.cli import main  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCE = yaml.safe_load((SCENARIOS / "reference.yaml").read_text())
EXPLICIT = {
    "schema": 1,
    "seed": 42,
    "topology": {
        "hosts": [
            {
                "id": "h01",
                "vcpus": 8,
                "ram_gb": 32,
                "disks": [{"id": "disk1", "capacity_gb": 500, "write_bw": 120, "read_bw": 150}],
            }
        ],
        "controller": {"id": "controller", "disks": [{"id": "disk1", "capacity_gb": 2000, "write_bw": 100, "read_bw": 100}]},
        "links": [{"id": "m1", "bandwidth": 125, "endpoints": ["h01", "controller"], "role": "management"}],
    },
    "vms": [{"vcpus": 2, "ram_gb": 4, "root_disk_gb": 20, "count": 2}],
    "storage_config": "local",
    "dfs": {"block_size_mb": 64, "replication_factor": 1, "seed": 7},
    "dfsio": {"n_files": 2, "file_size_mb": 1000, "mode": "write", "map_capacity": 25, "slots_per_vm": 5},
    "snapshot": {"interval_s": 3600},
    "prices": {},
}
BASES = (REFERENCE, {**REFERENCE, "storage_config": "networked"}, EXPLICIT)

DELETE, UNKNOWN_KEY = "delete the leaf", "add an unknown key"
PALETTE = ("x", True, None, -1, 0, 1.5, [], {}, math.inf, math.nan)


def leaves(node, path=()):
    """The path of every scalar or empty container in a document."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = [(base, path) for base, doc in enumerate(BASES) for path in leaves(doc)]


def mutate(base: int, path: tuple, edit) -> dict:
    doc = copy.deepcopy(BASES[base])
    *parents, key = path
    node, mapping = doc, doc
    for name in parents:
        node = node[name]
        if isinstance(node, dict):
            mapping = node
    if edit == DELETE:
        del node[key]
    elif edit == UNKNOWN_KEY:
        mapping["no_such_option"] = 1
    else:
        node[key] = copy.deepcopy(edit)
    return doc


def _timeout(signum, frame):
    raise TimeoutError("scenario run took over 10 s")


def run_cli(doc: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(10)
        try:
            with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", "--scenario", str(scenario), "--out", str(Path(tmp) / "out")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(max_examples=150)
@given(st.sampled_from(LEAVES), st.sampled_from((DELETE, UNKNOWN_KEY) + PALETTE))
def test_single_leaf_edits_exit_0_2_or_3_and_parse_errors_name_a_field(leaf, edit):
    code, err = run_cli(mutate(*leaf, edit))
    assert code in (0, 2, 3), err
    if code == 2:
        assert err.startswith("parse error: field "), err


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize(
    "anchor, repeat, key, line",
    [
        ("seed: 42\n", "seed: 7\n", "seed", 6),  # top level
        ("  n_files: 10\n", "  n_files: 3\n", "n_files", 35),  # inside dfsio
    ],
)
def test_a_repeated_key_is_a_parse_error_naming_the_key_and_its_line(tmp_path, anchor, repeat, key, line, parser):
    text = (SCENARIOS / "reference.yaml").read_text()
    assert text.count(anchor) == 1
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text.replace(anchor, anchor + repeat))
    assert scenario.read_text().splitlines()[line - 1] == repeat.rstrip("\n")
    done = cli_in_fresh_interpreter(parser, "validate", "--scenario", str(scenario))
    assert done.returncode == 2
    assert done.stderr.startswith("parse error: ")
    column = len(repeat) - len(repeat.lstrip()) + 1
    assert f"found duplicate key {key!r}\n" in done.stderr and f"line {line}, column {column}\n" in done.stderr


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize(
    "anchor, digits",
    [
        ("seed: 42\n", "9" * 5000),  # PyYAML cannot read a decimal int over the 4 300-digit limit
        ("seed: 42\n", "0x" + "f" * 5000),  # it reads this one, but no output could write it in decimal
        ("  n_files: 10\n", "9" * 5000),
    ],
    ids=["decimal_seed", "hex_seed", "decimal_n_files"],
)
def test_an_integer_past_the_int_to_text_limit_is_a_parse_error_with_its_line(tmp_path, anchor, digits, parser):
    text = (SCENARIOS / "reference.yaml").read_text()
    assert text.count(anchor) == 1
    value = anchor.split()[-1]
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text.replace(anchor, anchor.replace(value, digits)))
    line, column = 1 + text[: text.index(anchor)].count("\n"), anchor.index(value) + 1
    for command in ("validate", "run"):
        out = tmp_path / command
        done = cli_in_fresh_interpreter(parser, command, "--scenario", str(scenario), "--out", str(out))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("parse error: ") and "integer too long" in done.stderr
        assert f"line {line}, column {column}\n" in done.stderr
        assert not out.exists()  # no error.log: the run never started
