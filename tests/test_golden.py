"""Golden outputs: the sha256 of every file `storagesim run` writes.

A solver or engine change that claims to keep outputs byte-identical must
leave these digests alone. A change that moves any value on purpose
records the new digests here and lists the changed values in CHANGES.md.
"""

import copy
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import pytest
import yaml

from storagesim.cli import main
from storagesim.scenario import parse_scenario, run_scenario
from storagesim.snapshot import SnapshotPolicy
from storagesim.topology import reference_cluster

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
OUTPUTS = ("trace.csv", "tasks.csv", "result.json")


def reference_doc(storage_config):
    doc = yaml.safe_load((SCENARIOS / "reference.yaml").read_text())
    doc["storage_config"] = storage_config
    return doc


def mixed_doc():
    doc = reference_doc("local")
    doc["dfsio"].update(n_files=10, file_size_mb=256, mode="mixed", read_fraction=0.5)
    doc["snapshot"]["interval_s"] = 10
    return doc


def wide_doc():
    """The shape of the benchmark's ``local_write_wide`` workload: 16 hosts with one DFS VM each, 40 local writes."""
    doc = reference_doc("local")
    doc["topology"]["reference"]["n_hosts"] = doc["vms"][0]["count"] = 16
    doc["dfsio"]["n_files"] = 40
    return doc


def asymmetric_doc(storage_config):
    doc = mixed_doc() | {"storage_config": storage_config}
    doc["topology"]["reference"].update(disk_read_bw=150, disk_write_bw=80)
    return doc


GOLDEN = {
    "reference_local": (
        reference_doc("local"),
        {
            "trace.csv": "f6f155a16d595a001e64feb177d93591c26ba42cd205b17070cf96c59939b721",
            "tasks.csv": "922415ede06e74a441b145195c02eadff81576585efa848ca166daef8916298e",
            "result.json": "48df77f6309bd7f9c638741d2be55186d923241f74dce420c2506a73cce3e8fa",
        },
    ),
    "reference_networked": (
        reference_doc("networked"),
        {
            "trace.csv": "57d424a34c293e645b3dce8644bd4f70449e7df9d6f070008201bfd0722ef50c",
            "tasks.csv": "5a8ded70520c070985822a3d738df8ec618d2283efe4bd91fe1621b26360678c",
            "result.json": "30a05c362cb72a283076d0fd16c24070781f5eb5106f41ced372cd0333f88f46",
        },
    ),
    "mixed_snapshots": (
        mixed_doc(),
        {
            "trace.csv": "9a36d840634a62cffec36deb5c292180675fab577ef7a094ce417b0f5e75e55d",
            "tasks.csv": "8b61d381b88a315f932041bfb79c74e1fc4ffe23661675131dc78b723193f9f0",
            "result.json": "ef5502750244bb36d765a46ac3346107fe7fda8dde3b13b4285e505afff060e0",
        },
    ),
    # reads and writes through the controller: the only golden that covers networked read paths
    "mixed_networked": (
        mixed_doc() | {"storage_config": "networked"},
        {
            "trace.csv": "6f0136611319eb9ef4cf9d596537154464ef9736846f1f37e2a1967391614b8d",
            "tasks.csv": "38d1f1c6f5244d7f5c9c07cada7e009438366c4c1ca9e0e499d1fe62bc4ab87c",
            "result.json": "0c4ad8094b69fcf252ee3ad6c7c897183e8d876dbe306a46dea54b6d290cb342",
        },
    ),
    # disks read faster than they write: the only goldens where mixed-direction pooling sets a rate
    "asymmetric_local": (
        asymmetric_doc("local"),
        {
            "trace.csv": "693cb0f7a92315c682eb55e668abe856e7b745f82096a386df4aaf2d753241de",
            "tasks.csv": "0d807c7b658d33166343992cd3f60e54e6aefa6f4ecdde8e5ca599e52acf3639",
            "result.json": "d0a2d21cefb00a60f17dbeb4cec3d6b643bc8f88d6919ea23b59aa1e2dac6e39",
        },
    ),
    # many flows share each solve: most warm solves keep some rates and re-solve the rest
    "wide_local": (
        wide_doc(),
        {
            "trace.csv": "ca7039ed1e0dfe90383234d3617c51880cbe622d3897759f0ae4032258b00f52",
            "tasks.csv": "83a7dc9647237db91766a3f48e7a79fd4a8f175f014299549b6f5b28e34a7ad0",
            "result.json": "4c5b80b01b219661471426a55ba2eacdfa86079fbf32dd9980c63fa3246cdd8b",
        },
    ),
    "asymmetric_networked": (
        asymmetric_doc("networked"),
        {
            "trace.csv": "6c966b8e240d30c9c22c8b70dfecc35b14120e300ef46afbf0b02e90e76f35ca",
            "tasks.csv": "5dc957f0f21baa25a3abd2adcf25bfe088e7e9cb8bb77c95d50d29ffd150446a",
            "result.json": "a1eab4aaf6f705156ab521a585f5933ba67b39a650b090232e9508b146bceca1",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(tmp_path, name):
    doc, digests = GOLDEN[name]
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUTS}
    assert got == digests


def twice_as_fast(doc):
    """``doc`` with every disk, link and controller bandwidth doubled and the snapshot interval halved.

    An absent knob takes its default first; a controller bandwidth left unset follows the host disks.
    """
    doc = copy.deepcopy(doc)
    knobs, defaults = doc["topology"]["reference"], reference_cluster.__kwdefaults__
    for knob in ("disk_read_bw", "disk_write_bw", "link_bw", "controller_read_bw", "controller_write_bw"):
        if knobs.get(knob, defaults[knob]) is not None:
            knobs[knob] = 2 * knobs.get(knob, defaults[knob])
    snapshot = doc.setdefault("snapshot", {})
    snapshot["interval_s"] = snapshot.get("interval_s", SnapshotPolicy().interval_s) / 2
    if snapshot.get("bandwidth_cap") is not None:
        snapshot["bandwidth_cap"] *= 2
    return doc


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_twice_the_bandwidth_halves_every_time_exactly(name):
    # Metamorphic and oracle-free: a power of two rescales every float exactly, so the run is the same run
    # at twice the speed, with the same events in the same order.
    doc = GOLDEN[name][0]
    base, fast = (run_scenario(parse_scenario(d)) for d in (doc, twice_as_fast(doc)))
    assert len(fast.trace.events) == len(base.trace.events) > 100
    for (t, kind, flow, resource, value), got in zip(base.trace.events, fast.trace.events):
        assert got == (t / 2, kind, flow, resource, 2 * value if kind == "rate_change" else value)
    assert [(s.task_index, s.file_size_mb, s.elapsed_s / 2, s.rate * 2) for s in base.stats] == list(fast.stats)
    assert [(r.volume_id, r.taken_at / 2, r.bytes_copied) for r in base.snapshot_records] == fast.snapshot_records
    assert (fast.network_mb, fast.io_ops) == (base.network_mb, base.io_ops)


# Runs each scenario in sys.argv[2:] through `storagesim run` into sys.argv[1] and prints {name: {file: sha256}}.
DIGEST_RUNS = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from storagesim.cli import main
digests = {}
for scenario in map(Path, sys.argv[2:]):
    out = Path(sys.argv[1]) / scenario.stem
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenario", str(scenario), "--out", str(out)])
    digests[scenario.stem] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in %r} if code == 0 else code
print(json.dumps(digests))
""" % (OUTPUTS,)


def other_interpreters():
    """The pyenv CPython 3.10+ interpreters installed beside the running one, which is left out."""
    here = platform.python_version()
    return [p for p in sorted(Path.home().glob(".pyenv/versions/3.1[0-9]*/bin/python")) if p.parent.parent.name != here]


def test_every_installed_cpython_gives_the_golden_bytes(tmp_path):
    # The engine's sums are left folds, so CPython 3.12's compensated sum() moves no bit; and the package
    # must parse on 3.10, the declared minimum. PyYAML's C part loads on its own CPython only, so a
    # directory holding just a link to the running interpreter's pure-Python package serves the rest.
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ under ~/.pyenv/versions")
    (tmp_path / "pyyaml").mkdir()
    (tmp_path / "pyyaml" / "yaml").symlink_to(Path(yaml.__file__).parent, target_is_directory=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(tmp_path / "pyyaml")]))
    scenarios = []
    for name, (doc, _digests) in GOLDEN.items():
        scenarios.append(tmp_path / f"{name}.yaml")
        scenarios[-1].write_text(yaml.safe_dump(doc))
    for python in interpreters:
        out = tmp_path / python.parent.parent.name
        argv = [str(python), "-c", DIGEST_RUNS, str(out), *map(str, scenarios)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (python, done.stderr[-2000:])
        assert json.loads(done.stdout) == {name: digests for name, (_doc, digests) in GOLDEN.items()}, python
