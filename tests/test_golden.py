"""Golden outputs: the sha256 of every file `storagesim run` writes.

A solver or engine change that claims to keep outputs byte-identical must
leave these digests alone. A change that moves any value on purpose
records the new digests here and lists the changed values in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from storagesim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
OUTPUTS = ("trace.csv", "tasks.csv", "result.json", "cost.json")


def reference_doc(storage_config):
    doc = yaml.safe_load((SCENARIOS / "reference.yaml").read_text())
    doc["storage_config"] = storage_config
    return doc


def mixed_doc():
    doc = reference_doc("local")
    doc["dfsio"].update(n_files=10, file_size_mb=256, mode="mixed", read_fraction=0.5)
    doc["snapshot"]["interval_s"] = 10
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
            "result.json": "79972e8e5dfa126664cbc7f2c96c722897be893502c3ab8dad03f798b5cbf7ce",
            "cost.json": "619e329fa2e722341f79493115812e932a7e5fae2dd6bba4550c19cad3f2e7ce",
        },
    ),
    "reference_networked": (
        reference_doc("networked"),
        {
            "trace.csv": "57d424a34c293e645b3dce8644bd4f70449e7df9d6f070008201bfd0722ef50c",
            "tasks.csv": "5a8ded70520c070985822a3d738df8ec618d2283efe4bd91fe1621b26360678c",
            "result.json": "192f571137925d31a2371c086d96471494ff017cda9b45fb9e511484109a37fb",
            "cost.json": "08827f3f4e912b524a45b1669aa586e2bd2732ff7a2b8dd8bbac9bbabb865bbf",
        },
    ),
    "mixed_snapshots": (
        mixed_doc(),
        {
            "trace.csv": "9a36d840634a62cffec36deb5c292180675fab577ef7a094ce417b0f5e75e55d",
            "tasks.csv": "8b61d381b88a315f932041bfb79c74e1fc4ffe23661675131dc78b723193f9f0",
            "result.json": "c747267efdf39c587fb0bda7e85d55513884acb136de727a46475792b9774848",
            "cost.json": "619e329fa2e722341f79493115812e932a7e5fae2dd6bba4550c19cad3f2e7ce",
        },
    ),
    # reads and writes through the controller: the only golden that covers networked read paths
    "mixed_networked": (
        mixed_doc() | {"storage_config": "networked"},
        {
            "trace.csv": "6f0136611319eb9ef4cf9d596537154464ef9736846f1f37e2a1967391614b8d",
            "tasks.csv": "38d1f1c6f5244d7f5c9c07cada7e009438366c4c1ca9e0e499d1fe62bc4ab87c",
            "result.json": "5f03efcd75f665385818bf821e34241e499bddb9b6a0f93d6d0b0cab0d8a92b6",
            "cost.json": "f3d131f9845060b657f5a05e9fcfb7f46fd549902fe4be327ed4a692d1aa6acf",
        },
    ),
    # disks read faster than they write: the only goldens where mixed-direction pooling sets a rate
    "asymmetric_local": (
        asymmetric_doc("local"),
        {
            "trace.csv": "693cb0f7a92315c682eb55e668abe856e7b745f82096a386df4aaf2d753241de",
            "tasks.csv": "0d807c7b658d33166343992cd3f60e54e6aefa6f4ecdde8e5ca599e52acf3639",
            "result.json": "37d8b8fcb8653a64f66539f9f16709f616a263cdd6c0e8e849494051521871d3",
            "cost.json": "619e329fa2e722341f79493115812e932a7e5fae2dd6bba4550c19cad3f2e7ce",
        },
    ),
    "asymmetric_networked": (
        asymmetric_doc("networked"),
        {
            "trace.csv": "6c966b8e240d30c9c22c8b70dfecc35b14120e300ef46afbf0b02e90e76f35ca",
            "tasks.csv": "5dc957f0f21baa25a3abd2adcf25bfe088e7e9cb8bb77c95d50d29ffd150446a",
            "result.json": "7556a089d76ed441705cd27c46029fc8a876cbda7d0178eeb372d8b0f3900579",
            "cost.json": "f3d131f9845060b657f5a05e9fcfb7f46fd549902fe4be327ed4a692d1aa6acf",
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
