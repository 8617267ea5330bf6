"""Every public name of the package has a caller inside the package.

The walk takes each public top-level function, each class and each public
method under ``src/storagesim``. A function or class is used when a line
outside its own definition names it, bare or as an attribute; a method,
when such a line reads it as an attribute. An import alone is no use. So a
name that only tests, demos or the benchmark reach fails here, unless
``ALLOWED`` names it with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "storagesim"

ALLOWED = {
    "terminate_vm": "acceptance criterion 8 ends VMs with it, and the durability report (ROADMAP item 7) will",
    "migrate_vm": "acceptance criterion 8 checks the no-migration rule with it; ROADMAP item 7 reads it too",
    "recoverable_bytes": "ROADMAP item 7 derives it from the trace or deletes it",
    "construct_mapping": "_UniqueKeyLoader overrides PyYAML's hook, and PyYAML's constructor calls it",
}


class Definition:
    def __init__(self, node, is_method, path):
        self.name, self.is_method, self.path = node.name, is_method, path
        self.lines = range(node.lineno, node.end_lineno + 1)

    def __str__(self):
        return f"{self.path.name}:{self.lines.start} {self.name}"


def _walk():
    """The public definitions, and each (name, file, line) a bare name or an attribute reads."""
    definitions, bare, attributes = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) or (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")):
                definitions.append(Definition(node, False, path))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    Definition(item, True, path)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.append((node.attr, path, node.lineno))
    return definitions, bare, attributes


def _unused():
    definitions, bare, attributes = _walk()
    assert len(definitions) > 100 and any(d.name == "run_dfsio" for d in definitions)  # the walk sees the package
    unused = []
    for d in definitions:
        reads = attributes if d.is_method else bare + attributes
        if not any(name == d.name and not (path == d.path and line in d.lines) for name, path, line in reads):
            unused.append(d)
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    unused = [str(d) for d in _unused() if d.name not in ALLOWED]
    assert not unused, f"public names no package code calls (delete them, or move them to tests/helpers.py): {unused}"


def test_every_allowed_name_still_exists_and_still_lacks_a_caller():
    assert sorted(d.name for d in _unused() if d.name in ALLOWED) == sorted(ALLOWED)
