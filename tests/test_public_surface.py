"""Every public name and every record field of the package has a reader inside the package.

The walk takes each public top-level function, each class and each public
method under ``src/storagesim``. A function or class is used when a line
outside its own definition names it, bare or as an attribute; a method,
when such a line reads it as an attribute. An import alone is no use. So a
name that only tests, demos or the benchmark reach fails here, unless
``ALLOWED`` names it with its reason.

No module or class body defines one function or class name twice: the
later definition shadows the earlier, and the name-based walk would count
the shadowed one as used.

The fields of a class are its ``NamedTuple`` fields, its ``__slots__``
entries and the public ``self.<name>`` its ``__init__`` sets. A field is
read when a line outside its own class's ``copy`` loads it as an
attribute; stores, keyword arguments and ``_replace`` do not count. The
match is by name, like the method check, so a field passes when any
attribute of that name is read. A field that nothing reads fails, unless
``ALLOWED_FIELDS`` names it with its reason.
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

ALLOWED_FIELDS = {
    "DfsioRun.files": "the only place a read run's input placement can be observed; the contract tests compare it "
    "with the files a write pass places, which a spy on bench.place_file keeps since a write run returns none",
    "ScenarioRun.prep_traces": "perfbench/checks.py reads it; ROADMAP item 1 deletes it",
    "Volume.data_lost": "the acceptance criterion 8 tests read it, and the durability report (ROADMAP item 7) will",
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


def test_no_body_defines_a_name_twice():
    twice, bodies = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for body in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            bodies += 1
            seen = set()
            for item in body.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if item.name in seen:
                        twice.append(f"{path.name}:{item.lineno} {item.name}")
                    seen.add(item.name)
    assert bodies > 50  # the walk sees the modules and their classes
    assert not twice, f"names defined twice in one body (the later shadows the earlier): {twice}"


class Field:
    def __init__(self, cls, name, path):
        self.name, self.key, self.path, self.line = name, f"{cls.name}.{name}", path, cls.lineno
        copy = [item for item in cls.body if isinstance(item, ast.FunctionDef) and item.name == "copy"]
        self.copy = range(copy[0].lineno, copy[0].end_lineno + 1) if copy else range(0)

    def __str__(self):
        return f"{self.path.name}:{self.line} {self.key}"


def _declared(cls):
    """The field names ``cls`` declares: NamedTuple fields, ``__slots__`` entries, public attributes set in ``__init__``."""
    names = []
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
        names += [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)]
    for item in cls.body:
        if isinstance(item, ast.Assign) and [t.id for t in item.targets if isinstance(t, ast.Name)] == ["__slots__"]:
            names += [entry.value for entry in item.value.elts]
        elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
            names += [
                node.attr
                for node in ast.walk(item)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and not node.attr.startswith("_")
            ]
    return dict.fromkeys(names)  # in order, once each


def _unread_fields():
    fields, loads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                fields += [Field(cls, name, path) for name in _declared(cls)]
        loads += [
            (node.attr, path, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        ]
    keys = {f.key for f in fields}
    assert len(fields) > 100 and {"DfsioSpec.n_files", "FlowRecord.rate", "Volume.attached_to"} <= keys  # the walk sees them
    return [
        f for f in fields if not any(name == f.name and not (path == f.path and line in f.copy) for name, path, line in loads)
    ]


def test_every_record_field_is_read_in_the_package():
    unread = [str(f) for f in _unread_fields() if f.key not in ALLOWED_FIELDS]
    assert not unread, f"record fields no package code reads (delete them, or allow them with a reason): {unread}"


def test_every_allowed_field_still_exists_and_is_still_unread():
    assert sorted(f.key for f in _unread_fields() if f.key in ALLOWED_FIELDS) == sorted(ALLOWED_FIELDS)
