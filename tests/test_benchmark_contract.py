"""The benchmark under perfbench/ wraps named program functions: they must keep resolving.

perfbench/tracer.py is loaded from its file and only read; nothing is patched.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import storagesim  # noqa: F401  (loads every submodule)
import storagesim.bench

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_traced_target_resolves(module_name, attr, span):
    home = sys.modules[f"storagesim.{module_name}"]
    if "." in attr:  # a method, patched on the class that defines it
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth)), span
    else:
        assert callable(getattr(home, attr, None)), span


def test_run_dfsio_defines_an_on_complete_hook():
    consts = storagesim.bench.run_dfsio.__code__.co_consts
    assert any(getattr(c, "co_name", "") == "on_complete" for c in consts)
