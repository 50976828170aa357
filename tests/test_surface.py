"""The public names of qfikit, and the ones the benchmark tracer wraps, exist,
and every public name is used."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ("quantum_core", "fisher", "encoding", "collision", "scenarios", "verify", "cli")

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SOURCE = ROOT / "src" / "qfikit"

#: public names that no other code of the package calls, kept as library
#: entry points
UNCALLED_ENTRY_POINTS = {
    # the closed-form loss of a commuting model: tests check the
    # propagated loss against it
    "collision.dephasing_closed_form",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qfikit.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_every_traced_target_exists():
    # a target the tracer cannot find is skipped and its per-layer metrics
    # are left out of a traced run
    missing = [
        f"{mod}.{attr}" for mod, attr, _ in _tracer().FUNCTIONS
        if not hasattr(importlib.import_module(f"qfikit.{mod}"), attr)
    ]
    assert not missing
    core = importlib.import_module("qfikit.quantum_core")
    for cls in (core.Operator, core.MeasurementChannel):
        assert callable(getattr(cls, "__post_init__", None))


class _Reads(ast.NodeVisitor):
    """Names read in code, each outside the definition that binds it."""

    def __init__(self):
        self.names = set()
        self.inside = []

    def _definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
            self.names.add(node.id)


def _names_read_in_package() -> set:
    reads = _Reads()
    for path in sorted(SOURCE.glob("*.py")):
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return reads.names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller(name):
    # docstrings and __all__ hold names as strings, which do not count
    module = importlib.import_module(f"qfikit.{name}")
    read = _names_read_in_package()
    traced = {f"{mod}.{attr}" for mod, attr, _ in _tracer().FUNCTIONS}
    unused = [attr for attr in module.__all__
              if attr not in read and f"{name}.{attr}" not in traced | UNCALLED_ENTRY_POINTS]
    assert not unused
