"""The public names of qfikit, and the ones the benchmark tracer wraps, exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ("quantum_core", "fisher", "encoding", "collision", "scenarios", "verify", "cli")

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
