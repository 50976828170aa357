"""The benchmark's run path, end to end: `perfbench/run.py` on every
workload of `BENCHMARK.json`, untraced and traced, in a copy of the
repository, ends in one result line.

A traced run wraps qfikit's functions from outside and reads their
arguments and results, so a change to the package can break the traced
path alone; and a result line that is not the last line of output is no
result. The tracer skips a wrapped name that the package no longer has
and leaves its metrics out, so the result must carry exactly the metric
names that `BENCHMARK.json` declares: its `end_to_end` names untraced,
its `per_layer` names traced. Each run takes one round (``--seconds 0``)
of its seeded jobs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: the metric names a run must report, by --trace value
METRICS = {trace: sorted(m["name"] for m in BENCHMARK[key])
           for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def _strict(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """The source, the bundled configs and the benchmark's scripts, copied,
    so that a run writes nothing into the repository."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "configs"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    (root / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy2(script, root / "perfbench" / script.name)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_ends_in_one_result_line(checkout, workload, trace):
    before = sorted((ROOT / "perfbench").rglob("*"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.endswith("\n")
    last = done.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=_strict)
    assert isinstance(result, dict)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert sorted(result["metrics"]) == METRICS[trace]
    assert sorted((ROOT / "perfbench").rglob("*")) == before
