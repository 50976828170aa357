"""The benchmark's own tests: every output check passes the program's real
output and rejects a perturbed copy of it.

    python3 -m pytest perfbench -q

Runs each job of seed 7 once through `qfikit.cli.main` (about 20 s).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from qfikit import cli  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output text of every job of every workload that exits 0."""
    texts = {}
    for workload in inputs.WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        for job in inputs.build(workload, SEED, work, ROOT):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(job.argv))
            if code == 0:
                text = Path(job.output).read_text(encoding="utf-8") if job.output else buf.getvalue()
                texts[job.name] = (job, text)
    return texts


def _metric(key, factor=None, value=None):
    def mutate(text):
        data = json.loads(text)
        old = data["metrics"][key]
        data["metrics"][key] = value if value is not None else old * factor
        return json.dumps(data)
    return mutate


def _table(column, row, factor=None, value=None):
    def mutate(text):
        data = json.loads(text)
        table = data["table"]
        k = table["columns"].index(column)
        old = table["rows"][row][k]
        table["rows"][row][k] = value(table["rows"][row]) if value else old * factor
        return json.dumps(data)
    return mutate


def _csv_cell(column, row, factor):
    def mutate(text):
        lines = text.splitlines()
        k = lines[0].split(",").index(column)
        cells = lines[row + 1].split(",")
        cells[k] = repr(float(cells[k]) * factor)
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return mutate


def _avg_above_iq(text):
    data = json.loads(text)
    data["metrics"]["avg_ps_qfi"] = data["metrics"]["i_q"] * 1.001
    return json.dumps(data)


PERTURBATIONS = [
    ("dephasing_bundled", _metric("kappa", 1 + 1e-6)),
    ("dephasing_bundled", _metric("p_check", 1 - 1e-6)),
    ("dephasing_bundled", _metric("i_q_baseline", 1 + 1e-6)),
    ("custom_collision", _metric("p_check", 1.01)),
    ("custom_collision", _metric("i_q_baseline", 0.99)),
    ("custom_collision", _metric("kappa", value=1.2)),
    ("fig1b_bundled", _csv_cell("avg_total", 20, 1 + 1e-6)),
    ("fig1b_bundled", _csv_cell("sum_total", 20, 0.4)),
    ("transducer3", _table("avg_total", 80, 1 - 1e-6)),
    # columns: eps, I_sigma_1, I_sigma_2, avg_total, sum_total
    ("transducer3", _table("sum_total", 0, value=lambda row: 0.5 * row[3])),
    ("custom_channel_d3_k2", _metric("i_q", 1 + 1e-8)),
    ("custom_channel_d4_k4", _avg_above_iq),
    ("dephasing_sweep", _table("kappa", 3, 1 + 1e-4)),
    ("dephasing_sweep", _table("p_check", 7, 1 - 1e-3)),
    ("dephasing_sweep", _table("gamma", 0, 1.01)),
    ("verify_chain", lambda text: text.replace("PASS", "FAIL")),
    ("verify_gauge", lambda text: ""),
    ("verify_completeness", lambda text: text + "completeness: extra line\n"),
    ("verify_theorem-soundness", lambda text: text.replace("PASS", "FAIL", 1)),
]


def test_every_output_passes(outputs):
    assert "jump_blind" not in outputs
    for name, (job, text) in outputs.items():
        assert job.check(text) == [], name


@pytest.mark.parametrize("name,mutate", PERTURBATIONS,
                         ids=[f"{n}-{k}" for k, (n, _) in enumerate(PERTURBATIONS)])
def test_check_rejects_perturbed_output(outputs, name, mutate):
    job, text = outputs[name]
    assert job.check(mutate(text)), f"{name}: perturbed output passed"


def test_collision_kappa_rejects_out_of_range():
    ok = json.dumps({"metrics": {"kappa": 0.0}})
    bad = json.dumps({"metrics": {"kappa": -0.01}})
    assert checks.collision_kappa(ok) == [] and checks.collision_kappa(bad)


def test_self_time_subtracts_union_of_children():
    spans = [
        ["main", 0.0, 10.0, None, 0, 1],
        ["a", 1.0, 4.0, 0, 0, 1],
        ["b", 3.0, 6.0, 0, 0, 2],   # overlaps a: a pool worker
        ["c", 1.5, 2.0, 1, 0, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "cpu_s",
                                                       "peak_rss_mb"]
