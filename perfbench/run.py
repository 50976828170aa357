"""Benchmark of the `qfi` CLI: run, sweep and verify, end to end.

    python3 perfbench/run.py --workload collision_run --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout of the repository. One process runs one
workload: it writes the seeded configs (inputs.py), then calls
`qfikit.cli.main(argv)` on the workload's job list, one job after the
other, in whole rounds until the next round would end after --seconds.
After timing stops it checks every output of every round (checks.py) and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` (jobs whose exit code was not 0) and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s, the median over spawns
of a fresh interpreter importing `qfikit.cli`; wall_s and cpu_s, the median
over rounds of one round's wall and process CPU time; and peak_rss_mb,
the peak resident memory of the process up to the end of its first round.
--trace 1 wraps the program's layers (tracer.py) and reports the per-layer
metrics instead, each the median over rounds of one round's value.

The BLAS and OpenMP pools are pinned to one thread before numpy loads, so
a run measures the program and not the scheduler; the benchmark itself
starts no threads. Environment, per-round figures and the failed jobs go
to perfbench/_results/, with the spans of the last traced round.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters timed for setup_s, after one untimed warm-up that
#: writes the bytecode caches
SETUP_SPAWNS = 7


def measure_setup() -> list:
    """Seconds from spawning an interpreter until `qfikit.cli` is imported.

    The child leaves through os._exit right after the import, so interpreter
    teardown is not part of the figure.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import os, qfikit.cli; os._exit(0)"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_job(cli, job) -> tuple:
    """(exit code, captured stdout and stderr) of one CLI invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # a crash inside the program fails this job, not the benchmark
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the qfi CLI.")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfikit" / "cli.py").is_file():
        print(f"error: {SRC / 'qfikit'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    setup_times = measure_setup()

    sys.path.insert(0, str(SRC))
    from qfikit import cli

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    jobs = inputs.build(args.workload, args.seed, work, ROOT)
    rec = None
    if args.trace:
        rec = tracer.Tracer()
        rec.install()

    walls, cpus, outputs, layers, spans = [], [], [], [], []
    attempted = failed = 0
    failures = {}
    begin = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ran = [run_job(cli, job) for job in jobs]
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if len(walls) == 1:
            # later rounds can still raise the high-water mark (collision_run:
            # about 107 MB after one round, 118 MB after two), so the figure
            # covers the first round, whatever the run length
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for job, (code, text) in zip(jobs, ran):
            attempted += 1
            if code != 0:
                failed += 1
                failures.setdefault(job.name, f"exit {code}: {text[-500:]}")
            else:
                output = Path(job.output).read_text(encoding="utf-8") if job.output else text
                outputs.append((job, output))
        if rec is not None:
            round_spans, counts = rec.take()
            layers.append(tracer.layer_metrics(round_spans, counts, rec.absent))
            spans = round_spans
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > args.seconds:
            break

    problems = []
    for job, output in outputs:
        problems += [f"{job.name}: {p}" for p in job.check(output)]
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": statistics.median(layer[name] for layer in layers),
                          "unit": unit}
                   for name, unit in tracer.UNITS.items() if name in layers[0]}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "environment": environment(), "rounds": len(walls),
              "setup_times": setup_times, "round_walls": walls, "round_cpus": cpus,
              "failures": failures, "problems": problems[:50], "result": result}
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
