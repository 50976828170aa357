"""Seeded inputs and job lists of the benchmark's three workloads.

A job is one `qfi` command line, handed to `qfikit.cli.main(argv)`, plus
the check its output must pass. The program sees only the config files
written here. The checks get the same seeded numbers directly and compute
their expected values in checks.py, never through qfikit.

Every seed yields jobs of the same shape (dimensions, step counts, outcome
counts, grid sizes), so the work per round, and with it every traced count,
does not depend on the seed; the seed moves only the matrix entries, states,
rates and grid bounds.

To write a workload's config files into DIR and print its command lines:

    python3 perfbench/inputs.py --workload collision_run --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2.0)
_ZERO = np.array([1, 0], dtype=complex)

#: preset names the bundled configs use, as plain arrays
_PRESETS = {"pauli_x": _SX, "pauli_z": _SZ, "plus_x": _PLUS, "zero": _ZERO}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its output must pass.

    ``output`` is the file the job writes; None means the job prints to
    stdout. ``check`` takes the output text and returns a list of problems,
    empty when the output is correct.
    """

    name: str
    argv: tuple
    output: Optional[str]
    check: Callable[[str], list]


def _pair_matrix(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _pair_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _hermitian(rng, dim: int) -> np.ndarray:
    """Random Hermitian matrix scaled to spectral norm 1."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def _unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _haar(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _write(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return str(path)


def _run_job(name: str, config_path: str, out: Path, check, fmt: str = "json") -> Job:
    argv = ("run", config_path, "--output", str(out), "--format", fmt)
    return Job(name, argv, str(out), check)


def _verify_job(suite: str) -> Job:
    return Job(f"verify_{suite}", ("verify", "--suite", suite), None,
               checks.verify_lines)


# -- collision_run ---------------------------------------------------------

def _bundled_dephasing(root: Path, work: Path) -> Job:
    path = root / "configs" / "dephasing.json"
    cfg = json.loads(path.read_text(encoding="utf-8"))
    p = cfg["parameters"]
    check = partial(
        checks.dephasing_report,
        h0=_PRESETS[cfg["operators"]["h0"]], jump=_PRESETS[cfg["operators"]["jump"]],
        gamma=p["gamma"], T=p["T"], N=p["N"], psi=_PRESETS[cfg["states"]["psi"]],
    )
    return _run_job("dephasing_bundled", str(path), work / "dephasing_bundled.json", check)


def _custom_collision(seed: int, work: Path) -> Job:
    """Non-commuting d=4 model: control term, two constant-rate jumps."""
    rng = np.random.default_rng([seed, 1])
    dim, n_steps, t_total = 4, 2**12, 1.0
    h0 = _hermitian(rng, dim)
    control = 0.5 * _hermitian(rng, dim)
    jumps = []
    for _ in range(2):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        jumps.append((op / np.linalg.norm(op, 2), float(rng.uniform(0.2, 0.8))))
    psi = _unit_vector(rng, dim)
    x = float(rng.uniform(0.2, 0.8))
    config = {
        "kind": "custom_collision",
        "parameters": {"x": x, "T": t_total, "N": n_steps, "scheme": "euler_paper"},
        "operators": {"h0": _pair_matrix(h0), "control": _pair_matrix(control)},
        "jumps": [{"op": _pair_matrix(op), "rate": rate} for op, rate in jumps],
        "states": {"psi": _pair_vector(psi)},
    }
    path = _write(work / "custom_collision_config.json", config)
    check = partial(checks.constant_collision_report, h0=h0, control=control,
                    jumps=jumps, psi=psi, x=x, T=t_total, N=n_steps,
                    scheme="euler_paper")
    return _run_job("custom_collision", path, work / "custom_collision.json", check)


def _jump_blind(work: Path) -> Job:
    """Lossless qutrit whose theorem-2 verdict fails at this N.

    L annihilates the span of |0>, |1> where the probe evolves, so no
    information reaches the jump record and kappa is 0. The verdict's
    weight slope is a central difference whose rounding noise grows with N
    and passes its fixed 1e-8 only below N of about 4096, so `qfi run`
    exits 2 here. The inputs do not depend on the seed, so this job fails
    in every round of every run.
    """
    config = {
        "kind": "custom_collision",
        "parameters": {"x": 0.3, "T": 1.0, "N": 16384, "scheme": "expm_step"},
        "operators": {"h0": _pair_matrix(np.diag([1.0, -1.0, 5.0]).astype(complex))},
        "jumps": [{"op": _pair_matrix(np.diag([0.0, 0.0, 1.0]).astype(complex)),
                   "rate": 0.8}],
        "states": {"psi": _pair_vector(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))},
        "expect": {"theorem2": "pass"},
    }
    path = _write(work / "jump_blind_config.json", config)
    return _run_job("jump_blind", path, work / "jump_blind.json", checks.collision_kappa)


def collision_run(seed: int, work: Path, root: Path) -> list:
    return [_bundled_dephasing(root, work), _custom_collision(seed, work),
            _jump_blind(work)]


# -- channel_algebra -------------------------------------------------------

def _bundled_fig1b(root: Path, work: Path) -> Job:
    path = root / "configs" / "fig1b.json"
    cfg = json.loads(path.read_text(encoding="utf-8"))
    p = cfg["parameters"]
    check = partial(checks.transducer_table,
                    h0_env=_PRESETS[cfg["operators"]["h0_env"]],
                    env_initial=_PRESETS[cfg["states"]["env_initial"]],
                    T=p["T"], x=p["x"], csv=True)
    return _run_job("fig1b_bundled", str(path), work / "fig1b_bundled.csv", check,
                    fmt="csv")


def _qutrit_transducer(seed: int, work: Path) -> Job:
    """3-level environment, denser mixing grid than fig1b.

    No `expect`: with more than two environment levels the readout basis
    has a third outcome whose weight is of order x^4, which the theorem-1
    check flags as dead, so the verdict is not part of this job.
    """
    rng = np.random.default_rng([seed, 2])
    h0_env = _hermitian(rng, 3)
    env = _unit_vector(rng, 3)
    t_total = float(rng.uniform(0.5, 2.0))
    x = 1e-5
    config = {
        "kind": "transducer",
        "parameters": {"x": x, "T": t_total, "eps_grid": "log:1e-3:1e3:161"},
        "operators": {"h0_env": _pair_matrix(h0_env), "flip": "pauli_x"},
        "states": {"env_initial": _pair_vector(env), "sys_initial": "zero"},
    }
    path = _write(work / "transducer3_config.json", config)
    check = partial(checks.transducer_table, h0_env=h0_env, env_initial=env,
                    T=t_total, x=x, csv=False)
    return _run_job("transducer3", path, work / "transducer3.json", check)


def _custom_channel(seed: int, dim: int, n_outcomes: int, work: Path) -> Job:
    """Exact channel: Haar-unitary row blocks times exp(-i x H)."""
    rng = np.random.default_rng([seed, 3, dim, n_outcomes])
    u = _haar(rng, dim * n_outcomes)
    h = _hermitian(rng, dim)
    x = float(rng.uniform(-0.5, 0.5))
    w, v = np.linalg.eigh(h)
    rot = (v * np.exp(-1j * x * w)) @ v.conj().T
    mats = [u[k * dim:(k + 1) * dim, :dim] @ rot for k in range(n_outcomes)]
    dmats = [m @ (-1j * h) for m in mats]
    labels = [str(k) for k in range(n_outcomes)]
    mask = int(rng.integers(1, 2**n_outcomes))
    retained = [lbl for k, lbl in enumerate(labels) if mask >> k & 1]
    psi = _unit_vector(rng, dim)
    config = {
        "kind": "custom_channel",
        "parameters": {"x": x},
        "outcomes": [
            {"label": lbl, "matrix": _pair_matrix(m), "derivative": _pair_matrix(dm)}
            for lbl, m, dm in zip(labels, mats, dmats)
        ],
        "retained": retained,
        "states": {"psi": _pair_vector(psi)},
    }
    name = f"custom_channel_d{dim}_k{n_outcomes}"
    path = _write(work / f"{name}_config.json", config)
    check = partial(checks.channel_report, mats=mats, dmats=dmats, psi=psi)
    return _run_job(name, path, work / f"{name}.json", check)


def channel_algebra(seed: int, work: Path, root: Path) -> list:
    jobs = [_bundled_fig1b(root, work), _qutrit_transducer(seed, work)]
    jobs += [_custom_channel(seed, dim, k, work)
             for dim in (2, 3, 4) for k in (1, 2, 3, 4)]
    return jobs + [_verify_job("chain"), _verify_job("gauge")]


# -- collision_sweep -------------------------------------------------------

def _dephasing_sweep(seed: int, work: Path) -> Job:
    """Commuting qubit model swept over gamma; 8 points at N=2048.

    The decay rates gamma*|L|^2 stay above 0.5, so every point's discrete
    channel has a completeness residual above 1e-10 and counts as
    approximate; below that some seeds would get exact channels, which the
    CLI regauges, and the work per round would depend on the seed.
    """
    rng = np.random.default_rng([seed, 4])
    # level spacing of at least 2 keeps Var(H0) away from zero
    h0 = np.diag(rng.uniform(1.0, 2.0, 2) * [-1.0, 1.0]).astype(complex)
    jump = np.diag(rng.uniform(1.0, 1.5, 2)).astype(complex)
    control = np.diag(rng.uniform(-1.0, 1.0, 2)).astype(complex)
    weight = rng.uniform(0.2, 0.8)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    psi = np.array([np.sqrt(weight), np.sqrt(1.0 - weight) * phase])
    t_total = float(rng.uniform(0.8, 1.2))
    n_steps = 2048
    lo, hi = rng.uniform(0.5, 1.0), rng.uniform(1.5, 3.0)
    gammas = np.linspace(lo, hi, 8)
    config = {
        "kind": "dephasing",
        "parameters": {"x": float(rng.uniform(-0.5, 0.5)), "T": t_total,
                       "N": n_steps, "gamma": float(lo), "scheme": "expm_step"},
        "operators": {"h0": _pair_matrix(h0), "jump": _pair_matrix(jump),
                      "control": _pair_matrix(control)},
        "states": {"psi": _pair_vector(psi)},
    }
    path = _write(work / "dephasing_sweep_config.json", config)
    out = work / "dephasing_sweep.json"
    argv = ("sweep", path, "--param", "gamma", "--grid", f"lin:{lo!r}:{hi!r}:8",
            "--output", str(out), "--format", "json")
    check = partial(checks.dephasing_sweep, h0=h0, jump=jump, gammas=gammas,
                    T=t_total, N=n_steps, psi=psi)
    return Job("dephasing_sweep", argv, str(out), check)


def collision_sweep(seed: int, work: Path, root: Path) -> list:
    return [_dephasing_sweep(seed, work), _verify_job("completeness"),
            _verify_job("theorem-soundness")]


BUILDERS = {
    "collision_run": collision_run,
    "channel_algebra": channel_algebra,
    "collision_sweep": collision_sweep,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, work: Path, root: Path) -> list:
    """Write the workload's configs into ``work`` and return its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, work, root)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the configs")
    args = parser.parse_args()
    repo = Path(__file__).resolve().parent.parent
    for job in build(args.workload, args.seed, Path(args.out).resolve(), repo):
        print("qfi " + " ".join(job.argv))
