"""Output checks of the benchmark, computed apart from qfikit.

Each check takes the text a job wrote (JSON report, CSV table or the
lines a verify suite printed) and returns a list of problems; an empty
list means the output is correct. Expected values come from closed forms
and dense matrix exponentials evaluated here with numpy and scipy, never
from qfikit.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.linalg import expm

#: slack for quantities that are equal up to rounding of a few small
#: matrix products
ROUNDING = 1e-10


def _expval(a: np.ndarray, psi: np.ndarray) -> float:
    return float(np.vdot(psi, a @ psi).real)


def _close(name: str, got: float, want: float, tol: float) -> list:
    """Relative comparison, absolute below magnitude 1."""
    err = abs(got - want)
    if not err <= tol * max(1.0, abs(want)):
        return [f"{name} = {got!r}, expected {want!r} within {tol:.1e} (off by {err:.2e})"]
    return []


def _in_unit_interval(name: str, value: float) -> list:
    return [] if 0.0 <= value <= 1.0 else [f"{name} = {value!r} lies outside [0, 1]"]


def order_tol(scheme: str, dt: float, scale: float) -> float:
    """Discretization budget of a step scheme: scale*dt^2 or scale*dt.

    expm_step is second order in dt and euler_paper first order; ``scale``
    carries the model's size, (1 + T*||H_nh||)^2.
    """
    return scale * (dt * dt if scheme == "expm_step" else dt)


def verify_lines(text: str) -> list:
    """A verify suite prints at least one line, and every line passes."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return ["verify suite printed nothing"]
    return [f"line does not pass: {ln!r}" for ln in lines if not ln.endswith(" PASS")]


def dephasing_closed_form(h0, jump, gamma: float, T: float, psi) -> dict:
    """Loss of a commuting model: D = exp(-gamma T L'L), H = H0.

    kappa = 1 - (<HDH> - <HD>^2/<D>) / Var(H); the no-jump weight is <D>
    and the dissipation-free total 4 T^2 Var(H).
    """
    decay = expm(-gamma * T * (jump.conj().T @ jump))
    h_psi = h0 @ psi
    weight = _expval(decay, psi)
    first = float(np.vdot(h_psi, decay @ psi).real)
    second = _expval(decay, h_psi)
    var = _expval(h0 @ h0, psi) - _expval(h0, psi) ** 2
    return {
        "kappa": 1.0 - (second - first**2 / weight) / var,
        "p_check": weight,
        "i_q_baseline": 4.0 * T**2 * var,
    }


def _dephasing_problems(metrics: dict, h0, jump, gamma, T, N, psi, where="") -> list:
    want = dephasing_closed_form(h0, jump, gamma, T, psi)
    h_nh = h0 - 0.5j * gamma * (jump.conj().T @ jump)
    tol = order_tol("expm_step", T / N, (1.0 + T * np.linalg.norm(h_nh, 2)) ** 2)
    problems = _in_unit_interval(f"kappa{where}", metrics["kappa"])
    for key in ("kappa", "p_check", "i_q_baseline"):
        problems += _close(f"{key}{where}", metrics[key], want[key], tol)
    return problems


def dephasing_report(text: str, h0, jump, gamma, T, N, psi) -> list:
    """`qfi run` on a dephasing config against the closed form."""
    return _dephasing_problems(json.loads(text)["metrics"], h0, jump, gamma, T, N, psi)


def dephasing_sweep(text: str, h0, jump, gammas, T, N, psi) -> list:
    """Every row of a gamma sweep against the closed form at its gamma."""
    table = json.loads(text)["table"]
    columns = table["columns"]
    if len(table["rows"]) != len(gammas):
        return [f"sweep has {len(table['rows'])} rows, expected {len(gammas)}"]
    problems = []
    for gamma, row in zip(gammas, table["rows"]):
        metrics = dict(zip(columns, row))
        problems += _close("gamma", metrics["gamma"], gamma, ROUNDING)
        problems += _dephasing_problems(metrics, h0, jump, gamma, T, N, psi,
                                        where=f" at gamma={gamma:.6g}")
    return problems


def collision_kappa(text: str) -> list:
    return _in_unit_interval("kappa", json.loads(text)["metrics"]["kappa"])


def constant_collision_report(text: str, h0, control, jumps, psi, x, T, N,
                              scheme) -> list:
    """Constant-generator collision run against dense exponentials.

    The no-jump weight is ||expm(-i H_nh T) psi||^2. The dissipation-free
    total comes from one augmented exponential expm([[A, E], [0, A]]) with
    A = -i (x H0 + H1) T and E = -i H0 T, whose upper-right block is the
    x-derivative of expm(A).
    """
    metrics = json.loads(text)["metrics"]
    dim = len(psi)
    herm = x * h0 + control
    h_nh = herm - 0.5j * sum(rate * (op.conj().T @ op) for op, rate in jumps)
    end = expm(-1j * T * h_nh) @ psi
    block = np.zeros((2 * dim, 2 * dim), dtype=complex)
    block[:dim, :dim] = block[dim:, dim:] = -1j * T * herm
    block[:dim, dim:] = -1j * T * h0
    aug = expm(block)
    k_psi, dk_psi = aug[:dim, :dim] @ psi, aug[:dim, dim:] @ psi
    overlap = 1j * np.vdot(dk_psi, k_psi)
    i_q_baseline = 4.0 * (float(np.vdot(dk_psi, dk_psi).real) - overlap.real**2)
    tol = order_tol(scheme, T / N, (1.0 + T * np.linalg.norm(h_nh, 2)) ** 2)
    return (
        _in_unit_interval("kappa", metrics["kappa"])
        + _close("p_check", metrics["p_check"], float(np.vdot(end, end).real), tol)
        + _close("i_q_baseline", metrics["i_q_baseline"], i_q_baseline, tol)
    )


def _table_rows(text: str, csv_format: bool) -> list:
    if csv_format:
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{k: float(v) for k, v in row.items()} for row in rows]
    table = json.loads(text)["table"]
    return [dict(zip(table["columns"], row)) for row in table["rows"]]


def transducer_table(text: str, h0_env, env_initial, T, x, csv: bool) -> list:
    """Transducer sweep rows: avg_total pinned at 4 T^2 Var(h0_env).

    The joint evolution is exp(-i x T h0_env) on the environment, whose
    QFI is 4 T^2 Var(h0_env) at every x. The post-selected average equals
    it as x -> 0 and departs from it, relative, by at most
    (x T)^2 Var(h0_env) (eps + 1/eps)^2, the weak-signal condition
    x T sigma << min(eps, 1/eps) of the readout mixing; the tolerance is
    twice that plus rounding. sum_total adds the same nonnegative terms
    without the weights p <= 1, so it is never below avg_total.
    """
    mean = _expval(h0_env, env_initial)
    var = _expval(h0_env @ h0_env, env_initial) - mean**2
    want = 4.0 * T**2 * var
    rows = _table_rows(text, csv)
    if not rows:
        return ["transducer table is empty"]
    problems = []
    for row in rows:
        eps = row["eps"]
        where = f" at eps={eps:.6g}"
        tol = 2.0 * (x * T) ** 2 * var * (eps + 1.0 / eps) ** 2 + ROUNDING
        err = abs(row["avg_total"] - want) / want
        if not err <= tol:
            problems.append(f"avg_total{where} = {row['avg_total']!r}, expected "
                            f"{want!r} within {tol:.1e} relative (off by {err:.2e})")
        if row["sum_total"] < row["avg_total"] * (1.0 - ROUNDING):
            problems.append(f"sum_total {row['sum_total']!r} below avg_total "
                            f"{row['avg_total']!r}{where}")
    return problems


def channel_report(text: str, mats, dmats, psi) -> list:
    """custom_channel: i_q = 4(<G> - Re<F>^2) and avg_ps_qfi <= i_q.

    <G> = sum_w ||dM_w psi||^2 and <F> = sum_w i <dM_w psi | M_w psi>. The
    second test is the paper's statement that post-selection gains nothing
    on average.
    """
    metrics = json.loads(text)["metrics"]
    g_total, f_total = 0.0, 0.0j
    for m, dm in zip(mats, dmats):
        m_psi, dm_psi = m @ psi, dm @ psi
        g_total += float(np.vdot(dm_psi, dm_psi).real)
        f_total += 1j * np.vdot(dm_psi, m_psi)
    i_q = 4.0 * (g_total - f_total.real**2)
    problems = _close("i_q", metrics["i_q"], i_q, ROUNDING)
    if metrics["avg_ps_qfi"] > metrics["i_q"] * (1.0 + ROUNDING):
        problems.append(f"avg_ps_qfi {metrics['avg_ps_qfi']!r} exceeds "
                        f"i_q {metrics['i_q']!r}")
    return problems
