"""Invariant suites behind `qfi verify`, one per claim of the paper.

- ``chain``: information can only be lost along the measurement chain,
  I_Q >= I(sigma_SE) >= I(rho) and I_Q >= the post-selected average for
  every retained subset, on 100 seeded random channel families.
- ``gauge``: every reported information figure (total QFI, post-selected
  average, kappa, per-outcome conditional QFI) is invariant under an
  x-dependent phase of the Kraus operators, on 25 seeded families.
- ``completeness``: the discrete collision channel approximates a
  complete measurement with the expected order, a residual halving with
  dt in the paper's Euler picture and quartering with the integral
  corrections of the exact-step picture.
- ``theorem-soundness``: a theorem-1 or theorem-2 "lossless" verdict
  comes with a vanishing measured loss kappa, and a model whose jumps
  carry information is refused the theorem-2 certificate. The collision
  models go through ``collision.run``, the recipe of `qfi run`.

Each suite returns (ok, lines): whether every check passed, and the
report lines `qfi verify` prints.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .collision import (
    CollisionSpec,
    TimeGrid,
    check_integral_completeness,
    run,
    trajectory_residual,
)
from .encoding import (
    amplification,
    check_lossless_perp,
    complete_report,
    efg,
    fix_perpendicular_gauge,
    gauge_shift,
    retained_average,
    total_qfi,
)
from .fisher import mixed_state_derivative, sigma_se_qfi, sld
from .quantum_core import Ket, Operator, mixed_state
from .scenarios import _random_hermitian, build_dephasing, lossless_family, random_family

__all__ = ["SUITES"]


def _seeded_instance(seed: int, offset: int = 10_000, build=None):
    """Deterministic family, operating point, and probe for the suites.

    The meta stream seeded with ``offset + seed`` draws the dimension,
    outcome count, x and probe; ``build(dim, n_outcomes, seed)`` makes
    the family, ``random_family`` (looked up per call) when None.
    """
    meta = np.random.default_rng(offset + seed)
    dim = int(meta.integers(2, 5))
    n_outcomes = int(meta.integers(1, 5))
    family = (build or random_family)(dim, n_outcomes, seed)
    x = float(meta.uniform(-0.5, 0.5))
    v = meta.normal(size=dim) + 1j * meta.normal(size=dim)
    psi = Ket(v / np.linalg.norm(v))
    return family, x, psi


def _unit_dephasing():
    """Qubit dephasing with H0 = L = sigma_z, gamma = T = 1, probe |+x>."""
    sz = Operator(np.array([[1, 0], [0, -1]], dtype=complex))
    psi = Ket(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    zero2 = Operator(np.zeros((2, 2), dtype=complex))
    return build_dephasing(sz, zero2, sz, 1.0, 1.0, psi, 0.0), psi


def _nonempty_subsets(labels):
    out = []
    for mask in range(1, 2 ** len(labels)):
        out.append(frozenset(l for k, l in enumerate(labels) if mask >> k & 1))
    return out


def _suite_chain() -> tuple:
    """Monotonicity chain on 100 seeded random families, one contraction
    each: every retained subset's average comes from that report's rows."""
    slack = 1e-8
    violations = 0
    worst = np.inf
    for seed in range(100):
        family, x, psi = _seeded_instance(seed)
        channel, derivatives = family(x)
        report = efg(channel, derivatives, psi)
        i_q = total_qfi(report)
        i_se = sigma_se_qfi(channel, derivatives, psi).total
        drho = mixed_state_derivative(channel, derivatives, psi)
        i_rho = sld(mixed_state(channel, psi), Operator(drho)).qfi
        margins = [i_q - i_se, i_se - i_rho]
        margins += [i_q - retained_average(report.per_outcome, subset)
                    for subset in _nonempty_subsets(channel.labels)]
        worst = min(worst, min(margins))
        if min(margins) < -slack:
            violations += 1
    ok = violations == 0
    lines = [
        f"chain: 100 instances, {violations} violations, "
        f"worst margin {worst:.3e} {'PASS' if ok else 'FAIL'}"
    ]
    return ok, lines


def _suite_gauge() -> tuple:
    """Phase-gauge invariance of every reported information quantity."""
    tol = 1e-8
    worst = 0.0
    for seed in range(25):
        family, x, psi = _seeded_instance(seed)
        channel, derivatives = family(x)
        if seed % 2 and len(channel.labels) > 1:
            channel = replace(channel, retained=frozenset({channel.labels[0]}))
        theta, dtheta = 5 * x + x**2, 5 + 2 * x
        moved_channel, moved_derivatives = gauge_shift(channel, derivatives, theta, dtheta)
        base = complete_report(channel, derivatives, psi)
        moved = complete_report(moved_channel, moved_derivatives, psi)
        base_amp, moved_amp = amplification(base), amplification(moved)
        pairs = [
            (base.i_q, moved.i_q),
            (base.avg_ps_qfi, moved.avg_ps_qfi),
            (base.kappa or 0.0, moved.kappa or 0.0),
        ]
        moved_rows = {lbl: i for lbl, _, i, _ in moved_amp.rows}
        pairs += [(i, moved_rows[lbl]) for lbl, _, i, _ in base_amp.rows]
        for a, b in pairs:
            worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    ok = worst <= tol
    lines = [
        f"gauge: 25 instances, worst relative drift {worst:.3e} "
        f"{'PASS' if ok else 'FAIL'}"
    ]
    return ok, lines


def _suite_completeness() -> tuple:
    """Completeness-residual scaling of both discretization pictures."""
    spec, _ = _unit_dephasing()
    residuals = [trajectory_residual(spec, TimeGrid(1.0, 2**power, "euler_paper"), 0.0)
                 for power in (10, 11, 12, 13, 14)]
    ratios = [residuals[k] / residuals[k + 1] for k in range(len(residuals) - 1)]
    euler_ok = all(1.5 <= r <= 2.5 for r in ratios)
    lines = [
        "completeness: euler halving ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f" {'PASS' if euler_ok else 'FAIL'}"
    ]

    rng = np.random.default_rng(4)
    h = Operator(_random_hermitian(4, rng))
    jump = Operator(_random_hermitian(4, rng))
    pair_spec = CollisionSpec(
        h0=h,
        h1=Operator(np.zeros((4, 4), dtype=complex)),
        jumps=((jump, 0.5),),
        dim=4,
    )
    ints = [
        check_integral_completeness(pair_spec, TimeGrid(1.0, n, "expm_step"), 0.2)
        for n in (256, 512, 1024)
    ]
    int_ratios = [ints[k] / ints[k + 1] for k in range(len(ints) - 1)]
    int_ok = all(3.0 <= r <= 5.0 for r in int_ratios)
    lines.append(
        "completeness: integral doubling ratios "
        + ", ".join(f"{r:.2f}" for r in int_ratios)
        + f", residual at N=1024 {ints[-1]:.3e} {'PASS' if int_ok else 'FAIL'}"
    )
    return euler_ok and int_ok, lines


def _suite_theorem_soundness() -> tuple:
    """A passing lossless verdict must match a vanishing measured loss."""
    lines = []
    ok = True

    certified = 0
    worst_kappa = 0.0
    for seed in range(20):
        family, x, psi = _seeded_instance(seed, 20_000, lossless_family)
        channel, derivatives = family(x)
        gauged, _ = fix_perpendicular_gauge(channel, derivatives, psi)
        verdict = check_lossless_perp(channel, gauged, psi, tol=1e-9)
        if not verdict.lossless:
            continue
        certified += 1
        kappa = complete_report(channel, derivatives, psi).kappa or 0.0
        worst_kappa = max(worst_kappa, kappa)
    sound = certified > 0 and worst_kappa <= 1e-5
    ok = ok and sound
    lines.append(
        f"theorem-soundness: {certified}/20 certified lossless, "
        f"worst kappa {worst_kappa:.3e} {'PASS' if sound else 'FAIL'}"
    )

    # jump operator blind to the evolving subspace: certificate and loss
    # must both come out clean
    gen = Operator(np.diag([1.0, -1.0, 5.0]).astype(complex))
    blind = Operator(np.diag([0.0, 0.0, 1.0]).astype(complex))
    psi3 = Ket(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    spec3 = CollisionSpec(
        h0=gen,
        h1=Operator(np.zeros((3, 3), dtype=complex)),
        jumps=((blind, 0.8),),
        dim=3,
    )
    loss, thm2, _ = run(spec3, TimeGrid(1.0, 16384, "expm_step"), 0.3, psi3)
    blind_ok = thm2.lossless and loss.kappa <= 1e-5
    ok = ok and blind_ok
    lines.append(
        f"theorem-soundness: jump-blind collision certificate "
        f"{'passes' if thm2.lossless else 'fails'}, kappa {loss.kappa:.3e} "
        f"{'PASS' if blind_ok else 'FAIL'}"
    )

    spec, psi = _unit_dephasing()
    loss, thm2, _ = run(spec, TimeGrid(1.0, 4096, "expm_step"), 0.0, psi)
    deph_ok = (thm2.weight_slope <= thm2.tol and thm2.jump_residual > thm2.tol
               and not thm2.lossless and loss.kappa > 0.1)
    ok = ok and deph_ok
    lines.append(
        f"theorem-soundness: dephasing weight slope {thm2.weight_slope:.3e} "
        f"(flat), jump residual {thm2.jump_residual:.3e} (live), "
        f"kappa {loss.kappa:.3f} {'PASS' if deph_ok else 'FAIL'}"
    )
    return ok, lines


#: suite name -> function returning (ok, report lines), in `qfi verify` order
SUITES = {
    "chain": _suite_chain,
    "gauge": _suite_gauge,
    "completeness": _suite_completeness,
    "theorem-soundness": _suite_theorem_soundness,
}
