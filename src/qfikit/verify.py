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

The chain, gauge and theorem-soundness suites draw each instance from
its own seeded streams, group the instances by shape (dimension and
outcome count, and for ``gauge`` the retained set) and read each group in
one stacked pass with a leading instance axis: one ``seeded_families``
(``seeded_lossless_families``) call, one ``expm`` and stacked SVDs, QR and
``eigh``, no channel or report per instance; theorem-soundness reads the
grid perp verdict. A faulty instance raises its route's error and seed.

Each suite returns (ok, lines): whether every check passed, and the
report lines `qfi verify` prints.
"""

from __future__ import annotations

import numpy as np

from .collision import (
    CollisionSpec,
    TimeGrid,
    check_integral_completeness,
    run,
    trajectory_residual,
)
from .encoding import (
    ProbeColumns,
    _kappa_range,
    _perp_grid,
    amplification_grid,
    grid_statistics,
    phase_shift,
)
from .fisher import mixed_state_derivatives, sigma_se_rows, sld_stack
from .quantum_core import (EXACT_RESIDUAL_TOL, Ket, Operator, SliceError, _running_total,
                           completeness, mixed_states, refuse, require_unit)
from .scenarios import (_random_hermitian, build_dephasing, seeded_families,
                        seeded_lossless_families)

__all__ = ["SUITES"]


def _seeded_draws(seed: int, offset: int = 10_000) -> tuple:
    """The dimension, outcome count, x and probe amplitudes that the meta
    stream seeded with ``offset + seed`` draws for one instance."""
    meta = np.random.default_rng(offset + seed)
    dim = int(meta.integers(2, 5))
    n_outcomes = int(meta.integers(1, 5))
    x = float(meta.uniform(-0.5, 0.5))
    v = meta.normal(size=dim) + 1j * meta.normal(size=dim)
    return dim, n_outcomes, x, v / np.linalg.norm(v)


def _grouped(seeds, key=lambda seed, dim, n_outcomes: (dim, n_outcomes),
             offset: int = 10_000) -> dict:
    """The instances ``_seeded_draws`` draws at ``offset``, by shape:
    ``key(seed, dim, n_outcomes)``, which starts with dim and n_outcomes,
    maps to the group's seeds, (G,) x and (G, dim) probes in seed order."""
    groups = {}
    for seed in seeds:
        dim, n_outcomes, x, psi = _seeded_draws(seed, offset)
        for part, value in zip(groups.setdefault(key(seed, dim, n_outcomes), ([], [], [])),
                               (seed, x, psi)):
            part.append(value)
    return {k: (members, np.array(xs), np.array(psis))
            for k, (members, xs, psis) in groups.items()}


def _columns(stack, dstack, psi, kept, exact: bool = False) -> ProbeColumns:
    """The probe columns of a group: (G, M, d, d) stacks on (G, d) probes;
    ``exact`` first refuses an inexact channel, as the gauge fix does."""
    residual = completeness(stack)
    refuse(exact & ~(residual <= EXACT_RESIDUAL_TOL),
           lambda n: "gauge fixing expects an exact channel")
    require_unit(psi)
    probes = psi[:, None, :, None]
    return ProbeColumns(m=(stack @ probes)[..., 0], dm=(dstack @ probes)[..., 0],
                        retained_mask=kept, completeness_residual=residual)


def _named(seeds, evaluate, *args):
    """``evaluate(*args)`` on a group, naming a failing instance's seed."""
    try:
        return evaluate(*args)
    except SliceError as err:
        raise ValueError(f"seed {seeds[err.index[0]]}: {err}") from None


def _chain_margins(stack, dstack, psi) -> np.ndarray:
    """The chain's margins of a group: I_Q - I(sigma_SE), I(sigma_SE) -
    I(rho), then I_Q minus each nonempty retained subset's average, the
    subsets in the order of their bit masks 1, 2, ..., 2^M - 1 over the
    outcomes, one row per instance."""
    n_outcomes = stack.shape[1]
    labels = [str(w) for w in range(n_outcomes)]
    c = _columns(stack, dstack, psi, np.ones(n_outcomes, dtype=bool))
    i_q, share = grid_statistics(labels, c)[:2]
    i_se = sigma_se_rows(c.m, c.dm)[-1]
    rho = mixed_states(c.m, c.completeness_residual)
    i_rho = sld_stack(rho, mixed_state_derivatives(stack, dstack, psi))[2]
    subsets = np.arange(1, 2**n_outcomes)[:, None] >> np.arange(n_outcomes) & 1 == 1
    averages = _running_total(np.where(subsets, share[:, None, :], 0.0), 0.0)
    return np.column_stack([i_q - i_se, i_se - i_rho, i_q[:, None] - averages])


def _gauge_drifts(xs, stack, dstack, psi, kept) -> np.ndarray:
    """The relative drifts of i_q, avg_ps_qfi, kappa and every outcome's
    i_sigma of a group under the phase theta(x) = 5x + x^2, one row per
    instance. One pass reads both gauges: row n of it is instance n as
    given and row G + n the same instance moved."""
    labels = [str(w) for w in range(stack.shape[1])]
    theta = 5 * xs + np.float_power(xs, 2.0)
    both = [np.concatenate(pair) for pair in
            zip((stack, dstack), phase_shift(stack, dstack, theta, 5 + 2 * xs))]
    amp = amplification_grid(labels, _columns(*both, np.concatenate([psi, psi]), kept))
    a, b = np.split(np.column_stack([amp.i_q, amp.avg_ps_qfi, amp.kappa, amp.i_sigma]), 2)
    return np.abs(a - b) / np.maximum(np.abs(a), 1.0)


def _unit_dephasing():
    """Qubit dephasing with H0 = L = sigma_z, gamma = T = 1, probe |+x>."""
    sz = Operator(np.array([[1, 0], [0, -1]], dtype=complex))
    psi = Ket(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    zero2 = Operator(np.zeros((2, 2), dtype=complex))
    return build_dephasing(sz, zero2, sz, 1.0, 1.0, psi, 0.0), psi


def _suite_chain() -> tuple:
    """Monotonicity chain on 100 seeded random families, one stacked pass
    per shape group: every retained subset's average comes from the
    group's shares."""
    slack = 1e-8
    worst_each = []
    for (dim, n_outcomes), (group, xs, psi) in _grouped(range(100)).items():
        stacks = seeded_families(dim, n_outcomes, group)(xs)
        worst_each.append(_named(group, _chain_margins, *stacks, psi).min(axis=1))
    worst_each = np.concatenate(worst_each)
    violations = int((worst_each < -slack).sum())
    worst = worst_each.min()
    ok = violations == 0
    lines = [
        f"chain: 100 instances, {violations} violations, "
        f"worst margin {worst:.3e} {'PASS' if ok else 'FAIL'}"
    ]
    return ok, lines


def _gauge_shape(seed, dim, n_outcomes) -> tuple:
    """A gauge instance's group: its dim, its outcome count and its retained
    mask, where an odd seed with several outcomes keeps only outcome 0."""
    return dim, n_outcomes, tuple(w == 0 or seed % 2 == 0 for w in range(n_outcomes))


def _suite_gauge() -> tuple:
    """Phase-gauge invariance of every reported information quantity on 25
    seeded random families, one stacked pass per shape group."""
    tol = 1e-8
    worst = 0.0
    for (dim, n_outcomes, kept), (group, xs, psi) in _grouped(range(25), _gauge_shape).items():
        stacks = seeded_families(dim, n_outcomes, group)(xs)
        drifts = _named(group * 2, _gauge_drifts, xs, *stacks, psi, np.array(kept))
        worst = max(worst, drifts.max())
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


def _soundness(seeds, stack, dstack, psi) -> tuple:
    """The (G,) theorem-1 perp verdicts (tol 1e-9) of a lossless group and
    the kappas of its certified instances (0.0 where uninformative). As on
    the instance route, the gauge fix refuses an inexact channel first, and
    only certified instances meet ``complete_report``'s checks."""
    labels = [str(w) for w in range(stack.shape[1])]
    kept = np.ones(len(labels), dtype=bool)
    c = _named(seeds, _columns, stack, dstack, psi, kept, True)
    certified = _perp_grid(c)[1]
    named = np.compress(certified, seeds)
    i_q, _, _, kappa = _named(named, grid_statistics, labels, ProbeColumns(
        c.m[certified], c.dm[certified], kept, c.completeness_residual[certified]))
    return certified, np.where(_named(named, _kappa_range, i_q, kappa), kappa, 0.0)


def _suite_theorem_soundness() -> tuple:
    """A passing lossless verdict must match a vanishing measured loss: 20
    lossless families in 9 (dim, outcomes) groups, one ``_soundness`` each."""
    certified, worst_kappa = 0, 0.0
    for (dim, n_outcomes), (group, xs, psi) in _grouped(range(20), offset=20_000).items():
        lossless, kappa = _soundness(
            group, *seeded_lossless_families(dim, n_outcomes, group)(xs), psi)
        certified += int(lossless.sum())
        worst_kappa = max(worst_kappa, kappa.max(initial=0.0))
    ok = sound = certified > 0 and worst_kappa <= 1e-5
    lines = [f"theorem-soundness: {certified}/20 certified lossless, "
             f"worst kappa {worst_kappa:.3e} {'PASS' if sound else 'FAIL'}"]

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
    loss, thm2, _, _ = run(spec3, TimeGrid(1.0, 16384, "expm_step"), 0.3, psi3)
    blind_ok = thm2.lossless and loss.kappa <= 1e-5
    ok = ok and blind_ok
    lines.append(
        f"theorem-soundness: jump-blind collision certificate "
        f"{'passes' if thm2.lossless else 'fails'}, kappa {loss.kappa:.3e} "
        f"{'PASS' if blind_ok else 'FAIL'}"
    )

    spec, psi = _unit_dephasing()
    loss, thm2, _, _ = run(spec, TimeGrid(1.0, 4096, "expm_step"), 0.0, psi)
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
