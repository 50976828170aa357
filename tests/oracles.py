"""Independent numerical oracles the tests compare against.

Each oracle takes a different route than the code under test: fidelity
finite differences for QFI, explicit dilation vectors for channel
aggregates, closed-form classical results, the effective generator
for literal Euler products, the collision step loop (one block product
per half step) and the completeness Gramian summed over its N prefixes,
both against ``collision``'s doubling, the per-POVM-element information
chain checked element by element, the matrix trajectories of
``collision.propagate`` reduced to the probe, and the transducer's
mixing grid read one channel per point, and the
``qfi verify`` chain, gauge and theorem-soundness suites read one
instance at a time, the last on the one-seed lossless family. The
one-channel cases of the stacked kernels those routes read
(``mixed_state_derivative``, ``gauge_shift``) live here too.
"""

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from qfikit.collision import (
    EfgIntegrals,
    Theorem2Verdict,
    _cap_norms,
    _fill,
    _hamiltonian,
    _held_to_cap,
    _loss,
    _probe_propagation,
    _step_factors,
    propagate,
)
from qfikit.encoding import (
    ProbeColumns,
    amplification,
    check_lossless_perp,
    complete_report,
    efg,
    fix_perpendicular_gauge,
    phase_shift,
    retained_average,
    theorem1_residuals,
    total_qfi,
)
from qfikit.fisher import (
    DP_FLOOR,
    P_FLOOR,
    classical_fi,
    mixed_state_derivatives,
    sigma_se_qfi,
    sld,
)
from qfikit.quantum_core import (
    Derivatives,
    Ket,
    MeasurementChannel,
    Operator,
    derivative_stack,
    expm,
    mixed_state,
    spectral_norm,
)
from qfikit.scenarios import (_frozen, _ginibre, _haar, _random_hermitian, build_transducer,
                              fig1b_row_from, random_family)
from qfikit.verify import _seeded_draws


def fidelity_pure_qfi(psi_at, x: float, delta: float = 1e-4) -> float:
    """Two-point fidelity estimate 8 (1 - |<psi(x)|psi(x+delta)>|) / delta^2."""
    a = np.asarray(psi_at(x), dtype=complex).reshape(-1)
    b = np.asarray(psi_at(x + delta), dtype=complex).reshape(-1)
    overlap = abs(np.vdot(a, b))
    return 8.0 * (1.0 - overlap) / delta**2


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def root_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), the square root of the fidelity."""
    sr = _psd_sqrt(rho)
    inner = _psd_sqrt(sr @ sigma @ sr)
    return float(np.trace(inner).real)


def bures_mixed_qfi(rho_at, x: float, delta: float = 1e-4) -> float:
    """Two-point Bures estimate 8 (1 - sqrt(F)) / delta^2 for full-rank states."""
    f = root_fidelity(np.asarray(rho_at(x)), np.asarray(rho_at(x + delta)))
    return 8.0 * (1.0 - f) / delta**2


def bernoulli_fi(x: float) -> float:
    return 1.0 / (x * (1.0 - x))


def dilated_state(kraus_mats, deriv_mats, psi: np.ndarray):
    """Joint purification vector and its derivative over system x record.

    The record register gets one basis slot per outcome; block w of the
    joint vector is M_w psi, block w of the derivative is dM_w psi.
    """
    n = len(kraus_mats)
    dim = kraus_mats[0].shape[0]
    joint = np.zeros(dim * n, dtype=complex)
    djoint = np.zeros(dim * n, dtype=complex)
    for w, (m, dm) in enumerate(zip(kraus_mats, deriv_mats)):
        joint[w * dim : (w + 1) * dim] = m @ psi
        djoint[w * dim : (w + 1) * dim] = dm @ psi
    return joint, djoint


def dilated_pure_qfi(kraus_mats, deriv_mats, psi: np.ndarray) -> float:
    """Pure-state QFI of the explicit dilation, 4(<dP|dP> - |<P|dP>|^2)."""
    joint, djoint = dilated_state(kraus_mats, deriv_mats, psi)
    dd = np.vdot(djoint, djoint).real
    ov = np.vdot(joint, djoint)
    return 4.0 * (dd - abs(ov) ** 2)


def dilated_outcome_share(kraus_mats, deriv_mats, psi: np.ndarray, w: int) -> float:
    """4 <d_perp Psi| Pi_w |d_perp Psi> for outcome block w of the dilation."""
    joint, djoint = dilated_state(kraus_mats, deriv_mats, psi)
    dperp = djoint - np.vdot(joint, djoint) * joint
    dim = kraus_mats[0].shape[0]
    block = dperp[w * dim : (w + 1) * dim]
    return 4.0 * float(np.vdot(block, block).real)


def rowwise_completeness(kraus_mats) -> float:
    """||sum M^+ M - 1||, summed with Python's sum one matrix at a time."""
    acc = sum(m.conj().T @ m for m in kraus_mats)
    return float(np.linalg.norm(acc - np.eye(acc.shape[0]), 2))


def rowwise_efg(kraus_mats, deriv_mats, psi: np.ndarray) -> list:
    """(e, f, g, M psi, dM psi) per outcome, in a plain loop over the rows."""
    out = []
    for m, dm in zip(kraus_mats, deriv_mats):
        m_psi = m @ psi
        dm_psi = dm @ psi
        e = float(np.vdot(m_psi, m_psi).real)
        f = complex(1j * np.vdot(dm_psi, m_psi))
        g = float(np.vdot(dm_psi, dm_psi).real)
        out.append((e, f, g, m_psi, dm_psi))
    return out


def rowwise_gauge_fix(kraus_mats, deriv_mats, psi: np.ndarray) -> list:
    """dM + i dtheta M per row, with dtheta = -Re<F_total>/<E_total>."""
    rows = rowwise_efg(kraus_mats, deriv_mats, psi)
    e_total = sum(e for e, _, _, _, _ in rows)
    f_total = sum((f for _, f, _, _, _ in rows), 0j)
    dtheta = -f_total.real / e_total
    return [dm + 1j * dtheta * m for m, dm in zip(kraus_mats, deriv_mats)]


def rowwise_perp(kraus_mats, deriv_mats, psi, kept, tol, dead_floor):
    """Perpendicular-gauge residuals and verdict, one outcome at a time.

    ``kept`` flags the retained rows. Returns (retained residuals,
    discarded residuals, flagged row indices, lossless): |<M psi|dM psi>|
    on retained rows, ||dM psi|| on discarded rows, and the retained rows
    of weight at most ``dead_floor`` whose ||dM psi|| exceeds tol.
    """
    ret, dis, flagged = [], [], []
    rows = rowwise_efg(kraus_mats, deriv_mats, psi)
    for n, ((e, _, _, m_psi, dm_psi), keep) in enumerate(zip(rows, kept)):
        norm = float(np.sqrt(np.vdot(dm_psi, dm_psi).real))
        if keep:
            ret.append(float(abs(np.vdot(m_psi, dm_psi))))
            if e <= dead_floor and norm > tol:
                flagged.append(n)
        else:
            dis.append(norm)
    worst = max(ret + dis, default=0.0)
    return ret, dis, flagged, worst <= tol and not flagged


def rowwise_generic(kraus_mats, deriv_mats, psi, kept, tol):
    """Gauge-free residuals and verdict, one outcome at a time.

    Returns (|F_w - F_total E_w| on retained rows,
    |G_dis - F_total conj(F_dis)|, lossless).
    """
    rows = rowwise_efg(kraus_mats, deriv_mats, psi)
    f_total = sum((f for _, f, _, _, _ in rows), 0j)
    ret = []
    f_dis, g_dis = 0j, 0.0
    for (e, f, g, _, _), keep in zip(rows, kept):
        if keep:
            ret.append(abs(f - f_total * e))
        else:
            f_dis += f
            g_dis += g
    dis = abs(g_dis - f_total * f_dis.conjugate())
    return ret, dis, max(ret + [dis]) <= tol


def h_nh(spec, x: float) -> np.ndarray:
    """Effective generator x G + H1 - (i/2) sum_j gamma_j L_j^+ L_j.

    Built from the spec's data one term at a time, the factor behind a
    literal Euler product (1 - i dt H_nh)^N.
    """
    total = x * spec.h0.entries + spec.h1.entries
    for op, rate in spec.jumps:
        total = total - 0.5j * rate * (op.entries.conj().T @ op.entries)
    return total


def rate_column(spec) -> np.ndarray:
    """The spec's rates as an (n_jumps, 1) column."""
    return np.array([rate for _, rate in spec.jumps]).reshape(-1, 1)


def plain_loop(spec, grid, x: float, derivative: bool):
    """(products, mid_products, dproducts, dmid_products) of one block
    product per half step over the whole grid, the derivative arrays None
    without ``derivative``.

    The step-by-step arithmetic that ``collision.propagate``'s doubling
    fill replaces; it reads the same step blocks.
    """
    d = spec.dim
    half, full = _step_factors(grid, *_hamiltonian(spec, x, derivative))
    width = half.shape[-1]
    cols = np.empty((grid.N + 1, width, d), dtype=complex)
    mid_cols = np.empty((grid.N, width, d), dtype=complex)
    cols[0] = 0.0
    cols[0, width - d:] = np.eye(d)
    for n in range(grid.N):
        np.matmul(half, cols[n], out=mid_cols[n])
        if full is None:
            np.matmul(half, mid_cols[n], out=cols[n + 1])
        else:
            np.matmul(full, cols[n], out=cols[n + 1])
    if not derivative:
        return cols, mid_cols, None, None
    return cols[:, d:], mid_cols[:, d:], cols[:, :d], mid_cols[:, :d]


def prefix_gramian(spec, grid, end, prefixes) -> np.ndarray:
    """K_T^+ K_T + sum_n K_n^+ (sum_j gamma_j dt L_j^+ L_j) K_n, one term
    per prefix.

    ``end`` is K_T and ``prefixes`` the (n, d, d) products K_n the jumps
    split from. The prefixes are laid side by side as one (d, n*d) array,
    so each jump costs two matrix products: its damping L^+ L applied to
    all of them, and the sum over n and rows.
    """
    d = spec.dim
    acc = end.conj().T @ end
    if spec.jumps:
        side = prefixes.transpose(1, 0, 2).reshape(d, -1)
        rows = side.reshape(-1, d).conj().T
        for op, rate in spec.jumps:
            damp = op.entries.conj().T @ op.entries
            hit = (damp @ side) * (rate * grid.dt)
            acc = acc + rows @ hit.reshape(-1, d)
    return acc


def prefix_residual(spec, grid, end, prefixes) -> float:
    """|| ``prefix_gramian`` - 1 || (spectral norm), uncapped."""
    return spectral_norm(prefix_gramian(spec, grid, end, prefixes) - np.eye(spec.dim))


def looped_completeness(spec, grid, x: float) -> float:
    """``collision.check_integral_completeness`` over ``plain_loop``'s
    products, the jumps split at every midpoint."""
    products, mids, _, _ = plain_loop(spec, grid, x, False)
    return prefix_residual(spec, grid, products[-1], mids)


@dataclass(frozen=True)
class RefinedConvexityReport:
    """Per-POVM-element chain J_cl <= J(rho) <= J(sigma_SE).

    rows holds (index, J_cl, J_rho, J_sigma_se) per POVM element.
    worst_lower_margin is min(J_rho - J_cl), worst_upper_margin is
    min(J_sigma_se - J_rho), worst_outer_margin is min(J_sigma_se - J_cl).

    Caution: only the two J_cl-anchored links are guaranteed for every
    PSD element (each follows from a Cauchy-Schwarz bound), together with
    the summed identity sum_mu J_rho = QFI(rho) <= QFI(sigma_SE) =
    sum_mu J_sigma_se.  The per-element middle link J_rho <= J_sigma_se
    is only guaranteed at a measurement saturating the classical bound
    (there J_cl = J_rho) and fails for generic POVM elements, so
    worst_upper_margin can be negative on valid inputs.
    """

    rows: tuple
    worst_lower_margin: float
    worst_upper_margin: float
    worst_outer_margin: float

    def outer_ok(self, slack: float = 1e-8) -> bool:
        """Check only the two universally valid J_cl-anchored links."""
        return self.worst_lower_margin >= -slack and self.worst_outer_margin >= -slack


def _conditional_state_and_derivative(m: np.ndarray, dm: np.ndarray, psi: np.ndarray):
    """Normalized conditional state, its derivative, p, dp, and ||d tilde||.

    Differentiates the normalized state sigma = tilde / sqrt(p) rather
    than the raw branch vector, so the returned pair feeds pure_qfi
    directly.
    """
    tilde = m @ psi
    dtilde = dm @ psi
    p = float(np.vdot(tilde, tilde).real)
    dp = 2.0 * float(np.vdot(tilde, dtilde).real)
    if p <= P_FLOOR:
        return None, None, p, dp, float(np.linalg.norm(dtilde))
    s = tilde / np.sqrt(p)
    ds = dtilde / np.sqrt(p) - tilde * (dp / (2.0 * p**1.5))
    return s, ds, p, dp, float(np.linalg.norm(dtilde))


def mixed_state_derivative(channel: MeasurementChannel, derivatives: Derivatives,
                           psi: Ket) -> np.ndarray:
    """``fisher.mixed_state_derivatives`` of one channel and probe, the
    derivatives as (label, Operator) pairs or an (M, d, d) array."""
    return mixed_state_derivatives(channel.stack, derivative_stack(channel, derivatives),
                                   psi.amplitudes)


def gauge_shift(channel: MeasurementChannel, derivatives: Derivatives, theta: float,
                dtheta: float):
    """``encoding.phase_shift`` of one channel: the shifted channel and its
    derivatives as a read-only (M, d, d) array in the channel's label order."""
    stack, dshift = phase_shift(channel.stack, derivative_stack(channel, derivatives),
                                theta, dtheta)
    dshift.flags.writeable = False
    return MeasurementChannel.from_stack(channel.labels, stack, channel.retained), dshift


def refined_convexity_check(channel: MeasurementChannel, derivatives: Derivatives,
                            psi: Ket, povm: Sequence[Operator]) -> RefinedConvexityReport:
    """Check J_cl(E) <= J_rho(E) <= J_sigmaSE(E) for each POVM element.

    derivatives are the channel's dM_w/dx as (label, Operator) pairs or an
    (M, d, d) array in label order. J_cl is the classical information of the
    element's weight, J_rho the SLD-sandwich Tr(rho L E L), and J_sigmaSE
    its refinement over the record-resolved pair, using the block SLD
    (dp/p) I + 2 dsigma of each pure conditional branch.

    Raises
    ------
    ValueError
        POVM elements that are not PSD or do not resolve the identity
        within 1e-10.
    """
    psi.require_normalized()
    dim = channel.dim
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for e in povm:
        if not e.is_psd(1e-10):
            raise ValueError("POVM element is not positive semidefinite")
        acc += e.entries
    if spectral_norm(acc - np.eye(dim)) > 1e-10:
        raise ValueError("POVM does not resolve the identity within 1e-10")

    dks = derivative_stack(channel, derivatives)
    rho = mixed_state(channel, psi)
    drho = mixed_state_derivative(channel, dks, psi)
    l_rho = sld(rho, Operator(drho)).L.entries

    # per-branch block SLDs of the record-resolved state
    branch_terms = []
    for label, m, dm in zip(channel.labels, channel.stack, dks):
        s, ds, p, dp, dtilde_norm = _conditional_state_and_derivative(
            m, dm, psi.amplitudes
        )
        if s is None:
            if dtilde_norm > DP_FLOOR:
                raise ValueError(f"outcome {label!r} is singular; chain undefined")
            continue
        sigma = np.outer(s, s.conj())
        dsigma = np.outer(ds, s.conj()) + np.outer(s, ds.conj())
        l_block = (dp / p) * np.eye(dim) + 2.0 * dsigma
        branch_terms.append((p, sigma, l_block))

    rows = []
    worst_lower = np.inf
    worst_upper = np.inf
    worst_outer = np.inf
    for mu, e in enumerate(povm):
        p_mu = float(np.trace(rho.entries @ e.entries).real)
        dp_mu = float(np.trace(drho @ e.entries).real)
        j_cl = classical_fi(min(max(p_mu, 0.0), 1.0), dp_mu)
        j_rho = float(np.trace(rho.entries @ l_rho @ e.entries @ l_rho).real)
        j_sigma = sum(
            p * float(np.trace(sigma @ lb @ e.entries @ lb).real)
            for p, sigma, lb in branch_terms
        )
        rows.append((mu, j_cl, j_rho, j_sigma))
        worst_lower = min(worst_lower, j_rho - j_cl)
        worst_upper = min(worst_upper, j_sigma - j_rho)
        worst_outer = min(worst_outer, j_sigma - j_cl)
    return RefinedConvexityReport(
        rows=tuple(rows),
        worst_lower_margin=float(worst_lower),
        worst_upper_margin=float(worst_upper),
        worst_outer_margin=float(worst_outer),
    )


def _jumped(spec, split) -> np.ndarray:
    """L_j split[n] for every jump j, stacked as (n_jumps,) + split.shape:
    one matrix product per jump on (N, d) probe rows."""
    out = np.empty((len(spec.jumps),) + split.shape, dtype=complex)
    for j, (op, _) in enumerate(spec.jumps):
        np.matmul(split, op.entries.T, out=out[j])
    return out


#: a matrix trajectory applied to psi: its (2N + 1, 2d) rows [dK psi, K psi],
#: H_nh, K_T and the N prefixes the channel's jumps split from
MatrixProbe = namedtuple("MatrixProbe", "store h_nh end prefixes")

_Reduction = namedtuple("_Reduction", "source psi_end dpsi_end e_check f_check mids")


def _reduced(spec, grid, probe: MatrixProbe) -> _Reduction:
    """What the row readers take from a probe propagation.

    ``source`` is the probe. The reduction holds K psi and dK psi at the
    end time, the no-jump weight e_check = ||K psi||^2, the overlap current
    f_check = i <dK psi, K psi> and ``mids``: the midpoint rates and the
    rows L_j K psi and L_j dK psi (``_jumped``).
    """
    d = spec.dim
    end = probe.store[-1].copy()
    psi_end, dpsi_end = end[d:], end[:d]
    mid_rows = probe.store[1::2]
    mids = (rate_column(spec), _jumped(spec, mid_rows[:, d:]), _jumped(spec, mid_rows[:, :d]))
    return _Reduction(probe, psi_end, dpsi_end, float(np.vdot(psi_end, psi_end).real),
                      1j * np.vdot(dpsi_end, psi_end), mids)


def _columns(spec, grid, red) -> ProbeColumns:
    """The discrete channel's rows M_w psi and dM_w psi, in the order of
    ``build_discrete_channel``, and its ``prefix_residual``, capped."""
    probe, d = red.source, spec.dim
    if grid.scheme == "euler_paper":
        # euler_paper's jumps split at step edges
        rates = rate_column(spec)
        edges = probe.store[0:-1:2]
        jumped, djumped = _jumped(spec, edges[:, d:]), _jumped(spec, edges[:, :d])
    else:
        rates, jumped, djumped = red.mids
    residual = _held_to_cap(grid, _cap_norms((spec,), grid, probe.h_nh[None])[0],
                            prefix_residual(spec, grid, probe.end, probe.prefixes))
    scale = np.sqrt(rates * grid.dt)[:, :, None]
    m = np.concatenate([red.psi_end[None], (jumped * scale).reshape(-1, d)])
    dm = np.concatenate([red.dpsi_end[None], (djumped * scale).reshape(-1, d)])
    return ProbeColumns(m=m, dm=dm, retained_mask=np.arange(len(m)) == 0,
                        completeness_residual=residual)


def _efg(spec, grid, red) -> EfgIntegrals:
    """``collision.efg_integrals`` of a reduction, its jump integrals summed
    row by row."""
    g_check = float(np.vdot(red.dpsi_end, red.dpsi_end).real)

    g_int = 0.0
    f_int = 0.0j
    rates, jumped, djumped = red.mids
    for j in range(len(jumped)):
        w = rates[j] * grid.dt
        g_int += float((w * (np.abs(djumped[j]) ** 2).sum(axis=1)).sum())
        f_int += 1j * (w * (djumped[j].conj() * jumped[j]).sum(axis=1)).sum()
    return EfgIntegrals(
        g_total=g_check + g_int,
        f_total=complex(red.f_check + f_int),
        e_check=red.e_check,
        f_check=complex(red.f_check),
        g_check=g_check,
    )


def _theorem2(red, tol) -> Theorem2Verdict:
    """``collision.check_theorem2`` of a reduction, its jump residual the
    largest of the rows' rate-weighted norms."""
    psi_end, dpsi_end, e_check, f_check, mids = red[1:]
    if e_check <= P_FLOOR:
        raise ValueError(
            f"no-jump weight {e_check:.3e} vanished; verdict undefined"
        )
    dtheta = -f_check.real / e_check

    jump_residual = 0.0
    rates, jumped, djumped = mids
    for j in range(len(jumped)):
        # L_j xi = L_j dK psi + i dtheta L_j K psi
        hit = np.linalg.norm(djumped[j] + 1j * dtheta * jumped[j], axis=1)
        jump_residual = max(
            jump_residual, float((np.sqrt(rates[j]) * hit).max(initial=0.0))
        )

    weight_slope = abs(2.0 * float(np.vdot(psi_end, dpsi_end).real))

    return Theorem2Verdict(
        lossless=(weight_slope <= tol and jump_residual <= tol),
        tol=tol,
        weight_slope=weight_slope,
        jump_residual=jump_residual,
        dtheta=float(dtheta),
    )


def matrix_reduction(spec, grid, psi: Ket, traj):
    """The reduction of ``_reduced``, taken from a matrix trajectory.

    ``traj`` is ``propagate(spec, grid, x)``. Its edge and midpoint
    columns [[dK], [K]] meet psi in one product each (``source.store``),
    and the completeness residual is the plain sum over all N prefixes
    (``end`` and ``prefixes`` of the probe, ``prefix_residual``), not
    the doubled Stein sum.
    """
    d = spec.dim
    store = np.empty((2 * grid.N + 1, 2 * d), dtype=complex)
    store[0::2] = np.concatenate([traj.dproducts, traj.products], axis=1) @ psi.amplitudes
    store[1::2] = np.concatenate([traj.dmid_products, traj.mid_products], axis=1) @ psi.amplitudes
    prefixes = traj.products[:-1] if grid.scheme == "euler_paper" else traj.mid_products
    return _reduced(spec, grid, MatrixProbe(store, traj.h_nh, traj.products[-1], prefixes))


def matrix_route(spec, grid, x: float, psi: Ket, tol: float):
    """``collision.run``'s results from two ``propagate`` trajectories,
    read row by row.

    Returns (baseline E/F/G, E/F/G, loss, theorem-2 verdict, probe
    columns, reduction), read off ``matrix_reduction`` of the jump-free and
    the full model by the row readers, in ``run``'s order.
    """
    free = spec.without_jumps()
    base = _efg(free, grid, matrix_reduction(free, grid, psi, propagate(free, grid, x)))
    red = matrix_reduction(spec, grid, psi, propagate(spec, grid, x))
    columns = _columns(spec, grid, red)
    ints = _efg(spec, grid, red)
    return base, ints, _loss(ints, base), _theorem2(red, tol), columns, red


def transducer_point_route(spec, eps_grid, retained=None, tol: float = 1e-9) -> list:
    """The transducer's mixing grid read one point at a time.

    Each eps gets ``build_transducer`` of the spec at that eps, a
    ``MeasurementChannel`` from ``kraus_from_dilation``, and its own
    ``efg`` report, amplification report and theorem-1 residuals. Returns
    (probe columns, fig1b row, Theorem1Residuals) per point and raises at
    the first failing point, as a loop over the grid meets it.
    """
    out = []
    for eps in eps_grid:
        family, _ = build_transducer(replace(spec, eps=float(eps)), retained=retained)
        report = efg(*family(spec.x), spec.sys_initial)
        out.append((report.columns, fig1b_row_from(eps, amplification(report)),
                    theorem1_residuals(report.columns, tol=tol)))
    return out


def nonempty_subsets(labels) -> list:
    """Every nonempty subset of ``labels``; bit k of the n-th subset's
    index n + 1 marks labels[k]."""
    return [frozenset(label for k, label in enumerate(labels) if mask >> k & 1)
            for mask in range(1, 2 ** len(labels))]


def chain_instance_route(channel, derivatives, psi: Ket) -> list:
    """The chain suite's margins of one instance, read one channel at a time.

    Builds the instance's ``efg`` report, its ``sigma_se_qfi`` and its
    ``sld`` of ``mixed_state``, and returns I_Q - I(sigma_SE),
    I(sigma_SE) - I(rho), then I_Q minus the retained average of each
    ``nonempty_subsets`` subset, taken from the report's rows. Raises the
    instance's first error, as the suite's loop over instances met it.
    """
    report = efg(channel, derivatives, psi)
    i_q = total_qfi(report)
    i_se = sigma_se_qfi(channel, derivatives, psi).total
    drho = mixed_state_derivative(channel, derivatives, psi)
    i_rho = sld(mixed_state(channel, psi), Operator(drho)).qfi
    margins = [i_q - i_se, i_se - i_rho]
    return margins + [i_q - retained_average(report.per_outcome, subset)
                      for subset in nonempty_subsets(channel.labels)]


def gauge_instance_route(channel, derivatives, psi: Ket, x: float) -> list:
    """The gauge suite's drifts of one instance, read one channel at a time.

    Moves the channel by the phase theta(x) = 5x + x^2 with ``gauge_shift``,
    builds both channels' ``complete_report`` and ``amplification``, and
    returns the relative drifts |a - b| / max(|a|, 1) of i_q, avg_ps_qfi,
    kappa and each outcome's i_sigma in label order, 0.0 for an outcome
    dead in both gauges.
    """
    theta, dtheta = 5 * x + x**2, 5 + 2 * x
    moved_channel, moved_derivatives = gauge_shift(channel, derivatives, theta, dtheta)
    base = complete_report(channel, derivatives, psi)
    moved = complete_report(moved_channel, moved_derivatives, psi)
    base_rows, moved_rows = ({label: i for label, _, i, _ in amplification(report).rows}
                             for report in (base, moved))
    pairs = [(base.i_q, moved.i_q), (base.avg_ps_qfi, moved.avg_ps_qfi),
             (base.kappa or 0.0, moved.kappa or 0.0)]
    pairs += [(base_rows.get(label, 0.0), moved_rows.get(label, 0.0))
              for label in channel.labels]
    return [abs(a - b) / max(abs(a), 1.0) for a, b in pairs]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    return _haar(_ginibre(dim, rng))


def lossless_family(dim: int, n_outcomes: int, seed: int):
    """Exact family whose record costs nothing, one seed at a time.

    Each slice is a set of seeded weighted unitaries times one common
    rotation exp(-i x H), with every outcome retained: no outcome weight
    depends on x, so the full information survives post-selection. The
    family maps x to the channel and its derivative stack, both from one
    exp(-i x H). ``scenarios.seeded_lossless_families`` gives every
    slice of a group with these bits.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_outcomes))
    us = [haar_unitary(dim, rng) for _ in range(n_outcomes)]
    h = _random_hermitian(dim, rng)
    labels = [str(w) for w in range(n_outcomes)]

    def family(x):
        rot = expm(-1j * x * h)
        der = -1j * h @ rot
        channel = MeasurementChannel.from_stack(
            labels, [np.sqrt(weights[w]) * us[w] @ rot for w in range(n_outcomes)],
            frozenset(labels))
        return channel, _frozen([np.sqrt(weights[w]) * us[w] @ der
                                 for w in range(n_outcomes)])

    return family


def seeded_instance(seed: int, offset: int = 10_000, build=None):
    """Deterministic family, operating point, and probe of one ``qfi
    verify`` instance.

    ``build(dim, n_outcomes, seed)`` makes the family from the draws of
    ``verify._seeded_draws``, ``random_family`` when None. The suites take
    the same draws, but group their instances by shape (``_grouped``).
    """
    dim, n_outcomes, x, psi = _seeded_draws(seed, offset)
    return (build or random_family)(dim, n_outcomes, seed), x, Ket(psi)


def soundness_instance_route(channel, derivatives, psi: Ket) -> tuple:
    """The theorem-soundness suite's reading of one lossless instance,
    one channel at a time: (certified, kappa).

    Fixes the perpendicular gauge, checks the perp conditions at tol 1e-9
    and, for a certified instance, reads kappa off its
    ``complete_report``, 0.0 when that leaves kappa None; an uncertified
    instance reads (False, 0.0). Raises the instance's first error, as
    the suite's loop over instances met it.
    """
    gauged, _ = fix_perpendicular_gauge(channel, derivatives, psi)
    verdict = check_lossless_perp(channel, gauged, psi, tol=1e-9)
    if not verdict.lossless:
        return False, 0.0
    return True, complete_report(channel, derivatives, psi).kappa or 0.0


def interleaved_probe(grid, h, dh, amps, rows=True):
    """``collision._probe_propagation`` with its rows read off one
    (2N + 1, 2d) store of edges and midpoints per point, the fill that
    ``collision.run`` read before it kept only the N midpoint rows under
    expm_step: there the half-step powers fill all 2N + 1 entries, and the
    end row is the store's last entry, not the full-step powers applied
    one set bit of N at a time. euler_paper's fill is unchanged.
    """
    probe = _probe_propagation(grid, h, dh, amps, rows)
    if not rows or probe.edges is not None:
        return probe
    fs, lead = probe.steps
    store = np.zeros((len(h), 2 * grid.N + 1, 2 * len(amps)), dtype=complex)
    store[:, 0, len(amps):] = amps
    _fill(store, [lead] + fs)
    return probe._replace(mids=store[:, 1::2], end=store[:, -1])
