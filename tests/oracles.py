"""Independent numerical oracles the tests compare against.

Each oracle takes a different route than the code under test: fidelity
finite differences for QFI, explicit dilation vectors for channel
aggregates, closed-form classical results.
"""

import numpy as np


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
