"""Quantum and classical Fisher information estimators.

Pure-state QFI, mixed-state QFI via the symmetric logarithmic derivative,
classical Fisher information of outcome distributions, the measured-pair
(system plus record) QFI decomposition, and the derivative of the
decohered state.

Every channel-level function takes a channel M_w(x) together with its
derivatives dM_w/dx, as (label, Operator) pairs or an (M, d, d) array in
the channel's label order, read by ``quantum_core.derivative_stack`` as
``encoding`` reads them; none of them differentiates a channel family
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quantum_core import (
    Derivatives,
    Ket,
    MeasurementChannel,
    Operator,
    derivative_stack,
    spectral_norm,
)

__all__ = [
    "P_FLOOR",
    "DP_FLOOR",
    "SldResult",
    "OutcomeQfi",
    "SigmaSeResult",
    "pure_qfi",
    "sld",
    "classical_fi",
    "sigma_se_qfi",
    "mixed_state_derivative",
]

#: below this probability an outcome is treated as dead
P_FLOOR = 1e-12

#: a dead outcome whose state derivative norm exceeds this is singular
DP_FLOOR = 1e-9


@dataclass(frozen=True)
class SldResult:
    """Symmetric logarithmic derivative and the QFI it certifies."""

    L: Operator
    support_cutoff: float
    qfi: float


@dataclass(frozen=True)
class OutcomeQfi:
    """One outcome's share of the measured-pair QFI.

    i_sigma is the QFI of the normalized conditional state, i_cl the
    classical Fisher information of the outcome weight, and i_joint their
    combination p * i_sigma + i_cl.
    """

    label: str
    p: float
    i_sigma: float
    i_cl: float
    i_joint: float


@dataclass(frozen=True)
class SigmaSeResult:
    total: float
    per_outcome: tuple
    singular: tuple


def pure_qfi(psi: Ket, dpsi: Ket) -> float:
    """QFI of a pure state family, 4(<dpsi|dpsi> - |<psi|dpsi>|^2).

    psi must be normalized; dpsi is the x-derivative of the state vector.
    The result is clamped to zero from below (rounding can leave a
    residual around -1e-16 for gauge directions).
    """
    psi.require_normalized()
    if psi.dim != dpsi.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {dpsi.dim}")
    dd = np.vdot(dpsi.amplitudes, dpsi.amplitudes).real
    overlap = np.vdot(psi.amplitudes, dpsi.amplitudes)
    value = 4.0 * (dd - abs(overlap) ** 2)
    if value < -1e-10:
        raise ValueError(f"pure QFI evaluated to {value:.3e}; inputs are inconsistent")
    return max(value, 0.0)


def sld(rho: Operator, drho: Operator, cutoff: Optional[float] = None) -> SldResult:
    """SLD of a state family and the mixed-state QFI Tr(rho L^2).

    L is assembled in rho's eigenbasis via L_ij = 2 (drho)_ij / (w_i + w_j)
    on eigenvalue pairs above the cutoff (default 1e-10 times the trace
    scale); pairs below it are zeroed.

    Raises
    ------
    ValueError
        Non-Hermitian inputs, non-PSD rho, trace defects, or a
        reconstruction residual above 1e-8 on the retained support.
    """
    if not rho.is_hermitian(1e-10):
        raise ValueError("rho is not Hermitian within 1e-10")
    if not drho.is_hermitian(1e-10):
        raise ValueError("drho is not Hermitian within 1e-10")
    tr = rho.entries.trace().real
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"rho trace {tr!r} is not 1 within 1e-8")
    if abs(drho.entries.trace()) > 1e-8:
        raise ValueError("drho is not traceless within 1e-8")
    w = np.linalg.eigvalsh(rho.entries)
    if w.min() < -1e-10:
        raise ValueError(f"rho has negative eigenvalue {w.min():.3e}")
    if cutoff is None:
        cutoff = 1e-10 * max(tr, 1.0)
    w, v = np.linalg.eigh(rho.entries)
    drho_eig = v.conj().T @ drho.entries @ v
    pair_sums = w[:, None] + w[None, :]
    live = pair_sums > cutoff
    l_eig = np.zeros_like(drho_eig)
    l_eig[live] = 2.0 * drho_eig[live] / pair_sums[live]
    # QFI in the eigenbasis: sum_ij w_i |L_ij|^2
    qfi = float(np.einsum("i,ij->", w, np.abs(l_eig) ** 2).real)
    recon = (l_eig * w[None, :] + w[:, None] * l_eig) / 2.0
    gap = np.where(live, recon - drho_eig, 0.0)
    scale = max(1.0, spectral_norm(drho.entries))
    if spectral_norm(gap) > 1e-8 * scale:
        raise ValueError("SLD reconstruction failed on the retained eigensupport")
    l_mat = v @ l_eig @ v.conj().T
    return SldResult(L=Operator(l_mat), support_cutoff=float(cutoff), qfi=qfi)


def classical_fi(p: float, dp: float) -> float:
    """Classical Fisher information dp^2 / p of one outcome weight.

    A dead outcome (p at or below the floor) contributes zero when its
    weight derivative also vanishes, and raises otherwise: the Fisher
    information of a vanishing-probability outcome with live sensitivity
    diverges.
    """
    if p < 0.0 or p > 1.0 + 1e-9:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p <= P_FLOOR:
        if abs(dp) <= DP_FLOOR:
            return 0.0
        raise ValueError(
            f"singular outcome: p = {p:.3e} at the floor but dp = {dp:.3e} is live"
        )
    return dp * dp / p


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


def sigma_se_qfi(channel: MeasurementChannel, derivatives: Derivatives,
                 psi: Ket) -> SigmaSeResult:
    """QFI of the measured system-record pair, outcome by outcome.

    derivatives are the channel's dM_w/dx as (label, Operator) pairs or an
    (M, d, d) array in label order. Per outcome this lists (p, I(sigma), I_cl,
    joint share); the total is the sum of p * I(sigma) + I_cl over live
    outcomes. Dead outcomes with live derivative norm are excluded from
    the total and reported in `singular` instead.
    """
    psi.require_normalized()
    if channel.kind != "exact":
        raise ValueError(
            f"channel is approximate (residual {channel.completeness_residual:.3e}); "
            "the decomposition needs an exact outcome resolution"
        )
    dks = derivative_stack(channel, derivatives)
    rows = []
    singular = []
    total = 0.0
    for label, m, dm in zip(channel.labels, channel.stack, dks):
        s, ds, p, dp, dtilde_norm = _conditional_state_and_derivative(
            m, dm, psi.amplitudes
        )
        if s is None:
            if dtilde_norm > DP_FLOOR:
                singular.append(label)
                continue
            rows.append(OutcomeQfi(label=label, p=p, i_sigma=0.0, i_cl=0.0, i_joint=0.0))
            continue
        i_sigma = pure_qfi(Ket(s), Ket(ds))
        i_cl = classical_fi(min(p, 1.0), dp)
        joint = p * i_sigma + i_cl
        rows.append(OutcomeQfi(label=label, p=p, i_sigma=i_sigma, i_cl=i_cl, i_joint=joint))
        total += joint
    return SigmaSeResult(total=total, per_outcome=tuple(rows), singular=tuple(singular))


def mixed_state_derivative(channel: MeasurementChannel, derivatives: Derivatives,
                           psi: Ket) -> np.ndarray:
    """x-derivative of the decohered state, sum_w dM P M^+ + M P dM^+.

    P is the probe projector; derivatives are (label, Operator) pairs or
    an (M, d, d) array in label order. Terms are added in the channel's
    row order.
    """
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    drho = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for m, dm in zip(channel.stack, derivative_stack(channel, derivatives)):
        drho += dm @ proj @ m.conj().T + m @ proj @ dm.conj().T
    return drho
