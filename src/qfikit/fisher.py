"""Quantum and classical Fisher information estimators.

Pure-state QFI, mixed-state QFI via the symmetric logarithmic derivative,
classical Fisher information of outcome distributions, the measured-pair
(system plus record) QFI decomposition, and the derivative of the
decohered state. Each estimator reads a stack with leading axes as
well as one instance (``sld_stack``, ``sigma_se_rows``,
``mixed_state_derivatives``), slice by slice with the same bits.

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
    _modulus,
    _norms,
    _rowdot,
    _running_total,
    derivative_stack,
    refuse,
    require_unit,
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
    "sld_stack",
    "classical_fi",
    "sigma_se_qfi",
    "sigma_se_rows",
    "mixed_state_derivatives",
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


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def pure_qfi(psi, dpsi):
    """QFI of a pure state family, 4(<dpsi|dpsi> - |<psi|dpsi>|^2).

    psi must be normalized; dpsi is the x-derivative of the state vector.
    Both are Kets, or (..., d) arrays whose rows pair up, which give the
    QFI of every row. The result is clamped to zero from below (rounding
    can leave a residual around -1e-16 for gauge directions).
    """
    s, ds = (getattr(v, "amplitudes", v) for v in (psi, dpsi))
    require_unit(s)
    if s.shape != ds.shape:
        raise ValueError(f"dimension mismatch: {s.shape[-1]} vs {ds.shape[-1]}")
    # |<psi|dpsi>| ** 2 squared as a Python float squares
    value = 4.0 * (_rowdot(ds, ds).real - np.float_power(_modulus(_rowdot(s, ds)), 2.0))
    refuse(value < -1e-10,
           lambda n: f"pure QFI evaluated to {value[n]:.3e}; inputs are inconsistent")
    value = np.where(value < 0.0, 0.0, value)
    return value if value.ndim else float(value)


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
    l_mat, cutoff, qfi = sld_stack(rho.entries, drho.entries, cutoff)
    return SldResult(L=Operator(l_mat), support_cutoff=float(cutoff), qfi=float(qfi))


def sld_stack(rho: np.ndarray, drho: np.ndarray, cutoff=None) -> tuple:
    """``sld`` of each slice pair of (..., d, d) stacks, from one
    diagonalization of rho: the SLDs, the cutoffs and the QFIs."""
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    w, v = np.linalg.eigh(rho)
    if cutoff is None:
        cutoff = 1e-10 * np.maximum(tr, 1.0)
    drho_eig = _adjoint(v) @ drho @ v
    pair_sums = w[..., :, None] + w[..., None, :]
    live = pair_sums > np.asarray(cutoff)[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        l_eig = np.where(live, 2.0 * drho_eig / pair_sums, 0.0)
    # QFI in the eigenbasis: sum_ij w_i |L_ij|^2
    qfi = np.einsum("...i,...ij->...", w, np.abs(l_eig) ** 2)
    recon = (l_eig * w[..., None, :] + w[..., :, None] * l_eig) / 2.0
    gap = np.where(live, recon - drho_eig, 0.0)
    norms = spectral_norm(np.stack([rho - _adjoint(rho), drho - _adjoint(drho), drho, gap],
                                   axis=-3))
    refuse(~(norms[..., 0] <= 1e-10), lambda n: "rho is not Hermitian within 1e-10")
    refuse(~(norms[..., 1] <= 1e-10), lambda n: "drho is not Hermitian within 1e-10")
    refuse(np.abs(tr - 1.0) > 1e-8, lambda n: f"rho trace {float(tr[n])!r} is not 1 within 1e-8")
    refuse(np.abs(np.trace(drho, axis1=-2, axis2=-1)) > 1e-8,
           lambda n: "drho is not traceless within 1e-8")
    # eigh sorts the eigenvalues in ascending order
    refuse(w[..., 0] < -1e-10, lambda n: f"rho has negative eigenvalue {w[..., 0][n]:.3e}")
    refuse(norms[..., 3] > 1e-8 * np.maximum(1.0, norms[..., 2]),
           lambda n: "SLD reconstruction failed on the retained eigensupport")
    return v @ l_eig @ _adjoint(v), cutoff, qfi


def classical_fi(p, dp):
    """Classical Fisher information dp^2 / p of one outcome weight, or of
    every entry of arrays p and dp.

    A dead outcome (p at or below the floor) contributes zero when its
    weight derivative also vanishes, and raises otherwise: the Fisher
    information of a vanishing-probability outcome with live sensitivity
    diverges.
    """
    p, dp = np.asarray(p, dtype=float), np.asarray(dp, dtype=float)
    refuse((p < 0.0) | (p > 1.0 + 1e-9), lambda n: f"probability {float(p[n])!r} outside [0, 1]")
    dead = p <= P_FLOOR
    refuse(dead & ~(np.abs(dp) <= DP_FLOOR), lambda n: (
        f"singular outcome: p = {p[n]:.3e} at the floor but dp = {dp[n]:.3e} is live"))
    with np.errstate(divide="ignore", invalid="ignore"):
        fi = np.where(dead, 0.0, dp * dp / p)
    return fi if fi.ndim else float(fi)


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
    *rows, singular, total = sigma_se_rows(channel.stack @ psi.amplitudes,
                                           dks @ psi.amplitudes)
    return SigmaSeResult(
        total=float(total),
        per_outcome=tuple(OutcomeQfi(label, *values) for label, *values, skip
                          in zip(channel.labels, *(r.tolist() for r in rows), singular)
                          if not skip),
        singular=tuple(label for label, skip in zip(channel.labels, singular) if skip))


def sigma_se_rows(m: np.ndarray, dm: np.ndarray) -> tuple:
    """``sigma_se_qfi`` of (..., M, d) probe branches m_w = M_w psi and
    dm_w = dM_w psi: p, I(sigma), I_cl and the joint share of every
    outcome, the mask of singular outcomes, and the row-order total.

    Each live outcome differentiates its normalized state sigma =
    tilde / sqrt(p) rather than the raw branch vector, so the pair feeds
    ``pure_qfi`` directly.
    """
    p, dp = _rowdot(m, m).real, 2.0 * _rowdot(m, dm).real
    live = (p > P_FLOOR)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(p)[..., None]
        s = m / root
        ds = dm / root - m * (dp / (2.0 * np.float_power(p, 1.5)))[..., None]
    # a dead outcome reads the state pair (e_0, 0), whose QFI is zero
    i_sigma = pure_qfi(np.where(live, s, np.eye(m.shape[-1])[0]), np.where(live, ds, 0.0))
    i_cl = classical_fi(np.minimum(p, 1.0), np.where(live[..., 0], dp, 0.0))
    joint = p * i_sigma + i_cl
    singular = ~live[..., 0] & (_norms(dm) > DP_FLOOR)
    return p, i_sigma, i_cl, joint, singular, _running_total(np.where(live[..., 0], joint, 0.0),
                                                               0.0)


def mixed_state_derivatives(stack: np.ndarray, dstack: np.ndarray, psi: np.ndarray):
    """x-derivative of the decohered state, sum_w dM P M^+ + M P dM^+ with
    P the probe projector, for (..., M, d, d) Kraus and derivative stacks
    on (..., d) probes, its terms added in row order."""
    proj = (psi[..., :, None] * psi.conj()[..., None, :])[..., None, :, :]
    terms = dstack @ proj @ _adjoint(stack) + stack @ proj @ _adjoint(dstack)
    return np.add.accumulate(terms, axis=-3)[..., -1, :, :] + 0.0
