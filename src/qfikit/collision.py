"""Collision-model simulation of post-selected non-Hermitian evolution.

The probe couples to a fresh environment unit per time step. Keeping the
no-jump record at every collision conditions the state on an effective
non-Hermitian generator; each possible first jump becomes a discarded
measurement branch. This module builds that picture on a finite grid:
time-ordered propagation, the first-jump channel of outcomes, the
completeness and E/F/G integrals of the continuum limit, a two-part
losslessness check for the no-jump branch, and the resulting
information-loss fraction.

A model is constant data: the generator G of H0 = x*G, the control H1
and jump pairs (L_j, gamma_j). Its effective generator H_nh is formed
once per propagation, and every step repeats one step block.

Two step rules are provided. ``euler_paper`` multiplies the first-order
factors 1 - i*H*dt, the textbook discretization; ``expm_step`` multiplies
half-step matrix exponentials and is the accurate production scheme
(second order, norm-nonincreasing).

The x-derivative travels inside the product: every step multiplies the
block [[S, dS], [0, S]] into the column [[dK], [K]], the block-triangular
form whose exponential yields the Frechet derivative of expm (Van Loan
1978, "Computing integrals involving the matrix exponential"). Since the
block B repeats, a propagation is filled by doubling in the I + F form,
B^m = I + F_m and F_2m = 2 F_m + F_m F_m, the scaling-and-squaring idea
of ``quantum_core.expm``: O(log N) numpy calls, and the completeness
Gramian is a doubled Stein sum over the same F_m (Smith 1968), with no
array of N matrices. Time dependence, if a model ever needs it, composes
this per segment: a piecewise-constant schedule chains each segment's
doubled products and Stein sums, S = S_1 + (A_1^N1)^+ S_2 A_1^N1.

Runs propagate the probe, not the propagator (Al-Mohy & Higham 2011):
every statistic is an expectation in psi, read off probe rows [dK psi,
K psi], N midpoint rows (P, N, 2d) for P points under expm_step and 2N + 1
edge and midpoint rows under euler_paper. Its jump sums are Gramian
blocks, each verdict maximum one pass over them, and the jump-free
baseline an end row; no channel row or Kraus matrix (the matrix route of
``propagate``) is built. ``run_points`` is the recipe of `qfi run` and
`qfi sweep`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .encoding import KAPPA_DENOM_FLOOR, Theorem1Residuals, _gauge_rate, _theorem1
from .fisher import P_FLOOR
from .quantum_core import (Ket, MeasurementChannel, Operator, channel_kind, expm,
                           spectral_norm)

__all__ = [
    "SCHEMES",
    "CollisionSpec",
    "TimeGrid",
    "NhTrajectory",
    "IntegratorFailure",
    "propagate",
    "build_discrete_channel",
    "discrete_channel_derivatives",
    "trajectory_residual",
    "check_integral_completeness",
    "EfgIntegrals",
    "efg_integrals",
    "Theorem2Verdict",
    "check_theorem2",
    "NhLossResult",
    "nh_loss",
    "CollisionRun",
    "run",
    "run_points",
    "dephasing_closed_form",
]

SCHEMES = ("euler_paper", "expm_step")

#: Hermiticity budget for the Hamiltonian x*G + H1.
HERMITIAN_TOL = 1e-10


class IntegratorFailure(RuntimeError):
    """Propagation produced non-finite entries or an implausible residual."""


def _operator(name: str, op, dim: int) -> None:
    if not isinstance(op, Operator):
        raise TypeError(f"{name} must be an Operator, got {type(op).__name__}: "
                        "collision specs are constant data")
    if op.dim != dim:
        raise ValueError(f"{name} dimension {op.dim} does not match {dim}")


@dataclass(frozen=True)
class CollisionSpec:
    """Generator data for one collision model, all of it constant.

    Parameters
    ----------
    h0 : Operator
        The generator G of the estimation Hamiltonian H0 = x*G, so that
        dH0/dx = G (units 1/time). x*G + H1 must be Hermitian within 1e-10
        at the x it is propagated at.
    h1 : Operator
        The control Hamiltonian.
    jumps : sequence of (Operator, float)
        Each entry couples a jump operator L_j to its rate gamma_j, a
        finite number >= 0 (units 1/time), stored as a float.
    dim : int
        Hilbert-space dimension.

    Anything but an Operator in place of h0, h1 or L_j, or anything but a
    real number in place of a rate (a function of time, say), raises
    TypeError; a negative or non-finite rate raises ValueError. Both are
    checked once, at construction.
    """

    h0: Operator
    h1: Operator
    jumps: tuple
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        _operator("h0", self.h0, self.dim)
        _operator("h1", self.h1, self.dim)
        jumps = []
        for j, (op, rate) in enumerate(self.jumps):
            _operator("jump operator", op, self.dim)
            if not isinstance(rate, numbers.Real):
                raise TypeError(f"rate of jump {j} must be a real number, got "
                                f"{type(rate).__name__}: collision specs are constant data")
            rate = float(rate)
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError(f"rate of jump {j} must be finite and nonnegative, "
                                 f"got {rate!r}")
            jumps.append((op, rate))
        object.__setattr__(self, "jumps", tuple(jumps))

    def without_jumps(self) -> "CollisionSpec":
        """The dissipation-free member of the same family."""
        return CollisionSpec(self.h0, self.h1, (), self.dim)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of N steps covering [0, T].

    dt is derived as T/N, never stored independently, so dt*N = T holds by
    construction.
    """

    T: float
    N: int
    scheme: str = "expm_step"

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need at least one step, got N={self.N}")
        if not self.T > 0.0:
            raise ValueError(f"total time must be positive, got T={self.T}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")

    @property
    def dt(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class NhTrajectory:
    """Time-ordered no-jump products and their parameter derivatives.

    The matrix route: ``propagate`` returns it for the explicit channel,
    and the probe propagation of ``run`` is tested against it; ``run``
    forms none.

    ``products[n]`` is the cumulative factor after n steps (index 0 is the
    identity), so ``products[n] @ psi`` is the unnormalized conditional
    state at t_n. ``mid_products[n]`` extends ``products[n]`` by half a
    step under the scheme's local rule and supplies the midpoint samples
    used by every quadrature here. The derivative arrays follow the same
    indexing and are None when propagation skipped them. ``h_nh`` is the
    effective generator behind the factors.

    All four arrays are strided views of one dense (2N+1, 2*dim, dim)
    column store [[dK], [K]] (K alone without derivatives), a few tens of
    MB at N <= 2**14. Its entries are filled by doubling and differ from a
    literal step product by rounding only (about 1e-14 relative).

    Under ``expm_step`` each factor is a contraction, so conditional-state
    norms never increase. The ``euler_paper`` factors have norm >= 1 at
    zero rate and can grow the norm by O(||H||^2 dt^2) per step; callers
    comparing norms must budget for that.
    """

    grid: TimeGrid
    x: float
    products: np.ndarray
    mid_products: np.ndarray
    h_nh: np.ndarray
    dproducts: Optional[np.ndarray] = None
    dmid_products: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.products.shape[-1]


def _rates(spec: CollisionSpec) -> np.ndarray:
    """The rates gamma_j as one (n_jumps, 1) column, which broadcasts over
    the steps."""
    return np.array([rate for _, rate in spec.jumps]).reshape(-1, 1)


def _damping(spec: CollisionSpec, dt: float) -> np.ndarray:
    """D = sum_j gamma_j dt L_j^+ L_j, the jump weight of one step."""
    return sum((rate * dt * (op.entries.conj().T @ op.entries) for op, rate in spec.jumps),
               np.zeros((spec.dim, spec.dim), dtype=complex))


def _hamiltonian(spec: CollisionSpec, x: float, derivative: bool = False):
    """(H_nh, dH_nh/dx) at x; the derivative, G, is None unless asked for.

    Hermiticity of x*G + H1 is enforced via the Frobenius norm of A - A^+
    (an upper bound on the spectral defect).
    """
    herm = x * spec.h0.entries + spec.h1.entries
    defect = float(np.linalg.norm(herm - herm.conj().T))
    if defect > HERMITIAN_TOL:
        raise ValueError(f"Hamiltonian is not Hermitian at x={x:.6g}: defect {defect:.3e}")
    if spec.jumps:
        herm = herm - 0.5j * _damping(spec, 1.0)
    return herm, (spec.h0.entries if derivative else None)


def _hamiltonians(specs, xs) -> tuple:
    """(H_nh, dH_nh/dx, faults) of the points, stacked; where x*G + H1 is not
    Hermitian, a zero H_nh and the ValueError in ``faults``."""
    hs, faults = [], [None] * len(specs)
    for i, (spec, x) in enumerate(zip(specs, xs)):
        try:
            hs.append(_hamiltonian(spec, x)[0])
        except ValueError as err:
            hs.append(np.zeros((spec.dim, spec.dim), dtype=complex))
            faults[i] = err
    return np.stack(hs), np.stack([spec.h0.entries for spec in specs]), faults


def _step_block(factor, dfactor):
    """[[S, dS], [0, S]], or S alone when dS is None, of matrices or stacks:
    applied to the column [[dK], [K]] it gives [[S dK + dS K], [S K]], the
    product rule for d(SK)/dx in one matrix product."""
    if dfactor is None:
        return factor
    n = factor.shape[-1]
    block = np.zeros(factor.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    block[..., :n, :n] = block[..., n:, n:] = factor
    block[..., :n, n:] = dfactor
    return block


def _step_factors(grid, h, dh) -> tuple:
    """(half, full): the step blocks of the grid's scheme for H_nh ``h`` and
    its derivative ``dh`` (None without derivatives), matrices or stacks:
    [[S, dS], [0, S]], or S alone. The expm scheme composes a full step as
    two half steps, so its full block is None."""
    dt = grid.dt
    if grid.scheme == "euler_paper":
        eye = np.eye(h.shape[-1], dtype=complex)
        half = _step_block(eye - 0.5j * dt * h, None if dh is None else -0.5j * dt * dh)
        full = _step_block(eye - 1j * dt * h, None if dh is None else -1j * dt * dh)
        return half, full

    # expm([[A, E], [0, A]]) holds expm(A) on its diagonal blocks and the
    # derivative of expm(A) along E in its upper-right block
    return expm(_step_block(-0.5j * dt * h, None if dh is None else -0.5j * dt * dh)), None


def _advance(dst, f, src):
    """dst = src + f src, the product written into ``dst`` first: from the
    left on column stores (n, width, d), from the right on rows (P, n, width)."""
    if f.ndim == 3:
        np.matmul(src, f.swapaxes(-1, -2), out=dst)
    else:
        np.matmul(f, src, out=dst)
    dst += src


def _fill(store, fs, filled=1):
    """store[m + k] = store[k] + F_m store[k], k < m = filled * 2^i: entry n
    becomes step^n store[0] (axis 0 of column stores, 1 of rows)."""
    for k, f in enumerate(fs):
        m = filled << k
        lead = (slice(None),) * (f.ndim - 2)
        count = min(m, store.shape[f.ndim - 2] - m)
        _advance(store[lead + (slice(m, m + count),)], f, store[lead + (slice(count),)])


def _powers(half, full, n_steps):
    """(fs, lead): A^(2^k) = I + fs[k] for the full step A, lead = B - I for
    the half step B of expm_step (A = B B), else None; of matrices or stacks.

    F_2m = 2 F_m + F_m F_m: carried as I + F, a near-identity power keeps
    the digits of F that squaring the power itself would round into I.
    """
    step = half if full is None else full
    fs = [step - np.eye(step.shape[-1])]
    for _ in range(int(n_steps).bit_length() - (full is not None)):
        fs.append(2.0 * fs[-1] + np.matmul(fs[-1], fs[-1]))
    return (fs[1:], fs[0]) if full is None else (fs, None)


def _require_finite(grid, *arrays):
    if not all(np.isfinite(array).all() for array in arrays):
        raise IntegratorFailure(
            f"propagation produced non-finite entries at N={grid.N}, "
            f"scheme {grid.scheme}; reduce dt or rescale the generator"
        )


class _Probe(NamedTuple):
    """Probe rows [dK psi, K psi] of P points: ``mids`` (P, N, 2d) at step midpoints,
    ``edges`` before them under euler_paper (else None), ``end`` (P, 2d); ``_powers``."""

    mids: Optional[np.ndarray]
    edges: Optional[np.ndarray]
    end: np.ndarray
    steps: tuple


def propagate(spec: CollisionSpec, grid: TimeGrid, x: float,
              derivative: bool = True) -> NhTrajectory:
    """Accumulate the no-jump factors over the grid, in time order.

    Each cumulative product K is held as the column [[dK], [K]] (K alone
    without derivatives) and advanced by the step block [[S, dS], [0, S]],
    so the x-derivative follows the product rule exactly, which stays
    accurate at x values where differencing full propagators would
    cancel. The products and their derivatives are views of one column
    store, filled by doubling (``_fill``): at most 2*log2(2N + 1)
    products in all.
    """
    d = spec.dim
    width = 2 * d if derivative else d
    h_nh, dh = _hamiltonian(spec, x, derivative)
    half, full = _step_factors(grid, h_nh, dh)
    store = np.empty((2 * grid.N + 1, width, d), dtype=complex)
    store[0] = np.eye(width, d, d - width)
    # overflow here is reported as IntegratorFailure, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        fs, lead = _powers(half, full, grid.N)
        if full is None:
            _fill(store, [lead] + fs)
        else:
            _fill(store[0::2], fs)
            _advance(store[1::2], half - np.eye(width), store[0:-1:2])
    _require_finite(grid, store[-1])
    return NhTrajectory(
        grid=grid,
        x=x,
        products=store[0::2, width - d:],
        mid_products=store[1::2, width - d:],
        h_nh=h_nh,
        dproducts=store[0::2, :d] if derivative else None,
        dmid_products=store[1::2, :d] if derivative else None,
    )


def _probe_propagation(grid, h, dh, amps, rows=True) -> _Probe:
    """``propagate`` of P points (generators ``h``, derivatives ``dh``) on
    the probe psi, its rows doubled; the end rows alone without ``rows``.
    Midpoint row n is A^n B [0, psi] under expm_step; under euler_paper the
    edges are filled, each advanced half a step. An end row is euler_paper's
    last edge, or the powers applied one set bit of N at a time, lowest
    first, which matches a fill's last entry bit for bit only when N is a
    power of two. Non-finite rows are the caller's to refuse."""
    half, full = _step_factors(grid, h, dh)
    first = np.broadcast_to(np.concatenate([np.zeros(len(amps)), amps]), (len(h), 2 * len(amps)))
    points, width = first.shape
    with np.errstate(over="ignore", invalid="ignore"):
        fs, lead = steps = _powers(half, full, grid.N)
        if rows and full is not None:
            store = np.empty((points, 2 * grid.N + 1, width), dtype=complex)
            store[:, 0] = first
            _fill(store[:, 0::2], fs)
            _advance(store[:, 1::2], half - np.eye(width), store[:, 0:-1:2])
            return _Probe(store[:, 1::2], store[:, 0:-1:2], store[:, -1], steps)
        end = first
        for k, f in enumerate(fs):
            if grid.N >> k & 1:
                end = np.matmul(end[:, None], f.swapaxes(-1, -2))[:, 0] + end
        if not rows:
            return _Probe(None, None, end, steps)
        # a head fill from [0, psi] and a spare row keep each round at two
        # rows or more: one row goes to gemv, which rounds apart from gemm
        head = np.empty((points, 4, width), dtype=complex)
        head[:, 0] = first
        _fill(head, [lead, fs[0]])
        store = np.empty((points, grid.N + 1, width), dtype=complex)
        store[:, :2] = head[:, 1::2]
        _fill(store, fs[1:], 2)
    return _Probe(store[:, :-1], None, end, steps)


def _point_probe(spec, grid, x, psi, rows=True) -> _Probe:
    """``_probe_propagation`` of one point, raising its failures."""
    amps = _amplitudes(spec, psi)
    h, dh = _hamiltonian(spec, x, True)
    probe = _probe_propagation(grid, h[None], dh[None], amps, rows)
    _require_finite(grid, probe.end[0])
    return probe


def _first_jump_rows(spec, grid, end, split):
    """Kraus rows of the first-jump channel, as a read-only array.

    Row 0 is ``end``, the no-jump outcome ``check``; row 1 + j*N + n is
    sqrt(gamma_j dt) L_j split[n], the first jump of operator j during
    step n + 1, for the (N, d, d) products ``split``.
    """
    out = np.empty((1 + len(spec.jumps) * grid.N,) + end.shape, dtype=complex)
    out[0] = end
    rows = out[1:].reshape((len(spec.jumps), grid.N) + end.shape)
    for j, (op, _) in enumerate(spec.jumps):
        np.matmul(op.entries, split, out=rows[j])
    rows *= np.sqrt(_rates(spec) * grid.dt)[:, :, None, None]
    out.flags.writeable = False
    return out


def _assemble_channel(spec, psi, grid, x, traj, derivative):
    """Labels and one stack of the first-jump channel, with the trajectory
    the stack was taken from.

    Rows follow ``_first_jump_rows``, labeled ``check`` and
    ``jump<j>@<n+1>``; the stack holds the Kraus matrices, or their
    x-derivatives when ``derivative`` is set.
    """
    if psi.dim != spec.dim:
        raise ValueError(f"state dimension {psi.dim} does not match {spec.dim}")
    if traj is None:
        traj = propagate(spec, grid, x, derivative=derivative)
    elif traj.grid != grid or traj.x != x or traj.dim != spec.dim:
        raise ValueError(
            "trajectory was propagated on another grid, at another x or "
            "for another dimension"
        )
    elif derivative and traj.dproducts is None:
        raise ValueError("trajectory was propagated without derivatives")
    labels = ("check",) + tuple(
        f"jump{j}@{n + 1}" for j in range(len(spec.jumps)) for n in range(grid.N)
    )
    # a jump during step n splits at the prefix of n - 1 steps (euler_paper),
    # or at its midpoint (the midpoint quadrature)
    products, mids = ((traj.dproducts, traj.dmid_products) if derivative
                      else (traj.products, traj.mid_products))
    split = products[:-1] if grid.scheme == "euler_paper" else mids
    return labels, _first_jump_rows(spec, grid, products[-1], split), traj


def _amplitudes(spec, psi: Ket) -> np.ndarray:
    """psi's amplitudes; every statistic is quadratic in psi, so psi must be
    a normalized state of the spec's dimension."""
    if psi.dim != spec.dim:
        raise ValueError(f"state dimension {psi.dim} does not match {spec.dim}")
    psi.require_normalized()
    return psi.amplitudes


def _jump_sums(damp, rows) -> list:
    """(E, F, G) = sum_n (<u|D|u>, i <du|D|u>, <du|D|du>) of each point over its
    rows [du_n, u_n] (P, n, 2d), with its D = ``_damping``, each as
    sum_ab (D)_ab W_ab over a block of the rows' Gramian W = R^+ R."""
    d, x = damp.shape[-1], rows.view(float)
    # W_ab = sum conj(r_a) r_b, from the products of real and imaginary parts
    r = (x.swapaxes(-1, -2) @ x).reshape(-1, 2 * d, 2, 2 * d, 2)
    gram = r[:, :, 0, :, 0] + r[:, :, 1, :, 1] + 1j * (r[:, :, 0, :, 1] - r[:, :, 1, :, 0])
    e, f, g = (0j + (damp * block).reshape(len(damp), -1).sum(axis=-1)
               for block in (gram[:, d:, d:], gram[:, :d, d:], gram[:, :d, :d]))
    return [(float(a.real), 1j * b, float(c.real)) for a, b, c in zip(e, f, g)]


def _jump_max(specs, rows, cs, dt=1.0) -> list:
    """max_jn sqrt(gamma_j dt) ||L_j (du_n + i c u_n)|| of each point over its
    rows [du_n, u_n] (P, n, 2d), at its rate c, in one product per block of
    4096 or more rows (all n when fewer), so none is large; 0 without jumps."""
    if not specs[0].jumps:
        return [0.0] * len(specs)
    ops = np.stack([np.concatenate([op.entries.T for op, _ in spec.jumps], axis=1)
                    for spec in specs])
    mat = np.concatenate([ops, np.array([1j * c for c in cs])[:, None, None] * ops], 1)
    weights = np.array([[rate * dt for _, rate in spec.jumps] for spec in specs])[:, :, None]
    blocks = [rows] if rows.shape[1] < 8192 else np.array_split(rows, rows.shape[1] // 4096, 1)
    parts = ((b @ mat).view(float).reshape(b.shape[:2] + (len(specs[0].jumps), -1)) for b in blocks)
    peaks = np.max([(weights * np.einsum("gnjk,gnjk->gjn", p, p)).max((1, 2)) for p in parts], 0)
    return [math.sqrt(float(peak)) for peak in peaks]


def _cap_norms(specs, grid, h_nh) -> np.ndarray:
    """||H_nh|| (0 where not finite) and, under expm_step, sum_j gamma_j
    ||L_j^+ L_j|| of P points: the (P, 2) norms ``_held_to_cap`` reads."""
    norms = np.zeros((len(specs), 2))
    norms[:, 0] = spectral_norm(np.where(np.isfinite(h_nh), h_nh, 0))
    if grid.scheme == "expm_step" and specs[0].jumps:
        ops = np.array([[op.entries for op, _ in spec.jumps] for spec in specs])
        rates = np.array([[rate for _, rate in spec.jumps] for spec in specs])
        norms[:, 1] = (spectral_norm(ops.conj().swapaxes(-1, -2) @ ops) * rates).sum(axis=-1)
    return norms


def _held_to_cap(grid, norms, residual: float) -> float:
    """A completeness residual, checked against a generous bound.

    The bound reads a point's ``_cap_norms``. Exceeding ten times it, an
    order-of-magnitude estimate, raises IntegratorFailure: it signals a
    broken integration (norm blow-up, grossly under-resolved grid), not
    ordinary discretization error.
    """
    h_norm, damp_norm = (float(norm) for norm in norms)
    dt = grid.dt
    if grid.scheme == "euler_paper":
        q = (h_norm * dt) ** 2 * grid.N
        growth = math.exp(min(4.0 * q, 50.0))
        bound = 4.0 * q * growth
    else:
        bound = grid.T * dt * (1.0 + damp_norm) * (1.0 + h_norm) ** 2
    cap = 10.0 * (bound + 1e3 * np.finfo(float).eps * grid.N)
    if residual > cap:
        raise IntegratorFailure(
            f"completeness residual {residual:.3e} exceeds "
            f"10x the predicted bound {cap / 10.0:.3e} for scheme {grid.scheme}"
        )
    return residual


def build_discrete_channel(spec: CollisionSpec, psi: Ket, grid: TimeGrid,
                           x: float, *, traj: Optional[NhTrajectory] = None
                           ) -> MeasurementChannel:
    """Explicit Kraus channel: keep every collision's no-jump record.

    One retained operator (label ``check``) plus N * len(jumps) discarded
    first-jump branches labeled ``jump<j>@<step>``, assembled in one pass
    into the channel's (M, d, d) stack. The completeness residual scales
    as O(N dt^2) under euler_paper and O(dt^2) under expm_step; a residual
    beyond ten times the predicted cap raises IntegratorFailure. ``traj``,
    a trajectory of this spec on this grid at this x, is used instead of
    propagating again.
    """
    labels, ks, traj = _assemble_channel(spec, psi, grid, x, traj, derivative=False)
    channel = MeasurementChannel.from_stack(labels, ks, retained=frozenset({"check"}))
    _held_to_cap(grid, _cap_norms((spec,), grid, traj.h_nh[None])[0],
                 channel.completeness_residual)
    return channel


def discrete_channel_derivatives(spec: CollisionSpec, psi: Ket, grid: TimeGrid,
                                 x: float, *, traj: Optional[NhTrajectory] = None
                                 ) -> tuple:
    """x-derivatives of the discrete channel as (label, Operator) pairs.

    Aligned with the labels of ``build_discrete_channel``; given the same
    ``traj``, a trajectory of this spec on this grid at this x propagated
    with derivatives, both read the same products, which is what keeps
    the pair consistent bit for bit. Without it, it propagates again.
    """
    labels, dks, _ = _assemble_channel(spec, psi, grid, x, traj, derivative=True)
    return tuple((label, Operator(m)) for label, m in zip(labels, dks))


def _congruence(s, f):
    """(I + f)^+ s (I + f), taken as y = s + s f, then y + f^+ y."""
    y = s + s @ f
    return y + f.conj().swapaxes(-1, -2) @ y


def _doubled_gramian(damp, grid, fs, lead) -> np.ndarray:
    """K_T^+ K_T + sum_(n<N) K_n^+ D K_n, the discrete channel's
    sum_w M_w^+ M_w, from the ``_powers``: O(log N) d x d products.

    The jumps split from K_n = B A^n, B = I + lead (I for None), all
    weighted by D = ``damp`` (``_damping``). K_T = A^N takes one factor per
    set bit of N, lowest first, as the end rows do, and
    the Stein sum S_N = sum_(n<N) (A^n)^+ D A^n doubles as
    S_(c+m) = S_m + (A^m)^+ S_c A^m (Smith 1968, SIAM J. Appl. Math. 16).
    """
    d = damp.shape[-1]
    end, acc, s = np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex), damp
    for k, f in enumerate(fs):
        f = f[..., -d:, -d:]
        if grid.N >> k & 1:
            end = end + f @ end
            acc = s + _congruence(acc, f)
        s = s + _congruence(s, f)
    if lead is not None:
        acc = _congruence(acc, lead[..., -d:, -d:])
    return end.conj().swapaxes(-1, -2) @ end + acc


def _split_residual(spec, grid, x, midpoints) -> tuple:
    """(residual, h_nh) of the discrete channel with the jumps split at
    step midpoints, or at edges; no matrices are propagated."""
    h_nh, _ = _hamiltonian(spec, x)
    half, full = _step_factors(grid, h_nh, None)
    fs, lead = _powers(half, full, grid.N)
    if midpoints and full is not None:
        lead = half - np.eye(spec.dim)
    gram = _doubled_gramian(_damping(spec, grid.dt), grid, fs, lead)
    _require_finite(grid, gram)
    return spectral_norm(gram - np.eye(spec.dim)), h_nh


def trajectory_residual(spec: CollisionSpec, grid: TimeGrid, x: float) -> float:
    """Completeness residual of the discrete channel, without building it.

    Its sum_w M_w^+ M_w is K_T^+ K_T + sum_n K_n^+ D K_n with
    D = sum_j gamma_j dt L_j^+ L_j (``_doubled_gramian``, as ``run`` takes
    it). A residual beyond ten times the predicted cap raises
    IntegratorFailure.
    """
    residual, h_nh = _split_residual(spec, grid, x, grid.scheme == "expm_step")
    return _held_to_cap(grid, _cap_norms((spec,), grid, h_nh[None])[0], residual)


def check_integral_completeness(spec: CollisionSpec, grid: TimeGrid,
                                x: float) -> float:
    """Residual of the continuum completeness identity on this grid.

    Evaluates || integral of M^+(t) L2(t) M(t) dt + M^+(T) M(T) - 1 ||
    (spectral norm) with a midpoint rule, the sum ``trajectory_residual``
    takes with the scheme's own jump sampling; for smooth integrands
    under expm_step the residual falls as O(dt^2).
    """
    return _split_residual(spec, grid, x, True)[0]


class EfgIntegrals(NamedTuple):
    """Aggregate operator statistics of the first-jump channel.

    Ordered as (total derivative weight, total overlap current, then the
    no-jump branch's weight, current and derivative weight).
    """

    g_total: float
    f_total: complex
    e_check: float
    f_check: complex
    g_check: float


def efg_integrals(spec: CollisionSpec, grid: TimeGrid, x: float,
                  psi: Ket) -> EfgIntegrals:
    """End-time statistics plus midpoint-quadrature jump corrections.

    The totals add, to the no-jump branch values, the integrals of the
    rate-weighted jump overlaps of the derivative trajectory; both carry
    O(dt^2) quadrature error and feed the total-information formula.
    ``psi`` must be normalized.
    """
    probe = _point_probe(spec, grid, x, psi)
    return _efg(probe.end[0], _jump_sums(_damping(spec, grid.dt)[None], probe.mids)[0])


def _efg(end, sums=(0.0, 0j, 0.0)) -> EfgIntegrals:
    """``EfgIntegrals`` of the end row [dK psi, K psi] plus the midpoint
    jump sums (E, F, G) of ``_jump_sums``."""
    dpsi_end, psi_end = end[:len(end) // 2], end[len(end) // 2:]
    g_check = float(np.vdot(dpsi_end, dpsi_end).real)
    f_check = 1j * np.vdot(dpsi_end, psi_end)
    return EfgIntegrals(g_total=g_check + sums[2], f_total=complex(f_check + sums[1]),
                        e_check=float(np.vdot(psi_end, psi_end).real),
                        f_check=complex(f_check), g_check=g_check)


@dataclass(frozen=True)
class Theorem2Verdict:
    """Two-part losslessness test for the no-jump branch.

    ``weight_slope`` is |dE/dx|, the sensitivity of the branch weight
    E = ||K(T) psi||^2 to the parameter, taken analytically as
    2 Re<K psi|dK psi> from the derivative trajectory; ``jump_residual``
    is the largest
    rate-weighted jump amplitude of the gauge-corrected derivative state
    over the grid. Both must stay within tol for a lossless verdict.
    """

    lossless: bool
    tol: float
    weight_slope: float
    jump_residual: float
    dtheta: float


def check_theorem2(spec: CollisionSpec, grid: TimeGrid, x: float, psi: Ket,
                   tol: float = 1e-8) -> Theorem2Verdict:
    """Check that no parameter information leaks into the jump record.

    Condition (a): the no-jump weight must be locally flat in x; its slope
    2 Re<K psi|dK psi> is read off the derivative trajectory, so its
    rounding does not grow with N the way a difference quotient's does.
    Condition (b): every jump operator must annihilate the derivative
    trajectory after removing its phase freedom, where the phase rate is
    fixed once from the end-time overlap current. Both are held to
    ``tol``, and ``psi`` must be normalized.
    """
    probe = _point_probe(spec, grid, x, psi)
    ints = _efg(probe.end[0])
    if ints.e_check <= P_FLOOR:
        raise ValueError(f"no-jump weight {ints.e_check:.3e} vanished; verdict undefined")
    dtheta = -ints.f_check.real / ints.e_check
    return _theorem2(probe.end[0], dtheta, _jump_max((spec,), probe.mids, (dtheta,))[0], tol)


def _theorem2(end, dtheta, jump_residual, tol) -> Theorem2Verdict:
    """``check_theorem2`` of the end row, at the phase rate ``dtheta``, with
    ``jump_residual`` the largest jump amplitude of L_j xi =
    L_j (dK psi + i dtheta K psi) over the midpoints."""
    d = len(end) // 2
    weight_slope = abs(2.0 * float(np.vdot(end[d:], end[:d]).real))
    return Theorem2Verdict(
        lossless=(weight_slope <= tol and jump_residual <= tol),
        tol=tol,
        weight_slope=weight_slope,
        jump_residual=jump_residual,
        dtheta=float(dtheta),
    )


@dataclass(frozen=True)
class NhLossResult:
    """Information loss of post-selecting the no-jump record.

    ``kappa`` compares the retained share against the dissipation-free
    run of the same model (the sensing power the rates destroyed); it
    is negative when the retained share exceeds that run's total, which
    happens when the jump terms themselves carry x-information.
    ``kappa_channel`` normalizes the same share by ``i_q_channel``, the
    first-jump channel's own total taken by the midpoint quadrature of
    ``efg_integrals`` under either scheme. Under expm_step the explicit
    discrete channel splits its jumps at those midpoints, so an
    operator-statistics report built from it matches both to rounding;
    the euler_paper channel splits them at step edges, and the two differ
    at first order in dt.
    """

    kappa: float
    p_check: float
    i_sigma: float
    kappa_channel: Optional[float]
    i_q_baseline: float
    i_q_channel: float


def nh_loss(spec: CollisionSpec, grid: TimeGrid, x: float, psi: Ket) -> NhLossResult:
    """Loss fraction, branch weight and conditional information at T, from
    a probe propagation of the model and the end row of its jump-free member.
    """
    ints = efg_integrals(spec, grid, x, psi)
    return _loss(ints, _efg(_point_probe(spec.without_jumps(), grid, x, psi, False).end[0]))


def _loss(ints, base) -> NhLossResult:
    if ints.e_check <= P_FLOOR:
        raise ValueError(
            f"no-jump weight {ints.e_check:.3e} vanished; loss undefined"
        )
    i_q_baseline = 4.0 * (base.g_total - base.f_total.real**2)
    i_q_channel = 4.0 * (ints.g_total - ints.f_total.real**2)
    if i_q_baseline <= KAPPA_DENOM_FLOOR:
        raise ValueError(
            "dissipation-free total information is zero; loss fraction undefined"
        )
    share = 4.0 * (ints.g_check - abs(ints.f_check) ** 2 / ints.e_check)
    kappa = 1.0 - share / i_q_baseline
    # kappa < 0 is a converged value when the jumps carry x-information;
    # a share below zero can only come from an under-resolved grid
    if kappa > 1.0 + 1e-6:
        raise ValueError(
            f"loss fraction {kappa!r} exceeds 1 beyond tolerance; "
            "the grid is too coarse for this model"
        )
    kappa_channel = None
    if i_q_channel > KAPPA_DENOM_FLOOR:
        kappa_channel = 1.0 - share / i_q_channel
    return NhLossResult(
        kappa=float(kappa),
        p_check=ints.e_check,
        i_sigma=share / ints.e_check,
        kappa_channel=kappa_channel,
        i_q_baseline=float(i_q_baseline),
        i_q_channel=float(i_q_channel),
    )


class CollisionRun(NamedTuple):
    """Everything ``qfi run`` reads off one collision model. The discrete
    channel's completeness residual sets ``kind``, and with it theorem 1's
    gauge; it shrinks with the step: the bundled dephasing run is `exact` at
    N=16384 (residual 9.66e-11), `approximate` at N=4096 (1.57e-9)."""

    loss: NhLossResult
    theorem2: Theorem2Verdict
    theorem1: Theorem1Residuals
    completeness_residual: float

    @property
    def kind(self) -> str:
        return channel_kind(self.completeness_residual)


def run_points(specs, grid: TimeGrid, xs, psi: Ket, tol: float = 1e-8) -> list:
    """``run`` of P specs of one dimension and jump count, each at its x, on
    one grid, from one psi, in one pass whose arrays carry a leading point
    axis; the first point to fail raises its first failure, as in a loop."""
    specs, xs, d = tuple(specs), tuple(xs), psi.dim
    if len(xs) != len(specs) or len({(s.dim, len(s.jumps)) for s in specs}) != 1:
        raise ValueError("a group needs one x per spec, one dimension and one jump count")
    h_free, dh, faults = _hamiltonians([spec.without_jumps() for spec in specs], xs)
    if faults[0] is not None:
        raise faults[0]
    amps = _amplitudes(specs[0], psi)
    base = _probe_propagation(grid, h_free, dh, amps, rows=False).end
    h_nh = _hamiltonians(specs, xs)[0]
    probe = _probe_propagation(grid, h_nh, dh, amps)
    damp = np.stack([_damping(spec, grid.dt) for spec in specs])
    # values of a point that fails its checks below are never read
    with np.errstate(over="ignore", invalid="ignore"):
        grams = _doubled_gramian(damp, grid, *probe.steps)
        eye = np.eye(grams.shape[-1])
        residuals = spectral_norm(np.where(np.isfinite(grams), grams, 0) - eye).tolist()
        sums = _jump_sums(damp, probe.mids)
        ints = [_efg(end, point_sums) for end, point_sums in zip(probe.end, sums)]
        # euler_paper's channel splits its jumps at step edges
        rows = probe.mids if probe.edges is None else probe.edges
        t1_sums = [(e.e_check + e_dis, e.f_check + f_dis, f_dis, g_dis) for e, (e_dis, f_dis, g_dis)
                   in zip(ints, sums if probe.edges is None else _jump_sums(damp, rows))]
        dthetas = [-e.f_check.real / e.e_check if e.e_check > P_FLOOR else 0.0 for e in ints]
        jump_residuals = _jump_max(specs, probe.mids, dthetas)
        perps = _jump_max(specs, rows, list(map(_gauge_rate, t1_sums, residuals)), grid.dt)
    norms = _cap_norms(specs, grid, h_nh)
    out = []
    for i, end in enumerate(probe.end):
        if faults[i] is not None:
            raise faults[i]
        _require_finite(grid, base[i], end, grams[i])
        residual = _held_to_cap(grid, norms[i], residuals[i])
        loss = _loss(ints[i], _efg(base[i]))
        # the end row is the channel's one retained row
        retained = (end[None, d:], end[None, :d], np.array([ints[i].e_check]),
                    np.array([ints[i].f_check]))
        theorem1 = _theorem1(retained, t1_sums[i], residual, lambda c, i=i: perps[i], tol)
        out.append(CollisionRun(loss, _theorem2(end, dthetas[i], jump_residuals[i], tol),
                                theorem1, residual))
    return out


def run(spec: CollisionSpec, grid: TimeGrid, x: float, psi: Ket,
        tol: float = 1e-8) -> CollisionRun:
    """``nh_loss``, ``check_theorem2`` and theorem 1 of the discrete channel:
    ``run_points`` of one point, whose probe holds its N midpoint rows under
    expm_step, its 2N + 1 edge and midpoint rows under euler_paper. Its residual
    comes first, so a blown-up integration raises IntegratorFailure from its cap."""
    return run_points((spec,), grid, (x,), psi, tol)[0]


def dephasing_closed_form(h0: Operator, l2: Operator, T: float,
                          psi: Ket) -> float:
    """Loss fraction when the damping commutes with the generator.

    For [H0, L2] = 0 the no-jump factor splits into the rotation times
    exp(-L2 T / 2), and the loss reduces to one minus the ratio of the
    decay-weighted variance of H0 to its bare variance.
    """
    if T < 0.0:
        raise ValueError(f"probe time must be nonnegative, got {T}")
    for name, op in (("generator", h0), ("damping", l2)):
        if not op.is_hermitian(HERMITIAN_TOL):
            raise ValueError(f"{name} operator is not Hermitian")
    comm = h0.entries @ l2.entries - l2.entries @ h0.entries
    if spectral_norm(comm) > HERMITIAN_TOL:
        raise ValueError(
            f"generator and damping do not commute: ||[H0, L2]|| = "
            f"{spectral_norm(comm):.3e}; closed form invalid"
        )
    w = np.linalg.eigvalsh(l2.entries)
    if w.min() < -HERMITIAN_TOL:
        raise ValueError(f"damping operator has negative weight {w.min():.3e}")
    evals, vecs = np.linalg.eigh(l2.entries)
    decay = (vecs * np.exp(-np.clip(evals, 0.0, None) * T)) @ vecs.conj().T

    amps = psi.amplitudes
    h_amp = h0.entries @ amps
    mean = float(np.vdot(amps, h_amp).real)
    square = float(np.vdot(h_amp, h_amp).real)
    var = square - mean**2
    if var <= KAPPA_DENOM_FLOOR:
        raise ValueError("generator variance vanishes; loss fraction undefined")

    weight = float(np.vdot(amps, decay @ amps).real)
    first = float(np.vdot(h_amp, decay @ amps).real)
    second = float(np.vdot(h_amp, decay @ h_amp).real)
    return 1.0 - (second - first**2 / weight) / var
