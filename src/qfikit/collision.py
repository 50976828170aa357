"""Collision-model simulation of post-selected non-Hermitian evolution.

The probe couples to a fresh environment unit per time step. Keeping the
no-jump record at every collision conditions the state on an effective
non-Hermitian generator; each possible first jump becomes a discarded
measurement branch. This module builds that picture on a finite grid:
time-ordered propagation, the first-jump channel of outcomes, the
completeness and E/F/G integrals of the continuum limit, a two-part
losslessness check for the no-jump branch, and the resulting
information-loss fraction.

Two step rules are provided. ``euler_paper`` multiplies the first-order
factors 1 - i*H*dt sampled at right edges, the textbook discretization;
``expm_step`` multiplies midpoint-sampled matrix exponentials and is the
accurate production scheme (second order, norm-nonincreasing).

The x-derivative travels inside the product: every step multiplies the
block [[S, dS], [0, S]] into the column [[dK], [K]], the block-triangular
form whose exponential yields the Frechet derivative of expm (Van Loan
1978, "Computing integrals involving the matrix exponential"). Models
given as constant data are sampled once per grid and repeat one step
block, so a whole propagation costs one exponential, about 2*sqrt(N)
single steps, and then strides of that many steps at once: O(sqrt(N))
numpy calls in all. A model given as functions of time exponentiates
its N step blocks in one batched ``quantum_core.expm`` call. That routine
forms exp(A) - I before adding I, so each near-identity step keeps the
digits of A that 2N repeated products would otherwise accumulate as
drift.

Runs propagate the probe, not the propagator (the action of operators on
a vector rather than the operators; Al-Mohy & Higham 2011). Every
statistic and verdict is an expectation in the probe, so ``run``,
``efg_integrals``, ``check_theorem2`` and ``nh_loss`` carry each
propagation on psi: the lead steps run on matrix columns as in
``propagate``, their products meet psi, and every later chunk of edge
and midpoint rows of a (2N+1, 2d) probe store takes one matrix product
with the stride block. The channel's branches M_w psi and dM_w psi,
(M, d) arrays in its row order, are read off that store; the 2N+1 Kraus
matrices of ``build_discrete_channel`` are never built. The completeness
residual keeps its matrix meaning: past the lead every prefix is a power
of the stride block times a lead product, so its sum regroups into
O(sqrt(N)) section Gramians. ``propagate`` is the matrix route of the
explicit channel and of the completeness checks that ``verify``'s
completeness suite runs.

``run`` is the recipe of ``qfi run``: the jump-free baseline, then one
probe propagation reduced once, which every result reads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .encoding import KAPPA_DENOM_FLOOR, ProbeColumns
from .fisher import P_FLOOR
from .quantum_core import Ket, MeasurementChannel, Operator, expm, spectral_norm

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
    "dephasing_closed_form",
]

SCHEMES = ("euler_paper", "expm_step")

#: Hermiticity budget for sampled Hamiltonians.
HERMITIAN_TOL = 1e-10


class IntegratorFailure(RuntimeError):
    """Propagation produced non-finite entries or an implausible residual."""


@dataclass(frozen=True)
class _Constant:
    """Time-independent generator data behind the callable interface."""

    value: object

    def __call__(self, t, x=None):
        return self.value


@dataclass(frozen=True)
class _Linear:
    """H0(t, x) = x * G with constant G, so dH0/dx = G."""

    generator: Operator

    def __call__(self, t, x):
        return Operator(x * self.generator.entries)


@dataclass(frozen=True)
class CollisionSpec:
    """Generator data for one collision model.

    Every generator is either constant data or a callable of time. After
    construction ``h0``, ``h1``, ``dh0`` and each rate are callables in
    either case, so ``spec.h0(t, x)`` always works; a spec whose every
    entry is constant data is sampled once per grid instead of once per
    step, which is what makes long grids cheap.

    Parameters
    ----------
    h0 : Operator or callable
        The estimation Hamiltonian, Hermitian within 1e-10 at every
        sampled point (units 1/time). An Operator G means H0(t, x) = x*G
        with dH0/dx = G; a callable maps (t, x) -> Operator.
    h1 : Operator or callable
        The control Hamiltonian, same requirements: a constant Operator or
        a callable t -> Operator.
    jumps : sequence of (Operator, float or callable)
        Each entry couples a jump operator L_j to its rate gamma_j >= 0
        (units 1/time), a constant float or a callable t -> float.
    dim : int
        Hilbert-space dimension.
    dh0 : callable, optional
        (t, x) -> Operator giving the analytic x-derivative of a callable
        h0. Without it such a spec propagates only without derivatives;
        asking it for derivatives raises ValueError. Not accepted with a
        constant h0, which carries its own derivative.
    """

    h0: Union[Operator, Callable[[float, float], Operator]]
    h1: Union[Operator, Callable[[float], Operator]]
    jumps: tuple
    dim: int
    dh0: Optional[Callable[[float, float], Operator]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        for name, op in (("h0", self.h0), ("h1", self.h1)):
            if isinstance(op, Operator) and op.dim != self.dim:
                raise ValueError(f"{name} dimension {op.dim} does not match {self.dim}")
        if isinstance(self.h0, Operator):
            if self.dh0 is not None:
                raise ValueError("a constant h0 carries its own derivative; drop dh0")
            object.__setattr__(self, "dh0", _Constant(self.h0))
            object.__setattr__(self, "h0", _Linear(self.h0))
        if isinstance(self.h1, Operator):
            object.__setattr__(self, "h1", _Constant(self.h1))
        jumps = tuple(
            (op, rate if callable(rate) else _Constant(float(rate)))
            for op, rate in self.jumps
        )
        for op, _ in jumps:
            if op.dim != self.dim:
                raise ValueError(
                    f"jump operator dimension {op.dim} does not match {self.dim}"
                )
        object.__setattr__(self, "jumps", jumps)

    def without_jumps(self) -> "CollisionSpec":
        """The dissipation-free member of the same family."""
        return CollisionSpec(self.h0, self.h1, (), self.dim, self.dh0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of N steps covering [0, T].

    dt is derived as T/N, never stored independently, so dt*N = T holds by
    construction; sample times are generated with an exact T endpoint.
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

    def right_edges(self) -> np.ndarray:
        """t_n = n*dt for n = 1..N, with t_N = T exactly."""
        return np.linspace(self.dt, self.T, self.N)

    def midpoints(self) -> np.ndarray:
        """t at the center of each step."""
        return self.right_edges() - 0.5 * self.dt


@dataclass(frozen=True)
class NhTrajectory:
    """Time-ordered no-jump products and their parameter derivatives.

    The matrix route: ``propagate`` returns it for the explicit channel
    and the completeness checks, and the probe propagation of ``run`` is
    tested against it; ``run`` forms none.

    ``products[n]`` is the cumulative factor after n steps (index 0 is the
    identity), so ``products[n] @ psi`` is the unnormalized conditional
    state at t_n. ``mid_products[n]`` extends ``products[n]`` by half a
    step under the scheme's local rule and supplies the midpoint samples
    used by every quadrature here. The derivative arrays follow the same
    indexing and are None when propagation skipped them. ``h_mid`` stacks
    the midpoint H_nh samples behind the factors, one for a constant spec.

    Storage is dense, N+1 matrices of size dim x dim per array; at the
    N <= 2**14 scales this package targets that is a few tens of MB. With
    derivatives, ``products`` and ``dproducts`` (and the two midpoint
    arrays) are strided views of one (N+1, 2*dim, dim) column store
    [[dK], [K]], written in place by ``propagate``. For a constant spec
    the entries past the first ~2*sqrt(N) steps are filled by stride
    products, not step by step, and differ from a literal step product
    by rounding only (about 1e-14 relative).

    Under ``expm_step`` each factor is a contraction whenever the rates
    are nonnegative, so conditional-state norms never increase. The
    ``euler_paper`` factors have norm >= 1 at zero rate and can grow the
    norm by O(||H||^2 dt^2) per step; callers comparing norms must budget
    for that.
    """

    grid: TimeGrid
    x: float
    products: np.ndarray
    mid_products: np.ndarray
    h_mid: np.ndarray
    dproducts: Optional[np.ndarray] = None
    dmid_products: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.products.shape[-1]


def _sample_times(spec: CollisionSpec, times: np.ndarray) -> np.ndarray:
    """The times a spec must be sampled at to cover ``times``.

    One sample stands for all of them when no generator or rate depends
    on t, so every stack built from it has a time axis of length 1 that
    broadcasts against the grid.
    """
    constant = (isinstance(spec.h0, _Linear) and isinstance(spec.h1, _Constant)
                and all(isinstance(rate, _Constant) for _, rate in spec.jumps))
    return times[:1] if constant else times


def _rate_samples(spec: CollisionSpec, times: np.ndarray) -> np.ndarray:
    """Rates gamma_j at the given times, shape (n_jumps, len(times)).

    Constant rates are sampled once and come back as a broadcast view.
    """
    sampled = _sample_times(spec, times)
    rates = np.empty((len(spec.jumps), sampled.size))
    for j, (_, rate) in enumerate(spec.jumps):
        rates[j] = np.fromiter((float(rate(t)) for t in sampled), float, sampled.size)
    if rates.size and rates.min() < 0.0:
        j, n = np.unravel_index(int(rates.argmin()), rates.shape)
        raise ValueError(
            f"negative jump rate {rates[j, n]:.3e} for jump {j} at t={sampled[n]:.6g}"
        )
    return np.broadcast_to(rates, (len(spec.jumps), times.size))


def _hamiltonian_samples(spec: CollisionSpec, times: np.ndarray, x: float,
                         derivative: bool = False):
    """Stacks of H_nh(t, x) and of its x-derivative over the given times.

    Both stacks have a time axis of length 1 when the spec is constant
    (see _sample_times) and len(times) otherwise; the derivative is None
    unless asked for, and asking for it needs ``spec.dh0``. Hermiticity
    of h0 and h1 is enforced per sample via the Frobenius norm of A - A^+
    (an upper bound on the spectral defect).
    """
    sampled = _sample_times(spec, times)
    d = spec.dim
    herm = np.empty((sampled.size, d, d), dtype=complex)
    for n, t in enumerate(sampled):
        herm[n] = spec.h0(t, x).entries + spec.h1(t).entries
    defect = herm - herm.conj().transpose(0, 2, 1)
    frob = np.sqrt((np.abs(defect) ** 2).sum(axis=(1, 2)))
    if frob.max(initial=0.0) > HERMITIAN_TOL:
        n = int(frob.argmax())
        raise ValueError(
            f"Hamiltonian is not Hermitian at t={sampled[n]:.6g}: "
            f"defect {frob[n]:.3e}"
        )
    total = herm
    if spec.jumps:
        rates = _rate_samples(spec, sampled)
        damp = np.stack([op.entries.conj().T @ op.entries for op, _ in spec.jumps])
        total = total - 0.5j * np.einsum("jn,jab->nab", rates, damp)
    if not derivative:
        return total, None
    if spec.dh0 is None:
        raise ValueError(
            "derivatives of a callable h0 need its analytic x-derivative; pass dh0"
        )
    dh = np.empty((sampled.size, d, d), dtype=complex)
    for n, t in enumerate(sampled):
        dh[n] = spec.dh0(t, x).entries
    return total, dh


def _step_block(factor, dfactor):
    """[[S, dS], [0, S]] per step, or S alone when dS is None.

    Applied to the column [[dK], [K]] the block gives [[S dK + dS K], [S K]]:
    the product rule for d(SK)/dx in one matrix product.
    """
    if dfactor is None:
        return factor
    d = factor.shape[-1]
    block = np.zeros((factor.shape[0], 2 * d, 2 * d), dtype=complex)
    block[:, :d, :d] = factor
    block[:, d:, d:] = factor
    block[:, :d, d:] = dfactor
    return block


def _step_factors(spec, grid, x, derivative):
    """Half-step and full-step blocks for the grid's scheme, one per step,
    and the midpoint H_nh samples they were built from.

    Each block is [[S, dS], [0, S]] with derivatives, S alone without.
    A constant spec yields one block, returned as a broadcast view over
    the N steps. The expm scheme composes a full step as two half steps,
    so its full blocks come back None.
    """
    dt = grid.dt
    n_steps = grid.N
    h_mid, dh_mid = _hamiltonian_samples(spec, grid.midpoints(), x, derivative)

    if grid.scheme == "euler_paper":
        eye = np.eye(spec.dim, dtype=complex)
        h_right, dh_right = _hamiltonian_samples(
            spec, grid.right_edges(), x, derivative)
        half = _step_block(eye - 0.5j * dt * h_mid,
                           None if dh_mid is None else -0.5j * dt * dh_mid)
        full = _step_block(eye - 1j * dt * h_right,
                           None if dh_right is None else -1j * dt * dh_right)
        width = full.shape[-1]
        return (np.broadcast_to(half, (n_steps, width, width)),
                np.broadcast_to(full, (n_steps, width, width)), h_mid)

    # expm([[A, E], [0, A]]) holds expm(A) on its diagonal blocks and the
    # derivative of expm(A) along E in its upper-right block
    half = expm(_step_block(-0.5j * dt * h_mid,
                            None if dh_mid is None else -0.5j * dt * dh_mid))
    width = half.shape[-1]
    return np.broadcast_to(half, (n_steps, width, width)), None, h_mid


def _lead_steps(spec, grid, x, derivative, whole):
    """The steps that ``propagate`` takes one by one, and its stride block.

    Returns (cols, mid_cols, lead, stride, h_mid). The column stores hold
    room for the whole grid when ``whole`` is set, for the lead steps
    alone otherwise, and their first lead + 1 and lead columns are
    written: cols[n] = [[dK_n], [K_n]] (K_n alone without derivatives)
    at edge n and mid_cols[n] at the midpoint of step n + 1. A callable
    spec has lead = N; a constant spec lead = min(N, 2*isqrt(N)), and
    ``stride`` = [[K_L, dK_L], [0, K_L]] (K_L alone) advances any column
    by lead steps. ``h_mid`` stacks the midpoint H_nh samples.
    """
    d = spec.dim
    n_steps = grid.N
    half, full, h_mid = _step_factors(spec, grid, x, derivative)
    width = half.shape[-1]
    # a constant spec's blocks are one broadcast view, of stride 0
    lead = n_steps if half.strides[0] else min(n_steps, 2 * math.isqrt(n_steps))
    size = n_steps if whole else lead

    cols = np.empty((size + 1, width, d), dtype=complex)
    mid_cols = np.empty((size, width, d), dtype=complex)
    cols[0] = 0.0
    cols[0, width - d:] = np.eye(d)
    # overflow here is reported as IntegratorFailure, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if full is None:
            for step, k, k_mid, k_next in zip(half[:lead], cols, mid_cols, cols[1:]):
                np.matmul(step, k, out=k_mid)
                np.matmul(step, k_mid, out=k_next)
        else:
            for step, step_full, k, k_mid, k_next in zip(
                    half[:lead], full, cols, mid_cols, cols[1:]):
                np.matmul(step, k, out=k_mid)
                np.matmul(step_full, k, out=k_next)
    end = cols[lead:lead + 1]
    stride = _step_block(end[:, width - d:], end[:, :d] if derivative else None)[0]
    return cols, mid_cols, lead, stride, h_mid


def _non_finite(grid):
    return IntegratorFailure(
        f"propagation produced non-finite entries at N={grid.N}, "
        f"scheme {grid.scheme}; reduce dt or rescale the generator"
    )


def propagate(spec: CollisionSpec, grid: TimeGrid, x: float,
              derivative: bool = True) -> NhTrajectory:
    """Accumulate the no-jump factors over the grid, in time order.

    Each cumulative product K is held as the column [[dK], [K]] (K alone
    without derivatives) and advanced by one matrix product with the step
    block [[S, dS], [0, S]] per half-step, so the x-derivative follows
    the product rule exactly, which stays accurate at x values where
    differencing full propagators would cancel. The products and their
    derivatives are views of the same column storage, written in place.

    A callable spec is stepped through the whole grid. A constant spec
    repeats one block, so only its first L = min(N, 2*isqrt(N)) steps
    are taken one by one; the product P of those steps, read off the
    store, then fills every later chunk of L columns (and midpoint
    columns) in one batched product each, cols[n + L] = P cols[n].
    """
    d = spec.dim
    n_steps = grid.N
    cols, mid_cols, lead, stride, h_mid = _lead_steps(spec, grid, x, derivative, True)
    width = cols.shape[1]
    # the same P advances the midpoint columns: under euler_paper the half
    # and full blocks are both polynomials in one [[A, E], [0, A]], so they
    # commute with P
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(lead, n_steps, lead):
            m = min(lead, n_steps - n)
            back = n - lead
            np.matmul(stride, cols[back + 1:back + 1 + m], out=cols[n + 1:n + 1 + m])
            np.matmul(stride, mid_cols[back:back + m], out=mid_cols[n:n + m])

    if not np.isfinite(cols[-1]).all():
        raise _non_finite(grid)
    return NhTrajectory(
        grid=grid,
        x=x,
        products=cols[:, width - d:],
        mid_products=mid_cols[:, width - d:],
        h_mid=h_mid,
        dproducts=cols[:, :d] if derivative else None,
        dmid_products=mid_cols[:, :d] if derivative else None,
    )


class _Probe(NamedTuple):
    """A derivative propagation carried on the probe psi.

    ``store`` is the (2N + 1, 2d) probe store: row 2n holds
    [[dK_n psi], [K_n psi]] at edge t_n, row 2n + 1 the same at the
    midpoint of step n + 1. The completeness residual reads the rest:
    ``prefixes`` are the lead products K_i (i < L) that jumps split from,
    at midpoints under expm_step and at edges under euler_paper,
    ``power`` is K_L, ``end`` is K_T and ``h_mid`` the midpoint H_nh
    samples.
    """

    store: np.ndarray
    prefixes: np.ndarray
    power: np.ndarray
    end: np.ndarray
    h_mid: np.ndarray


def _probe_propagation(spec, grid, x, amps) -> _Probe:
    """``propagate`` with derivatives, applied to the probe as it goes.

    The lead steps are ``propagate``'s own, and their products meet psi
    as ``products @ psi`` would, so a callable spec (lead = N, no stride
    section) gets the matrix route's states bit for bit. Every later
    chunk of L edge and midpoint rows takes one product with the stride
    block, rows n + L = rows n @ P^T, so no array of N matrices is formed
    for a constant spec.
    """
    d = spec.dim
    n_steps = grid.N
    cols, mid_cols, lead, stride, h_mid = _lead_steps(spec, grid, x, True, False)
    store = np.empty((2 * n_steps + 1, 2 * d), dtype=complex)
    edges, mids = store[0:2 * lead + 1:2], store[1:2 * lead:2]
    edges[:, :d], edges[:, d:] = cols[:, :d] @ amps, cols[:, d:] @ amps
    mids[:, :d] = np.einsum("nij,j->ni", mid_cols[:, :d], amps)
    mids[:, d:] = np.einsum("nij,j->ni", mid_cols[:, d:], amps)
    with np.errstate(over="ignore", invalid="ignore"):
        # midpoint rows back..back + m - 1 and edge rows back + 1..back + m
        # are one contiguous block of the interleaved store
        for n in range(lead, n_steps, lead):
            m = min(lead, n_steps - n)
            back = n - lead
            np.matmul(store[2 * back + 1:2 * (back + m) + 1], stride.T,
                      out=store[2 * n + 1:2 * (n + m) + 1])
        # K_T = P^q K_i with N = i + q L, 1 <= i <= L
        power = stride[:d, :d]
        q = (n_steps - 1) // lead
        end = cols[n_steps - q * lead, d:]
        if q:
            end = np.linalg.matrix_power(power, q) @ end
    if not (np.isfinite(store[-1]).all() and np.isfinite(end).all()):
        raise _non_finite(grid)
    prefixes = (cols if grid.scheme == "euler_paper" else mid_cols)[:lead, d:]
    return _Probe(store, prefixes, power, end, h_mid)


def _jump_sampling(spec, grid, traj):
    """Rates and prefix products from which jump branches split.

    euler_paper follows the first-order construction: a jump during step
    n carries the right-edge rate and the prefix of n-1 whole steps.
    expm_step samples both at step midpoints, which makes the channel's
    operator sums coincide with the midpoint quadrature of the continuum
    integrals.
    """
    if grid.scheme == "euler_paper":
        dprefixes = None if traj.dproducts is None else traj.dproducts[:-1]
        return _rate_samples(spec, grid.right_edges()), traj.products[:-1], dprefixes
    return _rate_samples(spec, grid.midpoints()), traj.mid_products, traj.dmid_products


def _first_jump_rows(spec, grid, rates, end, split):
    """Rows of the first-jump channel, as a read-only array.

    Row 0 is ``end``, the no-jump outcome ``check``; row 1 + j*N + n is
    sqrt(rates[j, n] dt) L_j split[n], the first jump of operator j during
    step n + 1. Rows are (d, d) matrices or, for an (N, d) ``split``,
    probe states (d,), one matrix product per jump.
    """
    n_steps = grid.N
    out = np.empty((1 + len(spec.jumps) * n_steps,) + end.shape, dtype=complex)
    out[0] = end
    for j, (op, _) in enumerate(spec.jumps):
        rows = out[1 + j * n_steps:1 + (j + 1) * n_steps]
        if split.ndim == 2:
            np.matmul(split, op.entries.T, out=rows)
        else:
            np.matmul(op.entries[None], split, out=rows)
        rows *= np.sqrt(rates[j] * grid.dt).reshape((-1,) + (1,) * (rows.ndim - 1))
    out.flags.writeable = False
    return out


def _assemble_channel(spec, psi, grid, x, traj, derivative):
    """Labels and one stack of the first-jump channel, with the trajectory
    and the jump rates the stack was taken from.

    Rows follow ``_first_jump_rows``, labeled ``check`` and
    ``jump<j>@<n+1>``; the stack holds the Kraus matrices, or their
    x-derivatives when ``derivative`` is set.
    """
    if psi.dim != spec.dim:
        raise ValueError(f"state dimension {psi.dim} does not match {spec.dim}")
    traj = _given_or_propagated(spec, grid, x, traj, derivative)
    rates, prefixes, dprefixes = _jump_sampling(spec, grid, traj)
    labels = ("check",) + tuple(
        f"jump{j}@{n + 1}" for j in range(len(spec.jumps)) for n in range(grid.N)
    )
    end, split = ((traj.dproducts[-1], dprefixes) if derivative
                  else (traj.products[-1], prefixes))
    return labels, _first_jump_rows(spec, grid, rates, end, split), traj, rates


def _given_or_propagated(spec, grid, x, traj, derivative):
    """``traj`` when it fits this grid and x, else a fresh propagation.

    A given trajectory must come from ``propagate(spec, grid, x)`` with
    derivatives whenever they are needed; only the grid, x and dimension
    can be checked here.
    """
    if traj is None:
        return propagate(spec, grid, x, derivative=derivative)
    if traj.grid != grid or traj.x != x or traj.dim != spec.dim:
        raise ValueError(
            "trajectory was propagated on another grid, at another x or "
            "for another dimension"
        )
    if derivative and traj.dproducts is None:
        raise ValueError("trajectory was propagated without derivatives")
    return traj


_Reduction = namedtuple("_Reduction", "source psi_end dpsi_end e_check f_check mids")


def _probe_reduction(spec, grid, x, psi) -> _Reduction:
    """``_reduced`` of one probe propagation. Each reader's statistic is
    quadratic in psi, so psi must be normalized."""
    if psi.dim != spec.dim:
        raise ValueError(f"state dimension {psi.dim} does not match {spec.dim}")
    psi.require_normalized()
    return _reduced(spec, grid, _probe_propagation(spec, grid, x, psi.amplitudes))


def _reduced(spec, grid, probe: _Probe) -> _Reduction:
    """What every reader takes from a probe propagation.

    ``source`` is the probe itself. The reduction holds K psi and dK psi
    at the end time, the no-jump weight e_check = ||K psi||^2, the overlap
    current f_check = i <dK psi, K psi> and ``mids``: None without jumps,
    else (rates, K psi, dK psi) at the grid midpoints.
    """
    d = spec.dim
    psi_end, dpsi_end = probe.store[-1, d:], probe.store[-1, :d]
    mids = None
    if spec.jumps:
        mid_rows = probe.store[1::2]
        mids = (_rate_samples(spec, grid.midpoints()), mid_rows[:, d:], mid_rows[:, :d])
    return _Reduction(probe, psi_end, dpsi_end, float(np.vdot(psi_end, psi_end).real),
                      1j * np.vdot(dpsi_end, psi_end), mids)


def _held_to_cap(spec, grid, h_mid, rates, residual: float) -> float:
    """A completeness residual, checked against a generous bound.

    The bound reads the midpoint H_nh samples ``h_mid`` and, under expm_step,
    the jumps' midpoint ``rates``. Exceeding ten times the bound, an
    order-of-magnitude estimate, raises IntegratorFailure: it signals a
    broken integration (norm blow-up, grossly under-resolved grid), not
    ordinary discretization error.
    """
    h_norm = float(np.linalg.svd(h_mid, compute_uv=False).max(initial=0.0))
    dt = grid.dt
    if grid.scheme == "euler_paper":
        q = (h_norm * dt) ** 2 * grid.N
        growth = math.exp(min(4.0 * q, 50.0))
        bound = 4.0 * q * growth
    else:
        damp_norm = 0.0
        for j, (op, _) in enumerate(spec.jumps):
            l2 = spectral_norm(op.entries.conj().T @ op.entries)
            damp_norm += l2 * float(rates[j].max(initial=0.0))
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
    labels, ks, traj, rates = _assemble_channel(spec, psi, grid, x, traj, derivative=False)
    channel = MeasurementChannel.from_stack(labels, ks, retained=frozenset({"check"}))
    _held_to_cap(spec, grid, traj.h_mid, rates, channel.completeness_residual)
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
    labels, dks, _, _ = _assemble_channel(spec, psi, grid, x, traj, derivative=True)
    return tuple((label, Operator(m)) for label, m in zip(labels, dks))


def _gramian(spec, grid, end, prefixes, rates) -> np.ndarray:
    """K_T^+ K_T + sum_n K_n^+ (sum_j w_jn L_j^+ L_j) K_n.

    ``end`` is K_T, ``prefixes`` the (n, d, d) products K_n the jumps
    split from and ``rates`` their (n_jumps, n) rates, weighted as
    w_jn = rates * dt. The prefixes are laid side by side as one (d, n*d)
    array, so each jump costs two matrix products: its damping L^+ L
    applied to all of them, and the sum over n and rows.
    """
    d = spec.dim
    acc = end.conj().T @ end
    if spec.jumps:
        side = prefixes.transpose(1, 0, 2).reshape(d, -1)
        rows = side.reshape(-1, d).conj().T
        for j, (op, _) in enumerate(spec.jumps):
            damp = op.entries.conj().T @ op.entries
            hit = (damp @ side).reshape(d, -1, d) * (rates[j] * grid.dt)[:, None]
            acc = acc + rows @ hit.reshape(-1, d)
    return acc


def _completeness_residual(spec, grid, end, prefixes, rates) -> float:
    """|| K_T^+ K_T + sum_n K_n^+ (sum_j w_jn L_j^+ L_j) K_n - 1 || (spectral norm)
    over all N prefixes, as ``_gramian`` sums them."""
    return spectral_norm(_gramian(spec, grid, end, prefixes, rates) - np.eye(spec.dim))


def _section_residual(spec, grid, probe, rates) -> float:
    """``_completeness_residual`` from the lead matrices of a probe run alone.

    Past the lead, prefix i + c*L is P^c K_i with P = K_L, and a constant
    spec weighs every prefix with one D = sum_j rate_j dt L_j^+ L_j. So
    the prefixes of section i (i < L) sum to K_i^+ (D + H_c(i)) K_i,
    where c(i) = (N - 1 - i) // L counts the section's strides and
    H_0 = 0, H_c = P^+ (D + H_(c-1)) P. A callable spec has L = N: every
    section is one prefix and the sum is ``_gramian``'s over the whole
    grid. O(sqrt(N)) d x d products for a constant spec.
    """
    d = spec.dim
    lead = len(probe.prefixes)
    acc = _gramian(spec, grid, probe.end, probe.prefixes, rates[:, :lead])
    counts = (grid.N - 1 - np.arange(lead)) // lead
    if spec.jumps and counts[0]:
        damp = sum(rates[j, 0] * grid.dt * (op.entries.conj().T @ op.entries)
                   for j, (op, _) in enumerate(spec.jumps))
        power = probe.power
        tails = np.zeros((counts[0] + 1, d, d), dtype=complex)
        for c in range(1, len(tails)):
            tails[c] = power.conj().T @ (damp + tails[c - 1]) @ power
        prefixes = probe.prefixes
        acc = acc + (prefixes.conj().transpose(0, 2, 1) @ tails[counts] @ prefixes).sum(axis=0)
    return spectral_norm(acc - np.eye(d))


def trajectory_residual(spec: CollisionSpec, grid: TimeGrid, x: float, *,
                        traj: Optional[NhTrajectory] = None) -> float:
    """Completeness residual of the discrete channel, without building it.

    Its sum_w M_w^+ M_w is K_T^+ K_T + sum_n K_n^+ (sum_j w_jn L_j^+ L_j) K_n,
    taken with one matrix product per jump; the result matches the
    explicit channel's ``completeness_residual`` to rounding (2e-15 at
    N = 16384). A residual beyond ten times the predicted cap raises
    IntegratorFailure. ``traj``, a trajectory of this spec on this grid
    at this x, is used instead of propagating again.
    """
    traj = _given_or_propagated(spec, grid, x, traj, derivative=False)
    rates, prefixes, _ = _jump_sampling(spec, grid, traj)
    residual = _completeness_residual(spec, grid, traj.products[-1], prefixes, rates)
    return _held_to_cap(spec, grid, traj.h_mid, rates, residual)


def _columns(spec, grid, red) -> ProbeColumns:
    """The discrete channel's rows M_w psi and dM_w psi, in the order of
    ``build_discrete_channel``, and its matrix completeness residual from
    the probe's section Gramians, capped as ``trajectory_residual`` caps it."""
    probe, d = red.source, spec.dim
    if grid.scheme == "euler_paper":
        # euler_paper's jumps split at step edges, with right-edge rates
        rates = _rate_samples(spec, grid.right_edges())
        edges = probe.store[0:-1:2]
        split, dsplit = edges[:, d:], edges[:, :d]
    else:
        rates, split, dsplit = red.mids or (_rate_samples(spec, grid.midpoints()), None, None)
    residual = _section_residual(spec, grid, probe, rates)
    m = _first_jump_rows(spec, grid, rates, red.psi_end, split)
    dm = _first_jump_rows(spec, grid, rates, red.dpsi_end, dsplit)
    residual = _held_to_cap(spec, grid, probe.h_mid, rates, residual)
    return ProbeColumns(m=m, dm=dm, retained_mask=np.arange(len(m)) == 0,
                        completeness_residual=residual)


def check_integral_completeness(spec: CollisionSpec, grid: TimeGrid,
                                x: float) -> float:
    """Residual of the continuum completeness identity on this grid.

    Evaluates || integral of M^+(t) L2(t) M(t) dt + M^+(T) M(T) - 1 ||
    (spectral norm) with a midpoint rule, the sum ``trajectory_residual``
    takes with the scheme's own jump sampling; for smooth integrands
    under expm_step the residual falls as O(dt^2).
    """
    traj = propagate(spec, grid, x, derivative=False)
    rates = _rate_samples(spec, grid.midpoints())
    return _completeness_residual(spec, grid, traj.products[-1], traj.mid_products, rates)


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
    return _efg(spec, grid, _probe_reduction(spec, grid, x, psi))


def _efg(spec, grid, red) -> EfgIntegrals:
    g_check = float(np.vdot(red.dpsi_end, red.dpsi_end).real)

    g_int = 0.0
    f_int = 0.0j
    if red.mids is not None:
        rates, psi_mid, dpsi_mid = red.mids
        for j, (op, _) in enumerate(spec.jumps):
            w = rates[j] * grid.dt
            jumped = psi_mid @ op.entries.T
            djumped = dpsi_mid @ op.entries.T
            g_int += float((w * (np.abs(djumped) ** 2).sum(axis=1)).sum())
            f_int += 1j * (w * (djumped.conj() * jumped).sum(axis=1)).sum()
    return EfgIntegrals(
        g_total=g_check + g_int,
        f_total=complex(red.f_check + f_int),
        e_check=red.e_check,
        f_check=complex(red.f_check),
        g_check=g_check,
    )


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
    return _theorem2(spec, _probe_reduction(spec, grid, x, psi), tol)


def _theorem2(spec, red, tol) -> Theorem2Verdict:
    psi_end, dpsi_end, e_check, f_check, mids = red[1:]
    if e_check <= P_FLOOR:
        raise ValueError(
            f"no-jump weight {e_check:.3e} vanished; verdict undefined"
        )
    dtheta = -f_check.real / e_check

    jump_residual = 0.0
    if mids is not None:
        rates, psi_mid, dpsi_mid = mids
        xi = dpsi_mid + 1j * dtheta * psi_mid
        for j, (op, _) in enumerate(spec.jumps):
            hit = np.linalg.norm(xi @ op.entries.T, axis=1)
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
    the euler_paper channel splits them at step edges with right-edge
    rates, and the two differ at first order in dt.
    """

    kappa: float
    p_check: float
    i_sigma: float
    kappa_channel: Optional[float]
    i_q_baseline: float
    i_q_channel: float


def nh_loss(spec: CollisionSpec, grid: TimeGrid, x: float, psi: Ket) -> NhLossResult:
    """Loss fraction, branch weight and conditional information at T,
    from probe propagations of the model and of ``spec.without_jumps()``.
    """
    ints = efg_integrals(spec, grid, x, psi)
    return _loss(ints, efg_integrals(spec.without_jumps(), grid, x, psi))


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
    """Everything ``qfi run`` reads off one collision model."""

    loss: NhLossResult
    theorem2: Theorem2Verdict
    columns: ProbeColumns


def run(spec: CollisionSpec, grid: TimeGrid, x: float, psi: Ket,
        tol: float = 1e-8) -> CollisionRun:
    """``nh_loss``, ``check_theorem2`` and the probe columns of the discrete
    channel from one probe propagation, reduced once.

    The jump-free baseline and the model are each propagated on ``psi``
    (``_probe_propagation``): the lead steps on matrix columns, then one
    matrix product per chunk of the (2N+1, 2d) probe store; the baseline
    keeps only its end row. The completeness residual is the matrix
    one, taken from the lead products by section Gramians
    (``_section_residual``), so it caps the run and sets the columns'
    ``kind`` as the matrix route does. The columns come first, so a
    blown-up integration raises IntegratorFailure from its residual cap.
    No array of N matrices is formed for a constant spec; a callable one
    has lead = N and runs the same code with no stride section."""
    baseline = efg_integrals(spec.without_jumps(), grid, x, psi)
    red = _probe_reduction(spec, grid, x, psi)
    columns = _columns(spec, grid, red)
    loss = _loss(_efg(spec, grid, red), baseline)
    return CollisionRun(loss, _theorem2(spec, red, tol), columns)


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
