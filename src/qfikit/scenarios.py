"""Worked-example builders and seeded random-instance generators.

The flip-transducer protocol freezes the probe's own dynamics and lets a
two-level section of the environment steer a conditional flip on the
probe; reading the environment in a mixed basis parameterized by eps
moves the signal between the two outcome branches without changing the
post-selected average. Only the readout basis depends on eps, so a grid
of mixings exponentiates the generator once and rebuilds just the basis
per eps. The dephasing builder wires a commuting jump model into the
collision machinery. The random generators supply differentiable exact
families for property suites; a family at x = 0 is its seed channel.

A family is a plain function x -> (channel, derivatives) that
exponentiates its generator once per call; the derivatives come as a
read-only (M, d, d) array in the channel's label order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .collision import CollisionSpec
from .encoding import AmplificationReport, amplification_report
from .quantum_core import (
    Ket,
    MeasurementChannel,
    Operator,
    expm,
    kraus_from_dilation,
    spectral_norm,
)

__all__ = [
    "TransducerSpec",
    "build_transducer",
    "transducer_points",
    "Fig1bRow",
    "DEFAULT_EPS_GRID",
    "fig1b_row_from",
    "fig1b_sweep",
    "build_dephasing",
    "random_family",
    "lossless_family",
]

#: Variance floor below which the environment pointer is undefined.
VAR_FLOOR = 1e-14

#: Default mixing grid for the two-outcome sweep.
DEFAULT_EPS_GRID = tuple(np.logspace(-3.0, 3.0, 41))

def _frozen(stack: np.ndarray) -> np.ndarray:
    """A read-only C-ordered (M, d, d) array with the entries of ``stack``."""
    out = np.ascontiguousarray(stack)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class _CentredOperator(Operator):
    """A generator already shifted to zero mean in the state ``about``."""

    about: Optional[Ket] = None


@dataclass(frozen=True)
class TransducerSpec:
    """Inputs of the conditional-flip transducer protocol.

    The environment generator is shifted at construction so its mean in
    the initial environment state vanishes; a spec derived with
    ``dataclasses.replace`` keeps the shifted generator bit for bit. The
    flip gate must be unitary and must send the probe state to an
    orthogonal one.

    Parameters
    ----------
    h0_env : Operator
        Environment generator whose strength x is estimated.
    env_initial : Ket
        Initial environment state.
    sys_initial : Ket
        Probe state the flip acts on.
    flip : Operator
        Unitary with flip |psi> orthogonal to |psi| within 1e-10.
    T : float
        Sensing time.
    x : float
        Operating point of the parameter.
    eps : float
        Readout mixing between the pointer states, >= 0.
    """

    h0_env: Operator
    env_initial: Ket
    sys_initial: Ket
    flip: Operator
    T: float
    x: float
    eps: float

    def __post_init__(self):
        if self.h0_env.dim != self.env_initial.dim:
            raise ValueError(
                f"environment generator dim {self.h0_env.dim} does not match "
                f"state dim {self.env_initial.dim}"
            )
        if self.flip.dim != self.sys_initial.dim:
            raise ValueError(
                f"flip dim {self.flip.dim} does not match probe dim "
                f"{self.sys_initial.dim}"
            )
        if not self.h0_env.is_hermitian(1e-10):
            raise ValueError("environment generator is not Hermitian")
        if not self.flip.is_unitary(1e-10):
            raise ValueError("flip gate is not unitary")
        self.env_initial.require_normalized()
        self.sys_initial.require_normalized()
        overlap = abs(
            np.vdot(self.sys_initial.amplitudes,
                    self.flip.entries @ self.sys_initial.amplitudes)
        )
        if overlap > 1e-10:
            raise ValueError(
                f"flip must map the probe state to an orthogonal one; "
                f"overlap {overlap:.3e}"
            )
        if self.eps < 0.0:
            raise ValueError(f"mixing must be nonnegative, got {self.eps}")
        env = self.h0_env
        # a spec derived with dataclasses.replace carries the shifted generator
        if not (isinstance(env, _CentredOperator)
                and np.array_equal(env.about.amplitudes, self.env_initial.amplitudes)):
            mean = env.expectation(self.env_initial).real
            shifted = env.entries - mean * np.eye(env.dim)
            object.__setattr__(self, "h0_env",
                               _CentredOperator(shifted, about=self.env_initial))

    def env_variance(self) -> float:
        """Variance of the (shifted) generator in the initial state."""
        hit = self.h0_env.entries @ self.env_initial.amplitudes
        return float(np.vdot(hit, hit).real)


class _Dilation:
    """The transducer of one spec, with the readout mixing left open.

    Holds what no mixing changes: the pointer states phi and
    perp = H phi / sqrt(var), the conditional flip U_int, the evolved
    (psi, phi) and (psi, perp) branches the weak-signal check reads, and
    the outcome labels with the retained ones.
    """

    def __init__(self, spec: TransducerSpec, retained):
        self.spec, self.phi, self.var = spec, spec.env_initial.amplitudes, spec.env_variance()
        if self.var <= VAR_FLOOR:
            raise ValueError("environment generator variance vanishes; the conjugate "
                             "pointer state is undefined")
        self.perp = perp = (spec.h0_env.entries @ self.phi) / np.sqrt(self.var)
        self.dims = dim_s, dim_e = spec.sys_initial.dim, spec.env_initial.dim
        perp_proj = np.outer(perp, perp.conj())
        self.u_int = (np.kron(np.eye(dim_s), np.eye(dim_e) - perp_proj)
                      + np.kron(spec.flip.entries, perp_proj))
        self.branches = [(self.u_int @ np.kron(spec.sys_initial.amplitudes, v)).reshape(
            dim_s, dim_e) for v in (self.phi, perp)]
        self.labels = [str(w + 1) for w in range(dim_e)]
        self.keep = frozenset(self.labels if retained is None else retained)

    def unitary(self, x: float) -> tuple:
        """U(x) = U_int (1 (x) exp(-i x T H)) as an Operator, and dU/dx as a
        (d_S, d_E, d_S, d_E) array."""
        dim_s, dim_e = self.dims
        h_env, t_total = self.spec.h0_env.entries, self.spec.T
        rot = expm(-1j * x * t_total * h_env)
        du = self.u_int @ np.kron(np.eye(dim_s), -1j * t_total * h_env @ rot)
        return (Operator(self.u_int @ np.kron(np.eye(dim_s), rot)),
                du.reshape(dim_s, dim_e, dim_s, dim_e))

    def readout(self, eps: float) -> list:
        """The two pointer mixtures at ``eps``, completed orthonormally past
        two environment levels.

        The readout must not couple the pointer states through the probe:
        for every outcome the matrix element between the evolved (psi, phi)
        and (psi, perp) branches has to vanish; this is what makes the
        interaction transduce only the signal-rotated component.
        """
        if eps < 0.0:
            raise ValueError(f"mixing must be nonnegative, got {eps}")
        phi, perp = self.phi, self.perp
        norm = 1.0 / np.sqrt(1.0 + eps**2)
        v1 = (phi + eps * perp) * norm
        v2 = (perp - eps * phi) * norm
        vectors = [v1, v2]
        if len(phi) > 2:
            # the orthogonal complement: rows of vh past the numerical rank,
            # counting singular values above eps * dim * the largest
            _, sv, vh = np.linalg.svd(np.stack([v1.conj(), v2.conj()]))
            rank = int(np.sum(sv > sv.max() * np.finfo(float).eps * len(phi)))
            vectors.extend(vh[rank:].conj())
        a, b = self.branches
        for w, v in enumerate(vectors):
            val = np.vdot(a @ v.conj(), b @ v.conj())
            if abs(val) > 1e-10:
                raise ValueError(f"readout outcome {w + 1} couples the pointer states: "
                                 f"matrix element {abs(val):.3e}")
        return vectors

    def point(self, u: Operator, du4: np.ndarray, vectors: list) -> tuple:
        """Channel and derivative stack of U and dU/dx read out in ``vectors``."""
        channel = kraus_from_dilation(u, self.spec.env_initial, [Ket(v) for v in vectors],
                                      retained=self.keep, labels=self.labels)
        basis = np.stack(vectors)
        return channel, _frozen(np.einsum("we,aebf,f->wab", basis.conj(), du4, self.phi))


def build_transducer(spec: TransducerSpec, retained=None):
    """Differentiable channel family of the transducer readout.

    Returns the family together with the total information the exact
    joint evolution carries, 4 T^2 times the generator variance. The
    family maps x to the dilation channel at x and the derivative stack
    of its Kraus operators, both from one exp(-i x T H). Outcome
    labels count from "1"; with an environment larger than two levels
    the readout basis is completed orthonormally past the two pointer
    mixtures. By default every outcome is retained. A grid of mixings
    goes through ``transducer_points``, which exponentiates the generator
    once and rebuilds only the readout basis per eps.
    """
    dil = _Dilation(spec, retained)
    vectors = dil.readout(spec.eps)
    return (lambda x: dil.point(*dil.unitary(x), vectors)), 4.0 * spec.T**2 * dil.var


def transducer_points(spec: TransducerSpec, eps_grid, retained=None):
    """Yield (channel, derivatives) at ``spec.x`` for each mixing of a grid.

    The spec's own eps is ignored. The dilation U(x) and its x-derivative
    do not depend on the mixing, so the grid exponentiates the generator
    once; only the readout basis is rebuilt and checked per eps. Each
    point equals ``build_transducer`` of the spec at that eps bit for
    bit, and a negative eps raises at its point.
    """
    dil = _Dilation(spec, retained)
    unitary = dil.unitary(spec.x)
    for eps in eps_grid:
        yield dil.point(*unitary, dil.readout(float(eps)))


class Fig1bRow(NamedTuple):
    """One mixing point of the two-outcome information sweep."""

    eps: float
    i_sigma_1: float
    i_sigma_2: float
    avg_total: float
    sum_total: float


def fig1b_row_from(eps: float, amp: AmplificationReport) -> Fig1bRow:
    """The sweep row at mixing ``eps`` read off the point's amplification
    report: the conditional informations of outcomes "1" and "2" (zero
    when dead), their probability-weighted total and their plain sum."""
    per = {label: i_sigma for label, _, i_sigma, _ in amp.rows}
    return Fig1bRow(
        eps=float(eps),
        i_sigma_1=per.get("1", 0.0),
        i_sigma_2=per.get("2", 0.0),
        avg_total=amp.i_q * amp.ratio_sum(),
        sum_total=sum(per.values()),
    )


def fig1b_sweep(spec: TransducerSpec, eps_grid=None) -> tuple:
    """Sweep the readout mixing and tabulate the per-outcome information.

    Reads each row off the amplification report of one point at the
    spec's operating point. The points come from ``transducer_points``:
    one exp(-i x T H) for the whole grid, and only the readout basis
    rebuilt per mixing. The weighted total stays pinned at the joint
    value while the mixing hands the signal from one branch to the other.
    """
    grid = DEFAULT_EPS_GRID if eps_grid is None else tuple(eps_grid)
    return tuple(fig1b_row_from(eps, amplification_report(*point, spec.sys_initial))
                 for eps, point in zip(grid, transducer_points(spec, grid)))


def build_dephasing(H0: Operator, H1, L: Operator, gamma: float, T: float,
                    psi: Ket, x: float) -> CollisionSpec:
    """Commuting jump model with a multiplicative estimation generator.

    H1 is a constant control Operator or a callable t -> Operator. All of
    H0, the control at every sampled time, and L must commute pairwise
    within 1e-10, which is what reduces the loss to the closed
    decay-weighted-variance form. The spec holds H0 and the rate as
    constants, so with a constant control it is sampled once per grid.
    """
    if gamma < 0.0:
        raise ValueError(f"rate must be nonnegative, got {gamma}")
    if T <= 0.0:
        raise ValueError(f"probe time must be positive, got {T}")
    dim = H0.dim
    if L.dim != dim or psi.dim != dim:
        raise ValueError(
            f"dimension mismatch: generator {dim}, jump {L.dim}, state {psi.dim}"
        )
    psi.require_normalized()
    if not H0.is_hermitian(1e-10):
        raise ValueError("estimation generator is not Hermitian")

    def commutes(a, b):
        return spectral_norm(a @ b - b @ a) <= 1e-10

    if not commutes(H0.entries, L.entries):
        raise ValueError("estimation generator and jump operator do not commute")
    spec = CollisionSpec(h0=H0, h1=H1, jumps=((L, gamma),), dim=dim)
    for t in (0.0, T / 2.0, T):
        control = spec.h1(t)
        if not control.is_hermitian(1e-10):
            raise ValueError(f"control is not Hermitian at t={t:.6g}")
        if not commutes(H0.entries, control.entries):
            raise ValueError(f"control does not commute with the generator at t={t:.6g}")
        if not commutes(L.entries, control.entries):
            raise ValueError(f"control does not commute with the jump at t={t:.6g}")
    return spec


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def _row_blocks(u: np.ndarray, n_outcomes: int, dim: int) -> np.ndarray:
    """The first dim columns of each of the n_outcomes row blocks of u."""
    return u[:, :dim].reshape(n_outcomes, dim, dim)


def _seeded_mixer(dim: int, n_outcomes: int, seed: int, retained) -> tuple:
    """A seeded Haar unitary on dim * n_outcomes levels, the stream that
    drew it, the outcome labels "0", "1", ... and the retained ones."""
    if dim < 2 or n_outcomes < 1:
        raise ValueError(f"need dim >= 2 and n_outcomes >= 1, got {dim}, {n_outcomes}")
    rng = np.random.default_rng(seed)
    u = _haar_unitary(dim * n_outcomes, rng)
    labels = [str(w) for w in range(n_outcomes)]
    return u, rng, labels, frozenset(labels if retained is None else retained)


def lossless_family(dim: int, n_outcomes: int, seed: int) -> Callable[[float], tuple]:
    """Exact family whose record costs nothing.

    Each slice is a set of seeded weighted unitaries times one common
    rotation exp(-i x H), with every outcome retained: no outcome weight
    depends on x, so the full information survives post-selection. The
    family maps x to the channel and its derivative stack, both from one
    exp(-i x H).
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_outcomes))
    us = [_haar_unitary(dim, rng) for _ in range(n_outcomes)]
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


def random_family(dim: int, n_outcomes: int, seed: int,
                  retained=None) -> Callable[[float], tuple]:
    """Differentiable exact family: Haar mixer times a random rotation.

    The generator acts before the mixer, so each slice is the seed
    channel's block times exp(-i x H) and the channel stays exact at
    every x. The family maps x to the channel and its analytic
    derivative stack, both from one exp(-i x H).
    """
    u0, rng, labels, keep = _seeded_mixer(dim, n_outcomes, seed, retained)
    h = _random_hermitian(dim, rng)

    def family(x):
        rot = expm(-1j * x * h)
        core = u0 @ np.kron(np.eye(n_outcomes), rot)
        dcore = u0 @ np.kron(np.eye(n_outcomes), -1j * h @ rot)
        channel = MeasurementChannel.from_stack(
            labels, _row_blocks(core, n_outcomes, dim), keep)
        return channel, _frozen(_row_blocks(dcore, n_outcomes, dim))

    return family
