"""Worked-example builders and seeded random-instance generators.

The flip-transducer protocol freezes the probe's own dynamics and lets a
two-level section of the environment steer a conditional flip on the
probe; reading the environment in a mixed basis parameterized by eps
moves the signal between the two outcome branches without changing the
post-selected average. Only the readout basis depends on eps, so a grid
of mixings exponentiates the generator once and reads all its bases as
one array, with no channel built per eps. The dephasing builder wires a
commuting jump model into the collision machinery. The random generators
supply differentiable exact families for property suites; a family at
x = 0 is its seed channel.

A family is a plain function x -> (channel, derivatives) that
exponentiates its generator once per call; the derivatives come as a
read-only (M, d, d) array in the channel's label order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .collision import CollisionSpec
from .encoding import (AmplificationReport, GridAmplification, ProbeColumns,
                       amplification_grid)
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
    "transducer_grid",
    "Fig1bRow",
    "DEFAULT_EPS_GRID",
    "fig1b_row_from",
    "fig1b_rows",
    "fig1b_sweep",
    "build_dephasing",
    "random_family",
    "seeded_families",
    "seeded_lossless_families",
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
    the outcome labels with the retained ones and their mask.
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
        self.labels = tuple(str(w + 1) for w in range(dim_e))
        self.keep = frozenset(self.labels if retained is None else map(str, retained))
        unknown = self.keep - set(self.labels)
        if unknown:
            raise ValueError(f"retained labels not in channel: {sorted(unknown)}")
        self.mask = np.isin(self.labels, sorted(self.keep))

    def unitary(self, x: float) -> tuple:
        """U(x) = U_int (1 (x) exp(-i x T H)) as an Operator, and dU/dx as a
        (d_S, d_E, d_S, d_E) array."""
        dim_s, dim_e = self.dims
        h_env, t_total = self.spec.h0_env.entries, self.spec.T
        rot = expm(-1j * x * t_total * h_env)
        du = self.u_int @ np.kron(np.eye(dim_s), -1j * t_total * h_env @ rot)
        return (Operator(self.u_int @ np.kron(np.eye(dim_s), rot)),
                du.reshape(dim_s, dim_e, dim_s, dim_e))

    def readout(self, eps) -> np.ndarray:
        """The readout bases at the mixings ``eps``, a number or a grid, as
        the rows of an eps.shape + (d_E, d_E) array: the two pointer
        mixtures, completed orthonormally past two environment levels by
        one stacked SVD.

        The readout must not couple the pointer states through the probe:
        for every outcome the matrix element between the evolved (psi, phi)
        and (psi, perp) branches has to vanish; this is what makes the
        interaction transduce only the signal-rotated component. An error
        names the mixing, and its index within a grid.
        """
        grid = np.atleast_1d(np.asarray(eps, dtype=float))[:, None]

        def mixing(k):
            return f"{grid[k, 0].item()}" + (f" (eps_grid[{k}])" if np.ndim(eps) else "")

        low = np.flatnonzero(grid < 0.0)
        if low.size:
            raise ValueError(f"mixing must be nonnegative, got {mixing(low[0])}")
        phi, perp = self.phi, self.perp
        # eps ** 2 as Python rounds a float's square (libm pow)
        norm = 1.0 / np.sqrt(1.0 + np.float_power(grid, 2.0))
        basis = np.stack([(phi + grid * perp) * norm, (perp - grid * phi) * norm], axis=1)
        if len(phi) > 2:
            # the two mixtures are orthonormal, so the rows of vh past the
            # first two span their complement
            vh = np.linalg.svd(basis.conj())[2]
            basis = np.concatenate([basis, vh[:, 2:].conj()], axis=1)
        a, b = self.branches
        vc = basis.conj()
        coupling = np.abs(np.sum((vc @ a.T).conj() * (vc @ b.T), axis=-1))
        hit = np.argwhere(coupling > 1e-10)
        if hit.size:
            k, w = hit[0]
            raise ValueError(f"readout outcome {w + 1} couples the pointer states at "
                             f"eps={mixing(k)}: matrix element {coupling[k, w]:.3e}")
        return basis.reshape(np.shape(eps) + basis.shape[1:])

    def stack(self, u4: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """M_w = <basis_w| U |phi> of a (d_S, d_E, d_S, d_E) array U, for
        (..., W, d_E) bases: a (..., W, d_S, d_S) array."""
        return np.einsum("...we,aebf,f->...wab", basis.conj(), u4, self.phi)

    def point(self, u: Operator, du4: np.ndarray, basis: np.ndarray) -> tuple:
        """Channel and derivative stack of U and dU/dx read out in ``basis``."""
        channel = kraus_from_dilation(u, self.spec.env_initial, [Ket(v) for v in basis],
                                      retained=self.keep, labels=self.labels)
        return channel, _frozen(self.stack(du4, basis))


def build_transducer(spec: TransducerSpec, retained=None):
    """Differentiable channel family of the transducer readout.

    Returns the family together with the total information the exact
    joint evolution carries, 4 T^2 times the generator variance. The
    family maps x to the dilation channel at x and the derivative stack
    of its Kraus operators, both from one exp(-i x T H). Outcome
    labels count from "1"; with an environment larger than two levels
    the readout basis is completed orthonormally past the two pointer
    mixtures. By default every outcome is retained. A grid of mixings
    goes through ``transducer_grid``, which builds no channel per eps.
    """
    dil = _Dilation(spec, retained)
    basis = dil.readout(spec.eps)
    return (lambda x: dil.point(*dil.unitary(x), basis)), 4.0 * spec.T**2 * dil.var


def transducer_grid(spec: TransducerSpec, eps_grid, retained=None) -> tuple:
    """Outcome labels and probe columns of the transducer at ``spec.x``
    for every mixing of a grid.

    The spec's own eps is ignored. The grid takes one exp(-i x T H), its
    G readout bases come as one (G, W, d_E) array, and its Kraus and
    derivative stacks carry a leading grid axis, so no channel is built
    per eps. The columns ``m``, ``dm`` are (G, W, d_S) arrays with one
    completeness residual per point; each point equals ``probe_columns``
    of ``build_transducer`` at its eps bit for bit. The first point that
    breaks a check of ``kraus_from_dilation`` builds its channel, which
    raises the per-point route's error.
    """
    dil = _Dilation(spec, retained)
    u, du4 = dil.unitary(spec.x)
    basis = dil.readout(np.asarray(eps_grid, dtype=float).reshape(-1))
    dim_s, dim_e = dil.dims
    gram = basis.conj() @ basis.swapaxes(1, 2)
    skewed = np.linalg.svd(gram - np.eye(dim_e), compute_uv=False)[:, 0] > 1e-10
    ks = dil.stack(u.entries.reshape(du4.shape), basis)
    # a running sum in row order, as MeasurementChannel takes it
    acc = np.add.accumulate(ks.conj().swapaxes(2, 3) @ ks, axis=1)[:, -1]
    residual = np.linalg.svd(acc - np.eye(dim_s), compute_uv=False)[:, 0]
    broken = np.flatnonzero(skewed | (residual > 1e-9))
    if broken.size:
        # the point's own channel raises kraus_from_dilation's error
        dil.point(u, du4, basis[broken[0]])
    psi = spec.sys_initial.amplitudes
    return dil.labels, ProbeColumns(m=ks @ psi, dm=dil.stack(du4, basis) @ psi,
                                    retained_mask=dil.mask, completeness_residual=residual)


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


def fig1b_rows(eps_grid, amp: GridAmplification) -> tuple:
    """The sweep rows of a mixing grid read off its batched amplification
    report, as ``fig1b_row_from`` reads each point's."""
    i_sigma = amp.i_sigma.T.tolist()
    return tuple(map(Fig1bRow, map(float, eps_grid), i_sigma[0], i_sigma[1],
                     amp.avg_total.tolist(), amp.sum_total.tolist()))


def fig1b_sweep(spec: TransducerSpec, eps_grid=None) -> tuple:
    """Sweep the readout mixing and tabulate the per-outcome information.

    Reads the rows off ``transducer_grid`` at the spec's operating point:
    one exp(-i x T H) and a few batched products for the whole grid,
    turned into rows by ``amplification_grid``. The weighted total stays
    pinned at the joint value while the mixing hands the signal from one
    branch to the other.
    """
    grid = DEFAULT_EPS_GRID if eps_grid is None else tuple(eps_grid)
    return fig1b_rows(grid, amplification_grid(*transducer_grid(spec, grid)))


def build_dephasing(H0: Operator, H1, L: Operator, gamma: float, T: float,
                    psi: Ket, x: float) -> CollisionSpec:
    """Commuting jump model with a multiplicative estimation generator.

    H1 is the constant control Operator. H0, H1 and L must commute
    pairwise within 1e-10, which is what reduces the loss to the closed
    decay-weighted-variance form, and H1 must be Hermitian.
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
    if not H1.is_hermitian(1e-10):
        raise ValueError("control is not Hermitian")
    if not commutes(H0.entries, H1.entries):
        raise ValueError("control does not commute with the generator")
    if not commutes(L.entries, H1.entries):
        raise ValueError("control does not commute with the jump")
    return spec


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from (..., n, n) Ginibre matrices, via QR."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _ginibre(dim, rng)
    return (g + g.conj().T) / 2.0


def seeded_lossless_families(dim: int, n_outcomes: int, seeds) -> Callable:
    """Exact families whose record costs nothing, one per seed, at once.

    Each slice is a set of weighted Haar unitaries times one common
    rotation exp(-i x H), every outcome retained: no outcome weight depends
    on x, so the full information survives post-selection. Each seed draws
    from its own stream: Dirichlet weights, one Ginibre matrix per outcome,
    then the generator. The returned function maps the seeds' (G,)
    operating points to their (G, M, d, d) Kraus and derivative stacks.
    """
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append((rng.dirichlet(np.ones(n_outcomes)),
                      [_ginibre(dim, rng) for _ in range(n_outcomes)],
                      _random_hermitian(dim, rng)))
    weights, ginibres, h = (np.array(stack) for stack in zip(*draws))
    scaled = np.sqrt(weights)[..., None, None] * _haar(ginibres)

    def family(xs):
        rot = expm((-1j * np.asarray(xs, dtype=float))[:, None, None] * h)
        return scaled @ rot[:, None], scaled @ (-1j * h @ rot)[:, None]

    return family


def seeded_families(dim: int, n_outcomes: int, seeds) -> Callable:
    """``random_family`` of every seed at once.

    Each seed draws its mixer and generator from its own stream, as
    ``random_family`` does. The returned function maps the seeds' (G,)
    operating points to their (G, M, d, d) Kraus and derivative stacks,
    each slice with the bits that seed's family gives on its own.
    """
    if dim < 2 or n_outcomes < 1:
        raise ValueError(f"need dim >= 2 and n_outcomes >= 1, got {dim}, {n_outcomes}")
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append((_ginibre(dim * n_outcomes, rng), _ginibre(dim, rng)))
    mixers, gens = (np.array(stack) for stack in zip(*draws))
    # only the mixer's first dim columns meet the system: its row blocks
    # are the seed channel's Kraus operators
    head = _haar(mixers)[..., :dim]
    h = (gens + gens.conj().swapaxes(-1, -2)) / 2.0
    shape = (len(draws), n_outcomes, dim, dim)

    def family(xs):
        rot = expm((-1j * np.asarray(xs, dtype=float))[:, None, None] * h)
        return (head @ rot).reshape(shape), (head @ (-1j * h @ rot)).reshape(shape)

    return family


def random_family(dim: int, n_outcomes: int, seed: int,
                  retained=None) -> Callable[[float], tuple]:
    """Differentiable exact family: Haar mixer times a random rotation.

    The generator acts before the mixer, so each slice is the seed
    channel's block times exp(-i x H) and the channel stays exact at
    every x. The family maps x to the channel and its analytic
    derivative stack, both from one exp(-i x H); it is the one-seed case
    of ``seeded_families``.
    """
    evaluate = seeded_families(dim, n_outcomes, [seed])
    labels = [str(w) for w in range(n_outcomes)]
    keep = frozenset(labels if retained is None else retained)

    def family(x):
        ks, dks = evaluate([x])
        return MeasurementChannel.from_stack(labels, ks[0], keep), _frozen(dks[0])

    return family
