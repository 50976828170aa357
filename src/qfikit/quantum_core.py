"""Dense complex linear algebra and the channel/state data model.

Provides immutable kets and operators (complex128 throughout) and labeled
Kraus measurement channels with a retained/discarded outcome split, stored
as one (M, d, d) array of their Kraus matrices. Residuals are measured in
spectral norm.

A channel's x-derivatives dM_w/dx travel beside it, as (label, Operator)
pairs or an (M, d, d) array in its label order; ``derivative_stack`` is
the one reader of that argument for ``fisher`` and ``encoding`` alike.

Kernels read each slice of a stack with leading axes as a stack of one
would; a failed check raises ``SliceError``, naming the first bad slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "Ket",
    "Operator",
    "KrausRows",
    "MeasurementChannel",
    "channel_kind",
    "Derivatives",
    "SliceError",
    "refuse",
    "require_unit",
    "completeness",
    "derivative_stack",
    "kraus_from_dilation",
    "mixed_state",
    "mixed_states",
    "expm",
    "spectral_norm",
]

#: spectral-norm residual below which a channel counts as exact
EXACT_RESIDUAL_TOL = 1e-10

#: |norm^2 - 1| bound for a ket to count as normalized
NORMALIZED_TOL = 1e-12


class SliceError(ValueError):
    """A check failed at ``index`` of a stack (slice ``index[0]``), with
    the message that slice alone raises."""

    def __init__(self, index: tuple, message: str):
        super().__init__(message)
        self.index = index


def refuse(bad, message) -> None:
    """Raise SliceError(index, message(index)) at the first set entry of ``bad``."""
    if bad.any():
        index = np.unravel_index(np.argmax(bad), bad.shape)
        raise SliceError(index, message(index))


def spectral_norm(a: np.ndarray):
    """Largest singular value of a matrix (2-norm), or of each slice of a stack."""
    # the SVD that np.linalg.norm(a, 2) runs, without its axis handling;
    # singular values come back in descending order
    top = np.linalg.svd(a, compute_uv=False)[..., 0]
    return top if top.ndim else float(top)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_n|b_n> for every row n (the last axis holds a row), rounded as
    np.vdot rounds one row."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| per entry, rounded as Python's abs(complex) rounds it."""
    return np.hypot(z.real, z.imag)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, rounded as np.linalg.norm of one row."""
    return np.sqrt(_rowdot(v.real, v.real) + _rowdot(v.imag, v.imag))


def _running_total(values: np.ndarray, start):
    """Row-order sums along the last axis, as a running Python sum from
    ``start`` takes them (adding ``start`` last turns -0.0 into +0.0)."""
    return np.add.accumulate(values, axis=-1)[..., -1] + start


def _unit_rows(vectors: np.ndarray) -> tuple:
    """The squared norm of every row of (..., d) ``vectors``, squared as a
    Python float's ** 2 squares, and whether it is within NORMALIZED_TOL
    of one."""
    sq = np.float_power(_norms(vectors), 2.0)
    return sq, np.abs(sq - 1.0) <= NORMALIZED_TOL


def require_unit(vectors: np.ndarray) -> None:
    """Refuse the first row of (..., d) ``vectors`` that is not a unit vector."""
    sq, unit = _unit_rows(vectors)
    refuse(~unit, lambda n: f"ket is not normalized: |psi|^2 = {float(sq[n])!r}")


def _as_complex_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    arr.flags.writeable = False
    return arr


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Ket:
    """Complex state vector.

    Parameters
    ----------
    amplitudes : array_like
        Probability amplitudes, flattened to one dimension.
    dim : int, optional
        Expected dimension; defaults to the amplitude count.
    """

    amplitudes: np.ndarray
    dim: int = 0

    def __post_init__(self):
        amps = _as_complex_vector(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        dim = self.dim or amps.size
        if dim < 1 or dim != amps.size:
            raise ValueError(f"dim {dim} does not match {amps.size} amplitudes")
        object.__setattr__(self, "dim", int(dim))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def normalized(self) -> bool:
        """True when the squared norm is within 1e-12 of one."""
        return bool(_unit_rows(self.amplitudes)[1])

    def require_normalized(self) -> "Ket":
        require_unit(self.amplitudes)
        return self

    def unit(self) -> "Ket":
        """Return the normalized copy of this ket."""
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.amplitudes / n)


@dataclass(frozen=True)
class Operator:
    """Square complex matrix with tolerance-aware structure helpers."""

    entries: np.ndarray
    dim: int = 0

    def __post_init__(self):
        mat = _as_complex_matrix(self.entries)
        object.__setattr__(self, "entries", mat)
        dim = self.dim or mat.shape[0]
        if dim != mat.shape[0]:
            raise ValueError(f"dim {dim} does not match entry grid {mat.shape}")
        object.__setattr__(self, "dim", int(dim))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return spectral_norm(self.entries - self.entries.conj().T) <= tol

    def is_unitary(self, tol: float = 1e-10) -> bool:
        d = self.entries.conj().T @ self.entries - np.eye(self.dim)
        return spectral_norm(d) <= tol

    def is_psd(self, tol: float = 1e-10) -> bool:
        if not self.is_hermitian(tol):
            return False
        w = np.linalg.eigvalsh(self.entries)
        return bool(w.min() >= -tol)

    def expectation(self, psi: Ket) -> complex:
        """<psi| A |psi> without normalizing psi."""
        v = psi.amplitudes
        return complex(np.vdot(v, self.entries @ v))


class KrausRows:
    """Read-only (label, Operator) rows over a labeled stack of Kraus matrices.

    Holds the labels and one read-only (M, d, d) complex array. Rows read
    as (label, Operator) pairs; their Operators are built the first time
    any row is read, so a channel that is only contracted never builds
    one. Pairs handed in at construction are kept and returned as is.
    """

    __slots__ = ("labels", "stack", "_pairs")

    def __init__(self, labels: tuple, stack: np.ndarray, pairs: Optional[tuple] = None):
        self.labels = labels
        self.stack = stack
        self._pairs = pairs

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.pairs())

    def __getitem__(self, index):
        return self.pairs()[index]

    def __repr__(self) -> str:
        m, d, _ = self.stack.shape
        return f"KrausRows({m} rows of {d}x{d})"

    def pairs(self) -> tuple:
        """The rows as a tuple of (label, Operator), built on first use."""
        if self._pairs is None:
            self._pairs = tuple(zip(self.labels, map(Operator, self.stack)))
        return self._pairs


def _rows_from_pairs(pairs) -> KrausRows:
    pairs = tuple((str(label), op) for label, op in pairs)
    if not pairs:
        raise ValueError("channel needs at least one Kraus operator")
    dims = {op.dim for _, op in pairs}
    if len(dims) != 1:
        raise ValueError(f"Kraus operators disagree on dimension: {dims}")
    stack = np.array([op.entries for _, op in pairs])
    stack.flags.writeable = False
    return KrausRows(tuple(label for label, _ in pairs), stack, pairs)


def _rows_from_stack(labels, stack) -> KrausRows:
    arr = np.asarray(stack, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected an (M, d, d) Kraus stack, got shape {arr.shape}")
    labels = tuple(str(label) for label in labels)
    if len(labels) != arr.shape[0]:
        raise ValueError(f"{len(labels)} labels for {arr.shape[0]} Kraus operators")
    if not labels:
        raise ValueError("channel needs at least one Kraus operator")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return KrausRows(labels, arr)


@dataclass(frozen=True)
class MeasurementChannel:
    """Labeled Kraus set {M_w} with a retained/discarded outcome split.

    ``kraus`` may be given as (label, Operator) pairs or as the ``kraus``
    of another channel. Either way the channel stores its labels and one
    read-only (M, d, d) complex array ``stack`` of the operators, and
    ``kraus`` becomes a KrausRows view whose Operators are built only
    when a row is read; ``from_stack`` builds a channel from labels and
    an array without any Operator. ``retained_mask`` marks the retained
    rows in label order.

    The completeness residual ||sum M^+ M - 1|| (spectral norm) is computed
    at construction, with the sum taken in row order. ``kind`` follows the
    residual alone: at most 1e-10 is `exact`, anything above is
    `approximate`.
    """

    kraus: object
    retained: frozenset
    completeness_residual: float = field(default=-1.0)
    retained_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.kraus
        if not isinstance(rows, KrausRows):
            rows = _rows_from_pairs(rows)
        labels = rows.labels
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate outcome labels")
        retained = frozenset(str(s) for s in self.retained)
        unknown = retained - set(labels)
        if unknown:
            raise ValueError(f"retained labels not in channel: {sorted(unknown)}")
        mask = np.fromiter((label in retained for label in labels), bool, len(labels))
        mask.flags.writeable = False
        object.__setattr__(self, "kraus", rows)
        object.__setattr__(self, "retained", retained)
        object.__setattr__(self, "retained_mask", mask)
        if self.completeness_residual < 0:
            object.__setattr__(self, "completeness_residual", completeness(rows.stack))

    @classmethod
    def from_stack(cls, labels, stack, retained) -> "MeasurementChannel":
        """Channel over an (M, d, d) array of Kraus matrices, one per label.

        A writeable array is copied; a read-only one is kept as is.
        """
        return cls(kraus=_rows_from_stack(labels, stack), retained=retained)

    @property
    def stack(self) -> np.ndarray:
        """The Kraus matrices as one read-only (M, d, d) array, in label order."""
        return self.kraus.stack

    @property
    def dim(self) -> int:
        return self.kraus.stack.shape[-1]

    @property
    def labels(self) -> tuple:
        return self.kraus.labels

    @property
    def discarded(self) -> frozenset:
        return frozenset(self.labels) - self.retained

    @property
    def kind(self) -> str:
        """Either `exact` or `approximate`, from the completeness residual."""
        return channel_kind(self.completeness_residual)

    def operator(self, label: str) -> Operator:
        try:
            return self.kraus[self.labels.index(label)][1]
        except ValueError:
            raise KeyError(f"no outcome labeled {label!r}") from None


def completeness(stack: np.ndarray):
    """||sum_w M_w^+ M_w - 1|| of an (M, d, d) Kraus stack, or of each of
    a (..., M, d, d) stack of them."""
    # a running sum in row order: the residual decides `kind`, and a
    # reordered sum can move it across EXACT_RESIDUAL_TOL
    acc = np.add.accumulate(stack.conj().swapaxes(-1, -2) @ stack, axis=-3)[..., -1, :, :]
    return spectral_norm(acc - np.eye(stack.shape[-1]))


def channel_kind(completeness_residual: float) -> str:
    """`exact` for a residual of at most EXACT_RESIDUAL_TOL, else `approximate`."""
    return "exact" if completeness_residual <= EXACT_RESIDUAL_TOL else "approximate"


#: derivatives as (label, Operator) pairs or an (M, d, d) array in label order
Derivatives = Union[Sequence, np.ndarray]


def derivative_stack(channel: MeasurementChannel, derivatives: Derivatives) -> np.ndarray:
    """The derivatives as an (M, d, d) array aligned with channel.labels.

    An array is checked for shape and returned as is; (label, Operator)
    pairs must name each of the channel's labels once and are stacked in
    its label order.
    """
    if isinstance(derivatives, np.ndarray):
        if derivatives.shape != channel.stack.shape:
            raise ValueError(
                f"derivative stack shape {derivatives.shape} does not match "
                f"the channel's {channel.stack.shape}"
            )
        return derivatives
    dmap = dict((label, op) for label, op in derivatives)
    if set(dmap) != set(channel.labels) or len(dmap) != len(channel.labels):
        raise ValueError("derivative labels do not match channel labels")
    for label in channel.labels:
        if dmap[label].dim != channel.dim:
            raise ValueError(f"derivative for {label!r} has wrong dimension")
    return np.array([dmap[label].entries for label in channel.labels])


def kraus_from_dilation(
    u_se: Operator,
    env_initial: Ket,
    env_basis: Sequence[Ket],
    retained=None,
    labels: Optional[Sequence[str]] = None,
) -> MeasurementChannel:
    """Extract the Kraus operators of a system-environment dilation.

    With the joint unitary acting on system (x) environment and the
    environment read out in `env_basis`, outcome w gets the operator
    M_w = <pi_w| U |phi_init>, contracted over the environment slot.

    Parameters
    ----------
    u_se : Operator
        Joint evolution on dim_S * dim_E.
    env_initial : Ket
        Environment start state |phi_init>.
    env_basis : sequence of Ket
        Orthonormal readout basis {|pi_w>}, spanning the environment.
    retained : iterable of str, optional
        Retained outcome labels; defaults to all outcomes.
    labels : sequence of str, optional
        Outcome labels; defaults to "0", "1", ...

    Raises
    ------
    ValueError
        Non-orthonormal basis, dimension mismatch, or a unitary dilation
        whose extracted channel misses completeness at 1e-9.
    """
    dim_e = env_initial.dim
    if len(env_basis) != dim_e:
        raise ValueError(f"need {dim_e} basis kets to span the environment, got {len(env_basis)}")
    if any(k.dim != dim_e for k in env_basis):
        raise ValueError("environment basis dimension mismatch")
    basis = np.stack([k.amplitudes for k in env_basis])
    gram = basis.conj() @ basis.T
    if spectral_norm(gram - np.eye(dim_e)) > 1e-10:
        raise ValueError("environment basis is not orthonormal within 1e-10")
    if u_se.dim % dim_e != 0:
        raise ValueError(f"joint dimension {u_se.dim} not divisible by environment dimension {dim_e}")
    dim_s = u_se.dim // dim_e
    u4 = u_se.entries.reshape(dim_s, dim_e, dim_s, dim_e)
    # M_w[a, b] = sum_{e, f} conj(pi_w[e]) U[a, e, b, f] phi[f]
    mats = np.einsum("we,aebf,f->wab", basis.conj(), u4, env_initial.amplitudes)
    if labels is None:
        labels = [str(i) for i in range(dim_e)]
    elif len(labels) != dim_e:
        raise ValueError("label count must match basis size")
    channel = MeasurementChannel.from_stack(
        labels, mats,
        retained=frozenset(str(lbl) for lbl in labels) if retained is None else frozenset(retained),
    )
    if u_se.is_unitary(1e-10) and channel.completeness_residual > 1e-9:
        raise ValueError(
            f"unitary dilation produced completeness residual {channel.completeness_residual:.3e} > 1e-9"
        )
    return channel


def mixed_state(channel: MeasurementChannel, psi: Ket) -> Operator:
    """Decohered output state rho = sum_w M_w |psi><psi| M_w^+.

    The trace must land within completeness_residual + 1e-10 of one.
    """
    psi.require_normalized()
    if channel.dim != psi.dim:
        raise ValueError("channel and state dimension mismatch")
    return Operator(mixed_states(channel.stack @ psi.amplitudes,
                                 channel.completeness_residual))


def mixed_states(m: np.ndarray, residual) -> np.ndarray:
    """``mixed_state`` of each (M, d) set of probe branches m_w = M_w psi
    in a (..., M, d) stack: sum_w m_w m_w^+, added in row order, with
    ``residual`` the channels' completeness residuals."""
    rho = np.add.accumulate(m[..., :, None] * m.conj()[..., None, :], axis=-3)[..., -1, :, :]
    trace_err = np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)
    budget = np.add(residual, 1e-10)
    refuse(trace_err > budget, lambda n: (f"mixed state trace off by {trace_err[n]:.3e}, "
                                          f"budget {budget[n]:.3e}"))
    return rho


#: coefficients b_0, ..., b_m of the [m/m] Pade numerator of exp, by degree m
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}

#: the degrees, and the 1-norm bounds theta_m up to which the [m/m]
#: approximant meets double-precision unit roundoff in backward error
#: (Higham 2005, Table 2.3)
_PADE_DEGREES = tuple(_PADE_COEFFS)
_PADE_THETAS = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                         9.504178996162932e-1, 2.097847961257068e0,
                         5.371920351148152e0])


def _pade_expm1(a: np.ndarray, m: int, eye: np.ndarray) -> np.ndarray:
    """[m/m] Pade approximant of exp(A) - I over a stack, as solve(V - U, 2U).

    With U and V the odd and even parts of the numerator, the approximant
    is (V + U)/(V - U) = I + 2 (V - U)^-1 U; solving for the second term
    alone keeps the digits that I + ... would round away.
    """
    b = _PADE_COEFFS[m]
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        odd, v = b[3] * a2, b[2] * a2
        power = a2
        for k in range(2, m // 2 + 1):
            power = power @ a2
            odd += b[2 * k + 1] * power
            v += b[2 * k] * power
    # U = A (b_1 I + odd), V = b_0 I + v
    u = a @ odd + b[1] * a
    v += b[0] * eye
    return np.linalg.solve(v - u, 2.0 * u)


def expm(a) -> np.ndarray:
    """Matrix exponential of an (n, n) array or of each slice of (..., n, n).

    Scaling and squaring with a Pade approximant (Higham 2005, "The
    scaling and squaring method for the matrix exponential revisited",
    SIAM J. Matrix Anal. Appl. 26(4):1179-1193; Al-Mohy and Higham 2009,
    "A new scaling and squaring algorithm for the matrix exponential",
    SIAM J. Matrix Anal. Appl. 31(3):970-989). Each slice takes the
    lowest degree m whose bound theta_m covers its 1-norm:

        m        3          5          7          9          13
        theta_m  1.496e-2   2.539e-1   9.504e-1   2.098e0    5.372e0

    The approximant is formed as F = exp(A) - I = solve(V - U, 2U) and
    I is added last, so a small step's exponential keeps the digits of A
    that I + A would round away: repeated products over a fine grid
    accumulate them. A slice beyond theta_13 is scaled by 2^-s into it,
    run at m = 13 and squared s times as E <- E E. Its F is of order one
    there, so squaring in the F form (F <- F F + 2F) would gain nothing
    and would cancel every digit of a decaying exponential (F near -I).

    Degree and scaling are chosen per slice, so a stack gives the same
    bits as one call per slice. A zero matrix gives exactly I.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    pick = np.searchsorted(_PADE_THETAS, norms)
    lo, hi = pick.min(), pick.max()
    top = len(_PADE_DEGREES) - 1
    rounds = 0
    if hi > top:
        theta = _PADE_THETAS[top]
        squarings = np.ceil(np.log2(np.maximum(norms, theta) / theta)).astype(int)
        rounds = int(squarings.max())
        # powers of two scale exactly
        stack = stack * np.exp2(-squarings)[:, None, None]
        pick = np.minimum(pick, top)
        lo, hi = min(lo, top), top
    eye = np.eye(n)
    if lo == hi:
        out = _pade_expm1(stack, _PADE_DEGREES[hi], eye)
    else:
        out = np.empty_like(stack)
        for index in range(lo, hi + 1):
            sel = pick == index
            if sel.any():
                out[sel] = _pade_expm1(stack[sel], _PADE_DEGREES[index], eye)
    out += eye
    for k in range(rounds):
        sel = squarings > k
        part = out[sel]
        out[sel] = part @ part
    return out.reshape(a.shape)

