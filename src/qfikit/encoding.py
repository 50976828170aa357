"""Operator statistics of a measurement encoding and its information loss.

For a parameter-dependent Kraus family {M_w(x)} acting on a fixed probe
state, three scalar families summarize everything single-parameter
estimation cares about: the outcome weight <E_w> = <M'M>, the overlap
current <F_w> = i<dM'M>, and the derivative weight <G_w> = <dM'dM>
(primes denote adjoints, d the parameter derivative, brackets the probe
expectation).  This module computes those statistics, fixes the U(1)
derivative gauge, decides losslessness of the encoding in both the
perpendicular and the generic gauge, and evaluates the retained-fraction
loss kappa together with per-outcome amplification ratios.

Every statistic is an expectation in the probe, so a channel point is
contracted once, by ``probe_columns``: its branches M_w psi and dM_w psi,
(M, d) columns in label order, taken from the Kraus and derivative stacks
in one product each, with their e/f/g rows (``ProbeColumns``). ``efg``
keeps the columns on its report (``EfgReport.columns``), so one
contraction serves the report, the amplification rows (``amplification``)
and both theorem-1 checks (``theorem1_residuals``, gauge fix included).
Derivatives are read once, at entry, by ``quantum_core.derivative_stack``:
(label, Operator) pairs or an (M, d, d) array in the channel's label
order; ``fix_perpendicular_gauge`` hands back such an array.
Sums over outcomes run in row order, as a running sum would take them.
Theorem 1 has one definition, ``_theorem1``, over the retained rows, the
channel's totals and its largest discarded residual: ``theorem1_residuals``
feeds it from columns, ``collision.run`` from probe rows. A grid of
channel points, such as the transducer's mixing grid, stacks its columns
along a leading axis; ``amplification_grid`` reads the whole grid at
once, with the same arithmetic per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .fisher import P_FLOOR
from .quantum_core import (Derivatives, Ket, MeasurementChannel, _modulus, _norms, _rowdot,
                           _running_total, channel_kind, derivative_stack, refuse)

__all__ = [
    "KAPPA_DENOM_FLOOR",
    "EfgReport",
    "GaugePhase",
    "LosslessPerpVerdict",
    "GenericLosslessVerdict",
    "KappaResult",
    "AmplificationReport",
    "ProbeColumns",
    "Theorem1Residuals",
    "probe_columns",
    "theorem1_residuals",
    "efg",
    "retained_average",
    "total_qfi",
    "fix_perpendicular_gauge",
    "phase_shift",
    "check_lossless_perp",
    "check_lossless_generic",
    "loss_kappa",
    "amplification_report",
    "amplification",
    "GridAmplification",
    "grid_statistics",
    "amplification_grid",
    "complete_report",
]

#: below this the total QFI counts as zero and kappa is undefined
KAPPA_DENOM_FLOOR = 1e-14

_GAUGES = ("as_given", "perpendicular")


def _aggregate(per_outcome, retained) -> dict:
    """The report's aggregate fields, each a row-order sum of the rows;
    shared by builder and validator."""
    ret = [row for row in per_outcome if row[0] in retained]
    dis = [row for row in per_outcome if row[0] not in retained]
    return dict(
        e_total=sum((row[1] for row in per_outcome), 0.0),
        f_total=sum((row[2] for row in per_outcome), 0j),
        g_total=sum((row[3] for row in per_outcome), 0.0),
        f_retained=sum((row[2] for row in ret), 0j),
        g_retained=sum((row[3] for row in ret), 0.0),
        f_discarded=sum((row[2] for row in dis), 0j),
        g_discarded=sum((row[3] for row in dis), 0.0),
    )


@dataclass(frozen=True)
class GaugePhase:
    """U(1) phase convention at the evaluation point.

    theta is the phase value (zero by convention at the point where the
    derivatives were taken) and dtheta its parameter derivative; applying
    it maps every overlap current to <F_w> + dtheta * <E_w>.
    """

    theta: float
    dtheta: float


@dataclass(frozen=True)
class EfgReport:
    """Per-outcome and aggregate E/F/G statistics of one channel.

    per_outcome rows are (label, e, f, g) with e, g real and f complex,
    in the channel's outcome order.  Aggregate fields are sums of the
    rows (total, retained-only, discarded-only), recomputed and checked
    for exact equality on construction.  avg_ps_qfi is the retained sum
    of 4(g - |f|^2/e) over outcomes with weight above the dead-outcome
    floor; i_q and kappa stay None until filled by total_qfi/loss_kappa,
    and columns holds the probe columns of a report ``efg`` built.
    """

    per_outcome: tuple
    retained: frozenset
    gauge: str
    channel_kind: str
    completeness_residual: float
    e_total: float
    f_total: complex
    g_total: float
    f_retained: complex
    g_retained: float
    f_discarded: complex
    g_discarded: float
    avg_ps_qfi: float
    i_q: Optional[float] = None
    kappa: Optional[float] = None
    columns: Optional[ProbeColumns] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.gauge not in _GAUGES:
            raise ValueError(f"unknown gauge {self.gauge!r}")
        slack = max(self.completeness_residual, 0.0) + 1e-10
        for label, e, f, g in self.per_outcome:
            if not -1e-10 <= e <= 1.0 + slack:
                raise ValueError(f"outcome {label!r} weight {e} outside [0, 1]")
            if g < -1e-10:
                raise ValueError(f"outcome {label!r} derivative weight {g} < 0")
        if self.channel_kind == "exact" and abs(self.f_total.imag) > 1e-9:
            raise ValueError(
                "total overlap current should be real for an exact channel, "
                f"got imaginary part {self.f_total.imag}"
            )
        sums = _aggregate(self.per_outcome, self.retained)
        if any(getattr(self, name) != value for name, value in sums.items()):
            raise ValueError("aggregate fields do not equal per-outcome sums")
        if self.kappa is not None and not -1e-8 <= self.kappa <= 1.0 + 1e-8:
            raise ValueError(f"kappa {self.kappa} outside [0, 1]")

    def row(self, label: str):
        for r in self.per_outcome:
            if r[0] == label:
                return r
        raise KeyError(label)

    def retained_probability(self) -> float:
        return sum(e for label, e, _, _ in self.per_outcome if label in self.retained)


@dataclass(frozen=True, eq=False)
class ProbeColumns:
    """A channel and its derivatives applied to one probe.

    ``m[w] = M_w psi`` and ``dm[w] = dM_w psi`` are (M, d) arrays in the
    channel's label order, ``retained_mask`` marks the retained rows, and
    ``completeness_residual`` is the channel's ||sum_w M_w^+ M_w - 1||;
    the e/f/g rows ``e``, ``f``, ``g`` are formed once, on construction.
    A grid of G points stacks m and dm as (G, M, d) arrays and holds one
    residual per point; ``kind`` reads a single point.
    """

    m: np.ndarray
    dm: np.ndarray
    retained_mask: np.ndarray
    completeness_residual: float
    e: np.ndarray = field(init=False, repr=False)
    f: np.ndarray = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, rows in zip("efg", _efg_rows(self.m, self.dm)):
            object.__setattr__(self, name, rows)

    @property
    def kind(self) -> str:
        """`exact` or `approximate`, from the completeness residual."""
        return channel_kind(self.completeness_residual)


def _efg_rows(m: np.ndarray, dm: np.ndarray) -> tuple:
    """e, f, g of every row of the branches m and derivative branches dm."""
    return _rowdot(m, m).real, 1j * _rowdot(dm, m), _rowdot(dm, dm).real


def probe_columns(channel: MeasurementChannel, derivatives: Derivatives,
                  psi: Ket) -> ProbeColumns:
    """The channel's branches on a normalized probe, one product per stack."""
    psi.require_normalized()
    dks = derivative_stack(channel, derivatives)
    return ProbeColumns(m=channel.stack @ psi.amplitudes, dm=dks @ psi.amplitudes,
                        retained_mask=channel.retained_mask,
                        completeness_residual=channel.completeness_residual)


def _row_sum(values: np.ndarray, start):
    """Sum of an array in row order, as a running Python sum takes it."""
    return sum(values.tolist(), start)


def _labelled(labels: tuple, rows: np.ndarray, values: np.ndarray) -> tuple:
    """(label, value) pairs for the given row indices."""
    return tuple(zip((labels[n] for n in rows), values.tolist()))


def _branch_share(e: float, f: complex, g: float) -> float:
    """Retained-branch summand 4(g - |f|^2/e), clamped at exact zero.

    Cauchy-Schwarz on the branch vectors makes the bracket nonnegative,
    so anything below the roundoff allowance signals broken inputs.
    """
    val = 4.0 * (g - abs(f) ** 2 / e)
    if val < -1e-9 * max(1.0, 4.0 * g):
        raise ValueError(f"branch information share {val} below zero")
    return max(val, 0.0)


def retained_average(per_outcome: tuple, retained) -> float:
    """Post-selected average information of the ``retained`` outcomes: the
    row-order sum of 4(g - |f|^2/e) over the report rows (label, e, f, g)
    retained and above the dead-outcome floor. ``avg_ps_qfi`` is this sum
    over the report's own retained set, so one report's rows give every
    retained subset's average, bit for bit, without a new contraction."""
    return sum((_branch_share(e, f, g) for label, e, f, g in per_outcome
                if label in retained and e > P_FLOOR), 0.0)


def _report(labels: tuple, retained: frozenset, c: ProbeColumns, gauge: str) -> EfgReport:
    per_outcome = tuple(zip(labels, c.e.tolist(), c.f.tolist(), c.g.tolist()))
    return EfgReport(
        per_outcome=per_outcome,
        retained=retained,
        gauge=gauge,
        channel_kind=c.kind,
        completeness_residual=c.completeness_residual,
        avg_ps_qfi=retained_average(per_outcome, retained),
        columns=c,
        **_aggregate(per_outcome, retained),
    )


def efg(
    channel: MeasurementChannel,
    derivatives: Derivatives,
    psi: Ket,
    gauge: str = "as_given",
) -> EfgReport:
    """Contract the E/F/G operator statistics against the probe state.

    Parameters
    ----------
    channel : MeasurementChannel
        Kraus family at the evaluation point.
    derivatives : sequence of (label, Operator), or ndarray
        Parameter derivatives of the Kraus operators: pairs with the
        channel's labels, or an (M, d, d) array in its label order.
    psi : Ket
        Normalized probe state.
    gauge : str
        Recorded gauge tag; pass "perpendicular" for derivatives that
        came out of fix_perpendicular_gauge.

    Returns
    -------
    EfgReport
        With avg_ps_qfi and columns filled and i_q/kappa left as None.
    """
    return _report(channel.labels, channel.retained, probe_columns(channel, derivatives, psi),
                   gauge)


def total_qfi(report: EfgReport, allow_approximate: bool = False) -> float:
    """QFI carried by the full record-resolved pair, 4(<G> - Re<F>^2).

    Equals the pure QFI of the dilated joint state for an exact channel.
    Approximate channels are rejected unless allow_approximate is set,
    since their sums track a truncated branch family rather than the
    physical evolution; integral corrections live in the collision
    workflow.
    """
    if report.channel_kind != "exact" and not allow_approximate:
        raise ValueError(
            "total QFI from sums is only meaningful for an exact channel; "
            "pass allow_approximate=True to override"
        )
    raw = 4.0 * (report.g_total - report.f_total.real**2)
    if raw < -1e-8:
        raise ValueError(f"total QFI {raw} is negative beyond roundoff")
    return max(raw, 0.0)


def fix_perpendicular_gauge(
    channel: MeasurementChannel,
    derivatives: Derivatives,
    psi: Ket,
):
    """Shift the derivative phases so the total overlap current is real-free.

    Adds i * dtheta * M_w to every derivative with dtheta chosen as
    -Re<F_total>/<E_total>, which zeroes Re<F_total> without touching its
    imaginary part or any gauge-invariant quantity. The shift is one
    operation on the whole derivative stack.

    Returns
    -------
    (gauged, phase) : (numpy.ndarray, GaugePhase)
        The shifted derivatives as an (M, d, d) array in the channel's
        label order, accepted wherever derivatives are.
    """
    if channel.kind != "exact":
        raise ValueError("gauge fixing expects an exact channel")
    dks = derivative_stack(channel, derivatives)
    c = probe_columns(channel, dks, psi)
    dtheta = -_row_sum(c.f, 0j).real / _row_sum(c.e, 0.0)
    gauged = dks + (1j * dtheta) * channel.stack
    gauged.flags.writeable = False
    return gauged, GaugePhase(theta=0.0, dtheta=dtheta)


def phase_shift(stack: np.ndarray, dstack: np.ndarray, theta, dtheta) -> tuple:
    """Multiply every branch of (..., M, d, d) Kraus and derivative stacks
    by exp(i theta(x)), with one phase theta and its x-derivative dtheta
    per leading index: each derivative becomes exp(i theta) (dM_w + i
    dtheta M_w). Returns the shifted Kraus and derivative stacks."""
    theta, dtheta = (np.asarray(a)[..., None, None, None] for a in (theta, dtheta))
    phase = np.exp(1j * theta)
    return phase * stack, phase * (dstack + 1j * dtheta * stack)


@dataclass(frozen=True)
class LosslessPerpVerdict:
    """Perpendicular-gauge losslessness: stationary retained branches,
    parameter-free discarded branches.

    retained_residuals rows are (label, |<branch|dbranch>|); discarded
    rows are (label, ||dbranch||).  flagged lists retained outcomes whose
    weight sits at zero while ||dbranch|| exceeds tol, the bound the
    discarded rows are held to: there the stationarity condition is
    vacuous and the verdict withholds a pass.
    """

    lossless: bool
    tol: float
    retained_residuals: tuple
    discarded_residuals: tuple
    flagged: tuple

    def worst(self) -> float:
        vals = [r for _, r in self.retained_residuals]
        vals += [r for _, r in self.discarded_residuals]
        return max(vals) if vals else 0.0


def check_lossless_perp(
    channel: MeasurementChannel,
    derivatives: Derivatives,
    psi: Ket,
    tol: float = 1e-9,
) -> LosslessPerpVerdict:
    """Decide losslessness assuming perpendicular-gauge derivatives.

    Call fix_perpendicular_gauge first; with an unfixed gauge the
    retained residuals conflate the physical overlap with the removable
    phase drift.  The conditions here are sufficient only: a channel can
    fail them in this gauge yet lose nothing.
    """
    c = probe_columns(channel, derivatives, psi)
    kept = channel.retained_mask
    ret, = np.nonzero(kept)
    dis, = np.nonzero(~kept)
    overlap, dnorm, dead = _perp_residuals(c.m, c.dm, c.e, kept, tol)
    worst = max(overlap.max(initial=0.0), dnorm[dis].max(initial=0.0))
    return LosslessPerpVerdict(
        lossless=bool(worst <= tol and not dead.any()),
        tol=tol,
        retained_residuals=_labelled(channel.labels, ret, overlap),
        discarded_residuals=_labelled(channel.labels, dis, dnorm[dis]),
        flagged=tuple(channel.labels[n] for n in np.flatnonzero(dead)),
    )


@dataclass(frozen=True)
class GenericLosslessVerdict:
    """Gauge-free losslessness via the proportionality conditions.

    retained_residuals rows are (label, |<F_w> - <F_total><E_w>|); the
    discarded_residual is |<G_dis> - <F_total> conj(<F_dis>)|.  The
    imag_f_residuals rows (label, |Im<F_w>|) record the necessary
    stationary-weight condition on retained outcomes, which follows from
    the first condition when the total current is real.
    """

    lossless: bool
    tol: float
    retained_residuals: tuple
    discarded_residual: float
    imag_f_residuals: tuple


def check_lossless_generic(
    channel: MeasurementChannel,
    derivatives: Derivatives,
    psi: Ket,
    tol: float = 1e-9,
) -> GenericLosslessVerdict:
    """Decide losslessness in whatever gauge the derivatives carry.

    The two conditions (every retained overlap current proportional to
    its weight through the total current, and the discarded derivative
    weight matching the total-current cross term) characterize lossless
    encodings without requiring a prior gauge fix.
    """
    c = probe_columns(channel, derivatives, psi)
    kept = channel.retained_mask
    ret, = np.nonzero(kept)
    retained_res, discarded_res, imag_f = _generic_residuals(c.e[kept], c.f[kept], _sums(c))
    worst = max(float(retained_res.max(initial=0.0)), discarded_res)
    return GenericLosslessVerdict(
        lossless=bool(worst <= tol),
        tol=tol,
        retained_residuals=_labelled(channel.labels, ret, retained_res),
        discarded_residual=discarded_res,
        imag_f_residuals=_labelled(channel.labels, ret, imag_f),
    )


def _sums(c: ProbeColumns) -> tuple:
    """(<E_total>, <F_total>, <F_dis>, <G_dis>) of probe columns, in row order."""
    dis = ~c.retained_mask
    return (_row_sum(c.e, 0.0), _row_sum(c.f, 0j), _row_sum(c.f[dis], 0j),
            _row_sum(c.g[dis], 0.0))


def _perp_residuals(m, dm, e, kept, tol) -> tuple:
    """|<m_w|dm_w>| over retained rows, ||dm_w|| over all, and the mask of
    dead rows: retained, at zero weight, with ||dm_w|| above tol. Leading
    axes of m, dm and e, a grid's, carry through."""
    overlap = _modulus(_rowdot(m[..., kept, :], dm[..., kept, :]))
    dnorm = _norms(dm)
    return overlap, dnorm, kept & (e <= P_FLOOR) & (dnorm > tol)


def _generic_residuals(e, f, sums) -> tuple:
    """|<F_w> - <F_total><E_w>| and |Im<F_w>| over the retained rows e, f,
    and |<G_dis> - <F_total> conj(<F_dis>)| from the channel's ``_sums``."""
    _, f_total, f_dis, g_dis = sums
    retained_res = _modulus(f - f_total * e)
    discarded_res = float(abs(g_dis - f_total * f_dis.conjugate()))
    return retained_res, discarded_res, np.abs(f.imag)


class Theorem1Residuals(NamedTuple):
    """Worst residuals of both theorem-1 checks at one tolerance.

    ``perp`` is LosslessPerpVerdict.worst() and ``dead`` whether any
    outcome is flagged; ``generic`` is the residual GenericLosslessVerdict
    holds to tol, and ``imag_f`` the worst |Im<F_w>| over retained rows.
    """

    tol: float
    perp: float
    dead: bool
    generic: float
    imag_f: float

    @property
    def perp_lossless(self) -> bool:
        return self.perp <= self.tol and not self.dead

    @property
    def generic_lossless(self) -> bool:
        return self.generic <= self.tol


def _gauge_rate(sums, residual: float) -> float:
    """The gauge rate ``_theorem1`` picks from a channel's ``_sums`` and its
    completeness ``residual``."""
    return -sums[1].real / sums[0] if channel_kind(residual) == "exact" else 0.0


def _theorem1(retained, sums, residual: float, discarded_max, tol: float) -> Theorem1Residuals:
    """Both theorem-1 checks of a channel from its ``retained`` rows (m, dm,
    e, f), its ``_sums`` and ``discarded_max(c)``, the largest ||dm_w + i c
    m_w|| over its discarded rows at the gauge rate picked here: that of
    ``fix_perpendicular_gauge`` for an exact channel (by its completeness
    ``residual``), 0 for an approximate one, which cannot be regauged."""
    m, dm, e, f = retained
    retained_res, discarded_res, imag_f = _generic_residuals(e, f, sums)
    c = _gauge_rate(sums, residual)
    if channel_kind(residual) == "exact":
        dm = dm + (1j * c) * m
    overlap = _modulus(_rowdot(m, dm))
    dead = (e <= P_FLOOR) & (_norms(dm) > tol)
    return Theorem1Residuals(
        tol=tol, perp=float(max(overlap.max(initial=0.0), discarded_max(c))),
        dead=bool(dead.any()), generic=max(float(retained_res.max(initial=0.0)), discarded_res),
        imag_f=float(imag_f.max(initial=0.0)))


def theorem1_residuals(columns: ProbeColumns, tol: float = 1e-9) -> Theorem1Residuals:
    """Both theorem-1 checks (``_theorem1``) from one set of probe columns;
    the residuals match those of ``check_lossless_perp`` and
    ``check_lossless_generic`` to rounding."""
    m, dm, kept = columns.m, columns.dm, columns.retained_mask
    dis = ~kept
    return _theorem1((m[kept], dm[kept], columns.e[kept], columns.f[kept]), _sums(columns),
                     columns.completeness_residual,
                     lambda c: _norms(dm[dis] + (1j * c) * m[dis]).max(initial=0.0), tol)


@dataclass(frozen=True)
class KappaResult:
    """Loss fraction of the retained record.

    kappa is the primary, gauge-invariant value 1 - avg_ps_qfi/i_q.
    kappa_formula is the closed-form ratio
    (<G_dis> - <F_total><F_dis>)/(<G_total> - <F_total>^2), which agrees
    with kappa exactly when every retained overlap current is
    proportional to its weight; condition_residual measures the worst
    violation of that proportionality and conditional marks results
    where the closed form only bounds validity rather than equals it.
    """

    kappa: float
    kappa_formula: float
    condition_residual: float
    conditional: bool


def loss_kappa(
    report: EfgReport,
    condition_tol: float = 1e-9,
    allow_approximate: bool = False,
) -> KappaResult:
    """Fraction of the total QFI lost by keeping only retained outcomes.

    Raises
    ------
    ValueError
        When the total QFI is zero (no information to lose) or the
        resulting kappa escapes [0, 1] beyond roundoff.
    """
    i_q = report.i_q
    if i_q is None:
        i_q = total_qfi(report, allow_approximate=allow_approximate)
    if i_q <= KAPPA_DENOM_FLOOR:
        raise ValueError("total QFI is zero; loss fraction undefined")
    kappa = 1.0 - report.avg_ps_qfi / i_q
    if not -1e-8 <= kappa <= 1.0 + 1e-8:
        raise ValueError(f"kappa {kappa} outside [0, 1] beyond roundoff")
    cond = max(
        (
            abs(f - report.f_total * e)
            for label, e, f, _ in report.per_outcome
            if label in report.retained
        ),
        default=0.0,
    )
    den = report.g_total - report.f_total.real**2
    num = report.g_discarded - (report.f_total * report.f_discarded.conjugate()).real
    return KappaResult(
        kappa=float(kappa),
        kappa_formula=float(num / den),
        condition_residual=float(cond),
        conditional=bool(cond > condition_tol),
    )


@dataclass(frozen=True)
class AmplificationReport:
    """Per-outcome conditional QFIs against the total.

    rows are (label, p, i_sigma, ratio) with ratio = p * i_sigma / i_q;
    dead outcomes (weight at or below the floor) are skipped.  The sum
    of ratios over retained outcomes is 1 - kappa.  strict_regime marks
    that every outcome weight sat strictly inside (0, 1), the situation
    in which some conditional QFI strictly exceeds the total.
    """

    rows: tuple
    i_q: float
    strict_regime: bool

    def ratio_sum(self) -> float:
        return sum(r for _, _, _, r in self.rows)


def amplification_report(
    channel: MeasurementChannel,
    derivatives: Derivatives,
    psi: Ket,
) -> AmplificationReport:
    """Compare each outcome's conditional QFI with the total QFI."""
    return amplification(efg(channel, derivatives, psi))


def amplification(report: EfgReport) -> AmplificationReport:
    """``amplification_report`` read off an exact channel's E/F/G report."""
    i_q = total_qfi(report)
    if i_q <= KAPPA_DENOM_FLOOR:
        raise ValueError("total QFI is zero; amplification undefined")
    rows = []
    for label, e, f, g in report.per_outcome:
        if e > P_FLOOR:
            share = _branch_share(e, f, g)
            rows.append((label, e, share / e, share / i_q))
    strict = all(P_FLOOR < e < 1.0 - P_FLOOR for _, e, _, _ in report.per_outcome)
    return AmplificationReport(rows=tuple(rows), i_q=i_q, strict_regime=strict)


class GridAmplification(NamedTuple):
    """``amplification`` and the theorem-1 perp verdict at every point of a
    grid: ``i_sigma`` (G, M), 0.0 at a dead outcome; ``avg_total`` (i_q
    times the ratio sum) and ``sum_total`` (the plain sum of i_sigma), as
    each point's ``AmplificationReport`` gives them; ``perp`` and
    ``perp_lossless`` as ``Theorem1Residuals`` has them; ``i_q``,
    ``avg_ps_qfi`` and ``kappa`` as each point's ``complete_report`` has
    them."""

    i_sigma: np.ndarray
    avg_total: np.ndarray
    sum_total: np.ndarray
    perp: np.ndarray
    perp_lossless: np.ndarray
    i_q: np.ndarray
    avg_ps_qfi: np.ndarray
    kappa: np.ndarray


def grid_statistics(labels, columns: ProbeColumns, amplified: bool = False) -> tuple:
    """``total_qfi(efg(...))`` at every point of a grid of (G, M, d) probe
    columns in the order of ``labels``, with one completeness residual per
    point: each point's i_q, its (G, M) branch shares (clamped, 0.0 when
    dead), its post-selected average and its kappa. Every point sums its
    rows in row order, so each value equals the per-point route's bit for
    bit. Each check of that route refuses in the route's order, with its
    message; ``amplified`` adds the checks of ``complete_report`` and
    ``amplification``.
    """
    e, f, g, kept = columns.e, columns.f, columns.g, columns.retained_mask
    residual, live = columns.completeness_residual, e > P_FLOOR
    # _branch_share's rule, with |f| ** 2 rounded as a Python float's
    # square; a dead row's 0/0 is masked out by ``live``
    with np.errstate(divide="ignore", invalid="ignore"):
        raw_share = 4.0 * (g - np.float_power(_modulus(f), 2.0) / e)
    negative = live & (raw_share < -1e-9 * np.maximum(1.0, 4.0 * g))

    def refuse_shares(rows):
        refuse(negative & rows,
               lambda n: f"branch information share {float(raw_share[n])} below zero")

    # efg: the retained average's shares, then EfgReport's rows and current
    refuse_shares(kept)
    slack = np.maximum(residual, 0.0)[:, None] + 1e-10
    refuse(np.stack([~((-1e-10 <= e) & (e <= 1.0 + slack)), g < -1e-10], axis=-1),
           lambda n: f"outcome {labels[n[1]]!r} " + (
               f"weight {float(e[n[:2]])} outside [0, 1]" if n[2] == 0
               else f"derivative weight {float(g[n[:2]])} < 0"))
    f_total = _running_total(f, 0j)
    exact = np.array([channel_kind(r) == "exact" for r in residual.tolist()], dtype=bool)
    refuse(exact & (np.abs(f_total.imag) > 1e-9), lambda n: (
        "total overlap current should be real for an exact channel, "
        f"got imaginary part {float(f_total.imag[n])}"))
    # total_qfi: exact channels only, then 4(<G> - Re<F>^2) clamped at zero
    refuse(~exact, lambda n: ("total QFI from sums is only meaningful for an exact channel; "
                              "pass allow_approximate=True to override"))
    raw = 4.0 * (_running_total(g, 0.0) - np.float_power(f_total.real, 2.0))
    refuse(raw < -1e-8, lambda n: f"total QFI {float(raw[n])} is negative beyond roundoff")
    i_q = np.where(raw < 0.0, 0.0, raw)
    share = np.where(live & ~(raw_share < 0.0), raw_share, 0.0)
    avg = _running_total(np.where(kept, share, 0.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = 1.0 - avg / i_q
    if amplified:
        # complete_report's kappa range, amplification's QFI floor, live shares
        refuse(~_kappa_range(i_q, kappa), lambda n: "total QFI is zero; amplification undefined")
        refuse_shares(True)
    return i_q, share, avg, kappa


def _kappa_range(i_q: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """The grid points with i_q above the floor, whose kappa ``loss_kappa``
    would refuse outside [0, 1] beyond roundoff; refuses the first such."""
    informative = i_q > KAPPA_DENOM_FLOOR
    refuse(informative & ~((-1e-8 <= kappa) & (kappa <= 1.0 + 1e-8)),
           lambda n: f"kappa {float(kappa[n])} outside [0, 1] beyond roundoff")
    return informative


def _perp_grid(columns: ProbeColumns, tol: float = 1e-9) -> tuple:
    """``theorem1_residuals``' perp residual and verdict at every point of a
    grid of exact points, in the gauge ``fix_perpendicular_gauge`` picks."""
    e, kept = columns.e, columns.retained_mask
    f_total, e_total = _running_total(columns.f, 0j), _running_total(e, 0.0)
    dm = columns.dm + (1j * (-f_total.real / e_total))[:, None, None] * columns.m
    overlap, dnorm, dead = _perp_residuals(columns.m, dm, e, kept, tol)
    perp = np.maximum(overlap.max(axis=-1, initial=0.0),
                      dnorm[:, ~kept].max(axis=-1, initial=0.0))
    return perp, (perp <= tol) & ~dead.any(axis=-1)


def amplification_grid(labels, columns: ProbeColumns,
                       tol: float = 1e-9) -> GridAmplification:
    """``amplification(complete_report(...))`` and ``theorem1_residuals``'
    perp verdict at every point of a grid of (G, M, d) probe columns in the
    order of ``labels``, with one completeness residual per point, read
    off ``grid_statistics``: no report is built per point, and every value
    equals the per-point route's bit for bit."""
    i_q, share, avg, kappa = grid_statistics(labels, columns, amplified=True)
    i_sigma = np.divide(share, columns.e, out=np.zeros_like(share), where=columns.e > P_FLOOR)
    return GridAmplification(i_sigma, i_q * _running_total(share / i_q[:, None], 0.0),
                             _running_total(i_sigma, 0.0), *_perp_grid(columns, tol),
                             i_q, avg, kappa)


def complete_report(
    channel: MeasurementChannel,
    derivatives: Derivatives,
    psi: Ket,
    gauge: str = "as_given",
    allow_approximate: bool = False,
) -> EfgReport:
    """efg with i_q filled and, when i_q is nonzero, kappa filled too."""
    report = efg(channel, derivatives, psi, gauge=gauge)
    i_q = total_qfi(report, allow_approximate=allow_approximate)
    kappa = None
    if i_q > KAPPA_DENOM_FLOOR:
        kappa = loss_kappa(report, allow_approximate=allow_approximate).kappa
    return replace(report, i_q=i_q, kappa=kappa)
