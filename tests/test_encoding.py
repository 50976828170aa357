"""E/F/G statistics, gauge fixing, losslessness verdicts, and kappa."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    PAULI,
    PLUS_X,
    haar_channel,
    haar_unitary,
    lossless_slice_family,
    random_ket,
    unitary_slice_family,
)
from oracles import (dilated_pure_qfi, dilated_state, gauge_shift, nonempty_subsets,
                     seeded_instance)
from qfikit.encoding import (
    KAPPA_DENOM_FLOOR,
    EfgReport,
    ProbeColumns,
    amplification,
    amplification_grid,
    amplification_report,
    check_lossless_generic,
    check_lossless_perp,
    complete_report,
    efg,
    _report,
    fix_perpendicular_gauge,
    grid_statistics,
    loss_kappa,
    probe_columns,
    retained_average,
    theorem1_residuals,
    total_qfi,
)
from qfikit.fisher import pure_qfi, sld
from qfikit.quantum_core import (
    Ket,
    MeasurementChannel,
    Operator,
    SliceError,
    mixed_state,
)

SEEDS = st.integers(min_value=0, max_value=10**6)


def polar_jump_channel(alpha, t, x=0.0):
    """Keep cos(a) e^{-i x sz t}, discard sin(a) sz e^{-i x sz t}.

    Both branches carry the full rotation, so each conditional state has
    QFI 4t^2 and the loss is exactly sin(a)^2.
    """
    sz = PAULI["z"]
    rot = expm(-1j * x * t * sz)
    drot = -1j * t * sz @ rot
    chan = MeasurementChannel(
        kraus=(
            ("keep", Operator(np.cos(alpha) * rot)),
            ("jump", Operator(np.sin(alpha) * sz @ rot)),
        ),
        retained=frozenset({"keep"}),
    )
    derivs = (
        ("keep", Operator(np.cos(alpha) * drot)),
        ("jump", Operator(np.sin(alpha) * sz @ drot)),
    )
    return chan, derivs


def split_generator_channel(alpha, x=0.0):
    """cos(a) e^{-i x sz} kept, sin(a) sx e^{-i x sx} discarded.

    The two branches rotate under different generators, so the retained
    overlap current is not proportional to its weight on |0>.
    """
    sz, sx = PAULI["z"], PAULI["x"]
    rot_z = expm(-1j * x * sz)
    rot_x = expm(-1j * x * sx)
    chan = MeasurementChannel(
        kraus=(
            ("keep", Operator(np.cos(alpha) * rot_z)),
            ("mix", Operator(np.sin(alpha) * sx @ rot_x)),
        ),
        retained=frozenset({"keep"}),
    )
    derivs = (
        ("keep", Operator(np.cos(alpha) * (-1j * sz) @ rot_z)),
        ("mix", Operator(np.sin(alpha) * sx @ (-1j * sx) @ rot_x)),
    )
    return chan, derivs


def trig_weight_channel(x):
    """cos(x) identity plus sin(x) sigma_x, exact at every x."""
    chan = MeasurementChannel(
        kraus=(
            ("flat", Operator(np.cos(x) * PAULI["i"])),
            ("flip", Operator(np.sin(x) * PAULI["x"])),
        ),
        retained=frozenset({"flat", "flip"}),
    )
    derivs = (
        ("flat", Operator(-np.sin(x) * PAULI["i"])),
        ("flip", Operator(np.cos(x) * PAULI["x"])),
    )
    return chan, derivs


class TestEfgReportValidation:
    def _rows_report(self, **overrides):
        per = (("a", 1.0, 0j, 0.5),)
        kwargs = dict(
            per_outcome=per,
            retained=frozenset({"a"}),
            gauge="as_given",
            channel_kind="exact",
            completeness_residual=0.0,
            e_total=1.0,
            f_total=0j,
            g_total=0.5,
            f_retained=0j,
            g_retained=0.5,
            f_discarded=0j,
            g_discarded=0.0,
            avg_ps_qfi=2.0,
        )
        kwargs.update(overrides)
        return EfgReport(**kwargs)

    def test_good_report_accepted(self):
        rep = self._rows_report()
        assert rep.row("a")[3] == 0.5
        assert rep.retained_probability() == 1.0

    def test_unknown_gauge_rejected(self):
        with pytest.raises(ValueError, match="gauge"):
            self._rows_report(gauge="sideways")

    def test_weight_above_one_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            self._rows_report(per_outcome=(("a", 1.5, 0j, 0.5),), e_total=1.5)

    def test_negative_derivative_weight_rejected(self):
        with pytest.raises(ValueError, match="derivative weight"):
            self._rows_report(per_outcome=(("a", 1.0, 0j, -1e-6),), g_total=-1e-6)

    def test_aggregate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sums"):
            self._rows_report(g_total=0.75)

    def test_imaginary_total_current_rejected_for_exact(self):
        with pytest.raises(ValueError, match="real"):
            self._rows_report(
                per_outcome=(("a", 1.0, 1e-6j, 0.5),),
                f_total=1e-6j,
                f_retained=1e-6j,
            )

    def test_approximate_kind_relaxes_current_and_weight(self):
        rep = self._rows_report(
            per_outcome=(("a", 1.0 + 5e-4, 1e-6j, 0.5),),
            e_total=1.0 + 5e-4,
            f_total=1e-6j,
            f_retained=1e-6j,
            channel_kind="approximate",
            completeness_residual=1e-3,
        )
        assert rep.channel_kind == "approximate"

    def test_kappa_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            self._rows_report(kappa=1.1)


class TestEfg:
    def test_parameter_independent_family_has_zero_currents(self):
        rng = np.random.default_rng(5)
        chan = haar_channel(3, 2, rng)
        derivs = tuple((lbl, Operator(np.zeros((3, 3)))) for lbl, _ in chan.kraus)
        rep = efg(chan, derivs, random_ket(3, rng))
        for _, e, f, g in rep.per_outcome:
            assert f == 0j
            assert g == 0.0
        assert rep.f_total == 0j
        assert rep.g_total == 0.0
        assert rep.avg_ps_qfi == 0.0

    def test_decaying_rotation_closed_forms(self):
        # single no-jump branch M = e^{-i x sz T} e^{-g T / 2}:
        # e = exp(-g T), f = -T exp(-g T) <sz>, g = T^2 exp(-g T)
        gamma, t, x = 0.8, 1.2, 0.35
        sz = PAULI["z"]
        decay = np.exp(-gamma * t / 2.0)
        m = expm(-1j * x * t * sz) * decay
        dm = -1j * t * sz @ m
        chan = MeasurementChannel(
            kraus=(("survive", Operator(m)),), retained=frozenset({"survive"})
        )
        psi = random_ket(2, np.random.default_rng(7))
        rep = efg(chan, (("survive", Operator(dm)),), psi)
        z_mean = float(np.vdot(psi.amplitudes, sz @ psi.amplitudes).real)
        _, e, f, g = rep.row("survive")
        assert e == pytest.approx(np.exp(-gamma * t), rel=1e-12)
        assert f == pytest.approx(-t * np.exp(-gamma * t) * z_mean, abs=1e-12)
        assert g == pytest.approx(t * t * np.exp(-gamma * t), rel=1e-12)
        assert rep.channel_kind == "approximate"

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_dilated_overlaps_match_sums(self, seed):
        fam = unitary_slice_family(3, 2, seed=seed)
        x = 0.3
        chan, derivs = fam(x)
        psi = random_ket(3, np.random.default_rng(seed + 1))
        rep = efg(chan, derivs, psi)
        joint, djoint = dilated_state(
            [op.entries for _, op in chan.kraus],
            list(derivs),
            psi.amplitudes,
        )
        assert abs(np.vdot(djoint, djoint).real - rep.g_total) < 1e-10
        assert abs(np.vdot(djoint, joint) - (-1j) * rep.f_total) < 1e-10

    def test_label_mismatch_rejected(self):
        chan, derivs = polar_jump_channel(0.4, 1.0)
        bad = (("keep", derivs[0][1]), ("other", derivs[1][1]))
        with pytest.raises(ValueError, match="labels"):
            efg(chan, bad, PLUS_X)

    def test_wrong_derivative_dimension_rejected(self):
        chan, _ = polar_jump_channel(0.4, 1.0)
        bad = (
            ("keep", Operator(np.eye(3))),
            ("jump", Operator(np.eye(3))),
        )
        with pytest.raises(ValueError, match="dimension"):
            efg(chan, bad, PLUS_X)

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_average_share_matches_direct_conditional_qfi(self, seed):
        rng = np.random.default_rng(seed)
        n_out = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 5))
        keep = [str(w) for w in range(n_out) if rng.random() < 0.6] or ["0"]
        fam = unitary_slice_family(dim, n_out, seed=seed, retained=keep)
        x = 0.2
        chan, derivs = fam(x)
        psi = random_ket(dim, rng)
        rep = efg(chan, derivs, psi)
        dmap = dict(zip(chan.labels, derivs))
        direct = 0.0
        for label, op in chan.kraus:
            if label not in chan.retained:
                continue
            branch = op.entries @ psi.amplitudes
            p = float(np.vdot(branch, branch).real)
            if p <= 1e-12:
                continue
            dbranch = dmap[label] @ psi.amplitudes
            s = branch / np.sqrt(p)
            dp = 2.0 * np.vdot(branch, dbranch).real
            ds = dbranch / np.sqrt(p) - branch * dp / (2.0 * p**1.5)
            direct += p * pure_qfi(Ket(s), Ket(ds, dim=dim))
        assert rep.avg_ps_qfi == pytest.approx(direct, abs=1e-7, rel=1e-7)


class TestRetainedAverage:
    """Subset averages from one report's rows, as the chain suite takes them."""

    @pytest.mark.parametrize("seed", range(20))
    def test_subset_average_equals_recontraction(self, seed):
        family, x, psi = seeded_instance(seed)
        channel, derivatives = family(x)
        report = efg(channel, derivatives, psi)
        assert retained_average(report.per_outcome, channel.retained) == report.avg_ps_qfi
        for subset in nonempty_subsets(channel.labels):
            kept = efg(replace(channel, retained=subset), derivatives, psi)
            assert retained_average(report.per_outcome, subset) == kept.avg_ps_qfi

    def test_negative_share_raises(self):
        rows = (("a", 0.5, 0.1 + 0j, 0.3), ("b", 0.5, 1.0 + 0j, 0.1))
        assert retained_average(rows, {"a"}) == pytest.approx(4 * (0.3 - 0.02))
        with pytest.raises(ValueError, match="below zero"):
            retained_average(rows, {"a", "b"})

    def test_dead_and_discarded_rows_skipped(self):
        rows = (("a", 0.0, 0j, 0.0), ("b", 0.5, 0.1 + 0j, 0.3), ("c", 0.5, 1.0 + 0j, 0.1))
        assert retained_average(rows, {"a", "b"}) == retained_average(rows, {"b"})

    def test_chain_suite_looks_families_up_per_call(self, monkeypatch):
        # a wrapper bound to verify.seeded_families reaches the suite: one
        # call per shape group, which together cover the 100 instances
        import qfikit.verify

        original = qfikit.verify.seeded_families
        calls = []

        def counted(dim, n_outcomes, seeds):
            calls.append(list(seeds))
            return original(dim, n_outcomes, seeds)

        monkeypatch.setattr(qfikit.verify, "seeded_families", counted)
        ok, _ = qfikit.verify._suite_chain()
        assert ok and len(calls) == 12
        assert sorted(sum(calls, [])) == list(range(100))


class TestOneContraction:
    """A report keeps the probe columns it was read from, and its readers
    give what a fresh contraction gives."""

    @pytest.mark.parametrize("seed", range(20))
    def test_report_columns_are_the_contraction(self, seed):
        family, x, psi = seeded_instance(seed)
        channel, derivatives = family(x)
        report = efg(channel, derivatives, psi)
        columns = probe_columns(channel, derivatives, psi)
        for name in ("m", "dm", "e", "f", "g"):
            got, want = getattr(report.columns, name), getattr(columns, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert theorem1_residuals(report.columns) == theorem1_residuals(columns)

    @pytest.mark.parametrize("seed", range(20))
    def test_amplification_reads_a_complete_report(self, seed):
        family, x, psi = seeded_instance(seed)
        channel, derivatives = family(x)
        report = complete_report(channel, derivatives, psi)
        if report.i_q <= KAPPA_DENOM_FLOOR:
            pytest.skip("no information to amplify")
        assert amplification(report) == amplification_report(channel, derivatives, psi)

    def test_columns_stay_out_of_equality_and_repr(self):
        chan, derivs = polar_jump_channel(0.4, 1.0)
        report = efg(chan, derivs, PLUS_X)
        assert report.columns is not None
        assert replace(report, columns=None) == report
        assert "columns" not in repr(report)


class TestTotalQfi:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_matches_dilated_pure_qfi(self, seed):
        fam = unitary_slice_family(2, 3, seed=seed)
        x = 0.4
        chan, derivs = fam(x)
        psi = random_ket(2, np.random.default_rng(seed + 2))
        rep = efg(chan, derivs, psi)
        want = dilated_pure_qfi(
            [op.entries for _, op in chan.kraus],
            list(derivs),
            psi.amplitudes,
        )
        assert total_qfi(rep) == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_global_phase_family_carries_nothing(self):
        c = 3.7
        u = haar_unitary(3, np.random.default_rng(9))
        x = 0.6
        m = np.exp(1j * c * x) * u
        dm = 1j * c * m
        chan = MeasurementChannel(
            kraus=(("u", Operator(m)),), retained=frozenset({"u"})
        )
        rep = efg(chan, (("u", Operator(dm)),), random_ket(3, np.random.default_rng(3)))
        assert total_qfi(rep) == pytest.approx(0.0, abs=1e-12)

    def test_approximate_channel_rejected_without_override(self):
        gamma, t = 0.5, 1.0
        m = expm(-1j * 0.1 * PAULI["z"]) * np.exp(-gamma * t / 2.0)
        chan = MeasurementChannel(
            kraus=(("survive", Operator(m)),), retained=frozenset({"survive"})
        )
        derivs = (("survive", Operator(-1j * PAULI["z"] @ m)),)
        rep = efg(chan, derivs, PLUS_X)
        with pytest.raises(ValueError, match="exact"):
            total_qfi(rep)
        assert total_qfi(rep, allow_approximate=True) >= 0.0

    def test_tiny_negative_clamped_and_large_negative_rejected(self):
        def report_with(f):
            return EfgReport(
                per_outcome=(("a", 1.0, f, 0.0),),
                retained=frozenset({"a"}),
                gauge="as_given",
                channel_kind="exact",
                completeness_residual=0.0,
                e_total=1.0,
                f_total=f,
                g_total=0.0,
                f_retained=f,
                g_retained=0.0,
                f_discarded=0j,
                g_discarded=0.0,
                avg_ps_qfi=0.0,
            )

        assert total_qfi(report_with(1e-5 + 0j)) == 0.0
        with pytest.raises(ValueError, match="negative"):
            total_qfi(report_with(1e-3 + 0j))

    def test_perpendicular_gauge_reduces_to_derivative_weight(self):
        fam = unitary_slice_family(2, 2, seed=31)
        x = 0.25
        chan, derivs = fam(x)
        psi = random_ket(2, np.random.default_rng(8))
        gauged, _ = fix_perpendicular_gauge(chan, derivs, psi)
        rep = efg(chan, gauged, psi, gauge="perpendicular")
        assert total_qfi(rep) == pytest.approx(4.0 * rep.g_total, rel=1e-9)


class TestPerpendicularGauge:
    def test_already_perpendicular_needs_no_shift(self):
        t = 1.4
        rot = expm(-1j * 0.3 * t * PAULI["z"])
        chan = MeasurementChannel(
            kraus=(("u", Operator(rot)),), retained=frozenset({"u"})
        )
        derivs = (("u", Operator(-1j * t * PAULI["z"] @ rot)),)
        _, phase = fix_perpendicular_gauge(chan, derivs, PLUS_X)
        assert phase.theta == 0.0
        assert abs(phase.dtheta) < 1e-14

    def test_constant_phase_rate_recovered(self):
        fam = unitary_slice_family(3, 2, seed=44)
        x = 0.15
        chan, derivs = fam(x)
        psi = random_ket(3, np.random.default_rng(12))
        _, base = fix_perpendicular_gauge(chan, derivs, psi)
        shifted_chan, shifted_derivs = gauge_shift(chan, derivs, 0.37, 5.0)
        _, moved = fix_perpendicular_gauge(shifted_chan, shifted_derivs, psi)
        assert moved.dtheta - base.dtheta == pytest.approx(-5.0, abs=1e-9)

    def test_postconditions(self):
        fam = unitary_slice_family(2, 3, seed=45)
        x = 0.3
        chan, derivs = fam(x)
        psi = random_ket(2, np.random.default_rng(13))
        before = efg(chan, derivs, psi)
        gauged, _ = fix_perpendicular_gauge(chan, derivs, psi)
        after = efg(chan, gauged, psi, gauge="perpendicular")
        assert abs(after.f_total.real) <= 1e-10
        # the shift adds a real number per outcome, so Im only re-rounds
        assert after.f_total.imag == pytest.approx(before.f_total.imag, abs=1e-14)
        assert total_qfi(after) == pytest.approx(total_qfi(before), abs=1e-10)

    def test_approximate_channel_rejected(self):
        m = 0.9 * np.eye(2)
        chan = MeasurementChannel(
            kraus=(("a", Operator(m)),), retained=frozenset({"a"})
        )
        with pytest.raises(ValueError, match="exact"):
            fix_perpendicular_gauge(chan, (("a", Operator(np.eye(2))),), PLUS_X)


class TestLosslessPerp:
    def test_single_unitary_branch_is_lossless(self):
        t = 2.0
        rot = expm(-1j * 0.2 * t * PAULI["z"])
        chan = MeasurementChannel(
            kraus=(("u", Operator(rot)),), retained=frozenset({"u"})
        )
        derivs = (("u", Operator(-1j * t * PAULI["z"] @ rot)),)
        gauged, _ = fix_perpendicular_gauge(chan, derivs, PLUS_X)
        verdict = check_lossless_perp(chan, gauged, PLUS_X, tol=1e-9)
        assert verdict.lossless
        assert verdict.worst() <= 1e-12

    def test_discarded_rotating_branch_is_lossy_and_grows(self):
        worsts = []
        for alpha in (0.3, 0.6, 0.9):
            chan, derivs = polar_jump_channel(alpha, t=1.0, x=0.2)
            gauged, _ = fix_perpendicular_gauge(chan, derivs, PLUS_X)
            verdict = check_lossless_perp(chan, gauged, PLUS_X, tol=1e-9)
            assert not verdict.lossless
            (_, res), = verdict.discarded_residuals
            assert res == pytest.approx(np.sin(alpha), rel=1e-12)
            worsts.append(res)
        assert worsts[0] < worsts[1] < worsts[2]

    def test_zero_angle_limit_is_lossless(self):
        chan, derivs = polar_jump_channel(0.0, t=1.0, x=0.2)
        gauged, _ = fix_perpendicular_gauge(chan, derivs, PLUS_X)
        assert check_lossless_perp(chan, gauged, PLUS_X, tol=1e-9).lossless

    def test_dead_retained_outcome_with_live_derivative_is_flagged(self):
        chan, derivs = trig_weight_channel(0.0)
        verdict = check_lossless_perp(chan, derivs, Ket([1, 0]), tol=1e-9)
        assert verdict.flagged == ("flip",)
        assert not verdict.lossless

    @pytest.mark.parametrize("drift, flagged", [(1e-7, ()), (1e-5, ("dead",))])
    def test_dead_outcome_flag_is_held_to_tol(self, drift, flagged):
        # a retained outcome of zero weight whose derivative branch has
        # norm `drift`: flagged only when that norm exceeds tol
        chan = MeasurementChannel(
            kraus=(("u", Operator(np.eye(2))), ("dead", Operator(np.zeros((2, 2))))),
            retained=frozenset({"u", "dead"}),
        )
        derivs = (("u", Operator(np.zeros((2, 2)))),
                  ("dead", Operator(drift * PAULI["x"])))
        verdict = check_lossless_perp(chan, derivs, Ket([1, 0]), tol=1e-6)
        assert verdict.flagged == flagged
        assert verdict.worst() == 0.0
        assert verdict.lossless == (not flagged)


class TestLosslessGeneric:
    def test_weighted_unitaries_pass_in_any_gauge(self):
        fam = lossless_slice_family(3, 3, seed=50)
        x = 0.2
        chan, derivs = fam(x)
        psi = random_ket(3, np.random.default_rng(14))
        shifted_chan, shifted_derivs = gauge_shift(
            chan, derivs, 5 * x + x * x, 5 + 2 * x
        )
        verdict = check_lossless_generic(shifted_chan, shifted_derivs, psi, tol=1e-9)
        assert verdict.lossless

    def test_discarded_branch_fails_second_condition(self):
        alpha = 0.5
        chan, derivs = polar_jump_channel(alpha, t=1.3, x=0.1)
        verdict = check_lossless_generic(chan, derivs, PLUS_X, tol=1e-9)
        assert not verdict.lossless
        for _, res in verdict.retained_residuals:
            assert res <= 1e-12
        assert verdict.discarded_residual == pytest.approx(
            1.3 * 1.3 * np.sin(alpha) ** 2, rel=1e-12
        )

    def test_split_generators_fail_first_condition(self):
        alpha = 0.7
        chan, derivs = split_generator_channel(alpha)
        verdict = check_lossless_generic(chan, derivs, Ket([1, 0]), tol=1e-9)
        assert not verdict.lossless
        (_, res), = verdict.retained_residuals
        want = np.cos(alpha) ** 2 * np.sin(alpha) ** 2
        assert res == pytest.approx(want, rel=1e-12)

    def test_parameter_independent_family_trivially_lossless(self):
        rng = np.random.default_rng(15)
        chan = haar_channel(2, 2, rng, retained=["0"])
        derivs = tuple((lbl, Operator(np.zeros((2, 2)))) for lbl, _ in chan.kraus)
        verdict = check_lossless_generic(chan, derivs, random_ket(2, rng), tol=1e-12)
        assert verdict.lossless
        assert verdict.discarded_residual == 0.0

    def test_imag_current_reports_weight_drift(self):
        x = 0.4
        chan, derivs = trig_weight_channel(x)
        chan = MeasurementChannel(kraus=chan.kraus, retained=frozenset({"flat"}))
        verdict = check_lossless_generic(chan, derivs, Ket([1, 0]), tol=1e-9)
        (_, imag_res), = verdict.imag_f_residuals
        # |Im<F>| equals half the weight slope |d cos^2(x)/dx| = sin(2x)/2
        assert imag_res == pytest.approx(0.5 * np.sin(2 * x), rel=1e-12)
        assert not verdict.lossless


class TestLossKappa:
    def test_branching_rotation_loss_is_the_jump_weight(self):
        alpha, t = 0.6, 1.3
        chan, derivs = polar_jump_channel(alpha, t, x=0.0)
        rep = complete_report(chan, derivs, PLUS_X)
        res = loss_kappa(rep)
        assert res.kappa == pytest.approx(np.sin(alpha) ** 2, abs=1e-12)
        assert res.kappa_formula == pytest.approx(res.kappa, abs=1e-12)
        assert not res.conditional
        assert res.condition_residual <= 1e-12
        assert rep.i_q == pytest.approx(4.0 * t * t, rel=1e-12)

    def test_split_generators_tagged_conditional(self):
        alpha = 0.7
        chan, derivs = split_generator_channel(alpha)
        rep = complete_report(chan, derivs, Ket([1, 0]))
        res = loss_kappa(rep)
        # the kept branch is a pure phase on |0>, so everything is lost
        assert res.kappa == pytest.approx(1.0, abs=1e-12)
        assert res.conditional
        want_formula = 1.0 / (1.0 + np.cos(alpha) ** 2)
        assert res.kappa_formula == pytest.approx(want_formula, rel=1e-12)
        assert abs(res.kappa_formula - res.kappa) > 1e-3

    def test_lossless_family_loses_nothing(self):
        fam = lossless_slice_family(2, 3, seed=51)
        x = 0.3
        chan, derivs = fam(x)
        psi = random_ket(2, np.random.default_rng(16))
        res = loss_kappa(efg(chan, derivs, psi))
        assert res.kappa == pytest.approx(0.0, abs=1e-8)
        assert res.kappa_formula == pytest.approx(0.0, abs=1e-8)
        assert not res.conditional

    def test_zero_information_rejected(self):
        rng = np.random.default_rng(17)
        chan = haar_channel(2, 2, rng)
        derivs = tuple((lbl, Operator(np.zeros((2, 2)))) for lbl, _ in chan.kraus)
        rep = efg(chan, derivs, random_ket(2, rng))
        with pytest.raises(ValueError, match="zero"):
            loss_kappa(rep)

    def test_out_of_range_kappa_rejected(self):
        rep = EfgReport(
            per_outcome=(("a", 1.0, 0j, 1.0),),
            retained=frozenset({"a"}),
            gauge="as_given",
            channel_kind="exact",
            completeness_residual=0.0,
            e_total=1.0,
            f_total=0j,
            g_total=1.0,
            f_retained=0j,
            g_retained=1.0,
            f_discarded=0j,
            g_discarded=0.0,
            avg_ps_qfi=8.0,
        )
        with pytest.raises(ValueError, match="kappa"):
            loss_kappa(rep)

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_retained_share_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        n_out = int(rng.integers(2, 4))
        keep = [str(w) for w in range(n_out) if rng.random() < 0.6] or ["0"]
        fam = unitary_slice_family(2, n_out, seed=seed, retained=keep)
        x = 0.2
        chan, derivs = fam(x)
        psi = random_ket(2, rng)
        rep = complete_report(chan, derivs, psi)
        assume(rep.i_q is not None and rep.i_q > 1e-3)
        res = loss_kappa(rep)
        assert rep.i_q * (1.0 - res.kappa) == pytest.approx(
            rep.avg_ps_qfi, rel=1e-10, abs=1e-12
        )


class TestAmplification:
    def test_single_unitary_outcome_has_unit_ratio(self):
        rot = expm(-1j * 0.3 * PAULI["z"])
        chan = MeasurementChannel(
            kraus=(("u", Operator(rot)),), retained=frozenset({"u"})
        )
        derivs = (("u", Operator(-1j * PAULI["z"] @ rot)),)
        rep = amplification_report(chan, derivs, PLUS_X)
        (label, p, i_sigma, ratio), = rep.rows
        assert p == pytest.approx(1.0, abs=1e-12)
        assert i_sigma == pytest.approx(rep.i_q, rel=1e-12)
        assert ratio == pytest.approx(1.0, rel=1e-12)
        assert not rep.strict_regime

    def test_branching_rotation_shares(self):
        alpha, t = 0.6, 1.0
        chan, derivs = polar_jump_channel(alpha, t, x=0.0)
        rep = amplification_report(chan, derivs, PLUS_X)
        rows = dict((label, (p, i_s, r)) for label, p, i_s, r in rep.rows)
        assert rows["keep"][1] == pytest.approx(4.0 * t * t, rel=1e-12)
        assert rows["jump"][1] == pytest.approx(4.0 * t * t, rel=1e-12)
        assert rep.ratio_sum() == pytest.approx(1.0, rel=1e-12)
        assert rep.strict_regime

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_ratio_sum_never_exceeds_one(self, seed):
        fam = unitary_slice_family(2, 3, seed=seed)
        x = 0.3
        chan, derivs = fam(x)
        psi = random_ket(2, np.random.default_rng(seed + 3))
        rep = amplification_report(chan, derivs, psi)
        assert rep.ratio_sum() <= 1.0 + 1e-8

    def test_dead_outcome_skipped(self):
        chan, derivs = trig_weight_channel(0.0)
        rep = amplification_report(chan, derivs, PLUS_X)
        assert [label for label, *_ in rep.rows] == ["flat"]
        assert not rep.strict_regime


def grid_of(points) -> tuple:
    """Labels and stacked probe columns of (channel, derivatives, psi)
    points that share labels and retained set."""
    cols = [probe_columns(*point) for point in points]
    return points[0][0].labels, ProbeColumns(
        m=np.stack([c.m for c in cols]), dm=np.stack([c.dm for c in cols]),
        retained_mask=cols[0].retained_mask,
        completeness_residual=np.array([c.completeness_residual for c in cols]))


def point_by_point(points, tol):
    """(AmplificationReport, Theorem1Residuals) per point, or the first
    point's error, as a loop of efg, amplification and theorem1_residuals
    meets it."""
    out = []
    try:
        for point in points:
            report = efg(*point)
            out.append((amplification(report), theorem1_residuals(report.columns, tol=tol)))
    except ValueError as exc:
        return str(exc)
    return out


class TestAmplificationGrid:
    """The batched reader equals the per-point reports bit for bit."""

    def assert_matches(self, points, tol=1e-9):
        want = point_by_point(points, tol)
        assert not isinstance(want, str), want
        amp = amplification_grid(*grid_of(points), tol=tol)
        labels = points[0][0].labels
        for n, (rep, t1) in enumerate(want):
            per = {label: i_sigma for label, _, i_sigma, _ in rep.rows}
            assert amp.i_sigma[n].tolist() == [per.get(label, 0.0) for label in labels]
            assert amp.avg_total[n] == rep.i_q * rep.ratio_sum()
            assert amp.sum_total[n] == sum(per.values())
            assert amp.perp[n] == t1.perp
            assert amp.perp_lossless[n] == t1.perp_lossless

    @given(SEEDS, st.integers(2, 4), st.integers(1, 4), st.integers(1, 15),
           st.floats(-0.5, 0.5), st.floats(-12.0, -1.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_point_reports(self, seed, dim, n_outcomes, mask, x, log_tol):
        retained = {str(w) for w in range(n_outcomes) if mask >> w & 1} or {"0"}
        fam = unitary_slice_family(dim, n_outcomes, seed=seed, retained=retained)
        psi = random_ket(dim, np.random.default_rng(seed + 3))
        self.assert_matches([(*fam(x + 0.1 * k), psi) for k in range(4)], 10.0**log_tol)

    def test_dead_outcome_reads_zero(self):
        points = [(*trig_weight_channel(x), PLUS_X) for x in (0.3, 0.0, 0.7)]
        self.assert_matches(points)
        amp = amplification_grid(*grid_of(points))
        assert amp.i_sigma[1].tolist() == [0.0, 0.0]

    def test_total_qfi_rounds_the_square_as_python(self):
        # a Python float's c ** 2 is libm's pow, which can differ from c * c
        # in the last bit; at this point the difference reaches avg_total
        point = (*unitary_slice_family(2, 2, seed=353)(0.3), PLUS_X)
        f_re = efg(*point).f_total.real
        assert f_re**2 != f_re * f_re
        self.assert_matches([point])

    @pytest.mark.parametrize("fault, message", [
        (lambda chan, ders: (MeasurementChannel.from_stack(
            chan.labels, 1.01 * chan.stack, chan.retained), ders),
         "only meaningful for an exact channel"),
        (lambda chan, ders: (chan, np.zeros_like(ders)), "total QFI is zero"),
        (lambda chan, ders: (chan, 0.5 * chan.stack), "got imaginary part"),
    ], ids=["approximate", "zero_information", "imaginary_current"])
    def test_faulty_point_raises_the_per_point_error(self, fault, message):
        fam = unitary_slice_family(2, 3, seed=5)
        points = [(*fam(x), PLUS_X) for x in (0.1, 0.2, 0.3)]
        points[1] = (*fault(*points[1][:2]), PLUS_X)
        want = point_by_point(points, 1e-9)
        assert message in want
        with pytest.raises(ValueError) as err:
            amplification_grid(*grid_of(points))
        assert str(err.value) == want


def tampered_grid(rows, residual, retained) -> ProbeColumns:
    """Three two-outcome points whose e/f/g rows are set by hand: the
    middle one to ``rows``, the others to a consistent pair."""
    fine = ([0.5, 0.5], [0.2, -0.2], [0.5, 0.5])
    cols = ProbeColumns(m=np.zeros((3, 2, 1)), dm=np.zeros((3, 2, 1)),
                        retained_mask=np.array(retained),
                        completeness_residual=np.array([0.0, residual, 0.0]))
    for name, good, bad in zip("efg", fine, rows):
        object.__setattr__(cols, name, np.array([good, bad, good], dtype=complex if name == "f"
                                                 else float))
    return cols


def report_route(labels, cols: ProbeColumns, amplified: bool):
    """The first error of ``total_qfi`` of each point's report and, when
    ``amplified``, of ``complete_report``'s kappa and ``amplification``,
    or None."""
    retained = frozenset(label for label, keep in zip(labels, cols.retained_mask) if keep)
    try:
        for n in range(len(cols.e)):
            point = ProbeColumns(m=cols.m[n], dm=cols.dm[n], retained_mask=cols.retained_mask,
                                 completeness_residual=float(cols.completeness_residual[n]))
            for name in "efg":
                object.__setattr__(point, name, getattr(cols, name)[n])
            report = _report(labels, retained, point, "as_given")
            i_q = total_qfi(report)
            if amplified:
                if i_q > KAPPA_DENOM_FLOOR:
                    loss_kappa(report)
                amplification(report)
    except ValueError as exc:
        return str(exc)
    return None


class TestGridStatistics:
    """Every check of the per-point route refuses in the grid, in the
    route's order and with its message, naming the faulty point."""

    @pytest.mark.parametrize("amplified", [False, True])
    @pytest.mark.parametrize("rows, residual, retained", [
        (([1.5, 0.5], [0.2, -0.2], [0.5, 0.5]), 0.0, [True, True]),
        (([0.5, 0.5], [0.0, 0.0], [-0.5, 0.5]), 0.0, [False, True]),
        (([0.5, 0.5], [0.2, -0.2], [0.0, 0.5]), 0.0, [True, True]),
        (([0.5, 0.5], [0.2 + 1e-6j, -0.2], [0.5, 0.5]), 0.0, [True, True]),
        (([0.5, 0.5], [0.2, -0.2], [0.5, 0.5]), 1e-6, [True, True]),
        (([0.6, 0.6], [0.3, 0.3], [0.15, 0.15]), 0.0, [True, True]),
        (([0.6, 0.6], [0.3, 0.3], [0.5, 0.5]), 0.0, [True, True]),
        (([0.5, 0.5], [0.0, 0.0], [0.0, 0.0]), 0.0, [True, True]),
        (([0.5, 0.5], [0.2, -0.1], [0.5, 0.0]), 0.0, [True, False]),
    ], ids=["weight", "derivative_weight", "retained_share", "imaginary_current",
            "approximate", "negative_qfi", "kappa", "zero_information", "discarded_share"])
    def test_faulty_point_raises_the_per_point_error(self, rows, residual, retained,
                                                     amplified):
        labels = ("0", "1")
        cols = tampered_grid(rows, residual, retained)
        want = report_route(labels, cols, amplified)
        if want is None:
            assert not amplified
            grid_statistics(labels, cols, amplified)
            return
        with pytest.raises(SliceError) as err:
            grid_statistics(labels, cols, amplified)
        assert (str(err.value), err.value.index[0]) == (want, 1)


class TestGaugeInvariance:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_reported_quantities_survive_phase_twist(self, seed):
        rng = np.random.default_rng(seed)
        n_out = int(rng.integers(2, 4))
        keep = [str(w) for w in range(n_out) if rng.random() < 0.6] or ["0"]
        fam = unitary_slice_family(2, n_out, seed=seed, retained=keep)
        x = 0.3
        chan, derivs = fam(x)
        psi = random_ket(2, rng)
        rep = complete_report(chan, derivs, psi)
        assume(rep.i_q is not None and rep.i_q > 1e-3)

        # theta(x) = 5x + x^2 evaluated at the working point
        shifted_chan, shifted_derivs = gauge_shift(
            chan, derivs, 5 * x + x * x, 5 + 2 * x
        )
        rep2 = complete_report(shifted_chan, shifted_derivs, psi)

        assert rep2.i_q == pytest.approx(rep.i_q, rel=1e-8)
        assert rep2.avg_ps_qfi == pytest.approx(rep.avg_ps_qfi, rel=1e-8, abs=1e-10)
        assert rep2.kappa == pytest.approx(rep.kappa, rel=1e-8, abs=1e-8)

        amp = amplification_report(chan, derivs, psi)
        amp2 = amplification_report(shifted_chan, shifted_derivs, psi)
        for row, row2 in zip(amp.rows, amp2.rows):
            assert row2[2] == pytest.approx(row[2], rel=1e-8, abs=1e-10)

        def rho_pair(c, d):
            dmap = dict(zip(c.labels, d))
            proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
            rho = mixed_state(c, psi)
            drho = np.zeros((2, 2), dtype=complex)
            for lbl, op in c.kraus:
                dm = dmap[lbl]
                drho += dm @ proj @ op.entries.conj().T
                drho += op.entries @ proj @ dm.conj().T
            return rho, Operator(drho)

        mixed1 = sld(*rho_pair(chan, derivs)).qfi
        mixed2 = sld(*rho_pair(shifted_chan, shifted_derivs)).qfi
        assert mixed2 == pytest.approx(mixed1, rel=1e-8, abs=1e-10)


class TestTheoremOneSoundness:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_perp_pass_implies_no_loss(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        fam = lossless_slice_family(dim, n_out, seed=seed)
        x = 0.25
        chan, derivs = fam(x)
        psi = random_ket(dim, rng)
        gauged, _ = fix_perpendicular_gauge(chan, derivs, psi)
        verdict = check_lossless_perp(chan, gauged, psi, tol=1e-9)
        assert verdict.lossless
        rep = efg(chan, gauged, psi, gauge="perpendicular")
        i_q = total_qfi(rep)
        assume(i_q > 1e-6)
        assert abs(rep.avg_ps_qfi - i_q) <= 1e-6 * i_q

    def test_completeness_probe_average_never_beats_total(self):
        # wide sweep: random channels and retained subsets never push the
        # retained average share past the total
        count = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_out = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 5))
            keep = [str(w) for w in range(n_out) if rng.random() < 0.5] or ["0"]
            fam = unitary_slice_family(dim, n_out, seed=seed, retained=keep)
            x = 0.2
            chan, derivs = fam(x)
            psi = random_ket(dim, rng)
            rep = efg(chan, derivs, psi)
            assert rep.avg_ps_qfi <= total_qfi(rep) + 1e-8
            count += 1
        assert count == 100
