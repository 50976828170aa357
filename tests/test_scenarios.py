"""Worked-example builders: transducer, sweep, dephasing, random instances."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PAULI,
    PLUS_X,
    haar_channel,
    random_hermitian,
    random_ket,
    two_qubit_transducer,
)
from oracles import transducer_point_route
from qfikit import scenarios
from qfikit.collision import CollisionSpec, TimeGrid, nh_loss
from qfikit.encoding import (
    amplification_grid,
    check_lossless_generic,
    check_lossless_perp,
    complete_report,
)
from qfikit.quantum_core import Ket, Operator
from qfikit.scenarios import (
    DEFAULT_EPS_GRID,
    Fig1bRow,
    TransducerSpec,
    build_dephasing,
    build_transducer,
    fig1b_rows,
    fig1b_sweep,
    random_family,
    transducer_grid,
)

SZ = Operator(PAULI["z"])
SX = Operator(PAULI["x"])


def outcome_weights(channel, psi):
    """||M_w psi||^2 by outcome label."""
    return {label: float(np.vdot(b, b).real)
            for label, b in zip(channel.labels, channel.stack @ psi.amplitudes)}


def hand_kraus(eps, x, t_total):
    """Two-qubit transducer branches from the closed-form mixing algebra."""
    c, d = np.cos(x * t_total), -1j * np.sin(x * t_total)
    norm = 1.0 / np.sqrt(1.0 + eps**2)
    a1, b1 = norm, eps * norm
    a2, b2 = -eps * norm, norm
    eye = np.eye(2)
    return (
        c * a1 * eye + d * b1 * PAULI["x"],
        c * a2 * eye + d * b2 * PAULI["x"],
    )


class TestTransducerSpec:
    def test_mean_shift_applied(self):
        spec = replace(two_qubit_transducer(), h0_env=Operator(PAULI["z"] + 3 * np.eye(2)))
        assert spec.h0_env.expectation(spec.env_initial).real == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(spec.h0_env.entries, PAULI["z"], atol=1e-14)

    def test_shift_idempotent_under_replace(self):
        spec = two_qubit_transducer()
        again = replace(spec, eps=2.0)
        np.testing.assert_array_equal(again.h0_env.entries, spec.h0_env.entries)

    def test_shift_idempotent_for_non_centred_environment(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        env = rng.normal(size=3) + 1j * rng.normal(size=3)
        spec = replace(two_qubit_transducer(),
                       h0_env=Operator((a + a.conj().T) / 2.0 + 0.7 * np.eye(3)),
                       env_initial=Ket(env / np.linalg.norm(env)))
        assert spec.h0_env.expectation(spec.env_initial).real == pytest.approx(0.0, abs=1e-14)
        for eps in (1e-3, 0.5, 40.0):
            again = replace(spec, eps=eps)
            np.testing.assert_array_equal(again.h0_env.entries, spec.h0_env.entries)

    def test_shift_redone_for_new_environment_state(self):
        spec = replace(two_qubit_transducer(), env_initial=Ket([0.6, 0.8]))
        assert spec.h0_env.expectation(spec.env_initial).real == pytest.approx(0.0, abs=1e-14)

    def test_env_variance(self):
        assert two_qubit_transducer().env_variance() == pytest.approx(1.0, rel=1e-14)

    def test_flip_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            replace(two_qubit_transducer(), flip=Operator(np.eye(2, dtype=complex)))

    def test_flip_must_be_unitary(self):
        shift = Operator(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="unitary"):
            replace(two_qubit_transducer(), flip=shift)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            replace(two_qubit_transducer(), h0_env=Operator(np.eye(3, dtype=complex)))

    def test_negative_mixing(self):
        with pytest.raises(ValueError, match="nonnegative"):
            replace(two_qubit_transducer(), eps=-0.5)

    def test_unnormalized_environment(self):
        with pytest.raises(ValueError):
            replace(two_qubit_transducer(), env_initial=Ket([1.0, 1.0]))


class TestBuildTransducer:
    def test_expected_information_is_variance_rate(self):
        _, iq = build_transducer(two_qubit_transducer(T=1.3))
        assert iq == pytest.approx(4 * 1.3**2, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.37, 1.0, 4.2])
    def test_kraus_match_hand_algebra(self, eps):
        spec = two_qubit_transducer(eps=eps)
        family, _ = build_transducer(spec)
        chan, _ = family(spec.x)
        m1, m2 = hand_kraus(eps, spec.x, spec.T)
        np.testing.assert_allclose(chan.operator("1").entries, m1, atol=1e-13)
        np.testing.assert_allclose(chan.operator("2").entries, m2, atol=1e-13)
        assert chan.kind == "exact"

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_pointer_weights_at_zero_signal(self, eps):
        family, _ = build_transducer(two_qubit_transducer(x=0.0, eps=eps))
        probs = outcome_weights(family(0.0)[0], Ket([1.0, 0.0]))
        assert probs["1"] == pytest.approx(1 / (1 + eps**2), rel=1e-12)
        assert probs["2"] == pytest.approx(eps**2 / (1 + eps**2), rel=1e-12)

    def test_zero_mixing_darkens_second_outcome(self):
        family, _ = build_transducer(two_qubit_transducer(x=0.0, eps=0.0))
        probs = outcome_weights(family(0.0)[0], Ket([1.0, 0.0]))
        assert probs["2"] == 0.0

    def test_total_information_matches_joint_value(self):
        spec = two_qubit_transducer()
        family, iq = build_transducer(spec)
        report = complete_report(*family(spec.x), spec.sys_initial)
        assert report.i_q == pytest.approx(iq, rel=1e-10)
        assert report.kappa == pytest.approx(0.0, abs=1e-8)

    def test_derivative_matches_finite_difference(self):
        spec = two_qubit_transducer()
        family, _ = build_transducer(spec)
        x, h = spec.x, 1e-6
        chan, dks = family(x)
        analytic = dict(zip(chan.labels, dks))
        for lbl in ("1", "2"):
            fd = (family(x + h)[0].operator(lbl).entries
                  - family(x - h)[0].operator(lbl).entries) / (2 * h)
            assert np.abs(fd - analytic[lbl]).max() < 1e-9

    def test_three_level_environment_completes_basis(self):
        spec = replace(
            two_qubit_transducer(x=1e-5),
            h0_env=Operator(np.diag([1.0, -1.0, 0.0]).astype(complex)),
            env_initial=Ket(np.ones(3) / np.sqrt(3)),
        )
        family, iq = build_transducer(spec)
        chan, derivs = family(spec.x)
        assert chan.labels == ("1", "2", "3")
        assert chan.kind == "exact"
        assert iq == pytest.approx(4 * (2 / 3), rel=1e-12)
        verdict = check_lossless_perp(chan, derivs, spec.sys_initial)
        assert verdict.worst() < 1e-10

    def test_three_level_environment_lossy_at_large_signal(self):
        # away from the weak-signal regime the rotation leaks into the
        # completion outcome and the record genuinely costs information
        spec = replace(
            two_qubit_transducer(x=0.3),
            h0_env=Operator(np.diag([1.0, -1.0, 0.0]).astype(complex)),
            env_initial=Ket(np.ones(3) / np.sqrt(3)),
        )
        family, _ = build_transducer(spec)
        verdict = check_lossless_generic(*family(0.3), spec.sys_initial)
        assert not verdict.lossless

    def test_zero_variance_rejected(self):
        spec = two_qubit_transducer()
        with pytest.raises(ValueError, match="variance"):
            build_transducer(replace(spec, h0_env=Operator(np.eye(2, dtype=complex))))

    def test_retained_subset_passthrough(self):
        family, _ = build_transducer(two_qubit_transducer(), retained={"1"})
        chan, _ = family(1e-5)
        assert chan.retained == frozenset({"1"})
        assert chan.discarded == frozenset({"2"})

    @pytest.mark.parametrize("x,tol", [(1e-5, 2e-5), (1e-8, 1e-6)])
    def test_record_lossless_in_weak_signal_scaling(self, x, tol):
        # the stationarity residual scales linearly with the operating
        # point, so the tolerance must track x
        spec = two_qubit_transducer(x=x)
        for eps in np.logspace(-4, 4, 9):
            family, _ = build_transducer(replace(spec, eps=float(eps)))
            verdict = check_lossless_perp(*family(x), spec.sys_initial)
            assert verdict.worst() < tol


@pytest.fixture(scope="module")
def rows():
    return fig1b_sweep(two_qubit_transducer())


class TestFig1bSweep:
    def test_default_grid(self, rows):
        assert len(rows) == 41
        assert rows[0].eps == pytest.approx(1e-3)
        assert rows[-1].eps == pytest.approx(1e3)
        assert isinstance(rows[0], Fig1bRow)
        assert len(DEFAULT_EPS_GRID) == 41

    def test_weighted_total_pinned_at_joint_value(self, rows):
        for row in rows:
            assert row.avg_total == pytest.approx(4.0, abs=1e-3)

    def test_weighted_total_mixing_independent(self, rows):
        vals = [row.avg_total for row in rows]
        assert max(vals) - min(vals) < 1e-3

    def test_plain_sum_exceeds_joint_value(self, rows):
        for row in rows:
            assert row.sum_total >= 4.0 - 1e-9

    def test_monotone_handoff(self, rows):
        i1 = np.array([row.i_sigma_1 for row in rows])
        i2 = np.array([row.i_sigma_2 for row in rows])
        assert np.all(np.diff(i1) > 0)
        assert np.all(np.diff(i2) < 0)

    def test_edge_branches_dark(self, rows):
        assert rows[0].i_sigma_1 < 1e-3
        assert rows[-1].i_sigma_2 < 1e-3

    def test_mirror_symmetry(self, rows):
        # swapping eps -> 1/eps exchanges the two pointer mixtures
        for k, row in enumerate(rows):
            partner = rows[len(rows) - 1 - k]
            assert row.i_sigma_1 == pytest.approx(partner.i_sigma_2, rel=1e-9)

    def test_small_mixing_branch_carries_inverse_weight(self, rows):
        spec = two_qubit_transducer(eps=1e-3)
        family, _ = build_transducer(spec)
        probs = outcome_weights(family(spec.x)[0], spec.sys_initial)
        assert rows[0].i_sigma_2 == pytest.approx(4.0 / probs["2"], rel=0.01)

    def test_custom_grid(self):
        rows = fig1b_sweep(two_qubit_transducer(), eps_grid=[0.5, 2.0])
        assert len(rows) == 2
        assert rows[0].eps == 0.5
        assert rows[0].i_sigma_1 == pytest.approx(rows[1].i_sigma_2, rel=1e-9)


def seeded_three_level_transducer(seed: int = 7):
    rng = np.random.default_rng(seed)
    return replace(two_qubit_transducer(T=1.3, x=2e-4),
                   h0_env=Operator(random_hermitian(3, rng)),
                   env_initial=random_ket(3, rng))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(read):
    """("ok", value) of read(), or ("error", message) of its ValueError."""
    try:
        return "ok", read()
    except ValueError as exc:
        return "error", str(exc)


def grid_route(spec, grid, retained=None, tol=1e-9):
    labels, columns = transducer_grid(spec, grid, retained=retained)
    amp = amplification_grid(labels, columns, tol=tol)
    return columns, fig1b_rows(grid, amp), amp


def assert_grid_is_point_route(spec, grid, retained=None, tol=1e-9):
    """The batched grid and the per-point oracle agree bit for bit, or
    refuse with one message; a grid error names its point's index too."""
    got_kind, got = outcome(lambda: grid_route(spec, grid, retained, tol))
    want_kind, want = outcome(lambda: transducer_point_route(spec, grid, retained, tol))
    assert got_kind == want_kind
    if got_kind == "error":
        assert re.sub(r" \(eps_grid\[\d+\]\)", "", got) == want
        return
    columns, rows, amp = got
    assert len(want) == len(grid) == len(rows)
    for n, (want_columns, want_row, want_t1) in enumerate(want):
        assert np.array_equal(columns.retained_mask, want_columns.retained_mask)
        assert columns.completeness_residual[n] == want_columns.completeness_residual
        assert same_bits(columns.m[n], want_columns.m)
        assert same_bits(columns.dm[n], want_columns.dm)
        assert rows[n] == want_row
        assert same_bits(np.array(rows[n]), np.array(want_row))
        assert amp.perp[n] == want_t1.perp
        assert amp.perp_lossless[n] == want_t1.perp_lossless


class TestTransducerPoints:
    """The batched grid route gives the per-point route bit for bit."""

    GRID = (0.0, 1e-3, 0.37, 1.0, 1e3)

    @pytest.mark.parametrize("spec", [two_qubit_transducer(), seeded_three_level_transducer()],
                             ids=["qubit_env", "qutrit_env"])
    def test_grid_matches_per_point_build(self, spec):
        assert_grid_is_point_route(spec, self.GRID, tol=1e-6)

    def test_sweep_rows_match_per_point_build(self):
        spec = seeded_three_level_transducer()
        want = tuple(row for _, row, _ in transducer_point_route(spec, self.GRID))
        assert fig1b_sweep(spec, self.GRID) == want

    def test_empty_grid_gives_no_rows(self):
        assert fig1b_sweep(two_qubit_transducer(), []) == ()

    def test_negative_mixing_raises_at_its_point(self):
        with pytest.raises(ValueError, match=re.escape(
                "mixing must be nonnegative, got -1.0 (eps_grid[1])")):
            transducer_grid(two_qubit_transducer(), [0.5, -1.0, 2.0])
        assert_grid_is_point_route(two_qubit_transducer(), [0.5, -1.0, 2.0])

    def test_coupling_readout_raises_at_its_point(self, monkeypatch):
        # a valid spec cannot couple the pointer states beyond 1e-10, so the
        # (psi, perp) branch is bent toward (psi, phi): outcome 1 then
        # couples by 1.5e-10 / (1 + eps^2), above 1e-10 only at eps = 0
        original = scenarios._Dilation.__init__

        def coupled(self, spec, retained):
            original(self, spec, retained)
            a, b = self.branches
            self.branches = [a, b + 1.5e-10 * a]

        monkeypatch.setattr(scenarios._Dilation, "__init__", coupled)
        grid = [1.0, 0.0, 1.0]
        with pytest.raises(ValueError, match=re.escape(
                "readout outcome 1 couples the pointer states at eps=0.0 (eps_grid[1]): "
                "matrix element 1.500e-10")):
            transducer_grid(two_qubit_transducer(), grid)
        assert_grid_is_point_route(two_qubit_transducer(), grid)

    def test_non_orthonormal_readout_raises_as_per_point(self, monkeypatch):
        # stretching the completing vector of a qutrit environment leaves
        # the channel complete: only the orthonormality check sees it
        original = scenarios._Dilation.readout

        def stretched(self, eps):
            basis = original(self, eps)
            return np.concatenate([basis[..., :2, :], 1.001 * basis[..., 2:, :]], axis=-2)

        monkeypatch.setattr(scenarios._Dilation, "readout", stretched)
        spec = seeded_three_level_transducer()
        with pytest.raises(ValueError, match="not orthonormal within 1e-10"):
            transducer_grid(spec, self.GRID)
        assert_grid_is_point_route(spec, self.GRID)

    def test_incomplete_unitary_dilation_raises_as_per_point(self, monkeypatch):
        # a dilation that passes for unitary yet leaves the channel incomplete
        original = scenarios._Dilation.unitary

        def stretched(self, x):
            u, du4 = original(self, x)
            return Operator(1.001 * u.entries), du4

        monkeypatch.setattr(scenarios._Dilation, "unitary", stretched)
        monkeypatch.setattr(Operator, "is_unitary", lambda self, tol=1e-10: True)
        with pytest.raises(ValueError, match="unitary dilation produced completeness residual"):
            transducer_grid(two_qubit_transducer(), self.GRID)
        assert_grid_is_point_route(two_qubit_transducer(), self.GRID)

    def test_readout_rounds_the_mixing_as_a_python_float(self):
        # a Python float's eps ** 2 is libm's pow, which can differ from
        # eps * eps in the last bit; the readout keeps the scalar rounding
        spec = two_qubit_transducer()
        eps = next(e for e in np.linspace(0.1, 10.0, 100_001).tolist()
                   if 1.0 / np.sqrt(1.0 + e**2) != 1.0 / np.sqrt(1.0 + e * e))
        dil = scenarios._Dilation(spec, None)
        norm = 1.0 / np.sqrt(1.0 + eps**2)
        want = np.stack([(dil.phi + eps * dil.perp) * norm, (dil.perp - eps * dil.phi) * norm])
        assert same_bits(dil.readout(eps), want)
        assert same_bits(dil.readout(np.array([1.0, eps]))[1], want)

    @given(
        seed=st.integers(0, 2**16),
        dim_e=st.sampled_from([2, 3]),
        keep=st.integers(0, 7),
        grid=st.lists(st.one_of(st.sampled_from([0.0, 1e3, 1e4, 3.7e5]),
                                st.floats(0.0, 2e3)), min_size=1, max_size=12),
        log_x=st.floats(-8.0, -1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_grids_match_per_point_build(self, seed, dim_e, keep, grid, log_x):
        rng = np.random.default_rng(seed)
        spec = replace(two_qubit_transducer(T=rng.uniform(0.5, 2.0), x=10.0**log_x),
                       h0_env=Operator(random_hermitian(dim_e, rng)),
                       env_initial=random_ket(dim_e, rng))
        retained = {str(w + 1) for w in range(dim_e) if keep >> w & 1}
        assert_grid_is_point_route(spec, [0.0] + grid, retained or None, tol=1e-6)


class TestBuildDephasing:
    def zero_control(self, dim=2):
        return Operator(np.zeros((dim, dim), dtype=complex))

    def test_returns_collision_spec(self):
        spec = build_dephasing(SZ, self.zero_control(), SZ, 1.0, 1.0, PLUS_X, 0.0)
        assert isinstance(spec, CollisionSpec)
        assert spec.dim == 2
        assert len(spec.jumps) == 1
        np.testing.assert_allclose(spec.h0.entries, PAULI["z"], atol=1e-15)
        np.testing.assert_allclose(spec.h1.entries, 0.0, atol=0.0)
        assert spec.jumps[0][1] == 1.0

    @pytest.mark.parametrize("gamma_t", [0.1, 1.0, 3.0])
    def test_canonical_decay(self, gamma_t):
        spec = build_dephasing(SZ, self.zero_control(), SZ, gamma_t, 1.0, PLUS_X, 0.0)
        result = nh_loss(spec, TimeGrid(1.0, 1024, "expm_step"), 0.0, PLUS_X)
        assert result.kappa == pytest.approx(1 - np.exp(-gamma_t), abs=1e-10)
        assert result.i_sigma == pytest.approx(4.0, rel=1e-9)
        assert result.p_check == pytest.approx(np.exp(-gamma_t), rel=1e-10)

    def test_zero_rate_lossless(self):
        spec = build_dephasing(SZ, self.zero_control(), SZ, 0.0, 1.0, PLUS_X, 0.0)
        result = nh_loss(spec, TimeGrid(1.0, 256, "expm_step"), 0.0, PLUS_X)
        assert result.kappa == 0.0

    def test_commuting_control_does_not_change_loss(self):
        control = Operator(0.6 * PAULI["z"])
        spec = build_dephasing(SZ, control, SZ, 0.8, 1.0, PLUS_X, 0.0)
        result = nh_loss(spec, TimeGrid(1.0, 2048, "expm_step"), 0.0, PLUS_X)
        assert result.kappa == pytest.approx(1 - np.exp(-0.8), abs=1e-8)

    def test_rejects_noncommuting_jump(self):
        with pytest.raises(ValueError, match="commute"):
            build_dephasing(SZ, self.zero_control(), SX, 1.0, 1.0, PLUS_X, 0.0)

    def test_rejects_noncommuting_control(self):
        control = Operator(0.5 * PAULI["x"])
        with pytest.raises(ValueError, match="commute"):
            build_dephasing(SZ, control, SZ, 1.0, 1.0, PLUS_X, 0.0)

    def test_rejects_non_hermitian_control(self):
        control = Operator(0.5j * PAULI["z"])
        with pytest.raises(ValueError, match="control is not Hermitian"):
            build_dephasing(SZ, control, SZ, 1.0, 1.0, PLUS_X, 0.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_dephasing(SZ, self.zero_control(), SZ, -1.0, 1.0, PLUS_X, 0.0)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError, match="positive"):
            build_dephasing(SZ, self.zero_control(), SZ, 1.0, 0.0, PLUS_X, 0.0)

    def test_rejects_dimension_mismatch(self):
        big = Operator(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="mismatch"):
            build_dephasing(SZ, self.zero_control(), big, 1.0, 1.0, PLUS_X, 0.0)


class TestFamilies:
    def test_one_exponential_per_point(self, monkeypatch):
        import qfikit.scenarios

        calls = []
        original = qfikit.scenarios.expm

        def counted(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(qfikit.scenarios, "expm", counted)
        transducer, _ = build_transducer(two_qubit_transducer())
        for family in (random_family(3, 2, 7), transducer):
            calls.clear()
            channel, dks = family(0.3)
            assert len(calls) == 1
            assert dks.shape == channel.stack.shape
        # the lossless families: one exponential for the whole group
        calls.clear()
        ks, dks = scenarios.seeded_lossless_families(3, 2, [7, 8])([0.3, -0.1])
        assert len(calls) == 1
        assert ks.shape == dks.shape == (2, 2, 3, 3)


class TestRandomGenerators:
    def test_channel_deterministic(self):
        a = random_family(3, 2, 7)(0.0)[0]
        b = random_family(3, 2, 7)(0.0)[0]
        for (_, ma), (_, mb) in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ma.entries, mb.entries)

    def test_channel_exact_and_labeled(self):
        chan = random_family(2, 3, 11)(0.0)[0]
        assert chan.kind == "exact"
        assert chan.labels == ("0", "1", "2")
        assert chan.completeness_residual < 1e-12

    def test_single_outcome_is_unitary(self):
        chan = random_family(3, 1, 5)(0.0)[0]
        assert chan.operator("0").is_unitary(1e-10)

    def test_retained_subset(self):
        chan = random_family(2, 3, 9, retained={"0", "2"})(0.0)[0]
        assert chan.retained == frozenset({"0", "2"})
        assert chan.discarded == frozenset({"1"})

    def test_matches_test_suite_stream(self):
        # the conftest builder draws from the same canonical generator,
        # so an identical seed must give identical matrices
        mine = random_family(3, 2, 42)(0.0)[0]
        theirs = haar_channel(3, 2, np.random.default_rng(42))
        for (_, ma), (_, mb) in zip(mine.kraus, theirs.kraus):
            np.testing.assert_array_equal(ma.entries, mb.entries)

    @pytest.mark.parametrize("x", [-0.9, 0.0, 0.7])
    def test_family_exact_everywhere(self, x):
        family = random_family(2, 3, 5)
        assert family(x)[0].kind == "exact"

    def test_family_deterministic(self):
        a, _ = random_family(3, 2, 13)(0.4)
        b, _ = random_family(3, 2, 13)(0.4)
        for (_, ma), (_, mb) in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ma.entries, mb.entries)

    def test_family_derivative_matches_finite_difference(self):
        family = random_family(2, 3, 5)
        x, h = 0.7, 1e-6
        chan, dks = family(x)
        analytic = dict(zip(chan.labels, dks))
        for lbl in chan.labels:
            fd = (family(x + h)[0].operator(lbl).entries
                  - family(x - h)[0].operator(lbl).entries) / (2 * h)
            assert np.abs(fd - analytic[lbl]).max() < 1e-7

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError, match="dim"):
            random_family(1, 2, 0)
        with pytest.raises(ValueError, match="dim"):
            random_family(2, 0, 0)
