"""Collision-model propagation, channels, integrals, and loss."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from conftest import PAULI, PLUS_X, random_ket, scaled_model
from oracles import h_nh, looped_completeness, matrix_route, plain_loop
from qfikit.collision import (
    SCHEMES,
    CollisionSpec,
    EfgIntegrals,
    IntegratorFailure,
    NhTrajectory,
    TimeGrid,
    _hamiltonian,
    _probe_propagation,
    build_discrete_channel,
    check_integral_completeness,
    check_theorem2,
    dephasing_closed_form,
    discrete_channel_derivatives,
    efg_integrals,
    nh_loss,
    propagate,
    run,
    trajectory_residual,
)
from qfikit.encoding import complete_report, theorem1_residuals
from qfikit.quantum_core import EXACT_RESIDUAL_TOL, Ket, Operator


def constant(matrix):
    return Operator(np.asarray(matrix, dtype=complex))


def zero_control(dim):
    return constant(np.zeros((dim, dim)))


def dephasing_spec(gamma, control=0.0):
    """Qubit rotating under x*sz while sz jumps fire at a constant rate."""
    sz = PAULI["z"]
    return CollisionSpec(
        h0=Operator(sz),
        h1=constant(control * sz),
        jumps=((Operator(sz), gamma),),
        dim=2,
    )


def qutrit_dephasing_spec(gamma):
    h0 = np.diag([1.0, 0.0, -1.0]).astype(complex)
    jump = np.diag([np.sqrt(2.0), 0.0, np.sqrt(2.0)]).astype(complex)
    return CollisionSpec(
        h0=Operator(h0),
        h1=zero_control(3),
        jumps=((Operator(jump), gamma),),
        dim=3,
    )


def random_spec(seed, dim=3, n_jumps=2):
    """Generic non-commuting model with constant rates."""
    rng = np.random.default_rng(seed)

    def herm():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return (a + a.conj().T) / 2.0

    gen = herm()
    control = herm() * 0.4
    jumps = []
    for _ in range(n_jumps):
        l_op = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * 0.5
        jumps.append((Operator(l_op), float(rng.uniform(0.2, 0.8))))
    return CollisionSpec(
        h0=Operator(gen),
        h1=Operator(control),
        jumps=tuple(jumps),
        dim=dim,
    )


class TestTimeGrid:
    def test_step_times(self):
        grid = TimeGrid(T=1.7, N=7, scheme="expm_step")
        assert grid.dt * grid.N == pytest.approx(grid.T, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="step"):
            TimeGrid(T=1.0, N=0)
        with pytest.raises(ValueError, match="time"):
            TimeGrid(T=0.0, N=4)
        with pytest.raises(ValueError, match="scheme"):
            TimeGrid(T=1.0, N=4, scheme="leapfrog")


def formed_h_nh(spec, x):
    """The effective generator as propagation forms it."""
    return _hamiltonian(spec, x)[0]


class TestHnh:
    def test_zero_rates_give_hermitian_generator(self):
        spec = random_spec(0, n_jumps=0)
        assert Operator(formed_h_nh(spec, 0.7)).is_hermitian(1e-12)

    def test_dephasing_form(self):
        gamma, x = 0.8, 0.5
        spec = dephasing_spec(gamma)
        got = formed_h_nh(spec, x)
        want = x * PAULI["z"] - 0.5j * gamma * np.eye(2)
        assert np.allclose(got, want, atol=1e-14)

    def test_hermitian_antihermitian_split(self):
        spec = random_spec(3)
        x = 0.9
        h = formed_h_nh(spec, x)
        herm = (h + h.conj().T) / 2.0
        anti = (h - h.conj().T) / 2.0
        want_herm = x * spec.h0.entries + spec.h1.entries
        want_anti = sum(
            -0.5j * rate * (op.entries.conj().T @ op.entries)
            for op, rate in spec.jumps
        )
        assert np.allclose(herm, want_herm, atol=1e-13)
        assert np.allclose(anti, want_anti, atol=1e-13)

    def test_negative_rate_rejected(self):
        sz = PAULI["z"]
        with pytest.raises(ValueError, match="negative"):
            CollisionSpec(
                h0=Operator(sz),
                h1=zero_control(2),
                jumps=((Operator(sz), -0.1),),
                dim=2,
            )

    def test_non_hermitian_estimation_rejected(self):
        spec = CollisionSpec(
            h0=Operator(np.array([[0.0, 1.0], [0.0, 0.0]])),
            h1=zero_control(2),
            jumps=(),
            dim=2,
        )
        with pytest.raises(ValueError, match="Hermitian"):
            formed_h_nh(spec, 1.0)


class TestPropagate:
    def test_zero_generator_is_identity(self):
        spec = CollisionSpec(
            h0=Operator(np.zeros((2, 2))),
            h1=zero_control(2),
            jumps=(),
            dim=2,
        )
        for scheme in ("euler_paper", "expm_step"):
            traj = propagate(spec, TimeGrid(T=1.0, N=16, scheme=scheme), 0.5)
            assert np.allclose(traj.products[-1], np.eye(2), atol=1e-14)
            assert np.allclose(traj.dproducts[-1], 0.0, atol=1e-14)

    @pytest.mark.parametrize("n_steps", [1, 7, 64, 1024])
    def test_commuting_model_is_exact_under_expm(self, n_steps):
        gamma, control, x, t_total = 0.9, 0.4, 0.7, 1.3
        spec = dephasing_spec(gamma, control=control)
        grid = TimeGrid(T=t_total, N=n_steps, scheme="expm_step")
        traj = propagate(spec, grid, x)
        closed = expm(
            -1j * (x + control) * t_total * PAULI["z"]
            - 0.5 * gamma * t_total * np.eye(2)
        )
        dclosed = -1j * t_total * PAULI["z"] @ closed
        assert np.linalg.norm(traj.products[-1] - closed, 2) <= 1e-12
        assert np.linalg.norm(traj.dproducts[-1] - dclosed, 2) <= 1e-12

    def test_commuting_midpoint_checkpoints_are_exact(self):
        gamma, x = 0.6, 0.3
        spec = dephasing_spec(gamma)
        grid = TimeGrid(T=1.0, N=32, scheme="expm_step")
        traj = propagate(spec, grid, x)
        t_mid = (10 + 0.5) * grid.dt
        closed = expm(-1j * x * t_mid * PAULI["z"] - 0.5 * gamma * t_mid * np.eye(2))
        assert np.linalg.norm(traj.mid_products[10] - closed, 2) <= 1e-12

    def test_euler_matches_literal_product(self):
        spec = random_spec(11, dim=3, n_jumps=2)
        grid = TimeGrid(T=0.8, N=5, scheme="euler_paper")
        x = 0.6
        traj = propagate(spec, grid, x)
        acc = np.eye(3, dtype=complex)
        for _ in range(grid.N):
            acc = (np.eye(3) - 1j * grid.dt * h_nh(spec, x)) @ acc
        assert np.allclose(traj.products[-1], acc, atol=1e-14)

    def test_derivative_matches_finite_difference(self):
        spec = random_spec(7, dim=3, n_jumps=2)
        grid = TimeGrid(T=1.0, N=256, scheme="expm_step")
        x, h = 0.4, 1e-4
        traj = propagate(spec, grid, x)
        hi = propagate(spec, grid, x + h, derivative=False)
        lo = propagate(spec, grid, x - h, derivative=False)
        fd = (hi.products[-1] - lo.products[-1]) / (2.0 * h)
        assert np.linalg.norm(traj.dproducts[-1] - fd, 2) <= 1e-7

    def test_expm_norms_never_increase(self):
        spec = random_spec(23, dim=3, n_jumps=2)
        grid = TimeGrid(T=2.0, N=128, scheme="expm_step")
        traj = propagate(spec, grid, 0.8)
        psi = random_ket(3, np.random.default_rng(1))
        norms = np.linalg.norm(traj.products @ psi.amplitudes, axis=1)
        assert np.all(np.diff(norms) <= 1e-10)
        assert norms[-1] < norms[0]

    def test_overflow_raises(self):
        spec = CollisionSpec(
            h0=Operator(PAULI["z"]),
            h1=zero_control(2),
            jumps=(),
            dim=2,
        )
        with pytest.raises(IntegratorFailure, match="non-finite"):
            propagate(spec, TimeGrid(T=1.0, N=64, scheme="euler_paper"), 1e200)

    def test_skipping_derivatives(self):
        spec = dephasing_spec(0.5)
        traj = propagate(spec, TimeGrid(T=1.0, N=8), 0.3, derivative=False)
        assert traj.dproducts is None


class TestBuildDiscreteChannel:
    def test_outcome_structure(self):
        spec = random_spec(2, dim=3, n_jumps=2)
        grid = TimeGrid(T=1.0, N=16, scheme="expm_step")
        chan = build_discrete_channel(spec, random_ket(3, np.random.default_rng(0)),
                                      grid, 0.5)
        assert len(chan.kraus) == 1 + 16 * 2
        assert chan.retained == frozenset({"check"})
        assert chan.kind == "approximate"

    def test_euler_jump_factors_are_literal(self):
        gamma, x = 0.7, 0.4
        spec = dephasing_spec(gamma)
        grid = TimeGrid(T=0.9, N=3, scheme="euler_paper")
        chan = build_discrete_channel(spec, PLUS_X, grid, x)
        dt = grid.dt
        prefix = np.eye(2, dtype=complex)
        step1 = np.eye(2) - 1j * dt * h_nh(spec, x)
        want = np.sqrt(gamma * dt) * PAULI["z"] @ step1
        assert np.allclose(chan.operator("jump0@2").entries, want, atol=1e-14)
        want_first = np.sqrt(gamma * dt) * PAULI["z"] @ prefix
        assert np.allclose(chan.operator("jump0@1").entries, want_first, atol=1e-14)

    def test_no_jump_limit_approaches_unitary(self):
        spec = CollisionSpec(
            h0=Operator(PAULI["z"]),
            h1=zero_control(2),
            jumps=(),
            dim=2,
        )
        grid = TimeGrid(T=1.0, N=1024, scheme="euler_paper")
        chan = build_discrete_channel(spec, PLUS_X, grid, 1.0)
        assert len(chan.kraus) == 1
        norm_sq = 1.0 + (1.0 * grid.dt) ** 2
        cap = norm_sq**grid.N - 1.0
        assert 0.0 < chan.completeness_residual <= 2.0 * cap

    def test_euler_residual_halves_with_dt(self):
        spec = dephasing_spec(1.0)
        residuals = []
        for log_n in (9, 10, 11):
            grid = TimeGrid(T=1.0, N=2**log_n, scheme="euler_paper")
            chan = build_discrete_channel(spec, PLUS_X, grid, 1.0)
            residuals.append(chan.completeness_residual)
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 1.5 <= coarse / fine <= 2.5

    def test_residual_matches_brute_force_sum(self):
        spec = random_spec(5, dim=3, n_jumps=1)
        psi = random_ket(3, np.random.default_rng(2))
        grid = TimeGrid(T=1.0, N=512, scheme="expm_step")
        chan = build_discrete_channel(spec, psi, grid, 0.3)
        acc = np.zeros((3, 3), dtype=complex)
        for _, op in chan.kraus:
            acc += op.entries.conj().T @ op.entries
        want = np.linalg.norm(acc - np.eye(3), 2)
        assert chan.completeness_residual == pytest.approx(want, abs=1e-12)
        # the doubled sums, on grids whose N sets several bits, within
        # TestProbeRoute's bound of the explicit channel and of the midpoint
        # rule over the step loop's N prefixes one by one
        for n_steps, scheme, n_jumps in itertools.product(MULTI_BIT, SCHEMES, range(3)):
            grid = TimeGrid(T=1.0, N=n_steps, scheme=scheme)
            spec = scaled_spec(5, 3, n_jumps)
            want = build_discrete_channel(spec, psi, grid, 0.3).completeness_residual
            got = trajectory_residual(spec, grid, 0.3)
            assert abs(got - want) <= max(1e-13, 1e-13 * want), (n_steps, scheme, n_jumps)
            want = looped_completeness(spec, grid, 0.3)
            got = check_integral_completeness(spec, grid, 0.3)
            assert abs(got - want) <= max(1e-13, 1e-13 * want), (n_steps, scheme, n_jumps)

    def test_expm_beats_euler_at_same_grid(self):
        spec = dephasing_spec(1.0)
        res = {}
        for scheme in ("euler_paper", "expm_step"):
            grid = TimeGrid(T=1.0, N=256, scheme=scheme)
            res[scheme] = build_discrete_channel(
                spec, PLUS_X, grid, 1.0
            ).completeness_residual
        assert res["expm_step"] < res["euler_paper"] / 50.0

    def test_dimension_mismatch_rejected(self):
        spec = dephasing_spec(0.5)
        with pytest.raises(ValueError, match="dimension"):
            build_discrete_channel(
                spec, random_ket(3, np.random.default_rng(0)),
                TimeGrid(T=1.0, N=4), 0.1,
            )

    def test_blowup_raises_integrator_failure(self):
        spec = CollisionSpec(
            h0=Operator(PAULI["z"]),
            h1=zero_control(2),
            jumps=(),
            dim=2,
        )
        grid = TimeGrid(T=1.0, N=32, scheme="euler_paper")
        with pytest.raises(IntegratorFailure, match="residual"):
            build_discrete_channel(spec, PLUS_X, grid, 500.0)

    def test_derivatives_align_with_channel(self):
        spec = random_spec(8, dim=2, n_jumps=2)
        grid = TimeGrid(T=1.0, N=32, scheme="expm_step")
        psi = random_ket(2, np.random.default_rng(3))
        chan = build_discrete_channel(spec, psi, grid, 0.4)
        derivs = discrete_channel_derivatives(spec, psi, grid, 0.4)
        assert tuple(lbl for lbl, _ in derivs) == chan.labels
        # spot-check one jump derivative against a finite difference
        h = 1e-5
        hi = build_discrete_channel(spec, psi, grid, 0.4 + h)
        lo = build_discrete_channel(spec, psi, grid, 0.4 - h)
        label = "jump1@17"
        fd = (hi.operator(label).entries - lo.operator(label).entries) / (2 * h)
        got = dict(derivs)[label].entries
        assert np.linalg.norm(got - fd, 2) <= 1e-7


class TestIntegralCompleteness:
    def test_dephasing_fine_grid(self):
        spec = dephasing_spec(1.0)
        grid = TimeGrid(T=1.0, N=4096, scheme="expm_step")
        assert check_integral_completeness(spec, grid, 1.0) <= 1e-6

    def test_no_jumps_is_unitary(self):
        spec = random_spec(4, dim=2, n_jumps=0)
        grid = TimeGrid(T=1.0, N=64, scheme="expm_step")
        assert check_integral_completeness(spec, grid, 0.7) <= 1e-12
        for n_steps in MULTI_BIT:
            grid = TimeGrid(T=1.0, N=n_steps, scheme="expm_step")
            spec = scaled_spec(4, 2, 0)
            assert check_integral_completeness(spec, grid, 0.7) <= 1e-12
            assert looped_completeness(spec, grid, 0.7) <= 1e-12

    def test_second_order_decay_on_two_qubit_model(self):
        spec = random_spec(6, dim=4, n_jumps=2)
        residuals = [
            check_integral_completeness(
                spec, TimeGrid(T=1.0, N=n, scheme="expm_step"), 0.5
            )
            for n in (256, 512, 1024)
        ]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.0 <= coarse / fine <= 5.0


def dephasing_g_total(gamma, t_total):
    """Closed derivative-weight total for the qubit model, any state."""
    decay = np.exp(-gamma * t_total)
    return 2.0 / gamma**2 - decay * (2.0 * t_total / gamma + 2.0 / gamma**2)


class TestEfgIntegrals:
    def test_dephasing_closed_values_plus_x(self):
        gamma, t_total, x = 0.7, 1.3, 0.5
        spec = dephasing_spec(gamma)
        grid = TimeGrid(T=t_total, N=2048, scheme="expm_step")
        ints = efg_integrals(spec, grid, x, PLUS_X)
        decay = np.exp(-gamma * t_total)
        assert ints.e_check == pytest.approx(decay, rel=1e-12)
        assert abs(ints.f_check) <= 1e-12
        assert ints.g_check == pytest.approx(t_total**2 * decay, rel=1e-12)
        assert ints.g_total == pytest.approx(
            dephasing_g_total(gamma, t_total), rel=1e-6
        )
        assert abs(ints.f_total) <= 1e-10

    def test_dephasing_current_tracks_polarization(self):
        gamma, t_total, x = 0.9, 1.1, 0.2
        spec = dephasing_spec(gamma)
        grid = TimeGrid(T=t_total, N=512, scheme="expm_step")
        psi = Ket([np.cos(0.3), np.sin(0.3)])
        ints = efg_integrals(spec, grid, x, psi)
        z_mean = float(np.vdot(psi.amplitudes, PAULI["z"] @ psi.amplitudes).real)
        decay = np.exp(-gamma * t_total)
        assert ints.f_check == pytest.approx(-t_total * decay * z_mean, abs=1e-12)

    def test_no_jumps_has_no_corrections(self):
        spec = random_spec(9, dim=3, n_jumps=0)
        grid = TimeGrid(T=1.0, N=128, scheme="expm_step")
        ints = efg_integrals(spec, grid, 0.4, random_ket(3, np.random.default_rng(4)))
        assert ints.g_total == ints.g_check
        assert ints.f_total == ints.f_check

    def test_matches_discrete_channel_report_expm(self):
        spec = random_spec(12, dim=3, n_jumps=2)
        grid = TimeGrid(T=1.0, N=512, scheme="expm_step")
        x = 0.3
        psi = random_ket(3, np.random.default_rng(5))
        ints = efg_integrals(spec, grid, x, psi)
        chan = build_discrete_channel(spec, psi, grid, x)
        derivs = discrete_channel_derivatives(spec, psi, grid, x)
        rep = complete_report(chan, derivs, psi, allow_approximate=True)
        assert rep.g_total == pytest.approx(ints.g_total, rel=1e-10)
        assert rep.f_total.real == pytest.approx(ints.f_total.real, abs=1e-10)
        _, e_row, f_row, g_row = rep.row("check")
        assert e_row == pytest.approx(ints.e_check, rel=1e-12)
        assert f_row == pytest.approx(ints.f_check, abs=1e-12)
        assert g_row == pytest.approx(ints.g_check, rel=1e-12)

    def test_matches_discrete_channel_report_euler(self):
        spec = dephasing_spec(1.0)
        grid = TimeGrid(T=1.0, N=4096, scheme="euler_paper")
        ints = efg_integrals(spec, grid, 1.0, PLUS_X)
        chan = build_discrete_channel(spec, PLUS_X, grid, 1.0)
        derivs = discrete_channel_derivatives(spec, PLUS_X, grid, 1.0)
        rep = complete_report(chan, derivs, PLUS_X, allow_approximate=True)
        assert rep.g_total == pytest.approx(ints.g_total, rel=1e-4)
        assert rep.avg_ps_qfi == pytest.approx(
            4.0 * (ints.g_check - abs(ints.f_check) ** 2 / ints.e_check), rel=1e-4
        )


class TestTheorem2:
    def test_no_dissipation_is_lossless(self):
        spec = random_spec(14, dim=2, n_jumps=0)
        grid = TimeGrid(T=1.0, N=64, scheme="expm_step")
        verdict = check_theorem2(spec, grid, 0.7, random_ket(2, np.random.default_rng(6)))
        assert verdict.lossless
        assert verdict.jump_residual == 0.0
        assert verdict.weight_slope <= 1e-8

    def test_jump_blind_subspace_is_lossless(self):
        proj = np.zeros((3, 3), dtype=complex)
        proj[2, 2] = 1.0
        gen = np.diag([1.0, -1.0, 5.0]).astype(complex)
        spec = CollisionSpec(
            h0=Operator(gen),
            h1=zero_control(3),
            jumps=((Operator(proj), 0.8),),
            dim=3,
        )
        grid = TimeGrid(T=1.0, N=512, scheme="expm_step")
        psi = Ket(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
        verdict = check_theorem2(spec, grid, 0.3, psi, tol=1e-8)
        assert verdict.lossless
        loss = nh_loss(spec, grid, 0.3, psi)
        assert abs(loss.kappa) <= 1e-5

    def test_dephasing_fails_only_the_jump_condition(self):
        spec = dephasing_spec(1.0)
        grid = TimeGrid(T=1.0, N=1024, scheme="expm_step")
        verdict = check_theorem2(spec, grid, 1.0, PLUS_X, tol=1e-8)
        assert not verdict.lossless
        assert verdict.weight_slope <= 1e-8
        assert verdict.jump_residual > 1e-2
        assert nh_loss(spec, grid, 1.0, PLUS_X).kappa > 0.1

    def test_vanishing_weight_rejected(self):
        spec = dephasing_spec(60.0)
        grid = TimeGrid(T=1.0, N=64, scheme="expm_step")
        with pytest.raises(ValueError, match="vanished"):
            check_theorem2(spec, grid, 1.0, PLUS_X)


class TestNhLoss:
    def test_dephasing_loss_and_conditional_information(self):
        spec = dephasing_spec(1.0)
        grid = TimeGrid(T=1.0, N=4096, scheme="expm_step")
        loss = nh_loss(spec, grid, 1.0, PLUS_X)
        assert loss.kappa == pytest.approx(1.0 - np.exp(-1.0), abs=1e-6)
        assert loss.i_sigma == pytest.approx(4.0, rel=1e-9)
        assert loss.p_check == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert loss.i_q_baseline == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("gamma_t", [0.1, 3.0])
    def test_dephasing_loss_over_rates(self, gamma_t):
        spec = dephasing_spec(gamma_t)
        grid = TimeGrid(T=1.0, N=1024, scheme="expm_step")
        loss = nh_loss(spec, grid, 1.0, PLUS_X)
        assert loss.kappa == pytest.approx(1.0 - np.exp(-gamma_t), abs=1e-5)

    def test_channel_normalized_loss_matches_encoding_report(self):
        spec = dephasing_spec(1.0)
        grid = TimeGrid(T=1.0, N=1024, scheme="expm_step")
        loss = nh_loss(spec, grid, 1.0, PLUS_X)
        chan = build_discrete_channel(spec, PLUS_X, grid, 1.0)
        derivs = discrete_channel_derivatives(spec, PLUS_X, grid, 1.0)
        rep = complete_report(chan, derivs, PLUS_X, allow_approximate=True)
        assert 1.0 - loss.kappa_channel == pytest.approx(
            rep.avg_ps_qfi / rep.i_q, abs=1e-4
        )

    def test_channel_totals_match_the_explicit_channel_under_expm_only(self):
        # i_q_channel takes the jump integrals by the midpoint rule: the
        # expm_step channel splits its jumps at midpoints and agrees to
        # rounding, the euler_paper channel splits them at step edges and
        # differs at first order, a gap that falls 4x per 4x in N
        spec = scaled_spec(3, 3, 1)
        psi = random_ket(3, np.random.default_rng(3))
        gaps = {scheme: [] for scheme in SCHEMES}
        for scheme in SCHEMES:
            for n_steps in (256, 1024, 4096):
                grid = TimeGrid(1.0, n_steps, scheme)
                loss = nh_loss(spec, grid, 0.3, psi)
                traj = propagate(spec, grid, 0.3)
                chan = build_discrete_channel(spec, psi, grid, 0.3, traj=traj)
                derivs = discrete_channel_derivatives(spec, psi, grid, 0.3, traj=traj)
                rep = complete_report(chan, derivs, psi, allow_approximate=True)
                gaps[scheme].append((abs(loss.kappa_channel / rep.kappa - 1.0),
                                     abs(loss.i_q_channel / rep.i_q - 1.0)))
        assert max(max(pair) for pair in gaps["expm_step"]) <= 1e-12
        euler = np.array(gaps["euler_paper"])
        assert euler.min() > 1e-6
        assert np.all((3.0 <= euler[:-1] / euler[1:]) & (euler[:-1] / euler[1:] <= 5.0))

    def test_vanishing_rate_loses_nothing(self):
        spec = dephasing_spec(1e-9)
        grid = TimeGrid(T=1.0, N=256, scheme="expm_step")
        assert abs(nh_loss(spec, grid, 1.0, PLUS_X).kappa) <= 1e-6

    def test_qutrit_matches_closed_form(self):
        gamma = 0.45
        spec = qutrit_dephasing_spec(gamma)
        grid = TimeGrid(T=1.0, N=2048, scheme="expm_step")
        psi = Ket(np.ones(3) / np.sqrt(3.0))
        loss = nh_loss(spec, grid, 0.8, psi)
        want = dephasing_closed_form(
            Operator(np.diag([1.0, 0.0, -1.0])),
            Operator(np.diag([2.0 * gamma, 0.0, 2.0 * gamma])),
            1.0,
            psi,
        )
        assert loss.kappa == pytest.approx(want, abs=1e-4)
        assert want == pytest.approx(1.0 - np.exp(-2.0 * gamma), rel=1e-12)

    def test_converged_negative_kappa_is_reported(self):
        # the retained share beats the dissipation-free total for this
        # model at every N: a converged value, not a coarse grid
        spec = scaled_spec(22, 2, 1)
        psi = random_ket(2, np.random.default_rng(22))
        kappas = [nh_loss(spec, TimeGrid(1.0, n, "expm_step"), 0.3, psi).kappa
                  for n in (64, 1024, 16384)]
        assert kappas == pytest.approx([-0.0276254] * 3, abs=5e-7)

    def test_uninformative_model_rejected(self):
        spec = CollisionSpec(
            h0=Operator(np.zeros((2, 2))),
            h1=zero_control(2),
            jumps=((Operator(PAULI["z"]), 0.5),),
            dim=2,
        )
        grid = TimeGrid(T=1.0, N=64, scheme="expm_step")
        with pytest.raises(ValueError, match="zero"):
            nh_loss(spec, grid, 0.3, PLUS_X)

    def test_dead_branch_rejected(self):
        spec = dephasing_spec(60.0)
        grid = TimeGrid(T=1.0, N=64, scheme="expm_step")
        with pytest.raises(ValueError, match="vanished"):
            nh_loss(spec, grid, 1.0, PLUS_X)

    @pytest.mark.parametrize("statistic", [nh_loss, efg_integrals, check_theorem2])
    def test_unnormalized_probe_rejected(self, statistic):
        # every statistic is quadratic in psi: Ket([1, 1]) would double
        # p_check and i_q_baseline and scale theorem 2's jump residual
        spec = dephasing_spec(1.0)
        grid = TimeGrid(T=1.0, N=256)
        with pytest.raises(ValueError, match="normalized"):
            statistic(spec, grid, 0.0, Ket([1.0, 1.0]))


class TestDephasingClosedForm:
    def test_qubit_uniform_damping(self):
        gamma, t_total = 0.8, 1.4
        got = dephasing_closed_form(
            Operator(PAULI["z"]), Operator(gamma * np.eye(2)), t_total, PLUS_X
        )
        assert got == pytest.approx(1.0 - np.exp(-gamma * t_total), rel=1e-12)

    def test_zero_time_loses_nothing(self):
        got = dephasing_closed_form(
            Operator(PAULI["z"]), Operator(0.6 * np.eye(2)), 0.0, PLUS_X
        )
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_qutrit_value(self):
        gamma, t_total = 0.35, 1.2
        psi = Ket(np.ones(3) / np.sqrt(3.0))
        got = dephasing_closed_form(
            Operator(np.diag([1.0, 0.0, -1.0])),
            Operator(np.diag([2 * gamma, 0.0, 2 * gamma])),
            t_total,
            psi,
        )
        assert got == pytest.approx(1.0 - np.exp(-2.0 * gamma * t_total), rel=1e-12)

    def test_noncommuting_rejected(self):
        with pytest.raises(ValueError, match="commute"):
            dephasing_closed_form(
                Operator(PAULI["z"]), Operator(0.5 * PAULI["x"]), 1.0, PLUS_X
            )

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            dephasing_closed_form(
                Operator(np.eye(2)), Operator(0.5 * np.eye(2)), 1.0, PLUS_X
            )

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            dephasing_closed_form(
                Operator(PAULI["z"]), Operator(-0.5 * np.eye(2)), 1.0, PLUS_X
            )


def constant_model(seed, dim, n_jumps):
    """Matrices of a random non-commuting model with constant generators."""
    rng = np.random.default_rng(seed)

    def herm():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return (a + a.conj().T) / 2.0

    gen, control = herm(), 0.4 * herm()
    jumps = [
        ((rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * 0.5,
         float(rng.uniform(0.2, 0.8)))
        for _ in range(n_jumps)
    ]
    return gen, control, jumps


def literal_products(gen, control, jumps, grid, x, derivative):
    """Step-by-step reference: dense factors, product rule applied by hand.

    Returns (products, mid_products, dproducts, dmid_products) with the
    derivative arrays None when not asked for.
    """
    dim = gen.shape[0]
    eye = np.eye(dim, dtype=complex)
    h = x * gen + control - 0.5j * sum(
        (rate * (op.conj().T @ op) for op, rate in jumps), np.zeros((dim, dim)))
    dt = grid.dt
    if grid.scheme == "euler_paper":
        half, dhalf = eye - 0.5j * dt * h, -0.5j * dt * gen
        full, dfull = eye - 1j * dt * h, -1j * dt * gen
    else:
        half = expm(-0.5j * dt * h)
        dhalf = expm_frechet(-0.5j * dt * h, -0.5j * dt * gen, compute_expm=False)
    k, dk = eye, np.zeros((dim, dim), dtype=complex)
    products, mids, dproducts, dmids = [k], [], [dk], []
    for _ in range(grid.N):
        k_mid, dk_mid = half @ k, dhalf @ k + half @ dk
        mids.append(k_mid)
        dmids.append(dk_mid)
        if grid.scheme == "euler_paper":
            k, dk = full @ k, dfull @ k + full @ dk
        else:
            k, dk = half @ k_mid, dhalf @ k_mid + half @ dk_mid
        products.append(k)
        dproducts.append(dk)
    if not derivative:
        return np.array(products), np.array(mids), None, None
    return (np.array(products), np.array(mids), np.array(dproducts),
            np.array(dmids))


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestConstantGenerators:
    def test_constant_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="h1 dimension"):
            CollisionSpec(h0=Operator(PAULI["z"]), h1=Operator(np.eye(3)),
                          jumps=(), dim=2)

    def test_negative_constant_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CollisionSpec(h0=Operator(PAULI["z"]), h1=Operator(np.zeros((2, 2))),
                          jumps=((Operator(PAULI["z"]), -0.1),), dim=2)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1e-300])
    def test_bad_rate_rejected_naming_its_jump(self, rate):
        # a NaN rate would otherwise reach propagation and fail there as a
        # non-finite store
        sz = Operator(PAULI["z"])
        with pytest.raises(ValueError, match=r"rate of jump 1 must be finite and nonnegative"):
            CollisionSpec(h0=sz, h1=Operator(np.zeros((2, 2))),
                          jumps=((sz, 0.5), (sz, rate)), dim=2)

    @pytest.mark.parametrize("field", ["h0", "h1", "rate"])
    def test_functions_of_time_rejected(self, field):
        sz = Operator(PAULI["z"])
        data = {"h0": sz, "h1": sz, "rate": 0.5}
        data[field] = (lambda t, x=None: sz) if field != "rate" else (lambda t: 0.5)
        with pytest.raises(TypeError, match="collision specs are constant data"):
            CollisionSpec(h0=data["h0"], h1=data["h1"], jumps=((sz, data["rate"]),), dim=2)

    def test_rates_are_stored_as_floats(self):
        sz = Operator(PAULI["z"])
        spec = CollisionSpec(h0=sz, h1=sz, jumps=((sz, 1), (sz, np.float32(0.25))), dim=2)
        assert [type(rate) for _, rate in spec.jumps] == [float, float]
        assert [rate for _, rate in spec.jumps] == [1.0, 0.25]
        assert spec.without_jumps().jumps == ()


class TestKernelEquivalence:
    """The doubling fill and the step loop against a literal step-by-step
    product."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3]),
        n_jumps=st.integers(0, 2),
        n_steps=st.sampled_from([1, 2, 2**9, 2**12]),
        scheme=st.sampled_from(SCHEMES),
        derivative=st.booleans(),
        x=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=24, deadline=None)
    def test_forms_and_reference_agree(self, seed, dim, n_jumps, n_steps, scheme,
                                       derivative, x):
        gen, control, jumps = constant_model(seed, dim, n_jumps)
        spec = CollisionSpec(
            h0=Operator(gen), h1=Operator(control),
            jumps=tuple((Operator(op), rate) for op, rate in jumps), dim=dim,
        )
        grid = TimeGrid(T=1.0, N=n_steps, scheme=scheme)
        want = literal_products(gen, control, jumps, grid, x, derivative)
        for got in (trajectory_arrays(propagate(spec, grid, x, derivative=derivative)),
                    plain_loop(spec, grid, x, derivative)):
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                else:
                    assert g.shape == w.shape
                    assert relative_gap(g, w) <= 1e-13

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3]),
        n_jumps=st.integers(0, 2),
        # 1 and 2 take one or two doubling rounds; the others end on a
        # partial round and set several bits
        n_steps=st.sampled_from([1, 2, 3, 45, 257, 1000, 4097]),
        scheme=st.sampled_from(SCHEMES),
        derivative=st.booleans(),
        x=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_strided_constant_matches_loop_and_reference(
            self, seed, dim, n_jumps, n_steps, scheme, derivative, x):
        gen, control, jumps = constant_model(seed, dim, n_jumps)
        spec = CollisionSpec(
            h0=Operator(gen), h1=Operator(control),
            jumps=tuple((Operator(op), rate) for op, rate in jumps), dim=dim,
        )
        grid = TimeGrid(T=1.0, N=n_steps, scheme=scheme)
        strided = propagate(spec, grid, x, derivative=derivative)
        looped = plain_loop(spec, grid, x, derivative)
        want = literal_products(gen, control, jumps, grid, x, derivative)
        for got, loop, ref in zip(trajectory_arrays(strided), looped, want):
            if ref is None:
                assert got is None and loop is None
                continue
            assert relative_gap(got, loop) <= 1e-13
            assert relative_gap(got, ref) <= 1e-13


    def test_constant_propagation_doubles(self, monkeypatch):
        # every matrix product the propagation kernels take goes through
        # collision's np.matmul; the fill and its F_2m take at most
        # 2 ceil(log2(2N + 1)) of them, where a step loop takes 2N
        import qfikit.collision

        products = []

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, *args, **kwargs):
                products.append(1)
                return np.matmul(*args, **kwargs)

        monkeypatch.setattr(qfikit.collision, "np", CountedNumpy())
        psi = random_ket(3, np.random.default_rng(7))
        for n_steps, scheme in itertools.product(MULTI_BIT + (16384,), SCHEMES):
            grid = TimeGrid(T=1.0, N=n_steps, scheme=scheme)
            bound = 2 * math.ceil(math.log2(2 * n_steps + 1))
            for derivative in (False, True):
                products.clear()
                propagate(scaled_spec(3, 3, 2), grid, 0.3, derivative=derivative)
                assert 0 < len(products) <= bound
            products.clear()
            _probe_propagation(scaled_spec(3, 3, 2), grid, 0.3, psi.amplitudes)
            assert 0 < len(products) <= bound


def trajectory_arrays(traj):
    return traj.products, traj.mid_products, traj.dproducts, traj.dmid_products


class TestTrajectoryReuse:
    def test_mismatched_trajectory_rejected(self):
        spec = random_spec(31, dim=3, n_jumps=2)
        grid = TimeGrid(T=1.0, N=128, scheme="expm_step")
        psi = random_ket(3, np.random.default_rng(8))
        traj = propagate(spec, grid, 0.4, derivative=False)
        with pytest.raises(ValueError, match="another"):
            build_discrete_channel(spec, psi, grid, 0.5, traj=traj)
        with pytest.raises(ValueError, match="without derivatives"):
            discrete_channel_derivatives(spec, psi, grid, 0.4, traj=traj)


class TestTheorem2Slope:
    def test_analytic_slope_matches_central_difference(self):
        spec = random_spec(13, dim=3, n_jumps=2)
        grid = TimeGrid(T=1.0, N=512, scheme="expm_step")
        psi = random_ket(3, np.random.default_rng(9))
        x, h = 0.35, 1e-5
        verdict = check_theorem2(spec, grid, x, psi)

        def weight(at):
            end = propagate(spec, grid, at, derivative=False).products[-1]
            amp = end @ psi.amplitudes
            return float(np.vdot(amp, amp).real)

        central = abs(weight(x + h) - weight(x - h)) / (2.0 * h)
        assert central > 1e-2
        assert verdict.weight_slope == pytest.approx(central, rel=1e-6)

    def test_jump_blind_slope_stays_flat_at_production_n(self):
        gen = np.diag([1.0, -1.0, 5.0]).astype(complex)
        blind = np.diag([0.0, 0.0, 1.0]).astype(complex)
        spec = CollisionSpec(h0=Operator(gen), h1=Operator(np.zeros((3, 3))),
                             jumps=((Operator(blind), 0.8),), dim=3)
        psi = Ket(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
        verdict = check_theorem2(spec, TimeGrid(1.0, 16384, "expm_step"), 0.3, psi)
        assert verdict.lossless
        assert verdict.weight_slope <= 1e-12


#: grid sizes whose binary digits drive several doubling rounds each
MULTI_BIT = (1, 2, 3, 5, 255, 257, 1000, 4097)


def scaled_spec(seed, dim, n_jumps):
    gen, control, jumps = scaled_model(seed, dim, n_jumps)
    return CollisionSpec(
        h0=Operator(gen), h1=Operator(control),
        jumps=tuple((Operator(op), rate) for op, rate in jumps), dim=dim,
    )


def blind_spec(seed, dim, leak):
    """Probe subspace span(|0>, |1>) invariant, jumps acting on the rest.

    With leak = 0 the jump operator annihilates the probe subspace, which
    H_nh never leaves, so the no-jump record is lossless; leak > 0 adds a
    jump component inside the probe subspace.
    """
    gen, control, jumps = scaled_model(seed, dim, 1)
    block = np.zeros((dim, dim), dtype=bool)
    block[:2, :2] = block[2:, 2:] = True
    jump = np.where(block, jumps[0][0], 0.0)
    jump[:2, :2] *= leak
    return CollisionSpec(
        h0=Operator(np.where(block, gen, 0.0)), h1=Operator(np.where(block, control, 0.0)),
        jumps=((Operator(jump), jumps[0][1]),), dim=dim,
    )


class TestPropertiesAcrossN:
    """Invariants between grids of N and 2N steps, on random constant specs."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3, 4]),
        n_jumps=st.integers(1, 2),
        n_steps=st.sampled_from([2**6, 2**7, 2**8, 2**9]),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=20, deadline=None)
    def test_completeness_residual_falls_at_scheme_order(self, seed, dim, n_jumps,
                                                         n_steps, scheme):
        # O(N dt^2) = O(dt) under euler_paper, O(dt^2) under expm_step
        spec = scaled_spec(seed, dim, n_jumps)
        psi = random_ket(dim, np.random.default_rng(seed))
        coarse, fine = (
            build_discrete_channel(spec, psi, TimeGrid(1.0, n, scheme), 0.3)
            .completeness_residual
            for n in (n_steps, 2 * n_steps)
        )
        ratio = coarse / fine
        if scheme == "euler_paper":
            assert 1.8 <= ratio <= 2.2
        else:
            assert 3.6 <= ratio <= 4.4

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3, 4]),
        n_jumps=st.integers(1, 2),
        n_steps=st.sampled_from([2**6, 2**7, 2**8, 2**9]),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=20, deadline=None)
    def test_kappa_agrees_between_n_and_2n(self, seed, dim, n_jumps, n_steps, scheme):
        spec = scaled_spec(seed, dim, n_jumps)
        psi = random_ket(dim, np.random.default_rng(seed))
        try:
            coarse, fine = (nh_loss(spec, TimeGrid(1.0, n, scheme), 0.3, psi)
                            for n in (n_steps, 2 * n_steps))
        except ValueError as err:
            # kappa is undefined where the dissipation-free total vanishes;
            # a coarse euler_paper grid can push a small one below zero
            assume("dissipation-free total information is zero" not in str(err))
            raise
        # a negative kappa divides by a small dissipation-free total, which
        # a first-order grid resolves poorly (seen: -12.7 at N = 128 and
        # -7.1 at N = 256); under expm_step it is converged at every N
        assume(scheme == "expm_step" or min(coarse.kappa, fine.kappa) >= -1e-6)
        dt = 1.0 / n_steps
        # the scheme's order: 60 N dt^2 = 60 dt at T = 1, or dt^2
        budget = 60.0 * n_steps * dt**2 if scheme == "euler_paper" else dt**2
        assert abs(coarse.kappa - fine.kappa) <= budget
        assert abs(coarse.kappa_channel - fine.kappa_channel) <= budget

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([3, 4]),
        leak=st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
        n_steps=st.sampled_from([2**6, 2**7, 2**8, 2**9, 2**10]),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=20, deadline=None)
    def test_theorem2_pass_implies_no_loss(self, seed, dim, leak, n_steps, scheme):
        spec = blind_spec(seed, dim, leak)
        amps = np.zeros(dim, dtype=complex)
        amps[:2] = random_ket(2, np.random.default_rng(seed)).amplitudes
        psi = Ket(amps)
        grid = TimeGrid(1.0, n_steps, scheme)
        verdict = check_theorem2(spec, grid, 0.3, psi)
        if leak == 0.0 and scheme == "expm_step":
            assert verdict.lossless
        if verdict.lossless:
            assert nh_loss(spec, grid, 0.3, psi).kappa <= 1e-6


class TestRun:
    """``run`` reads one reduction of one trajectory for all its results."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3]),
        n_jumps=st.integers(0, 2),
        n_steps=st.sampled_from([16, 64, 256]),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_equals_the_separate_functions(self, seed, dim, n_jumps, n_steps, scheme):
        spec = scaled_spec(seed, dim, n_jumps)
        psi = random_ket(dim, np.random.default_rng(seed))
        grid = TimeGrid(1.0, n_steps, scheme)

        def separately():
            return nh_loss(spec, grid, 0.3, psi), check_theorem2(spec, grid, 0.3, psi, tol=1e-6)

        try:
            got = run(spec, grid, 0.3, psi, tol=1e-6)
        except ValueError as err:
            # a coarse grid can leave kappa undefined; both routes say so
            with pytest.raises(ValueError, match=re.escape(str(err))):
                separately()
            return
        loss, verdict = separately()
        assert got.loss == loss
        assert got.theorem2 == verdict

    @pytest.mark.parametrize("scheme, samplings", [("euler_paper", 2), ("expm_step", 2)])
    def test_run_samples_each_propagation_once(self, monkeypatch, scheme, samplings):
        # the baseline and the main propagation each form H_nh once, under
        # either scheme; the residual cap reads the main propagation's
        import qfikit.collision

        calls = []
        original = qfikit.collision._hamiltonian

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(qfikit.collision, "_hamiltonian", counted)
        spec = scaled_spec(5, 3, 2)
        run(spec, TimeGrid(1.0, 256, scheme), 0.3, random_ket(3, np.random.default_rng(5)))
        assert len(calls) == samplings


def cancellation(g, f2):
    """Relative condition number of g - f2: how much a relative rounding
    of g and f2 grows in their difference."""
    return (g + f2) / max(abs(g - f2), np.finfo(float).tiny)


class TestProbeRoute:
    """``run`` propagates the probe; ``propagate``'s trajectories, reduced
    by ``oracles.matrix_route``, are the independent matrix route."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3]),
        n_jumps=st.integers(0, 2),
        # 255-257 straddle a power of two, so the last doubling round is
        # partial or full; 4097 sets the lowest and the highest bit
        n_steps=st.sampled_from([1, 2, 3, 5, 17, 255, 256, 257, 4097]),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_matches_the_matrix_route(self, seed, dim, n_jumps, n_steps, scheme):
        spec = scaled_spec(seed, dim, n_jumps)
        psi = random_ket(dim, np.random.default_rng(seed))
        grid = TimeGrid(1.0, n_steps, scheme)

        try:
            got = run(spec, grid, 0.3, psi, tol=1e-6)
        except (ValueError, IntegratorFailure) as err:
            # a coarse grid can blow the residual cap or leave kappa undefined
            with pytest.raises(type(err)):
                matrix_route(spec, grid, 0.3, psi, 1e-6)
            return
        base, ints, loss, verdict, columns, red = matrix_route(spec, grid, 0.3, psi, 1e-6)
        store = _probe_propagation(spec, grid, 0.3, psi.amplitudes).store
        assert relative_gap(store, red.source.store) <= 1e-13
        residual = columns.completeness_residual
        bound = max(1e-13, 1e-13 * residual)
        assert abs(got.completeness_residual - residual) <= bound
        if abs(residual - EXACT_RESIDUAL_TOL) > bound:
            assert got.kind == columns.kind

        # each loss field within 1e-13 relative of the terms it subtracts:
        # I_q = 4 (g - f^2) and the retained share 4 (g - |f|^2 / e)
        tol = 1e-13
        k_base = cancellation(base.g_total, base.f_total.real**2)
        k_channel = cancellation(ints.g_total, ints.f_total.real**2)
        k_share = cancellation(ints.g_check, abs(ints.f_check) ** 2 / ints.e_check)

        def close(field, scale):
            want = getattr(loss, field)
            return abs(getattr(got.loss, field) - want) <= tol * scale * abs(want)

        assert close("p_check", 1.0)
        assert close("i_q_baseline", k_base)
        assert close("i_q_channel", k_channel)
        assert close("i_sigma", k_share + 1.0)
        # kappa = 1 - share / I_q errs as the ratio does
        assert abs(got.loss.kappa - loss.kappa) <= tol * (k_share + k_base) * abs(1.0 - loss.kappa)
        if loss.kappa_channel is None:
            assert got.loss.kappa_channel is None
        else:
            assert (abs(got.loss.kappa_channel - loss.kappa_channel)
                    <= tol * (k_share + k_channel) * abs(1.0 - loss.kappa_channel))

        def near(got_value, want):
            return abs(got_value - want) <= max(1e-12 * abs(want), 1e-15)

        assert got.theorem2.lossless == verdict.lossless
        assert near(got.theorem2.jump_residual, verdict.jump_residual)
        matrix_t1 = theorem1_residuals(columns, tol=1e-6)
        assert got.theorem1.perp_lossless == matrix_t1.perp_lossless
        assert got.theorem1.generic_lossless == matrix_t1.generic_lossless
        for name in ("perp", "generic", "imag_f"):
            assert near(getattr(got.theorem1, name), getattr(matrix_t1, name))

    def test_constant_run_holds_no_matrix_trajectory(self, monkeypatch):
        import tracemalloc

        import qfikit.collision

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(qfikit.collision, "propagate", counted)
        dim = 4
        spec = scaled_spec(3, dim, 2)
        grid = TimeGrid(1.0, 16384, "expm_step")
        psi = random_ket(dim, np.random.default_rng(3))
        run(spec, grid, 0.3, psi)
        tracemalloc.start()
        try:
            run(spec, grid, 0.3, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not calls
        # what propagate holds for this spec: its (2N + 1, 2d, d) column
        # store of edges and midpoints, 16.8 MB
        trajectory = (2 * grid.N + 1) * 2 * dim * dim * np.dtype(complex).itemsize
        assert peak < trajectory

    @pytest.mark.parametrize("scheme, n_steps", [("euler_paper", 4096), ("expm_step", 16384)])
    def test_run_holds_little_beside_its_probe_store(self, scheme, n_steps):
        import tracemalloc

        dim = 4
        spec = scaled_spec(3, dim, 2)
        grid = TimeGrid(1.0, n_steps, scheme)
        psi = random_ket(dim, np.random.default_rng(3))
        run(spec, grid, 0.3, psi)
        tracemalloc.start()
        try:
            run(spec, grid, 0.3, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (2N + 1, 2d) probe store; its rows are read as Gramian blocks
        # and one product per maximum, so no channel rows and no jumped
        # stacks sit beside it
        store = (2 * grid.N + 1) * 2 * dim * np.dtype(complex).itemsize
        assert peak < 2.5 * store

    def test_non_finite_probe_store_raises(self):
        spec = CollisionSpec(h0=Operator(PAULI["z"]), h1=Operator(np.zeros((2, 2))),
                             jumps=((Operator(PAULI["z"]), 0.5),), dim=2)
        with pytest.raises(IntegratorFailure,
                           match="non-finite entries at N=64, scheme euler_paper"):
            run(spec, TimeGrid(T=1.0, N=64, scheme="euler_paper"), 1e200, PLUS_X)


#: (gamma, N, kind, theorem1_perp residual, its status, theorem-2 jump
#: residual, its status) of the model of ``TestVerdictScales``, under expm_step
VERDICT_SCALES = [
    (1e-8, 16, "exact", 1.82437066554e-05, "fail", 7.29748267370e-05, "fail"),
    (1e-8, 1024, "exact", 2.33823187716e-06, "fail", 7.48234201806e-05, "fail"),
    (1e-8, 4096, "exact", 1.16945833361e-06, "fail", 7.48453334623e-05, "fail"),
    (1e-8, 16384, "exact", 5.84771963456e-07, "pass", 7.48508114339e-05, "fail"),
    (0.01, 16, "approximate", 0.128234303713, "fail", 0.0728227966827, "fail"),
    (0.01, 1024, "approximate", 0.128234303712, "fail", 0.0746461544351, "fail"),
    (0.01, 4096, "exact", 0.00268814414377, "fail", 0.0746677644860, "fail"),
    (0.01, 16384, "exact", 0.00268814413064, "fail", 0.0746731666397, "fail"),
]


class TestVerdictScales:
    """``run``'s verdicts on a decaying qubit, H0 = x sigma_z, H1 = 0.7 sigma_x,
    L = sigma_-, psi = |+>, x = 0.3, T = 1, tol 1e-6, as N grows.

    theorem1_perp judges each discarded row sqrt(gamma dt) L xi, which
    shrinks as sqrt(dt), while theorem 2 reads the density sqrt(gamma) L xi:
    at gamma = 1e-8 the perp verdict passes from N = 16384 on while theorem
    2 fails at every N. At gamma = 0.01 the gauge path follows ``kind``,
    which flips between N = 1024 and 4096 and moves the perp residual
    48-fold. Verdicts read on one scale, the aggregate of gamma ||L xi||^2
    over the run, will change these values on purpose; until then the
    table guards against a change of route changing what a verdict means.
    """

    @pytest.mark.parametrize("gamma, n_steps, kind, perp, perp_status, jump, jump_status",
                             VERDICT_SCALES)
    def test_verdicts_follow_the_table(self, gamma, n_steps, kind, perp, perp_status,
                                       jump, jump_status):
        spec = CollisionSpec(
            h0=Operator(PAULI["z"]), h1=Operator(0.7 * PAULI["x"]),
            jumps=((Operator(np.array([[0.0, 1.0], [0.0, 0.0]])), gamma),), dim=2,
        )
        got = run(spec, TimeGrid(1.0, n_steps, "expm_step"), 0.3, PLUS_X, tol=1e-6)
        assert got.kind == kind
        assert ("pass" if got.theorem1.perp_lossless else "fail") == perp_status
        assert ("pass" if got.theorem2.lossless else "fail") == jump_status
        assert got.theorem1.perp == pytest.approx(perp, rel=1e-9, abs=0.0)
        assert got.theorem2.jump_residual == pytest.approx(jump, rel=1e-9, abs=0.0)
