"""Fisher-information estimators against closed forms and oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    PAULI,
    PLUS_X,
    haar_channel,
    haar_unitary,
    random_ket,
    unitary_slice_family,
)
from oracles import (
    bernoulli_fi,
    bures_mixed_qfi,
    dilated_outcome_share,
    dilated_pure_qfi,
    fidelity_pure_qfi,
    mixed_state_derivative,
    refined_convexity_check,
)
from qfikit.fisher import (
    classical_fi,
    pure_qfi,
    sigma_se_qfi,
    sld,
)
from qfikit.quantum_core import (
    Ket,
    MeasurementChannel,
    Operator,
    mixed_state,
)

SEEDS = st.integers(min_value=0, max_value=10**6)


class TestPureQfi:
    def test_phase_rotation_closed_form(self):
        T = 1.7
        sz = PAULI["z"]
        psi = expm(-1j * 0.4 * sz * T) @ PLUS_X.amplitudes
        dpsi = -1j * T * sz @ psi
        assert pure_qfi(Ket(psi), Ket(dpsi)) == pytest.approx(4 * T * T, rel=1e-12)

    def test_pure_phase_direction_is_blind(self):
        psi = PLUS_X
        dpsi = Ket(1j * 2.3 * psi.amplitudes)
        assert pure_qfi(psi, dpsi) == pytest.approx(0.0, abs=1e-12)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_fidelity_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2.0
        psi0 = random_ket(4, rng).amplitudes

        def psi_at(x):
            return expm(-1j * x * h) @ psi0

        x = 0.3
        psi = psi_at(x)
        dpsi = -1j * h @ psi
        exact = pure_qfi(Ket(psi), Ket(dpsi))
        approx = fidelity_pure_qfi(psi_at, x, delta=1e-4)
        assert approx == pytest.approx(exact, abs=1e-4 * max(1.0, exact))

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_gauge_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_ket(3, rng)
        dpsi = Ket(rng.normal(size=3) + 1j * rng.normal(size=3))
        theta_prime = rng.normal()
        base = pure_qfi(psi, dpsi)
        shifted = pure_qfi(psi, Ket(dpsi.amplitudes + 1j * theta_prime * psi.amplitudes))
        assert shifted == pytest.approx(base, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pure_qfi(PLUS_X, Ket([1, 0, 0]))


class TestSld:
    def test_rank_one_matches_pure(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (g + g.conj().T) / 2.0
        psi = random_ket(3, rng).amplitudes
        dpsi = -1j * h @ psi
        rho = np.outer(psi, psi.conj())
        drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        got = sld(Operator(rho), Operator(drho))
        want = pure_qfi(Ket(psi), Ket(dpsi))
        assert got.qfi == pytest.approx(want, rel=1e-8)
        assert got.L.is_hermitian(1e-10)

    def test_maximally_mixed_flat_family(self):
        got = sld(Operator(np.eye(2) / 2), Operator(np.zeros((2, 2))))
        assert got.qfi == 0.0
        npt.assert_array_equal(got.L.entries, np.zeros((2, 2)))

    def test_rotated_mixture_closed_form_and_bures(self):
        # rho_x = e^{-ix sz} rho0 e^{ix sz}, rho0 a mix of the x-basis
        # projectors; closed form I = 4 (2a-1)^2 for this geometry
        a = 0.8
        rho0 = a * np.outer(PLUS_X.amplitudes, PLUS_X.amplitudes.conj())
        minus = np.array([1, -1]) / np.sqrt(2)
        rho0 = rho0 + (1 - a) * np.outer(minus, minus.conj())
        sz = PAULI["z"]

        def rho_at(x):
            u = expm(-1j * x * sz)
            return u @ rho0 @ u.conj().T

        x = 0.25
        rho = rho_at(x)
        drho = -1j * (sz @ rho - rho @ sz)
        got = sld(Operator(rho), Operator(drho))
        assert got.qfi == pytest.approx(4 * (2 * a - 1) ** 2, rel=1e-10)
        assert got.qfi == pytest.approx(bures_mixed_qfi(rho_at, x), abs=1e-4)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            sld(Operator([[0.5, 0.1], [0.0, 0.5]]), Operator(np.zeros((2, 2))))

    def test_trace_defect_rejected(self):
        with pytest.raises(ValueError):
            sld(Operator(np.eye(2)), Operator(np.zeros((2, 2))))


class TestClassicalFi:
    def test_arithmetic(self):
        assert classical_fi(0.5, 1.0) == pytest.approx(2.0)

    def test_insensitive_weight(self):
        assert classical_fi(np.exp(-1.0), 0.0) == 0.0

    def test_dead_outcome(self):
        assert classical_fi(0.0, 0.0) == 0.0

    def test_singular_outcome_raises(self):
        with pytest.raises(ValueError, match="singular"):
            classical_fi(0.0, 1.0)

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_bernoulli(self, x):
        total = classical_fi(x, 1.0) + classical_fi(1.0 - x, -1.0)
        assert total == pytest.approx(bernoulli_fi(x), rel=1e-12)


class TestSigmaSeQfi:
    def test_single_unitary_outcome(self):
        fam = unitary_slice_family(3, 1, seed=11)
        x = 0.2
        chan, derivs = fam(x)
        PLUS = random_ket(3, np.random.default_rng(3))
        res = sigma_se_qfi(chan, derivs, PLUS)
        m = chan.kraus[0][1].entries
        dm = derivs[0]
        want = pure_qfi(Ket(m @ PLUS.amplitudes), Ket(dm @ PLUS.amplitudes))
        assert res.total == pytest.approx(want, rel=1e-10)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_bounded_by_dilated_qfi(self, seed):
        fam = unitary_slice_family(2, 2, seed=seed)
        rng = np.random.default_rng(seed + 1)
        psi = random_ket(2, rng)
        x = 0.15
        chan, derivs = fam(x)
        res = sigma_se_qfi(chan, derivs, psi)
        mats = [op.entries for _, op in chan.kraus]
        dmats = list(derivs)
        iq = dilated_pure_qfi(mats, dmats, psi.amplitudes)
        assert res.total <= iq + 1e-8

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_monotone_chain(self, seed):
        # dilated pure QFI >= record-resolved total >= reduced-state QFI
        fam = unitary_slice_family(2, 2, seed=seed)
        rng = np.random.default_rng(seed + 2)
        psi = random_ket(2, rng)
        x = 0.3
        chan, derivs = fam(x)
        res = sigma_se_qfi(chan, derivs, psi)
        mats = [op.entries for _, op in chan.kraus]
        dmats = list(derivs)
        iq = dilated_pure_qfi(mats, dmats, psi.amplitudes)
        rho = mixed_state(chan, psi)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        drho = sum(
            dm @ proj @ m.conj().T + m @ proj @ dm.conj().T
            for m, dm in zip(mats, dmats)
        )
        rho_qfi = sld(rho, Operator(drho)).qfi
        assert iq + 1e-8 >= res.total
        assert res.total >= rho_qfi - 1e-8

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_refined_per_outcome_inequality(self, seed):
        fam = unitary_slice_family(2, 3, seed=seed)
        rng = np.random.default_rng(seed + 3)
        psi = random_ket(2, rng)
        x = 0.05
        chan, derivs = fam(x)
        res = sigma_se_qfi(chan, derivs, psi)
        mats = [op.entries for _, op in chan.kraus]
        dmats = list(derivs)
        for w, row in enumerate(res.per_outcome):
            share = dilated_outcome_share(mats, dmats, psi.amplitudes, w)
            assert share >= row.i_joint - 1e-8

    def test_approximate_channel_rejected(self):
        lossy = MeasurementChannel(
            kraus=(("m", Operator(np.eye(2) * 0.9)),), retained=frozenset({"m"})
        )
        derivatives = (("m", Operator(np.zeros((2, 2)))),)
        with pytest.raises(ValueError, match="approximate"):
            sigma_se_qfi(lossy, derivatives, PLUS_X)


class TestDerivativeForms:
    def test_stack_reads_as_its_pairs_bit_for_bit(self):
        # an exact channel sqrt(w_k) U_k exp(-i x H) with its derivative
        # handed over as the (M, d, d) array every encoding function takes
        rng = np.random.default_rng(19)
        x, h = 0.3, PAULI["x"] + 0.4 * PAULI["z"]
        rot = expm(-1j * x * h)
        scales = np.sqrt([0.3, 0.7])
        us = [haar_unitary(2, rng) for _ in scales]
        chan = MeasurementChannel.from_stack(
            ("a", "b"), [s * u @ rot for s, u in zip(scales, us)], {"a"})
        dks = np.array([s * u @ (-1j * h @ rot) for s, u in zip(scales, us)])
        pairs = tuple(zip(chan.labels, map(Operator, dks)))
        psi = random_ket(2, rng)
        assert chan.kind == "exact"
        npt.assert_array_equal(mixed_state_derivative(chan, dks, psi),
                               mixed_state_derivative(chan, pairs, psi))
        assert sigma_se_qfi(chan, dks, psi) == sigma_se_qfi(chan, pairs, psi)
        povm = [Operator(np.diag([1.0, 0.0])), Operator(np.diag([0.0, 1.0]))]
        assert (refined_convexity_check(chan, dks, psi, povm)
                == refined_convexity_check(chan, pairs, psi, povm))


class TestRefinedConvexity:
    def test_trivial_povm(self):
        fam = unitary_slice_family(2, 2, seed=21)
        x = 0.1
        chan, derivs = fam(x)
        psi = random_ket(2, np.random.default_rng(4))
        report = refined_convexity_check(chan, derivs, psi, [Operator(np.eye(2))])
        (mu, j_cl, j_rho, j_sigma) = report.rows[0]
        assert j_cl == pytest.approx(0.0, abs=1e-16)
        assert report.outer_ok()
        assert report.worst_upper_margin >= -1e-8

    def test_sld_sandwich_telescopes_to_mixed_qfi(self):
        # any identity-resolving POVM sums the middle layer to Tr(rho L^2)
        fam = unitary_slice_family(2, 2, seed=22)
        x = 0.2
        chan, derivs = fam(x)
        psi = PLUS_X
        plus = np.outer(PLUS_X.amplitudes, PLUS_X.amplitudes.conj())
        minus_v = np.array([1, -1]) / np.sqrt(2)
        minus = np.outer(minus_v, minus_v.conj())
        report = refined_convexity_check(
            chan, derivs, psi, [Operator(plus), Operator(minus)]
        )
        mats = [op.entries for _, op in chan.kraus]
        dmats = list(derivs)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho = mixed_state(chan, psi)
        drho = sum(
            dm @ proj @ m.conj().T + m @ proj @ dm.conj().T
            for m, dm in zip(mats, dmats)
        )
        want = sld(rho, Operator(drho)).qfi
        got = sum(row[2] for row in report.rows)
        assert got == pytest.approx(want, rel=1e-8)
        assert report.outer_ok()

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_classical_anchored_links_never_violated(self, seed):
        # both Cauchy-Schwarz links hold per element, and the middle layers
        # sum to the two state QFIs, ordered by monotonicity
        fam = unitary_slice_family(2, 2, seed=seed)
        rng = np.random.default_rng(seed + 9)
        psi = random_ket(2, rng)
        x = 0.12
        chan, derivs = fam(x)
        v = haar_unitary(2, rng)
        povm = [Operator(np.outer(v[:, k], v[:, k].conj())) for k in range(2)]
        report = refined_convexity_check(chan, derivs, psi, povm)
        assert report.outer_ok()
        sum_rho = sum(row[2] for row in report.rows)
        sum_sigma = sum(row[3] for row in report.rows)
        assert sum_rho <= sum_sigma + 1e-8

    def test_middle_link_fails_on_a_generic_element(self):
        # Tr(rho L E L) <= J_sigmaSE(E) is not guaranteed element by
        # element; this fixed instance exceeds it by more than 0.02 while
        # both classical-anchored links and the summed ordering still hold
        seed = 2
        fam = unitary_slice_family(2, 2, seed=seed)
        rng = np.random.default_rng(seed + 9)
        psi = random_ket(2, rng)
        x = 0.12
        chan, derivs = fam(x)
        v = haar_unitary(2, rng)
        povm = [Operator(np.outer(v[:, k], v[:, k].conj())) for k in range(2)]
        report = refined_convexity_check(chan, derivs, psi, povm)
        assert report.worst_upper_margin < -0.02
        assert report.outer_ok()
        sum_rho = sum(row[2] for row in report.rows)
        sum_sigma = sum(row[3] for row in report.rows)
        assert sum_rho <= sum_sigma + 1e-8

    def test_bad_povm_rejected(self):
        fam = unitary_slice_family(2, 2, seed=23)
        chan, derivs = fam(0.0)
        with pytest.raises(ValueError, match="identity"):
            refined_convexity_check(chan, derivs, PLUS_X,
                                    [Operator(np.eye(2) * 0.5)])
