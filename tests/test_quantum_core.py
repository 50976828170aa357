"""Core data model: kets, operators, channels, dilation, matrix exponential."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KET_0, PAULI, PLUS_X, haar_channel, haar_unitary, random_ket
from qfikit.quantum_core import (
    Ket,
    MeasurementChannel,
    Operator,
    expm,
    kraus_from_dilation,
    mixed_state,
    spectral_norm,
)

SEEDS = st.integers(min_value=0, max_value=10**6)


class TestKet:
    def test_normalized_flag_tight(self):
        assert Ket([1, 0]).normalized
        assert not Ket([1, 1]).normalized
        # boundary: norm^2 off by just over 1e-12
        eps = 3e-12
        assert not Ket([np.sqrt(1 + eps), 0]).normalized

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            Ket([1, 0], dim=3)

    def test_unit(self):
        k = Ket([3, 4]).unit()
        npt.assert_allclose(k.norm, 1.0, atol=1e-15)

    def test_immutable(self):
        k = Ket([1, 0])
        with pytest.raises(ValueError):
            k.amplitudes[0] = 2.0


class TestOperator:
    def test_structure_helpers(self):
        sz = Operator(PAULI["z"])
        assert sz.is_hermitian()
        assert sz.is_unitary()
        assert not sz.is_psd()
        proj = Operator([[1, 0], [0, 0]])
        assert proj.is_psd()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Operator(np.ones((2, 3)))

    def test_expectation(self):
        val = Operator(PAULI["z"]).expectation(PLUS_X)
        assert abs(val) < 1e-15


class TestChannel:
    def test_duplicate_labels_rejected(self):
        op = Operator(PAULI["i"] / np.sqrt(2))
        with pytest.raises(ValueError):
            MeasurementChannel(kraus=(("a", op), ("a", op)), retained=frozenset("a"))

    def test_unknown_retained_rejected(self):
        op = Operator(PAULI["i"])
        with pytest.raises(ValueError):
            MeasurementChannel(kraus=(("a", op),), retained=frozenset({"b"}))

    def test_exactness_flag(self):
        dephase = MeasurementChannel(
            kraus=(("0", Operator([[1, 0], [0, 0]])), ("1", Operator([[0, 0], [0, 1]]))),
            retained=frozenset({"0", "1"}),
        )
        assert dephase.kind == "exact"
        assert dephase.completeness_residual <= 1e-15
        lossy = MeasurementChannel(
            kraus=(("0", Operator(PAULI["i"] * 0.5)),), retained=frozenset({"0"})
        )
        assert lossy.kind == "approximate"

    @given(SEEDS, st.integers(2, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_sum_to_one(self, seed, dim, n_outcomes):
        rng = np.random.default_rng(seed)
        chan = haar_channel(dim, n_outcomes, rng)
        psi = random_ket(dim, rng)
        total = sum(float(np.vdot(b, b).real) for b in chan.stack @ psi.amplitudes)
        assert abs(total - 1.0) <= chan.completeness_residual + 1e-10


class TestKrausFromDilation:
    def test_identity_dilation(self):
        u = Operator(np.eye(4))
        basis = [KET_0, Ket([0, 1])]
        chan = kraus_from_dilation(u, KET_0, basis)
        npt.assert_array_equal(chan.operator("0").entries, np.eye(2))
        npt.assert_array_equal(chan.operator("1").entries, np.zeros((2, 2)))

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_random_unitary_dilation_complete(self, seed):
        rng = np.random.default_rng(seed)
        u = Operator(haar_unitary(4, rng))
        v = haar_unitary(2, rng)
        basis = [Ket(v[:, 0]), Ket(v[:, 1])]
        env0 = random_ket(2, rng)
        chan = kraus_from_dilation(u, env0, basis)
        assert chan.completeness_residual <= 1e-10
        # independent contraction oracle, element loops instead of einsum
        u4 = u.entries.reshape(2, 2, 2, 2)
        for w, (_, op) in enumerate(chan.kraus):
            manual = np.zeros((2, 2), dtype=complex)
            for a in range(2):
                for b in range(2):
                    for e in range(2):
                        for f in range(2):
                            manual[a, b] += (
                                basis[w].amplitudes[e].conjugate()
                                * u4[a, e, b, f]
                                * env0.amplitudes[f]
                            )
            npt.assert_allclose(op.entries, manual, atol=1e-14)

    def test_non_orthonormal_basis_rejected(self):
        u = Operator(np.eye(4))
        with pytest.raises(ValueError):
            kraus_from_dilation(u, KET_0, [KET_0, Ket(np.array([1, 1e-3]) / np.sqrt(1 + 1e-6))])

    def test_dimension_mismatch_rejected(self):
        u = Operator(np.eye(6))
        with pytest.raises(ValueError):
            kraus_from_dilation(u, Ket([1, 0, 0, 0]), [Ket([1, 0, 0, 0])] * 4)


class TestMixedState:
    def test_unitary_kraus_stays_pure(self):
        chan = MeasurementChannel(
            kraus=(("u", Operator(PAULI["x"])),), retained=frozenset({"u"})
        )
        rho = mixed_state(chan, KET_0)
        purity = np.trace(rho.entries @ rho.entries).real
        assert purity == pytest.approx(1.0, abs=1e-14)

    def test_full_dephasing(self):
        chan = MeasurementChannel(
            kraus=(("0", Operator([[1, 0], [0, 0]])), ("1", Operator([[0, 0], [0, 1]]))),
            retained=frozenset({"0", "1"}),
        )
        rho = mixed_state(chan, PLUS_X)
        npt.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_matches_direct_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        chan = haar_channel(3, 3, rng)
        psi = random_ket(3, rng)
        rho = mixed_state(chan, psi)
        acc = np.zeros((3, 3), dtype=complex)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for _, op in chan.kraus:
            acc += op.entries @ proj @ op.entries.conj().T
        npt.assert_allclose(rho.entries, acc, atol=1e-13)
        assert rho.is_hermitian(1e-12)
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-10


def one_norm(a):
    return float(np.abs(a).sum(axis=-2).max())


def expm_input(seed, dim, kind, norm):
    """Random (dim, dim) matrix of a given kind, scaled to a given 1-norm."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "anti_hermitian":
        a = (g - g.conj().T) / 2.0
    elif kind == "damped":
        # -iH - L^+ L / 2: a non-normal generator with a decaying spectrum
        jump = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = -0.5j * (g + g.conj().T) - 0.5 * jump.conj().T @ jump
    elif kind == "diagonal":
        a = np.diag(np.diag(g))
    else:
        a = g
    return a * (norm / one_norm(a))


EXPM_DRAWS = dict(
    seed=SEEDS,
    dim=st.integers(1, 8),
    kind=st.sampled_from(["anti_hermitian", "damped", "diagonal", "general"]),
    log_norm=st.floats(-8.0, np.log10(50.0)),
)


class TestExpm:
    """The numpy matrix exponential against scipy as a reference."""

    @given(**EXPM_DRAWS)
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, seed, dim, kind, log_norm):
        # measured over 6000 such draws, in units of max(1, ||A||_1) * eps:
        # anti-Hermitian 1.5, general 7.2, damped 18, diagonal 41 (scipy
        # exponentiates a diagonal entrywise; here s squarings of a
        # scaled Pade approximant amplify its error by up to 2^s)
        from scipy.linalg import expm as scipy_expm

        norm = 10.0**log_norm
        a = expm_input(seed, dim, kind, norm)
        want = scipy_expm(a)
        gap = one_norm(expm(a) - want) / one_norm(want)
        units = 4.0 if kind == "anti_hermitian" else 64.0
        assert gap <= units * max(1.0, norm) * np.finfo(float).eps

    @given(**EXPM_DRAWS)
    @settings(max_examples=50, deadline=None)
    def test_frechet_block_matches_scipy(self, seed, dim, kind, log_norm):
        # expm([[A, E], [0, A]]) holds the Frechet derivative of expm at A
        # along E in its upper-right block; measured up to 6.6 units
        from scipy.linalg import expm_frechet

        a = expm_input(seed, dim, kind, 10.0**log_norm)
        e = expm_input(seed + 1, dim, "general", 1.0)
        block = np.block([[a, e], [np.zeros_like(a), a]])
        want = expm_frechet(a, e, compute_expm=False)
        gap = one_norm(expm(block)[:dim, dim:] - want) / one_norm(want)
        assert gap <= 64.0 * max(1.0, one_norm(block)) * np.finfo(float).eps

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_small_steps_track_scipy(self, seed):
        # a half step of a collision run is I + O(dt), and 2N products of
        # it accumulate whatever its exp(A) - I lost: measured up to
        # 1.8e-16 here, against 3e-13 to 2e-12 for the plain quotient
        # solve(V - U, V + U)
        from scipy.linalg import expm as scipy_expm

        a = expm_input(seed, 2 + seed % 3, "damped", 2.0) / 8192
        step, ref = expm(a), scipy_expm(a)
        got = want = np.eye(len(a))
        for _ in range(8192):
            got, want = step @ got, ref @ want
        assert one_norm(got - want) / one_norm(want) <= 1e-14

    def test_stack_matches_one_call_per_slice_bit_for_bit(self):
        # norms from 1e-8 to 50 reach every Pade degree and the scaling
        # branch within one stack
        norms = np.logspace(-8, np.log10(50.0), 40)
        kinds = ["anti_hermitian", "damped", "diagonal", "general"]
        stack = np.array([expm_input(k, 4, kinds[k % 4], n) for k, n in enumerate(norms)])
        got = expm(stack.reshape(5, 8, 4, 4)).reshape(40, 4, 4)
        assert np.array_equal(got, np.array([expm(a) for a in stack]))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_zero_gives_exact_identity(self, dim):
        assert np.array_equal(expm(np.zeros((dim, dim), dtype=complex)), np.eye(dim))
        assert np.array_equal(expm(np.zeros((3, dim, dim))),
                              np.broadcast_to(np.eye(dim), (3, dim, dim)))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError):
            expm(np.zeros(shape))

