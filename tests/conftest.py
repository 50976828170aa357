"""Shared fixtures and small builders for the test suite."""

import numpy as np
import pytest

from oracles import haar_unitary, lossless_family
from qfikit.quantum_core import Ket, MeasurementChannel, Operator
from qfikit.scenarios import TransducerSpec, _random_hermitian, random_family

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "i": np.eye(2, dtype=complex),
}

KET_0 = Ket([1, 0])
KET_1 = Ket([0, 1])
PLUS_X = Ket(np.array([1, 1]) / np.sqrt(2))
MINUS_X = Ket(np.array([1, -1]) / np.sqrt(2))


# canonical generator implementations live in qfikit.scenarios, and the
# one-seed lossless family in oracles; the test suite reuses them so
# seeded draws stay identical across all of them
random_hermitian = _random_hermitian
lossless_slice_family = lossless_family


def haar_channel(dim: int, n_outcomes: int, rng: np.random.Generator, retained=None) -> MeasurementChannel:
    """Exact random channel from row blocks of a Haar unitary's first columns."""
    u = haar_unitary(dim * n_outcomes, rng)
    kraus = tuple(
        (str(w), Operator(u[w * dim : (w + 1) * dim, :dim])) for w in range(n_outcomes)
    )
    labels = [lbl for lbl, _ in kraus]
    return MeasurementChannel(kraus=kraus, retained=frozenset(labels if retained is None else retained))


def two_qubit_transducer(T: float = 1.0, x: float = 1e-5,
                         eps: float = 1.0) -> TransducerSpec:
    """The minimal transducer: qubit environment, qubit probe, X flip."""
    return TransducerSpec(
        h0_env=Operator(PAULI["z"]),
        env_initial=PLUS_X,
        sys_initial=KET_0,
        flip=Operator(PAULI["x"]),
        T=T,
        x=x,
        eps=eps,
    )


def random_ket(dim: int, rng: np.random.Generator) -> Ket:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(v / np.linalg.norm(v))


def scaled_model(seed, dim, n_jumps):
    """Random non-commuting collision model with constant generators.

    Returns (G, control, [(L_j, rate_j)]) scaled to ||G|| = 1,
    ||control|| = 0.5 and ||L_j|| = 1, with rates in [0.2, 0.8].
    """
    rng = np.random.default_rng(seed)

    def herm():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2.0
        return h / np.linalg.norm(h, 2)

    gen, control = herm(), 0.5 * herm()
    jumps = []
    for _ in range(n_jumps):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        jumps.append((op / np.linalg.norm(op, 2), float(rng.uniform(0.2, 0.8))))
    return gen, control, jumps


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def unitary_slice_family(dim, n_outcomes, seed, retained=None):
    """Exact analytic family: Haar block channel times exp(-i x H)."""
    return random_family(dim, n_outcomes, seed, retained)
