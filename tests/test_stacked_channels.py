"""Array-backed channels against the per-row oracle, and their row view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ket, scaled_model
from oracles import (
    _columns,
    matrix_reduction,
    rowwise_completeness,
    rowwise_efg,
    rowwise_gauge_fix,
    rowwise_generic,
    rowwise_perp,
)
from qfikit.collision import (
    SCHEMES,
    CollisionSpec,
    TimeGrid,
    build_discrete_channel,
    discrete_channel_derivatives,
    propagate,
)
from qfikit.encoding import (
    amplification_report,
    check_lossless_generic,
    check_lossless_perp,
    efg,
    fix_perpendicular_gauge,
    theorem1_residuals,
    total_qfi,
)
from qfikit.fisher import P_FLOOR
from qfikit.quantum_core import (EXACT_RESIDUAL_TOL, MeasurementChannel, Operator,
                                 derivative_stack)
from qfikit.scenarios import random_family


def close(got, want):
    return abs(got - want) <= max(1e-12 * abs(want), 1e-15)


def assert_matches_oracle(channel, derivatives, mats, dmats, psi, tol):
    """Library contraction and verdicts against the per-row oracle.

    ``mats`` and ``dmats`` are the channel's Kraus matrices and their
    derivatives, read off Operator rows; ``derivatives`` is whatever form
    the library is handed.
    """
    amps = psi.amplitudes
    kept = [label in channel.retained for label in channel.labels]
    rows = rowwise_efg(mats, dmats, amps)
    report = efg(channel, derivatives, psi)
    assert [r[0] for r in report.per_outcome] == list(channel.labels)
    for (_, e, f, g), (oe, of, og, _, _) in zip(report.per_outcome, rows):
        assert close(e, oe) and close(f, of) and close(g, og)
    assert close(report.f_total, sum((f for _, f, _, _, _ in rows), 0j))

    gauged, oracle_gauged = derivatives, dmats
    if channel.kind == "exact":
        gauged, _ = fix_perpendicular_gauge(channel, derivatives, psi)
        oracle_gauged = rowwise_gauge_fix(mats, dmats, amps)
        assert np.allclose(gauged, np.array(oracle_gauged), rtol=1e-12, atol=1e-15)
    perp = check_lossless_perp(channel, gauged, psi, tol=tol)
    ret, dis, flagged, lossless = rowwise_perp(mats, oracle_gauged, amps, kept, tol,
                                               P_FLOOR)
    assert all(close(r, o) for (_, r), o in zip(perp.retained_residuals, ret))
    assert all(close(r, o) for (_, r), o in zip(perp.discarded_residuals, dis))
    assert len(perp.retained_residuals) == len(ret)
    assert len(perp.discarded_residuals) == len(dis)
    assert perp.flagged == tuple(channel.labels[n] for n in flagged)
    assert perp.lossless == lossless

    generic = check_lossless_generic(channel, derivatives, psi, tol=tol)
    ret, dis, lossless = rowwise_generic(mats, dmats, amps, kept, tol)
    assert all(close(r, o) for (_, r), o in zip(generic.retained_residuals, ret))
    assert close(generic.discarded_residual, dis)
    assert generic.lossless == lossless


class TestCollisionChannelsMatchOracle:
    """First-jump channels, stacked, against a loop over Operator rows."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3, 4]),
        n_jumps=st.integers(1, 2),
        n_steps=st.sampled_from([2**6, 2**7, 2**8, 2**9, 2**10]),
        scheme=st.sampled_from(SCHEMES),
        jump_free=st.booleans(),
        log_tol=st.floats(-12.0, -1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_stacked_checks_match_rowwise_oracle(self, seed, dim, n_jumps, n_steps,
                                                 scheme, jump_free, log_tol):
        gen, control, jumps = scaled_model(seed, dim, n_jumps)
        # zero rates leave a unitary no-jump branch under expm_step, so
        # those draws give exact channels and exercise the gauge fix
        scale = 0.0 if jump_free else 1.0
        spec = CollisionSpec(
            h0=Operator(gen), h1=Operator(control),
            jumps=tuple((Operator(op), scale * rate) for op, rate in jumps), dim=dim,
        )
        grid = TimeGrid(T=1.0, N=n_steps, scheme=scheme)
        psi = random_ket(dim, np.random.default_rng(seed))
        traj = propagate(spec, grid, 0.3)
        channel = build_discrete_channel(spec, psi, grid, 0.3, traj=traj)
        pairs = discrete_channel_derivatives(spec, psi, grid, 0.3, traj=traj)
        dks = derivative_stack(channel, pairs)
        assert channel.kind == ("exact" if jump_free and scheme == "expm_step"
                                else "approximate")
        mats = [op.entries for _, op in channel.kraus]
        dmats = [op.entries for _, op in pairs]
        assert channel.completeness_residual == rowwise_completeness(mats)
        for derivatives in (dks, pairs):
            assert_matches_oracle(channel, derivatives, mats, dmats, psi,
                                  10.0**log_tol)


class TestExactChannelsMatchOracle:
    """Small exact channels take the same stacked path."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3, 4]),
        n_outcomes=st.integers(1, 4),
        mask=st.integers(1, 15),
        x=st.floats(-0.5, 0.5),
        log_tol=st.floats(-12.0, -1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_stacked_checks_match_rowwise_oracle(self, seed, dim, n_outcomes, mask,
                                                 x, log_tol):
        labels = [str(w) for w in range(n_outcomes)]
        retained = [lbl for w, lbl in enumerate(labels) if mask >> w & 1] or labels
        channel, dks = random_family(dim, n_outcomes, seed, retained)(x)
        pairs = tuple(zip(channel.labels, map(Operator, dks)))
        psi = random_ket(dim, np.random.default_rng(seed))
        mats = [op.entries for _, op in channel.kraus]
        dmats = [op.entries for _, op in pairs]
        assert channel.completeness_residual == rowwise_completeness(mats)
        stacked = np.array(dmats)
        for derivatives in (stacked, pairs):
            assert_matches_oracle(channel, derivatives, mats, dmats, psi,
                                  10.0**log_tol)
        i_q = total_qfi(efg(channel, pairs, psi))
        if i_q > 1e-12:
            got = amplification_report(channel, stacked, psi)
            want = amplification_report(channel, pairs, psi)
            assert got == want


class TestTrajectoryColumnsMatchStacks:
    """A run's probe columns against the explicit channel and its public checks."""

    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 3, 4]),
        n_jumps=st.integers(1, 2),
        n_steps=st.sampled_from([2**6, 2**7, 2**8, 2**9, 2**10]),
        scheme=st.sampled_from(SCHEMES),
        jump_free=st.booleans(),
        log_tol=st.floats(-12.0, -1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_verdicts_match_stack_path(self, seed, dim, n_jumps, n_steps, scheme,
                                       jump_free, log_tol):
        gen, control, jumps = scaled_model(seed, dim, n_jumps)
        # zero rates leave a unitary no-jump branch under expm_step, so
        # those draws give exact channels and exercise the gauge fix
        scale = 0.0 if jump_free else 1.0
        spec = CollisionSpec(
            h0=Operator(gen), h1=Operator(control), dim=dim,
            jumps=tuple((Operator(op), scale * rate) for op, rate in jumps),
        )
        grid = TimeGrid(T=1.0, N=n_steps, scheme=scheme)
        psi = random_ket(dim, np.random.default_rng(seed))
        tol = 10.0**log_tol
        traj = propagate(spec, grid, 0.3)
        channel = build_discrete_channel(spec, psi, grid, 0.3, traj=traj)
        dks = derivative_stack(
            channel, discrete_channel_derivatives(spec, psi, grid, 0.3, traj=traj))
        columns = _columns(spec, grid, matrix_reduction(spec, grid, psi, traj))

        residual = channel.completeness_residual
        assert abs(columns.completeness_residual - residual) <= 1e-13
        if abs(residual - EXACT_RESIDUAL_TOL) > 1e-13:
            assert columns.kind == channel.kind
        assert columns.retained_mask.tolist() == channel.retained_mask.tolist()

        gauged = dks
        if channel.kind == "exact":
            gauged, _ = fix_perpendicular_gauge(channel, dks, psi)
        perp = check_lossless_perp(channel, gauged, psi, tol=tol)
        generic = check_lossless_generic(channel, dks, psi, tol=tol)
        got = theorem1_residuals(columns, tol=tol)
        assert got.perp_lossless == perp.lossless
        assert got.generic_lossless == generic.lossless
        assert close(got.perp, perp.worst())
        assert got.dead == bool(perp.flagged)
        retained = [r for _, r in generic.retained_residuals]
        assert close(got.generic, max(retained + [generic.discarded_residual]))
        assert close(got.imag_f, max(r for _, r in generic.imag_f_residuals))


class TestKrausRows:
    def test_stack_channel_builds_no_operator_until_read(self, monkeypatch):
        built = []
        original = Operator.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        stack = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
        channel = MeasurementChannel.from_stack(("a", "b"), stack, retained={"a"})
        assert channel.kind == "exact"
        assert len(channel.kraus) == 2
        assert not built
        label, op = channel.kraus[1]
        assert label == "b" and np.array_equal(op.entries, np.zeros((2, 2)))
        assert len(built) == 2
        assert channel.operator("a") is channel.kraus[0][1]
        assert len(built) == 2

    def test_stack_is_read_only_and_copied_when_writeable(self):
        stack = np.array([np.eye(2)], dtype=complex)
        channel = MeasurementChannel.from_stack(("u",), stack, retained={"u"})
        stack[0, 0, 0] = 5.0
        assert channel.stack[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            channel.stack[0, 0, 0] = 2.0

    def test_pairs_keep_their_operators(self):
        ops = (Operator(np.eye(2) / np.sqrt(2)), Operator(np.eye(2) / np.sqrt(2)))
        channel = MeasurementChannel(kraus=(("0", ops[0]), ("1", ops[1])),
                                     retained=frozenset({"0"}))
        assert tuple(op for _, op in channel.kraus) == ops
        subset = MeasurementChannel(kraus=channel.kraus, retained=frozenset({"1"}))
        assert subset.kraus is channel.kraus
        assert subset.retained_mask.tolist() == [False, True]

    def test_unknown_label_raises_key_error(self):
        channel = MeasurementChannel.from_stack(("u",), np.eye(2)[None], retained={"u"})
        with pytest.raises(KeyError, match="nope"):
            channel.operator("nope")

    def test_stack_shape_and_label_count_checked(self):
        with pytest.raises(ValueError, match="stack"):
            MeasurementChannel.from_stack(("a",), np.eye(2), retained={"a"})
        with pytest.raises(ValueError, match="labels"):
            MeasurementChannel.from_stack(("a", "b"), np.eye(2)[None], retained={"a"})

    def test_derivative_stack_shape_checked(self):
        channel = MeasurementChannel.from_stack(("u",), np.eye(2)[None], retained={"u"})
        psi = random_ket(2, np.random.default_rng(3))
        with pytest.raises(ValueError, match="shape"):
            efg(channel, np.zeros((2, 2, 2), dtype=complex), psi)
