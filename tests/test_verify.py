"""The chain, gauge and theorem-soundness suites of ``qfi verify``: each
shape group's stacked pass against the one-instance routes of
``oracles``, bit for bit, the error a faulty instance raises, and the
work a suite run does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfikit.verify as verify
from oracles import (chain_instance_route, gauge_instance_route, lossless_family,
                     seeded_instance, soundness_instance_route)
from qfikit.encoding import EfgReport, _perp_grid, check_lossless_perp, fix_perpendicular_gauge
from qfikit.quantum_core import Ket, MeasurementChannel
from qfikit.scenarios import random_family, seeded_families, seeded_lossless_families


def chain_route(dim, n_outcomes, seeds, xs, psi) -> list:
    """Each instance's chain margins, one channel at a time."""
    return [chain_instance_route(*random_family(dim, n_outcomes, seed)(x), Ket(amps))
            for seed, x, amps in zip(seeds, xs, psi)]


def gauge_route(dim, n_outcomes, seeds, xs, psi, kept) -> list:
    """Each instance's gauge drifts, one channel at a time."""
    retained = {str(w) for w, keep in enumerate(kept) if keep}
    return [gauge_instance_route(*random_family(dim, n_outcomes, seed, retained)(x),
                                 Ket(amps), float(x))
            for seed, x, amps in zip(seeds, xs, psi)]


def gauge_pass(dim, n_outcomes, seeds, xs, psi, kept) -> np.ndarray:
    return verify._gauge_drifts(xs, *seeded_families(dim, n_outcomes, seeds)(xs), psi,
                                np.asarray(kept))


def soundness_route(dim, n_outcomes, seeds, xs, psi) -> tuple:
    """Each instance's certificate and kappa, one channel at a time, as
    the lists (certified, kappa)."""
    pairs = [soundness_instance_route(*lossless_family(dim, n_outcomes, seed)(x), Ket(amps))
             for seed, x, amps in zip(seeds, xs, psi)]
    return [c for c, _ in pairs], [k for _, k in pairs]


def soundness_lists(certified, kappa) -> tuple:
    """A group's verdicts and its certified instances' kappas as the lists
    (certified, kappa), 0.0 for an uncertified instance."""
    every = np.zeros(len(certified))
    every[certified] = kappa
    return certified.tolist(), every.tolist()


def soundness_pass(dim, n_outcomes, seeds, xs, psi) -> tuple:
    return soundness_lists(*verify._soundness(
        seeds, *seeded_lossless_families(dim, n_outcomes, seeds)(xs), psi))


def assert_lossless_slices(dim, n_outcomes, seeds, xs):
    """Every slice of a stacked lossless group is its seed's own family."""
    ks, dks = seeded_lossless_families(dim, n_outcomes, seeds)(xs)
    for n, (seed, x) in enumerate(zip(seeds, xs)):
        channel, derivatives = lossless_family(dim, n_outcomes, seed)(x)
        assert channel.stack.tobytes() == ks[n].tobytes()
        assert derivatives.tobytes() == dks[n].tobytes()


class TestStackedPasses:
    """A group's pass gives every instance the numbers of its own route."""

    def test_chain_margins_equal_the_instance_route(self):
        groups = verify._grouped(range(100))
        assert len(groups) == 12
        for (dim, n_outcomes), (seeds, xs, psi) in groups.items():
            margins = verify._chain_margins(*seeded_families(dim, n_outcomes, seeds)(xs), psi)
            assert margins.tolist() == chain_route(dim, n_outcomes, seeds, xs, psi)

    def test_gauge_drifts_equal_the_instance_route(self):
        groups = verify._grouped(range(25), verify._gauge_shape)
        assert len(groups) == 14
        for (dim, n_outcomes, kept), (seeds, xs, psi) in groups.items():
            drifts = gauge_pass(dim, n_outcomes, seeds, xs, psi, kept)
            assert drifts.tolist() == gauge_route(dim, n_outcomes, seeds, xs, psi, kept)

    @given(st.integers(2, 4), st.integers(1, 4),
           st.lists(st.integers(0, 2**31), min_size=1, max_size=6, unique=True),
           st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_any_group_equals_the_instance_route(self, dim, n_outcomes, seeds, mask):
        rng = np.random.default_rng(seeds)
        xs = rng.uniform(-0.5, 0.5, size=len(seeds))
        v = rng.normal(size=(len(seeds), dim)) + 1j * rng.normal(size=(len(seeds), dim))
        psi = v / np.linalg.norm(v, axis=1, keepdims=True)
        kept = [bool(mask >> w & 1) for w in range(n_outcomes)]
        kept = kept if any(kept) else [True] * n_outcomes
        margins = verify._chain_margins(*seeded_families(dim, n_outcomes, seeds)(xs), psi)
        assert margins.tolist() == chain_route(dim, n_outcomes, seeds, xs, psi)
        drifts = gauge_pass(dim, n_outcomes, seeds, xs, psi, kept)
        assert drifts.tolist() == gauge_route(dim, n_outcomes, seeds, xs, psi, kept)

    def test_soundness_equals_the_instance_route(self):
        groups = verify._grouped(range(20), offset=20_000)
        assert len(groups) == 9
        got = {}
        for (dim, n_outcomes), (seeds, xs, psi) in groups.items():
            assert_lossless_slices(dim, n_outcomes, seeds, xs)
            got.update(zip(seeds, zip(*soundness_pass(dim, n_outcomes, seeds, xs, psi))))
        # the groups draw what each seed draws on its own, at offset 20 000
        want = {}
        for seed in range(20):
            family, x, psi = seeded_instance(seed, 20_000, lossless_family)
            want[seed] = soundness_instance_route(*family(x), psi)
        assert got == want
        assert all(certified for certified, _ in got.values())

    def test_soundness_perp_residuals_match_the_instance_checks(self):
        for (dim, n_outcomes), (seeds, xs, psi) in verify._grouped(
                range(20), offset=20_000).items():
            ks, dks = seeded_lossless_families(dim, n_outcomes, seeds)(xs)
            kept = np.ones(n_outcomes, dtype=bool)
            perp = _perp_grid(verify._columns(ks, dks, psi, kept))[0]
            for n, (seed, x, amps) in enumerate(zip(seeds, xs, psi)):
                channel, derivatives = lossless_family(dim, n_outcomes, seed)(x)
                gauged, _ = fix_perpendicular_gauge(channel, derivatives, Ket(amps))
                verdict = check_lossless_perp(channel, gauged, Ket(amps), tol=1e-9)
                # the grid shifts the columns, the route the stacks
                assert abs(perp[n] - verdict.worst()) <= 1e-15

    @given(st.integers(2, 4), st.integers(1, 4),
           st.lists(st.integers(0, 2**31), min_size=1, max_size=6, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_any_lossless_group_equals_the_instance_route(self, dim, n_outcomes, seeds):
        rng = np.random.default_rng(seeds)
        xs = rng.uniform(-0.5, 0.5, size=len(seeds))
        v = rng.normal(size=(len(seeds), dim)) + 1j * rng.normal(size=(len(seeds), dim))
        psi = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert_lossless_slices(dim, n_outcomes, seeds, xs)
        assert (soundness_pass(dim, n_outcomes, seeds, xs, psi)
                == soundness_route(dim, n_outcomes, seeds, xs, psi))

    def test_one_seed_family_is_its_slice_of_a_group(self):
        seeds = [3, 17, 40, 41]
        xs = np.array([0.1, -0.3, 0.45, 0.0])
        ks, dks = seeded_families(3, 2, seeds)(xs)
        for n, (seed, x) in enumerate(zip(seeds, xs)):
            channel, derivatives = random_family(3, 2, seed)(x)
            assert channel.stack.tobytes() == ks[n].tobytes()
            assert derivatives.tobytes() == dks[n].tobytes()


def faulty_group(fault):
    """The first chain group of at least three instances, with ``fault``
    applied to the stacks and probe of its instance 1."""
    (dim, n_outcomes), (seeds, xs, psi) = next(
        (key, group) for key, group in verify._grouped(range(100)).items()
        if len(group[0]) >= 3)
    ks, dks = (a.copy() for a in seeded_families(dim, n_outcomes, seeds)(xs))
    psi = psi.copy()
    ks[1], dks[1], psi[1] = fault(ks[1], dks[1], psi[1])
    labels = [str(w) for w in range(n_outcomes)]
    channel = MeasurementChannel.from_stack(labels, ks[1], labels)
    return seeds, xs, ks, dks, psi, (channel, dks[1], Ket(psi[1]))


FAULTS = pytest.mark.parametrize("fault, message", [
    (lambda k, dk, v: (k, dk, 1.01 * v), "not normalized"),
    (lambda k, dk, v: (1.01 * k, dk, v), "only meaningful for an exact channel"),
    (lambda k, dk, v: (k, 0.5 * k, v), "got imaginary part"),
], ids=["unnormalized_probe", "approximate", "imaginary_current"])


def faulty_lossless_group(fault):
    """The first theorem-soundness group of at least three instances, with
    ``fault`` applied to the stacks and probe of its instance 1, and that
    instance's own channel, derivatives and probe."""
    (dim, n_outcomes), (seeds, xs, psi) = next(
        (key, group) for key, group in verify._grouped(range(20), offset=20_000).items()
        if len(group[0]) >= 3)
    ks, dks = (a.copy() for a in seeded_lossless_families(dim, n_outcomes, seeds)(xs))
    psi = psi.copy()
    ks[1], dks[1], psi[1] = fault(ks[1], dks[1], psi[1])
    labels = [str(w) for w in range(n_outcomes)]
    channel = MeasurementChannel.from_stack(labels, ks[1], labels)
    return seeds, ks, dks, psi, (channel, dks[1], Ket(psi[1]))


class TestFaultyInstance:
    """A faulty instance raises its own route's error, naming its seed."""

    @FAULTS
    def test_chain(self, fault, message):
        seeds, _, ks, dks, psi, instance = faulty_group(fault)
        with pytest.raises(ValueError, match=message) as want:
            chain_instance_route(*instance)
        with pytest.raises(ValueError) as got:
            verify._named(seeds, verify._chain_margins, ks, dks, psi)
        assert str(got.value) == f"seed {seeds[1]}: {want.value}"

    @FAULTS
    def test_gauge(self, fault, message):
        seeds, xs, ks, dks, psi, instance = faulty_group(fault)
        with pytest.raises(ValueError, match=message) as want:
            gauge_instance_route(*instance, float(xs[1]))
        kept = np.ones(ks.shape[1], dtype=bool)
        with pytest.raises(ValueError) as got:
            verify._named(seeds * 2, verify._gauge_drifts, xs, ks, dks, psi, kept)
        assert str(got.value) == f"seed {seeds[1]}: {want.value}"

    @pytest.mark.parametrize("fault, message", [
        (lambda k, dk, v: (k, dk, 1.01 * v), "not normalized"),
        (lambda k, dk, v: (1.01 * k, dk, v), "gauge fixing expects an exact channel"),
        (lambda k, dk, v: (1.01 * k, dk, 1.01 * v), "gauge fixing expects an exact channel"),
    ], ids=["unnormalized_probe", "approximate", "approximate_and_unnormalized"])
    def test_soundness(self, fault, message):
        seeds, ks, dks, psi, instance = faulty_lossless_group(fault)
        with pytest.raises(ValueError, match=message) as want:
            soundness_instance_route(*instance)
        with pytest.raises(ValueError) as got:
            verify._soundness(seeds, ks, dks, psi)
        assert str(got.value) == f"seed {seeds[1]}: {want.value}"

    @pytest.mark.parametrize("fault, want", [
        # an imaginary total current fails the perp check, so the route
        # builds no report, whose checks would refuse it
        (lambda k, dk, v: (k, 0.5 * k, v), (False, 0.0)),
        # no information: certified, with no kappa, where
        # amplification_grid would refuse the zero QFI
        (lambda k, dk, v: (k, 0.0 * dk, v), (True, 0.0)),
    ], ids=["imaginary_current", "zero_qfi"])
    def test_soundness_reads_what_the_route_reads(self, fault, want):
        seeds, ks, dks, psi, instance = faulty_lossless_group(fault)
        assert soundness_instance_route(*instance) == want
        certified, kappa = soundness_lists(*verify._soundness(seeds, ks, dks, psi))
        assert (certified[1], kappa[1]) == want
        assert certified[0] and certified[2]


def work(monkeypatch, run) -> dict:
    """Calls of expm, eigh and svd, and channels, reports and SLD results
    built, while ``run()`` runs."""
    import qfikit.fisher
    import qfikit.quantum_core
    import qfikit.scenarios

    counts = dict.fromkeys(("expm", "eigh", "svd", "objects"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    expm = counted("expm", qfikit.quantum_core.expm)
    for module in (qfikit.quantum_core, qfikit.scenarios):
        monkeypatch.setattr(module, "expm", expm)
    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for cls in (MeasurementChannel, EfgReport):
        monkeypatch.setattr(cls, "__post_init__", counted("objects", cls.__post_init__))
    monkeypatch.setattr(qfikit.fisher, "SldResult",
                        counted("objects", qfikit.fisher.SldResult))
    run()
    return counts


def seeded_group(n_instances):
    """A (dim 3, 2 outcomes) group of the first ``n_instances`` seeds, at
    spread operating points, with random unit probes."""
    seeds = list(range(n_instances))
    rng = np.random.default_rng(n_instances)
    v = rng.normal(size=(n_instances, 3)) + 1j * rng.normal(size=(n_instances, 3))
    return (seeds, np.linspace(-0.5, 0.5, n_instances),
            v / np.linalg.norm(v, axis=1, keepdims=True))


class TestWorkPerSuite:
    """One expm per shape group, one eigh per chain group, and no
    per-instance channel, report or SLD result, however many instances."""

    def test_chain_suite(self, monkeypatch):
        counts = work(monkeypatch, lambda: verify._suite_chain()[0] or pytest.fail())
        assert counts == {"expm": 12, "eigh": 12, "svd": 24, "objects": 0}

    def test_gauge_suite(self, monkeypatch):
        counts = work(monkeypatch, lambda: verify._suite_gauge()[0] or pytest.fail())
        assert counts == {"expm": 14, "eigh": 0, "svd": 14, "objects": 0}

    def test_theorem_soundness_suite(self, monkeypatch):
        # one expm per lossless group; the two collision runs take theirs
        # through collision's own binding
        counts = work(monkeypatch,
                      lambda: verify._suite_theorem_soundness()[0] or pytest.fail())
        assert counts["expm"] == 9 and counts["objects"] == 0

    @pytest.mark.parametrize("n_instances", [1, 40])
    @pytest.mark.parametrize("suite, want", [
        ("chain", {"expm": 1, "eigh": 1, "svd": 2, "objects": 0}),
        ("gauge", {"expm": 1, "eigh": 0, "svd": 1, "objects": 0}),
        ("soundness", {"expm": 1, "eigh": 0, "svd": 1, "objects": 0}),
    ])
    def test_a_group_pass_does_not_grow_with_its_instances(self, monkeypatch, suite, want,
                                                           n_instances):
        seeds, xs, psi = seeded_group(n_instances)
        run = {
            "chain": lambda: verify._chain_margins(*seeded_families(3, 2, seeds)(xs), psi),
            "gauge": lambda: gauge_pass(3, 2, seeds, xs, psi, np.ones(2, dtype=bool)),
            "soundness": lambda: soundness_pass(3, 2, seeds, xs, psi),
        }[suite]
        assert work(monkeypatch, run) == want
