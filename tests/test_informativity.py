import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddstab import cli, lmi
from ddstab.errors import InvalidParams
from ddstab.finitedata import cascade_decomposition, project_data
from ddstab.informativity import (
    GainResult,
    identification_informative,
    least_squares_gain_norm_growth,
    sample_compatible_systems,
    synthesize_gain,
)
from ddstab.lmi import Infeasible
from ddstab.operators import construct_certificate, pseudo_inverse, spectral_radius
from ddstab.systems import (
    DataBatch,
    LinearSystem,
    counterexample_sequences,
    reference_cascade_scenario,
    simulate,
)


def batch_from(x0_cols, u0_cols, x1_cols, meta=""):
    return DataBatch(
        x1=np.atleast_2d(x1_cols).T, x0=np.atleast_2d(x0_cols).T, u0=np.atleast_2d(u0_cols).T, meta=meta
    )


def excited_batch(A, B, N, seed=0):
    """Batch generated from (A, B) under Gaussian excitation."""
    rng = np.random.default_rng(seed)
    sys_ = LinearSystem(A=A, B=B)
    x0 = rng.standard_normal(sys_.n)
    inputs = [rng.standard_normal(sys_.m) for _ in range(N)]
    traj = simulate(sys_, x0, inputs)
    return DataBatch(
        x1=np.stack(traj[1:]), x0=np.stack(traj[:-1]), u0=np.stack(inputs)
    )


def sample(batch, count, scale=1.0, seed=0):
    """Compatible [A B] draws for a batch, shape (count, n, n + m)."""
    return sample_compatible_systems(batch.Xi0, batch.Xi1, batch.Ups0, count, scale=scale, seed=seed)


class TestIdentification:
    def test_two_independent_samples(self):
        batch = batch_from(
            x0_cols=np.array([[1.0, 1.0]]), u0_cols=np.array([[0.0, 1.0]]),
            x1_cols=np.array([[0.0, 0.0]]),
        )
        report = identification_informative(batch)
        assert report and report.rank == 2

    def test_zero_input_never_informative(self):
        # B is unidentifiable without excitation, whatever the states do
        batch = batch_from(
            x0_cols=np.eye(2), u0_cols=np.zeros((1, 2)), x1_cols=np.zeros((2, 2))
        )
        report = identification_informative(batch)
        assert not report
        assert report.rank == 2 and report.required_rank == 3

    def test_counterexample_truncation_rank_short(self):
        # the stacked operator has n columns and n+1 required rank, so every
        # finite truncation fails; only the infinite sequences are informative
        for n in (3, 10):
            report = identification_informative(counterexample_sequences(n))
            assert report.rank == n
            assert report.required_rank == n + 1
            assert not report

    def test_recovery_from_excited_data(self):
        """On identifying data the compatible family is the generating system."""
        rng = np.random.default_rng(6)
        A = 0.5 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        batch = excited_batch(A, B, N=2 * (3 + 2), seed=1)
        assert identification_informative(batch)
        AB = sample(batch, 1)[0]
        assert np.linalg.norm(AB[:, :3] - A) < 1e-8
        assert np.linalg.norm(AB[:, 3:] - B) < 1e-8

    def test_square_exact_recovery(self):
        rng = np.random.default_rng(7)
        A = 0.4 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        batch = excited_batch(A, B, N=3, seed=2)
        # cross-check by solving the square system directly
        W = np.vstack([batch.Xi0, batch.Ups0])
        AB = np.linalg.solve(W.T, batch.Xi1.T).T
        assert np.allclose(sample(batch, 1)[0], AB, atol=1e-9)

    def test_zero_input_not_unique(self):
        """Without excitation B is free: two draws of the family differ, and
        each still fits the data."""
        batch = batch_from(np.eye(2), np.zeros((1, 2)), np.zeros((2, 2)))
        assert not identification_informative(batch)
        first, second = sample(batch, 2)
        assert np.linalg.norm(first - second) > 1e-6
        W = np.vstack([batch.Xi0, batch.Ups0])
        for AB in (first, second):
            assert np.linalg.norm(AB @ W - batch.Xi1) < 1e-12


class TestStabilization:
    def test_zero_closed_loop_toy(self):
        batch = batch_from(np.eye(2), np.zeros((1, 2)), np.zeros((2, 2)))
        result = synthesize_gain(batch, 0.9)
        assert isinstance(result, GainResult)
        assert np.allclose(result.K, 0.0)
        assert result.achieved_radius == pytest.approx(0.0, abs=1e-12)
        assert result.certificate.M >= 1.0

    def test_rank_deficient_state_data(self):
        batch = batch_from(
            np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((1, 2)), np.zeros((2, 2))
        )
        result = synthesize_gain(batch, 0.9)
        assert isinstance(result, Infeasible)
        assert result.reason == "rank" and result.rank == 1 and result.best_margin < 0.0

    @pytest.mark.parametrize("reason", ["rank", "pbh"])
    def test_infeasible_is_the_lmi_verdict(self, monkeypatch, reason):
        """synthesize_gain hands on the very Infeasible that solve_feasibility
        made, not a copy."""
        made, solve = [], lmi.solve_feasibility
        monkeypatch.setattr(lmi, "solve_feasibility", lambda problem: made.append(solve(problem)) or made[-1])
        if reason == "rank":
            batch = batch_from(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((1, 2)), np.zeros((2, 2)))
        else:
            batch = batch_from(np.eye(2), np.zeros((1, 2)), 1.1 * np.eye(2))
        result = synthesize_gain(batch, 0.9)
        assert len(made) == 1 and result is made[0]
        assert isinstance(result, Infeasible) and result.reason == reason

    def test_random_controllable_system(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((3, 3))
        A *= 1.1 / spectral_radius(A)  # unstable open loop
        B = rng.standard_normal((3, 1))
        batch = excited_batch(A, B, N=8, seed=3)
        result = synthesize_gain(batch, 0.95)
        assert isinstance(result, GainResult)
        assert spectral_radius(A + B @ result.K) <= 0.95 + 1e-6

    def test_every_compatible_system_stabilized(self):
        rng = np.random.default_rng(13)
        A = 0.9 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        batch = excited_batch(A, B, N=4, seed=4)  # N > n keeps a nontrivial family
        result = synthesize_gain(batch, 0.9)
        assert isinstance(result, GainResult)
        F_data = batch.Xi1 @ result.right_inverse
        for seed in (0, 1):
            for AB in sample(batch, 30, scale=10.0, seed=seed):
                closed = AB[:, :2] + AB[:, 2:] @ result.K
                assert spectral_radius(closed) <= 0.9 + 1e-6
                # every compatible closed loop coincides with the reconstruction
                assert np.linalg.norm(closed - F_data) < 1e-8

    @pytest.mark.parametrize("scenario", ["cascade", "minimal"])
    def test_certificate_is_the_certificate_of_the_loop(self, scenario, tmp_path):
        """The certificate that comes with the chosen gain is bitwise the one
        construct_certificate gives on its closed loop: on the reference
        cascade's projected data, and on random-LTI minimal data (n = 8,
        N = n + 1, seed 0)."""
        if scenario == "cascade":
            _, batch, params = reference_cascade_scenario(n_modes=50, n_samples=5)
            batch = project_data(batch, cascade_decomposition(params, 0.89, 0.1, 0.0))
        else:
            path = tmp_path / "data.json"
            argv = ["generate", "--scenario", "random-lti", "--n", "8", "--seed", "0",
                    "--samples", "9", "--radius", "2.0", "--out", str(path)]
            assert cli.main(argv) == 0
            batch = DataBatch.load(path)
        result = synthesize_gain(batch, 0.9)
        assert isinstance(result, GainResult)
        assert result.certificate == construct_certificate(batch.Xi1 @ result.right_inverse, 0.9)


class TestSampleCompatible:
    def test_square_invertible_gives_singleton(self):
        rng = np.random.default_rng(3)
        A = 0.5 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        batch = excited_batch(A, B, N=3, seed=5)
        systems = sample(batch, 10, scale=3.0, seed=2)
        assert systems.shape == (10, 2, 3)
        assert np.max(np.linalg.norm(systems - systems[0], axis=(1, 2))) < 1e-9

    def test_determinism(self):
        batch = counterexample_sequences(4)
        a = sample(batch, 5, seed=11)
        b = sample(batch, 5, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_prefix_and_single_draws(self):
        """Slice i does not depend on the count: a shorter stack is a prefix
        of a longer one, and slice i equals the i-th of single draws made
        one after another from the stream ``seed``."""
        rng = np.random.default_rng(8)
        batch = excited_batch(0.6 * rng.standard_normal((3, 3)), rng.standard_normal((3, 2)), N=4, seed=2)
        W = np.vstack([batch.Xi0, batch.Ups0])
        Wp = pseudo_inverse(W)
        base, projector = batch.Xi1 @ Wp, np.eye(5) - W @ Wp
        full = sample(batch, 9, scale=2.5, seed=6)
        for k in (0, 1, 4):
            prefix = sample(batch, k, scale=2.5, seed=6)
            assert prefix.shape == (k, 3, 5)
            assert prefix.tobytes() == full[:k].tobytes()
        stream = np.random.default_rng(6)
        for i in range(9):
            T = 2.5 * stream.standard_normal((3, 5))
            assert full[i].tobytes() == (base + T @ projector).tobytes()

    def test_rank_deficient_family_spreads(self):
        batch = counterexample_sequences(4)  # W is 5x4, kernel projector has rank 1
        systems = sample(batch, 6, scale=1.0, seed=0)
        assert np.max(np.linalg.norm(systems[1:] - systems[0], axis=(1, 2))) > 1e-6

    def test_samples_are_compatible(self):
        rng = np.random.default_rng(8)
        A = 0.6 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        batch = excited_batch(A, B, N=5, seed=9)
        W = np.vstack([batch.Xi0, batch.Ups0])
        for AB in sample(batch, 8, scale=2.0, seed=4):
            res = np.linalg.norm(AB @ W - batch.Xi1)
            assert res <= 1e-8 * (1 + np.linalg.norm(batch.Xi1))

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(3, 9), count=st.integers(0, 12), seed=st.integers(0, 2**63 - 1))
    def test_one_point_family_draws_nothing(self, N, count, seed):
        """Data with [Xi0; Ups0] of rank n + m = 3 leave one compatible
        system: every slice is bitwise Xi1 W^+, whatever the seed, and no
        generator is made."""
        rng = np.random.default_rng(N)
        batch = excited_batch(0.5 * rng.standard_normal((2, 2)), rng.standard_normal((2, 1)), N, N)
        base = batch.Xi1 @ pseudo_inverse(np.vstack([batch.Xi0, batch.Ups0]))

        def no_generator(*args, **kwargs):
            raise AssertionError("a one-point family draws no stream")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng", no_generator)
            systems = sample(batch, count, scale=3.0, seed=seed)
        assert systems.shape == (count, 2, 3)
        assert all(AB.tobytes() == base.tobytes() for AB in systems)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(InvalidParams):
            sample(counterexample_sequences(4), 3, scale=scale)

    def test_identification_informative_implies_singleton(self):
        rng = np.random.default_rng(10)
        A = 0.5 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        batch = excited_batch(A, B, N=6, seed=10)
        assert identification_informative(batch)
        sys0 = sample(batch, 1, seed=0)[0]
        sys1 = sample(batch, 1, seed=99)[0]
        assert np.linalg.norm(sys0 - sys1) < 1e-9


class TestGainNormGrowth:
    def test_first_values(self):
        norms = least_squares_gain_norm_growth([1, 4])
        assert norms[0] == pytest.approx(1.0)
        assert norms[1] == pytest.approx(np.sqrt(1 + 0.5 + 1 / 3 + 0.25))

    def test_partial_harmonic_sums(self):
        ns = [10, 100]
        norms = least_squares_gain_norm_growth(ns)
        for n, norm in zip(ns, norms):
            h = np.sum(1.0 / np.arange(1, n + 1))
            assert norm == pytest.approx(np.sqrt(h), abs=1e-10)

    def test_strictly_increasing(self):
        norms = least_squares_gain_norm_growth([2, 8, 32, 128])
        assert all(a < b for a, b in zip(norms, norms[1:]))
