import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddstab.informativity import (
    GainResult,
    NotInformative,
    NotUnique,
    closed_range_inequality_holds,
    gain_inequality_holds,
    identification_informative,
    input_distinguishes_kernel,
    least_squares_gain_norm_growth,
    range_inclusion_diagnostic,
    sample_compatible_systems,
    stabilization_informative,
    unique_system,
)
from ddstab.operators import pseudo_inverse, spectral_radius
from ddstab.systems import DataBatch, LinearSystem, counterexample_sequences, simulate


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
        rng = np.random.default_rng(6)
        A = 0.5 * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        batch = excited_batch(A, B, N=2 * (3 + 2), seed=1)
        sys_ = unique_system(batch)
        assert isinstance(sys_, LinearSystem)
        assert np.linalg.norm(sys_.A - A) < 1e-8
        assert np.linalg.norm(sys_.B - B) < 1e-8

    def test_square_exact_recovery(self):
        rng = np.random.default_rng(7)
        A = 0.4 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        batch = excited_batch(A, B, N=3, seed=2)
        sys_ = unique_system(batch)
        assert isinstance(sys_, LinearSystem)
        # cross-check by solving the square system directly
        W = np.vstack([batch.Xi0, batch.Ups0])
        AB = np.linalg.solve(W.T, batch.Xi1.T).T
        assert np.allclose(np.hstack([sys_.A, sys_.B]), AB, atol=1e-9)

    def test_zero_input_not_unique(self):
        batch = batch_from(np.eye(2), np.zeros((1, 2)), np.zeros((2, 2)))
        assert isinstance(unique_system(batch), NotUnique)


class TestStabilization:
    def test_zero_closed_loop_toy(self):
        batch = batch_from(np.eye(2), np.zeros((1, 2)), np.zeros((2, 2)))
        result = stabilization_informative(batch, 0.9)
        assert isinstance(result, GainResult)
        assert np.allclose(result.K, 0.0)
        assert result.achieved_radius == pytest.approx(0.0, abs=1e-12)
        assert result.certificate.M >= 1.0

    def test_rank_deficient_state_data(self):
        batch = batch_from(
            np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((1, 2)), np.zeros((2, 2))
        )
        result = stabilization_informative(batch, 0.9)
        assert isinstance(result, NotInformative)
        assert result.margin < 0.0

    def test_random_controllable_system(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((3, 3))
        A *= 1.1 / spectral_radius(A)  # unstable open loop
        B = rng.standard_normal((3, 1))
        batch = excited_batch(A, B, N=8, seed=3)
        result = stabilization_informative(batch, 0.95)
        assert isinstance(result, GainResult)
        assert spectral_radius(A + B @ result.K) <= 0.95 + 1e-6

    def test_every_compatible_system_stabilized(self):
        rng = np.random.default_rng(13)
        A = 0.9 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        batch = excited_batch(A, B, N=4, seed=4)  # N > n keeps a nontrivial family
        result = stabilization_informative(batch, 0.9)
        assert isinstance(result, GainResult)
        F_data = batch.Xi1 @ result.right_inverse
        for seed in (0, 1):
            for AB in sample(batch, 30, scale=10.0, seed=seed):
                closed = AB[:, :2] + AB[:, 2:] @ result.K
                assert spectral_radius(closed) <= 0.9 + 1e-6
                # every compatible closed loop coincides with the reconstruction
                assert np.linalg.norm(closed - F_data) < 1e-8


class TestOperatorInequalities:
    def test_gain_inequality_reduces_to_scalar_bound(self):
        batch = batch_from(np.eye(2), np.zeros((1, 2)), np.zeros((2, 2)))
        K = np.zeros((1, 2))
        assert gain_inequality_holds(batch, K, 1.0)
        assert gain_inequality_holds(batch, K, 2.0)
        assert not gain_inequality_holds(batch, K, 0.5)

    def test_zero_c_fails_for_nonzero_data(self):
        batch = batch_from(np.eye(2), np.zeros((1, 2)), np.zeros((2, 2)))
        assert not gain_inequality_holds(batch, np.zeros((1, 2)), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_c(self, seed):
        rng = np.random.default_rng(seed)
        batch = DataBatch(
            x1=rng.standard_normal((4, 2)),
            x0=rng.standard_normal((4, 2)),
            u0=rng.standard_normal((4, 1)),
        )
        K = rng.standard_normal((1, 2))
        c = float(rng.uniform(0.1, 20.0))
        if gain_inequality_holds(batch, K, c):
            assert gain_inequality_holds(batch, K, 2 * c)

    def test_synthesized_gain_admits_finite_c(self):
        rng = np.random.default_rng(21)
        A = 0.8 * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        batch = excited_batch(A, B, N=5, seed=8)
        result = stabilization_informative(batch, 0.9)
        assert isinstance(result, GainResult)
        lo, hi = 0.0, 1.0
        while not gain_inequality_holds(batch, result.K, hi):
            hi *= 2.0
            assert hi <= 1e6
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if gain_inequality_holds(batch, result.K, mid) else (mid, hi)
        assert gain_inequality_holds(batch, result.K, hi + 1e-6)

    def test_closed_range_identity(self):
        batch = batch_from(np.eye(3), np.zeros((1, 3)), np.zeros((3, 3)))
        assert closed_range_inequality_holds(batch, 1.0)
        assert not closed_range_inequality_holds(batch, 0.99)

    def test_closed_range_decaying_columns(self):
        n = 5
        batch = counterexample_sequences(n)
        # smallest nonzero Gram eigenvalue is 1/n^2, so the minimal c is n
        assert closed_range_inequality_holds(batch, float(n))
        assert not closed_range_inequality_holds(batch, 0.999 * n)

    def test_closed_range_zero_data(self):
        batch = DataBatch(x1=np.zeros((2, 2)), x0=np.zeros((2, 2)), u0=np.zeros((2, 1)))
        assert closed_range_inequality_holds(batch, 0.0)
        assert closed_range_inequality_holds(batch, 5.0)


class TestRangeInclusionDiagnostic:
    def test_exact_match(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((3, 4))
        K = rng.standard_normal((1, 3))
        batch = DataBatch(x1=np.zeros((4, 3)), x0=x0.T, u0=(K @ x0).T)
        assert range_inclusion_diagnostic(batch, K, 1e-8)

    def test_counterexample_trivial_kernel(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 9):
            batch = counterexample_sequences(n)
            assert not range_inclusion_diagnostic(batch, np.zeros((1, n)), 1e-8)
            K = rng.standard_normal((1, n))
            assert not range_inclusion_diagnostic(batch, K, 1e-8)

    def test_duplicated_column_spanning_kernel(self):
        e1 = np.array([1.0, 0.0])
        batch = batch_from(
            np.column_stack([e1, e1]), np.array([[0.0, 1.0]]), np.zeros((2, 2))
        )
        assert range_inclusion_diagnostic(batch, np.zeros((1, 2)), 1e-8)

    def test_kernel_input_diagnostic(self):
        e1 = np.array([1.0, 0.0])
        with_kernel = batch_from(np.column_stack([e1, e1]), np.array([[0.0, 1.0]]), np.zeros((2, 2)))
        assert input_distinguishes_kernel(with_kernel)
        assert not input_distinguishes_kernel(counterexample_sequences(4))


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
        """Slice i depends only on (seed, i): a shorter stack is a prefix of a
        longer one, and each slice equals the single draw from its stream."""
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
        for i in range(9):
            T = 2.5 * np.random.default_rng([6, i]).standard_normal((3, 5))
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
