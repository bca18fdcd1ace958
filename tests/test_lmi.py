import numpy as np
import pytest

from ddstab.errors import DimensionMismatch, InvalidParams
from ddstab.lmi import (
    Infeasible,
    LmiProblem,
    LmiSolution,
    evaluate_block,
    solve_feasibility,
)
from ddstab.operators import spectral_radius
from ddstab.systems import reference_cascade_scenario


def random_feasible_instance(rng, n=None, N=None, gamma=0.9):
    """Instance with Xi1 = F Xi0 for a matrix F of spectral radius well below gamma,
    so a right inverse R of Xi0 gives Xi1 R = F and the LMI is feasible."""
    n = n or int(rng.integers(2, 5))
    N = N or int(rng.integers(n + 1, n + 5))
    Xi0 = rng.standard_normal((n, N))
    F = rng.standard_normal((n, n))
    F *= (0.5 * gamma) / max(spectral_radius(F), 1e-12)
    return Xi0, F @ Xi0, gamma


class TestEvaluateBlock:
    def test_zero_lambda(self):
        min_eig, sym = evaluate_block(np.eye(2), np.zeros((2, 2)), 0.9, np.zeros((2, 2)))
        assert min_eig == pytest.approx(-1.0)
        assert sym == 0.0

    def test_scaled_identity_feasible_point(self):
        # Lambda = I / gamma^2 makes the block diag(0, I/gamma^2)
        gamma = 0.9
        min_eig, sym = evaluate_block(np.eye(2), np.zeros((2, 2)), gamma, np.eye(2) / gamma**2)
        assert min_eig == pytest.approx(0.0, abs=1e-12)
        assert sym == 0.0

    def test_asymmetric_product_reported(self):
        Xi0 = np.array([[1.0, 0.0], [0.0, 2.0]])
        Lam = np.array([[0.0, 1.0], [0.0, 0.0]])
        min_eig, sym = evaluate_block(Xi0, np.zeros((2, 2)), 0.9, Lam)
        assert sym > 0.0
        assert np.isfinite(min_eig)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            evaluate_block(np.eye(2), np.eye(2), 0.9, np.zeros((3, 2)))


class TestSolveFeasibility:
    def test_identity_toy_feasible(self):
        sol = solve_feasibility(LmiProblem(Xi0=np.eye(2), Xi1=np.zeros((2, 2)), gamma=0.9))
        assert isinstance(sol, LmiSolution)
        assert sol.min_eig >= -1e-8
        assert sol.sym_residual <= 1e-9

    def test_rank_deficient_infeasible(self):
        out = solve_feasibility(
            LmiProblem(Xi0=np.array([[1.0, 0.0], [0.0, 0.0]]), Xi1=np.zeros((2, 2)), gamma=0.9)
        )
        assert isinstance(out, Infeasible)
        assert out.best_margin < 0.0

    def test_reference_cascade_instance_feasible(self):
        _, batch, _ = reference_cascade_scenario(n_modes=50, n_samples=5)
        Xi0p, Xi1p = batch.Xi0[:4], batch.Xi1[:4]
        sol = solve_feasibility(LmiProblem(Xi0=Xi0p, Xi1=Xi1p, gamma=0.9))
        assert isinstance(sol, LmiSolution)
        assert sol.min_eig >= -1e-8

    def test_soundness_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            Xi0, Xi1, gamma = random_feasible_instance(rng)
            problem = LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=gamma)
            sol = solve_feasibility(problem)
            assert isinstance(sol, LmiSolution)
            min_eig, sym = evaluate_block(Xi0, Xi1, gamma, sol.Lambda)
            assert abs(min_eig - sol.min_eig) < 1e-10
            assert sol.sym_residual == sym
            assert sym <= problem.sym_tol
            # (1,1) block forces Xi0 Lambda >= I/gamma^2, so the gain inverse exists
            S = 0.5 * (Xi0 @ sol.Lambda + (Xi0 @ sol.Lambda).T)
            assert np.linalg.eigvalsh(S)[0] >= (1.0 + sol.min_eig) / gamma**2 - 1e-9

    @pytest.mark.parametrize("seed", [1, 2])
    def test_symmetry_judged_relative_to_size(self, seed):
        """Minimal random data (N = n + 1) whose feasible points have
        ||Xi0 Lambda|| of order 1e6: the round-off asymmetry, of order 1e-9,
        must not reject them."""
        rng = np.random.default_rng([seed, 12])
        Xi0 = rng.standard_normal((12, 13))
        Xi1 = rng.standard_normal((12, 13))
        problem = LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=0.9)
        sol = solve_feasibility(problem)
        assert isinstance(sol, LmiSolution)
        min_eig, sym = evaluate_block(Xi0, Xi1, 0.9, sol.Lambda)
        assert min_eig == sol.min_eig and min_eig >= -problem.feas_margin
        assert sym == sol.sym_residual
        assert sym <= problem.sym_tol * max(1.0, np.linalg.norm(Xi0 @ sol.Lambda))

    def test_scale_covariance_verdicts(self):
        rng = np.random.default_rng(4)
        Xi0, Xi1, gamma = random_feasible_instance(rng, n=3, N=6)
        bad = np.array([[1.0, 0.0, 0.0]]).T @ np.ones((1, 6))  # rank-1 state data
        for s in (1e-2, 1.0, 1e2):
            assert isinstance(
                solve_feasibility(LmiProblem(Xi0=s * Xi0, Xi1=s * Xi1, gamma=gamma)), LmiSolution
            )
            assert isinstance(
                solve_feasibility(LmiProblem(Xi0=s * bad, Xi1=s * bad, gamma=gamma)), Infeasible
            )

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(9)
        Xi0, Xi1, gamma = random_feasible_instance(rng)
        p = LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=gamma)
        a = solve_feasibility(p, seed=123)
        b = solve_feasibility(p, seed=123)
        assert a.Lambda.tobytes() == b.Lambda.tobytes()
        assert a.min_eig == b.min_eig

    def test_gamma_validation(self):
        with pytest.raises(InvalidParams):
            LmiProblem(Xi0=np.eye(2), Xi1=np.eye(2), gamma=1.0)

    def test_non_finite_data_rejected(self):
        bad = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(InvalidParams):
            LmiProblem(Xi0=bad, Xi1=np.eye(2), gamma=0.9)

    def test_zero_state_data_infeasible(self):
        out = solve_feasibility(
            LmiProblem(Xi0=np.zeros((2, 3)), Xi1=np.ones((2, 3)), gamma=0.9)
        )
        assert isinstance(out, Infeasible)
        assert out.best_margin <= -1.0 + 1e-9
