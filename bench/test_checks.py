"""The benchmark's own checks must reject wrong answers.

Run with ``python -m pytest bench``.
"""

import numpy as np
import pytest

import checks

GAMMA = 0.9


@pytest.fixture
def loop():
    """A non-normal stable pair with a certified gain: (A, B, K, M, k0)."""
    A = np.array([[1.2, 3.0], [0.0, 0.5]])
    B = np.array([[1.0], [0.0]])
    K = np.array([[-0.9, 0.0]])
    F = A + B @ K  # eigenvalues 0.3 and 0.5, large transient from the 3.0
    ratios, P = [1.0], np.eye(2)
    for k in range(1, 200):
        P = F @ P
        ratios.append(np.linalg.norm(P, 2) / GAMMA**k)
    return A, B, K, max(ratios)


def data_from(A, B, N, seed=0):
    rng = np.random.default_rng(seed)
    n, m = B.shape
    x0 = rng.standard_normal((N, n))
    u0 = rng.standard_normal((N, m))
    return x0 @ A.T + u0 @ B.T, x0, u0


def test_recover_system_square_and_least_squares(loop):
    A, B, _, _ = loop
    for N in (3, 7):
        A_r, B_r = checks.recover_system(*data_from(A, B, N))
        np.testing.assert_allclose(A_r, A, atol=1e-12)
        np.testing.assert_allclose(B_r, B, atol=1e-12)


def test_recover_system_rejects_inconsistent_data(loop):
    A, B, _, _ = loop
    x1, x0, u0 = data_from(A, B, 7)
    x1 = x1.copy()
    x1[3, 0] += 1e-3
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.recover_system(x1, x0, u0)


def test_recover_system_rejects_rank_deficient_data(loop):
    A, B, _, _ = loop
    x1, x0, u0 = data_from(A, B, 7)
    x0 = np.outer(x0[:, 0], [1.0, 2.0])
    with pytest.raises(checks.CheckFailed, match="rank"):
        checks.recover_system(x0 @ A.T + u0 @ B.T, x0, u0)


def test_stabilizing_gain_passes_and_destabilizing_gain_fails(loop):
    A, B, K, _ = loop
    assert checks.check_stabilizes(A, B, K, GAMMA) == pytest.approx(0.5)
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_stabilizes(A, B, np.zeros((1, 2)), GAMMA)
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_stabilizes(A, B, K, 0.45)


def test_power_bound_accepts_tight_M_and_rejects_M_one_percent_small(loop):
    A, B, K, M = loop
    F = A + B @ K
    assert M > 2.0
    assert checks.check_power_bound(F, M, GAMMA, 150) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_power_bound(F, 0.99 * M, GAMMA, 150)


def test_power_bound_rejects_M_that_is_not_attained(loop):
    A, B, K, M = loop
    with pytest.raises(checks.CheckFailed, match="not attained"):
        checks.check_power_bound(A + B @ K, 1.01 * M, GAMMA, 150)


def test_robust_rate_accepts_the_formula_and_rejects_a_wrong_value():
    M, c1, c0 = 5.7732, 0.003, 0.003
    good = (1 + M * c1) / (1 - M * c0) * GAMMA
    assert checks.check_robust_rate(good, M, GAMMA, c1, c0) == good
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_robust_rate(good * (1 + 1e-6), M, GAMMA, c1, c0)
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_robust_rate((1 + M * c1) * (1 + M * c0) * GAMMA, M, GAMMA, c1, c0)


def test_robust_rate_above_one_is_rejected():
    M, c1, c0 = 20.0, 0.003, 0.003
    rate = checks.robust_rate(M, GAMMA, c1, c0)
    assert rate >= 1.0
    with pytest.raises(checks.CheckFailed, match="not below 1"):
        checks.check_robust_rate(rate, M, GAMMA, c1, c0)


def test_modal_cutoff_of_the_reference_cascade():
    # log(1/0.89) / (0.1 pi^2 0.05) = 2.36..., so n0 = 2
    assert checks.modal_cutoff(0.1, 0.0, 0.05, 0.89) == 2
    assert checks.modal_cutoff(0.1, 0.0, 0.05, 0.999) == 1


def test_riccati_witness_stabilizes_a_stabilizable_pair():
    A = np.array([[2.0, 1.0], [0.0, 0.5]])
    B = np.array([[1.0], [0.0]])
    K = checks.riccati_witness(A, B, GAMMA)
    assert K is not None
    assert checks.spectral_radius(A + B @ K) < GAMMA


def test_riccati_witness_stabilizes_a_random_controllable_pair():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((10, 10))
    A *= 2.0 / checks.spectral_radius(A)
    B = rng.standard_normal((10, 1))
    K = checks.riccati_witness(A, B, GAMMA)
    assert K is not None
    assert checks.spectral_radius(A + B @ K) < GAMMA


def test_riccati_witness_is_none_for_an_unstabilizable_pair():
    # the mode at 2.0 is not reachable from the input
    A = np.diag([2.0, 0.5])
    B = np.array([[0.0], [1.0]])
    assert checks.riccati_witness(A, B, GAMMA) is None
