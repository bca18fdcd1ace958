import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddstab.errors import DimensionMismatch, EmptyData, InvalidParams
from ddstab.operators import (
    DouglasFactor,
    NoFactorization,
    NotCertifiable,
    PowerStabilityCertificate,
    build_synthesis,
    construct_certificate,
    douglas_minimal_constant,
    frame_bounds,
    operator_norm,
    pseudo_inverse,
    rank_at_tol,
    spectral_radius,
)


class TestBuildSynthesis:
    def test_standard_basis(self):
        S = build_synthesis([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.array_equal(S.matrix, np.eye(2))
        assert S.dim == 2 and S.N == 2

    def test_scaled_basis_columns(self):
        vecs = [np.eye(4)[k] / (k + 1) for k in range(4)]
        S = build_synthesis(vecs)
        assert np.array_equal(S.matrix, np.diag([1.0, 0.5, 1.0 / 3.0, 0.25]))

    def test_single_vector_copy(self):
        S = build_synthesis([np.array([3.0, 4.0])])
        assert S.matrix.shape == (2, 1)
        assert np.array_equal(S.matrix, np.array([[3.0], [4.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_synthesis([np.ones(2), np.ones(3)])

    def test_empty(self):
        with pytest.raises(EmptyData):
            build_synthesis([])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParams):
            build_synthesis([np.array([1.0, np.nan])])

    def test_matrix_immutable(self):
        S = build_synthesis([np.array([1.0, 2.0])])
        with pytest.raises(ValueError):
            S.matrix[0, 0] = 5.0


class TestFrameBounds:
    def test_orthonormal_basis_is_tight(self):
        fb = frame_bounds(np.eye(3))
        assert fb.upper == pytest.approx(1.0)
        assert fb.lower == pytest.approx(1.0)
        assert fb.rank == 3

    def test_decaying_diagonal(self):
        n = 6
        S = np.diag(1.0 / np.arange(1, n + 1))
        fb = frame_bounds(S)
        # Gram matrix is diag(1/k^2)
        assert fb.upper == pytest.approx(1.0)
        assert fb.lower == pytest.approx(1.0 / n**2)

    def test_rank_deficient_rows(self):
        fb = frame_bounds(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert fb.lower == 0.0
        assert fb.rank == 1

    def test_ordering_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            S = rng.standard_normal((3, 5))
            fb = frame_bounds(S)
            assert fb.upper >= fb.lower >= 0.0

    def test_orthogonal_columns_extreme_norms(self):
        # columns 2*e1 and 0.5*e2: bounds are the extreme squared column norms
        S = np.array([[2.0, 0.0], [0.0, 0.5]])
        fb = frame_bounds(S)
        assert fb.upper == pytest.approx(4.0)
        assert fb.lower == pytest.approx(0.25)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_diagonal_with_zero(self):
        P = pseudo_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(P, np.diag([0.5, 0.0]))

    def test_full_row_rank_right_inverse(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 5))
        Ap = pseudo_inverse(A)
        assert np.linalg.norm(A @ Ap - np.eye(3)) < 1e-10

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
    def test_penrose_identities(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        A = rng.standard_normal(shape)
        P = pseudo_inverse(A)
        scale = max(1.0, np.linalg.norm(P))
        assert np.linalg.norm(A @ P @ A - A) / scale < 1e-10
        assert np.linalg.norm(P @ A @ P - P) / scale < 1e-10
        assert np.linalg.norm((A @ P).T - A @ P) / scale < 1e-10
        assert np.linalg.norm((P @ A).T - P @ A) / scale < 1e-10

    def test_rank_preserved(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
        assert rank_at_tol(pseudo_inverse(A)) == rank_at_tol(A) == 2

    @pytest.mark.parametrize("shape", [(5, 5), (3, 8), (8, 3)])
    def test_stack_is_bitwise_slicewise(self, shape):
        """Each slice of a stacked pseudoinverse is bitwise the 2-D result,
        also for a zero slice and a rank-deficient one, and for slices
        stored column-major."""
        rng = np.random.default_rng(7)
        S = rng.standard_normal((2, 6) + shape)
        S[0, 1] = 0.0
        S[1, 2] = rng.standard_normal((shape[0], 1)) @ rng.standard_normal((1, shape[1]))
        for stack in (S, np.swapaxes(np.swapaxes(S, -1, -2).copy(), -1, -2)):
            P = pseudo_inverse(stack)
            assert P.shape == (2, 6, shape[1], shape[0])
            for i, j in np.ndindex(2, 6):
                assert P[i, j].tobytes() == pseudo_inverse(stack[i, j]).tobytes()
        assert not np.signbit(P[0, 1]).any()
        assert rank_at_tol(P[1, 2]) == 1

    def test_stack_with_empty_dimension(self):
        assert pseudo_inverse(np.zeros((4, 3, 0))).shape == (4, 0, 3)


class TestDouglas:
    def test_equal_operands_unit_constant(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((4, 4))
        out = douglas_minimal_constant(B, B)
        assert isinstance(out, DouglasFactor)
        assert out.norm_c == pytest.approx(1.0, abs=1e-9)

    def test_zero_numerator(self):
        out = douglas_minimal_constant(np.zeros((3, 2)), np.eye(3))
        assert isinstance(out, DouglasFactor)
        assert out.norm_c == 0.0

    def test_orthogonal_ranges(self):
        out = douglas_minimal_constant(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        assert isinstance(out, NoFactorization)
        assert out.residual == pytest.approx(1.0)

    def test_majorization_property(self):
        # whenever a factor exists, A A^T <= (c + eps)^2 B B^T as a PSD check
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = rng.standard_normal((4, 6))
            B = rng.standard_normal((4, 6))
            out = douglas_minimal_constant(A, B)
            assert isinstance(out, DouglasFactor)
            c = out.norm_c + 1e-8
            M = c**2 * (B @ B.T) - A @ A.T
            assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] >= -1e-8 * max(1.0, c**2)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.2, -0.7])) == pytest.approx(0.7)

    def test_rotation(self):
        R = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_radius(R) == pytest.approx(0.5)

    def test_companion_golden_ratio(self):
        # companion matrix of z^2 - z - 1
        C = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(C) == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
    def test_gelfand_bound(self, n, seed):
        F = np.random.default_rng(seed).standard_normal((n, n))
        assert spectral_radius(F) <= operator_norm(F) + 1e-9


class TestCertificate:
    def test_zero_matrix(self):
        cert = construct_certificate(np.zeros((3, 3)), 0.5)
        assert isinstance(cert, PowerStabilityCertificate)
        assert cert.M == pytest.approx(1.0)

    def test_normal_matrix_unit_transient(self):
        cert = construct_certificate(np.diag([0.5, 0.3]), 0.5)
        assert cert.M == pytest.approx(1.0)
        assert cert.horizon_checked == 1

    def test_jordan_block_against_brute_force(self):
        F = np.array([[0.9, 1.0], [0.0, 0.9]])
        gamma = 0.95
        cert = construct_certificate(F, gamma)
        assert isinstance(cert, PowerStabilityCertificate)
        ratios, P = [], np.eye(2)
        for k in range(2001):
            ratios.append(operator_norm(P) / gamma**k)
            P = F @ P
        assert cert.M == pytest.approx(max(ratios), rel=1e-9)

    def test_not_certifiable_above_radius(self):
        out = construct_certificate(np.diag([0.95, 0.2]), 0.9)
        assert isinstance(out, NotCertifiable)
        assert out.spectral_radius == pytest.approx(0.95)

    def test_radius_equal_gamma_normal_matrix(self):
        cert = construct_certificate(np.diag([0.9, 0.2]), 0.9)
        assert isinstance(cert, PowerStabilityCertificate)
        assert cert.M == pytest.approx(1.0)

    def test_bound_valid_on_horizon(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.integers(2, 5)
            F = rng.standard_normal((n, n))
            F *= 0.8 / max(spectral_radius(F), 1e-12)
            gamma = spectral_radius(F) * 1.05
            cert = construct_certificate(F, gamma)
            assert isinstance(cert, PowerStabilityCertificate)
            P = np.eye(n)
            for k in range(201):
                assert operator_norm(P) <= cert.M * gamma**k * (1.0 + 1e-12)
                P = F @ P

    def test_gamma_must_be_positive(self):
        with pytest.raises(InvalidParams):
            construct_certificate(np.zeros((2, 2)), 0.0)

    def test_defective_at_gamma_exhausts_horizon(self):
        # Jordan block at radius exactly gamma: ||F^k||/gamma^k grows like k
        F = np.array([[0.9, 1.0], [0.0, 0.9]])
        out = construct_certificate(F, 0.9, k_max=300)
        assert isinstance(out, NotCertifiable)
        assert "k_max" in out.reason

    def test_douglas_rank_deficient_denominator(self):
        rng = np.random.default_rng(19)
        B = np.outer(rng.standard_normal(4), rng.standard_normal(6))  # rank 1
        C0 = rng.standard_normal((6, 3))
        A = B @ C0
        out = douglas_minimal_constant(A, B)
        assert isinstance(out, DouglasFactor)
        assert np.linalg.norm(B @ out.C - A) <= 1e-8 * max(1.0, np.linalg.norm(A))
