import contextlib
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddstab import lmi, operators
from ddstab.cli import main
from ddstab.errors import DimensionMismatch, EmptyData, InvalidParams
from ddstab.informativity import sample_compatible_systems
from ddstab.lmi import LmiProblem, solve_feasibility
from ddstab.operators import (
    DEFAULT_TOL,
    DouglasFactor,
    NoFactorization,
    NotCertifiable,
    PowerStabilityCertificate,
    construct_certificate,
    douglas_minimal_constant,
    frame_bounds,
    least_certificate,
    operator_norm,
    pseudo_inverse,
    rank_at_tol,
    singular_values,
    spectral_radius,
)
from ddstab.systems import DataBatch


def reference_certificate(F, gamma, k_max):
    """(M, k0) from one SVD per power step, the loop construct_certificate
    ran before the pruned routine; None when no k0 <= k_max exists."""
    log_gamma = np.log(gamma)
    log_norms = [0.0]
    P = np.eye(F.shape[0])
    log_scale = 0.0
    for k in range(1, k_max + 1):
        P = F @ P
        s = operator_norm(P)
        if s == 0.0:
            log_norm = -np.inf
        else:
            P = P / s
            log_scale += np.log(s)
            log_norm = log_scale
        log_norms.append(log_norm)
        if log_norm <= k * log_gamma:
            M = float(np.exp(max(log_norms[r] - r * log_gamma for r in range(k))))
            return max(M, 1.0), k
    return None


def exact_certificate(F, gamma, k_max):
    """(M, k0) from exact powers, for loops whose M is too large for
    reference_certificate, whose own rounding grows with M.  F must be a
    multiple of 2^-52, so that F 2^52 is an integer matrix; gamma, like
    every float, is a dyadic rational.  The powers of the integer matrix
    are formed in integer arithmetic, and each ratio ||F^r|| / gamma^r
    rounds only in the one SVD of the power, cut to the top 80 bits of its
    largest entry, and in one division; None when no k0 <= k_max exists."""
    Fi = [[int(v) for v in row] for row in F * 2.0**52]
    assert np.array_equal(np.array(Fi, dtype=float) / 2.0**52, F)
    num, den = Fraction(gamma).as_integer_ratio()
    shift = den.bit_length() - 1  # den = 2^shift
    n = len(Fi)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    rate, M = 1, 1.0  # num^r, and the ratio 1 at r = 0
    for r in range(1, k_max + 1):
        P = [[sum(P[i][l] * Fi[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        rate *= num
        cut = max(max(abs(v) for row in P for v in row).bit_length() - 80, 0)
        top = np.array([[float(v >> cut) if v >= 0 else -float(-v >> cut) for v in row] for row in P])
        rate_cut = max(rate.bit_length() - 80, 0)
        ratio = math.ldexp(
            operator_norm(top) / float(rate >> rate_cut), cut - rate_cut + (shift - 52) * r
        )
        if ratio <= 1.0:
            return M, r
        M = max(M, ratio)
    return None


#: Radius of each fuzz_loop kind, as a multiple of gamma.
RADIUS_RANGE = {
    "near": lambda rng: 1.0 - rng.uniform(1e-3, 4e-3),
    "random": lambda rng: rng.uniform(0.2, 0.9),
    "unstable": lambda rng: rng.uniform(1.0 + 1e-6, 1.05),
    "edge": lambda rng: 1.0 + rng.uniform(1e-12, 1e-9) * rng.choice([-1.0, 1.0]),
}


def jordan_loop(n, a, b, angle=None):
    """The 2 x 2 Jordan block [[a, b], [0, a]], zero-padded to n x n, whose
    power ratios peak after about 1 / (1 - a / gamma) steps at M of about
    b / (e a (1 - a / gamma)); with ``angle``, the block times a rotation
    (4 x 4), so every power has a double top singular value and its
    Gram-power bracket stays wide."""
    J = np.array([[a, b], [0.0, a]])
    if angle is not None:
        c, s = np.cos(angle), np.sin(angle)
        J = np.kron(J, np.array([[c, -s], [s, c]]))
    F = np.zeros((n, n))
    F[: len(J), : len(J)] = J[:n, :n]
    return F


def fuzz_loop(kind, n, gamma, rng):
    """A loop of the given kind: "near" has rho just below gamma, so k0 runs
    into the hundreds; "random" has rho well below; "zero" and "nilpotent"
    reach a zero power; "unstable" has rho in (gamma, 1.05 gamma), and
    "edge" rho within 1e-9 relative of gamma, on either side; "jordan" is a
    Jordan block in a random orthonormal basis whose ratios peak after tens
    of steps, at M below a few hundred (beyond about 1e4 the reference's own
    rounding exceeds 1e-12), and for n >= 4 "paired" the block times a
    rotation (see jordan_loop)."""
    if kind == "zero":
        return np.zeros((n, n))
    if kind in ("jordan", "paired"):
        a, b = gamma * (1.0 - rng.uniform(5e-3, 5e-2)), gamma * rng.uniform(0.05, 0.5)
        if kind == "paired" and n >= 4:
            return jordan_loop(n, a, b, angle=rng.uniform(0.1, 3.0))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return Q.T @ jordan_loop(n, a, b) @ Q
    F = rng.standard_normal((n, n))
    if kind == "nilpotent":
        return np.triu(F, 1) * rng.uniform(0.1, 3.0)
    rho = spectral_radius(F)
    return F * (gamma * RADIUS_RANGE[kind](rng) / rho)


#: Every fuzz_loop kind.
KINDS = ["near", "random", "zero", "nilpotent", "unstable", "edge", "jordan", "paired"]


def frobenius_two_pass(Q):
    """The Frobenius norms of the stack Q summed as first written: the
    squares along each row, then over the rows."""
    return np.sqrt(np.add.reduce(np.add.reduce(Q * Q, axis=-1), axis=-1))


def wide_range_stack(rng):
    """A stack of 1 to 5 loops of size 1 to 8 with its rate and k_max: each
    loop of a fuzz_loop kind, a "scaled" fuzz loop times 2^(+-380..620), or a
    "steep" Jordan loop whose transient passes 2^380, so that many stacks
    have norms outside [2^-400, 2^400]."""
    n, gamma = int(rng.integers(1, 9)), float(rng.uniform(0.3, 0.99))
    loops = []
    for _ in range(int(rng.integers(1, 6))):
        kind = rng.choice(KINDS + ["scaled", "steep"])
        if kind == "steep":
            a = gamma * rng.uniform(0.05, 0.9)
            loops.append(jordan_loop(n, a, gamma * 2.0 ** rng.uniform(380, 600)))
        elif kind == "scaled":
            shift = int(rng.choice([-1, 1]) * rng.integers(380, 620))
            loops.append(fuzz_loop(rng.choice(KINDS), n, gamma, rng) * 2.0**shift)
        else:
            loops.append(fuzz_loop(kind, n, gamma, rng))
    return np.stack(loops), gamma, int(rng.choice([5, 40, 1000]))


def count_block_steps(monkeypatch, limit):
    """Patch the block helper of least_certificate to count the power steps
    it advances, failing past ``limit``; returns the running count as a
    one-element list."""
    steps = [0]
    block = operators._power_block

    def counted(F, P, count):
        steps[0] += count
        assert steps[0] <= limit, f"powered to step {steps[0]}"
        return block(F, P, count)

    monkeypatch.setattr(operators, "_power_block", counted)
    return steps


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

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
    def test_no_rows_is_empty_data(self, shape):
        with pytest.raises(EmptyData):
            frame_bounds(np.zeros(shape))


class TestPlainMatrices:
    @pytest.mark.parametrize("fn", [singular_values, rank_at_tol, frame_bounds])
    def test_rejects_non_matrix(self, fn):
        with pytest.raises(DimensionMismatch):
            fn(np.ones(3))

    def test_rank_tol_must_be_positive(self):
        """And finite: s >= nan * s[0] holds for no singular value, so a NaN
        tol would read as rank 0 rather than as an input error."""
        for fn in (rank_at_tol, frame_bounds, pseudo_inverse):
            for tol in (0.0, math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidParams):
                    fn(np.eye(2), tol=tol)


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

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="row dimensions differ"):
            douglas_minimal_constant(np.ones((3, 2)), np.ones((2, 2)))


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

    @pytest.mark.parametrize(
        "F, error",
        [(np.ones((2, 3)), DimensionMismatch), (np.diag([1.0, np.inf]), InvalidParams)],
        ids=["not-square", "non-finite"],
    )
    def test_invalid_matrix(self, F, error):
        with pytest.raises(error):
            spectral_radius(F)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 0)])
    def test_norm_of_empty_matrix_is_zero(self, shape):
        assert not np.any(operator_norm(np.zeros(shape)))

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

    @pytest.mark.parametrize("e", [*range(-300, 301, 50), 160])
    def test_huge_transient_against_brute_force(self, e):
        """[[0.5, h], [0, 0.5]] with h = 10^e at gamma = 0.9, against a 2-norm
        power loop: the same k0 and M to 1e-12 relative, also where the
        Frobenius squares of the powers overflow (h above about 1.3e154);
        at h = 1e160, M = h / 0.81 (step 2) and k0 = 639."""
        F = np.array([[0.5, 10.0**e], [0.0, 0.5]])
        P, M = np.eye(2), 1.0
        for k in range(1, 10001):
            P = F @ P
            ratio = np.linalg.norm(P, 2) / 0.9**k
            if ratio <= 1.0:
                break
            M = max(M, ratio)
        cert = construct_certificate(F, 0.9)
        assert cert.horizon_checked == k
        assert cert.M == pytest.approx(M, rel=1e-12, abs=0.0)
        if e == 160:
            assert (k, cert.M) == (639, pytest.approx(1e160 / 0.81, rel=1e-12))

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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        """A NaN gamma fails every comparison, so unchecked it runs all k_max
        powers; an infinite one certifies any loop."""
        with pytest.raises(InvalidParams, match="gamma must be finite and positive"):
            construct_certificate(np.diag([0.5, 0.3]), gamma)
        with pytest.raises(InvalidParams, match="gamma must be finite and positive"):
            least_certificate(np.diag([0.5, 0.3])[None], gamma, 100)

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


class TestLeastCertificate:
    """The one (M, k0) routine against the one-SVD-per-step reference."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.sampled_from(["near", "random", "zero", "nilpotent"]), min_size=1, max_size=4),
        st.floats(min_value=0.3, max_value=0.99),
        st.sampled_from([5, 40, 1000]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_reference(self, n, kinds, gamma, k_max, seed):
        rng = np.random.default_rng(seed)
        F = np.stack([fuzz_loop(kind, n, gamma, rng) for kind in kinds])
        expected = [reference_certificate(f, gamma, k_max) for f in F]
        least = least_certificate(F, gamma, k_max)
        if all(e is None for e in expected):
            assert least is None
            return
        index, cert = least
        M_min = min(e[0] for e in expected if e is not None)
        assert expected[index] is not None
        assert cert.horizon_checked == expected[index][1]
        assert cert.M == pytest.approx(expected[index][0], rel=1e-12, abs=0.0)
        assert cert.M == pytest.approx(M_min, rel=1e-12, abs=0.0)
        assert cert.gamma == gamma

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_jordan_loop_near_gamma(self, n):
        F = 0.9 * 0.99 * np.eye(n) + 0.2 * np.eye(n, k=1)
        M, k0 = reference_certificate(F, 0.9, 10000)
        assert k0 >= 400
        cert = construct_certificate(F, 0.9)
        assert cert.horizon_checked == k0
        assert cert.M == pytest.approx(M, rel=1e-12, abs=0.0)

    def test_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(8)
        worse, least = fuzz_loop("near", 4, 0.9, rng), fuzz_loop("nilpotent", 4, 0.9, rng)
        stack = np.stack([worse, least, worse, least])
        assert reference_certificate(least, 0.9, 100)[0] < reference_certificate(worse, 0.9, 10000)[0]
        assert least_certificate(stack, 0.9, 10000)[0] == 1
        # M = 1 ties: the zero loop and a contraction
        stack = np.stack([worse, 0.5 * np.eye(4), np.zeros((4, 4))])
        index, cert = least_certificate(stack, 0.9, 10)
        assert index == 1 and cert.M == 1.0 and cert.horizon_checked == 1

    def test_late_finisher_with_smaller_M_wins(self):
        """A loop that reaches k0 late but has the smaller M must outlast the
        early finisher's bound: a nilpotent loop with M = 8.3 at k0 = 2
        against a Jordan loop with M = 8.23 at k0 = 462."""
        early = np.array([[0.0, 8.3 * 0.9], [0.0, 0.0]])
        late = 0.9 * 0.99 * np.eye(2) + 0.2 * np.eye(2, k=1)
        M, k0 = reference_certificate(late, 0.9, 10000)
        index, cert = least_certificate(np.stack([early, late]), 0.9, 10000)
        assert index == 1 and cert.horizon_checked == k0 == 462
        assert cert.M == pytest.approx(M, rel=1e-12, abs=0.0)

    def test_empty_loop(self):
        cert = construct_certificate(np.zeros((0, 0)), 0.5)
        assert cert.M == 1.0 and cert.horizon_checked == 1

    def test_horizon_runs_out(self):
        F = fuzz_loop("near", 5, 0.9, np.random.default_rng(2))
        k0 = reference_certificate(F, 0.9, 10000)[1]
        assert least_certificate(F[None], 0.9, k0 - 1) is None
        assert least_certificate(F[None], 0.9, k0)[1].horizon_checked == k0
        assert isinstance(construct_certificate(F, 0.9, k_max=k0 - 1), NotCertifiable)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=5),
        st.floats(min_value=0.3, max_value=0.99),
        st.sampled_from([5, 40, 1000]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_least_among_loops_below_gamma(self, n, kinds, gamma, k_max, seed):
        """Loops with rho >= gamma never win: the result is the reference's
        least loop among those with rho < gamma, or None."""
        rng = np.random.default_rng(seed)
        F = np.stack([fuzz_loop(kind, n, gamma, rng) for kind in kinds])
        expected = [
            reference_certificate(f, gamma, k_max) if spectral_radius(f) < gamma else None
            for f in F
        ]
        least = least_certificate(F, gamma, k_max)
        if all(e is None for e in expected):
            assert least is None
            return
        index, cert = least
        M_min = min(e[0] for e in expected if e is not None)
        assert expected[index] is not None
        assert cert.horizon_checked == expected[index][1]
        assert cert.M == pytest.approx(expected[index][0], rel=1e-12, abs=0.0)
        assert cert.M == pytest.approx(M_min, rel=1e-12, abs=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        st.floats(min_value=0.3, max_value=0.99),
        st.sampled_from([5, 40, 1000]),
        st.sampled_from([None, 64, 512]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_winner_certificate_is_its_own(self, n, kinds, gamma, k_max, elements, seed):
        """The certificate of the winner i is bitwise construct_certificate
        of F[i] alone, also when a small block budget cuts the powers into
        blocks of one or a few steps."""
        rng = np.random.default_rng(seed)
        F = np.stack([fuzz_loop(kind, n, gamma, rng) for kind in kinds])
        with pytest.MonkeyPatch.context() as mp:
            if elements is not None:
                mp.setattr(operators, "_BLOCK_ELEMENTS", elements)
            least = least_certificate(F, gamma, k_max)
            if least is not None:
                index, cert = least
                assert construct_certificate(F[index], gamma, k_max) == cert

    @pytest.mark.parametrize("angle", [0.3, 2.0])
    def test_overlapping_brackets(self, angle):
        """A Jordan block times a rotation: its powers have a double top
        singular value, so the Gram-power brackets of the steps around its
        flat peak overlap and the SVD must settle them."""
        F = jordan_loop(6, 0.9 * 0.995, 0.2, angle=angle)
        M, k0 = reference_certificate(F, 0.9, 10000)
        _, cert = least_certificate(F[None], 0.9, 10000)
        assert cert.horizon_checked == k0
        assert cert.M == pytest.approx(M, rel=1e-12, abs=0.0)

    def test_radius_at_gamma_never_wins(self):
        """A loop with rho exactly gamma can reach k0 (diag(0.9, 0.2) at
        gamma = 0.9 has k0 = 1 and M = 1, as construct_certificate reports),
        but its rho is not below gamma, so the ranking passes over it."""
        at_gamma = np.diag([0.9, 0.2])
        other = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert construct_certificate(at_gamma, 0.9).M == 1.0
        index, cert = least_certificate(np.stack([at_gamma, other]), 0.9, 100)
        assert index == 1 and cert == construct_certificate(other, 0.9, 100)
        assert least_certificate(at_gamma[None], 0.9, 100) is None

    def test_large_M_against_exact_powers(self):
        """A 6 x 6 Jordan block in a random orthonormal basis at gamma =
        0.3125: its power ratios peak at M = 2.09e5 and first dip below 1 at
        k0 = 743.  Here reference_certificate is itself off by about M eps,
        so the exact oracle judges.  k0 is exact; M carries the rounding of
        743 double-precision matrix products of a loop with this transient,
        8.1e-12 relative on this loop (the chain that rescaled every power
        to unit Frobenius norm was 3.5e-12 off), so it is held to 2e-11."""
        gamma = 0.3125
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
        J = gamma * (1 - 0.03366) * np.eye(6) + 0.55 * gamma * np.eye(6, k=1)
        F = np.round(Q.T @ J @ Q * 2.0**52) / 2.0**52
        M, k0 = exact_certificate(F, gamma, 10000)
        assert k0 == 743 and M == pytest.approx(2.087e5, rel=1e-3)
        index, cert = least_certificate(F[None], gamma, 10000)
        assert index == 0 and cert.horizon_checked == k0
        assert cert.M == pytest.approx(M, rel=2e-11, abs=0.0)
        assert construct_certificate(F, gamma) == cert

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_exact_oracle_agrees_on_small_M(self, n):
        """Where reference_certificate is accurate, the exact oracle agrees
        with it, and least_certificate with both."""
        rng = np.random.default_rng(n)
        for kind in ("near", "random", "jordan", "nilpotent"):
            F = np.round(fuzz_loop(kind, n, 0.9, rng) * 2.0**52) / 2.0**52
            M, k0 = exact_certificate(F, 0.9, 10000)
            assert reference_certificate(F, 0.9, 10000)[1] == k0
            assert reference_certificate(F, 0.9, 10000)[0] == pytest.approx(M, rel=1e-12)
            cert = least_certificate(F[None], 0.9, 10000)[1]
            assert cert.horizon_checked == k0
            assert cert.M == pytest.approx(M, rel=1e-12, abs=0.0)

    def test_huge_loops_stay_in_range(self):
        """A loop of norm 2^100 overflows a block of raw powers, and one of
        2^210 leaves the range of exact rescaling at its square: the range
        guard forms those blocks again one step at a time.  The contraction
        wins with M = 1 at k0 = 1, with no warning and nothing non-finite
        in the result, and
        the nilpotent loop 2^210 N of 3 x 3 gets M = 2^420 / gamma^2 at
        k0 = 3, to the rounding of exp(log M) at log M = 291."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = np.stack([2.0**100 * np.eye(4), 0.5 * np.eye(4)])
            index, cert = least_certificate(F, 0.9, 10000)
            assert index == 1 and cert.M == 1.0 and cert.horizon_checked == 1
            assert least_certificate(F[:1], 0.9, 10000) is None
            cert = construct_certificate(2.0**210 * np.eye(3, k=1), 0.9)
        assert cert.horizon_checked == 3
        assert cert.M == pytest.approx(2.0**420 / 0.81, rel=1e-13, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        st.floats(min_value=0.3, max_value=0.99),
        st.sampled_from([5, 40, 1000]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bits_do_not_depend_on_block_breaks(self, n, kinds, gamma, k_max, seed):
        """Blocks of one step, blocks broken at other steps, and a range so
        narrow that most blocks are formed again one step at a time all give
        the bits of the default blocks."""
        rng = np.random.default_rng(seed)
        F = np.stack([fuzz_loop(kind, n, gamma, rng) for kind in kinds])
        expected = least_certificate(F, gamma, k_max)
        for elements, narrow in [(1, None), (3 * len(F) * n * n, None), (None, 4.0)]:
            with pytest.MonkeyPatch.context() as mp:
                if elements is not None:
                    mp.setattr(operators, "_BLOCK_ELEMENTS", elements)
                if narrow is not None:
                    mp.setattr(operators, "_RANGE", narrow)
                assert least_certificate(F, gamma, k_max) == expected

    def test_bits_do_not_depend_on_the_frobenius_sum(self, monkeypatch):
        """1,000 seeded wide_range_stack stacks, which hold zero, nilpotent,
        Jordan and rotated Jordan loops and norms outside [2^-400, 2^400]:
        least_certificate of the stack and construct_certificate of its
        first loop give the same bits with the two-pass Frobenius sum as
        with the one-contraction sum."""
        rng = np.random.default_rng(1500)
        one_pass, outside = operators._frobenius, 0
        for _ in range(1000):
            F, gamma, k_max = wide_range_stack(rng)
            with np.errstate(over="ignore"):
                fro = frobenius_two_pass(F)
            outside += bool(((fro > 0.0) & (fro < 2.0**-400) | (fro > 2.0**400)).any())
            expected = least_certificate(F, gamma, k_max), construct_certificate(F[0], gamma, k_max)
            monkeypatch.setattr(operators, "_frobenius", frobenius_two_pass)
            two_pass = least_certificate(F, gamma, k_max), construct_certificate(F[0], gamma, k_max)
            monkeypatch.setattr(operators, "_frobenius", one_pass)
            assert two_pass == expected
        assert outside >= 300

    def test_unstable_loops_leave_at_first_checkpoint(self, monkeypatch):
        """An all-unstable stack returns None without powering past the first
        spectral-radius checkpoint, however large k_max is."""
        rng = np.random.default_rng(5)
        F = np.stack([fuzz_loop("unstable", 6, 0.9, rng) for _ in range(3)])
        F[0] = 0.9 * 1.001 * np.eye(6) + 0.5 * np.eye(6, k=1)  # a slow Jordan transient
        steps = count_block_steps(monkeypatch, limit=operators._RADIUS_CHECKPOINT)
        assert least_certificate(F, 0.9, 10**6) is None
        assert steps[0] > 0

    def test_one_radius_for_a_loop_past_the_checkpoint(self, monkeypatch):
        """A loop that survives the radius check at step 64 has rho < gamma,
        so no radius is taken after it: 0.891 I + 0.2 N at gamma = 0.9
        reaches k0 = 462 with one spectral_radius call."""
        calls = []
        radius = operators.spectral_radius
        monkeypatch.setattr(operators, "spectral_radius", lambda F: calls.append(F) or radius(F))
        F = 0.9 * 0.99 * np.eye(2) + 0.2 * np.eye(2, k=1)
        index, cert = least_certificate(F[None], 0.9, 10**4)
        assert (index, cert.horizon_checked) == (0, 462)
        assert len(calls) == 1



# The three ways the rank cut was written before _rank_count became the one
# routine that applies it, kept here as the reference for that routine.


def old_rank(s, tol):
    """The count of a row of singular values."""
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s >= tol * s[0]))


def old_pseudo_inverse(M, tol):
    """pseudo_inverse with its own mask (s >= tol * top) & (top > 0)."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    top = s[..., :1]
    keep = (s >= tol * top) & (top > 0.0)
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    pinv = (np.swapaxes(Vt, -1, -2) * s_inv[..., None, :]) @ np.swapaxes(U, -1, -2)
    return np.where(top[..., None] > 0.0, pinv, 0.0)


def pbh_pencil_values(A, B, modes):
    n = A.shape[0]
    pencil = np.concatenate(
        [A - modes[:, None, None] * np.eye(n), np.broadcast_to(B, (modes.size,) + B.shape)], axis=2
    )
    return np.linalg.svd(pencil, compute_uv=False)


def old_unreachable_modes(A, B, modes, tol):
    """The PBH cut s[n-1] < tol * s[0], or s[0] = 0, of each mode's pencil."""
    n = A.shape[0]
    if modes.size == 0:
        return modes
    s = pbh_pencil_values(A, B, modes)
    return modes[(s[:, n - 1] < tol * s[:, 0]) | (s[:, 0] == 0.0)]


def old_point_family(W):
    """W = [Xi0; Ups0] identifies the system: rint(trace(W W^+)) = n + m."""
    return np.rint(np.trace(W @ old_pseudo_inverse(W, DEFAULT_TOL))) == W.shape[0]


def boundary_tol(s, row, col, side):
    """A tol with tol * s[row, 0] within an ulp of s[row, col]: the ratio
    itself, or one ulp below or above it (``side`` -1, 0 or 1)."""
    ratio = s[row, col] / s[row, 0] if s[row, 0] > 0.0 else 0.0
    ratio = ratio if ratio > 0.0 else DEFAULT_TOL
    return {-1: np.nextafter(ratio, 0.0), 0: ratio, 1: np.nextafter(ratio, np.inf)}[side]


def rank_fuzz_slice(kind, p, q, rng):
    if kind == "zero":
        return np.zeros((p, q))
    if kind == "deficient":
        r = int(rng.integers(0, min(p, q)))
        return rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
    if kind == "graded":  # singular values over twelve decades
        U, _ = np.linalg.qr(rng.standard_normal((p, p)))
        V, _ = np.linalg.qr(rng.standard_normal((q, q)))
        k = min(p, q)
        return (U[:, :k] * 10.0 ** -np.sort(rng.uniform(0, 12, k))) @ V[:, :k].T
    return rng.standard_normal((p, q))


class TestOneRankCut:
    """pseudo_inverse, the PBH test and the point-family decision take the
    cut from _rank_count and decide as their own formulas did."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(["full", "deficient", "zero", "graded"]), min_size=1, max_size=4),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**16),
        st.sampled_from([-1, 0, 1]),
        st.integers(0, 2**32 - 1),
    )
    def test_pseudo_inverse_and_counts(self, kinds, p, q, pick, side, seed):
        rng = np.random.default_rng(seed)
        M = np.stack([rank_fuzz_slice(kind, p, q, rng) for kind in kinds])
        s = np.linalg.svd(M, full_matrices=False)[1]
        tol = boundary_tol(s, pick % len(kinds), pick % s.shape[1], side)
        assert pseudo_inverse(M, tol).tobytes() == old_pseudo_inverse(M, tol).tobytes()
        for slice_ in M:
            assert pseudo_inverse(slice_, tol).tobytes() == old_pseudo_inverse(slice_, tol).tobytes()
        counts = operators._rank_count(s, tol)
        assert counts.shape == (len(kinds),)
        assert counts.tolist() == [old_rank(row, tol) for row in s]
        assert [operators._rank_count(row, tol) for row in s] == counts.tolist()
        assert rank_at_tol(M[0], tol) == old_rank(singular_values(M[0]), tol)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(0, 3),
        st.integers(0, 5),
        st.sampled_from(["random", "zero"]),
        st.integers(0, 2**16),
        st.sampled_from([-1, 0, 1]),
        st.integers(0, 2**32 - 1),
    )
    def test_unreachable_modes(self, n, q, hidden, kind, pick, side, seed):
        """The last ``hidden`` coordinates are out of reach of B before a
        change of basis, so their modes fail the PBH test up to rounding;
        tol sits at the cut of one mode's pencil."""
        rng = np.random.default_rng(seed)
        A, B = np.zeros((n, n)), np.zeros((n, q))
        if kind == "random":
            h = min(hidden, n)
            A, B = rng.standard_normal((n, n)), rng.standard_normal((n, q))
            A[n - h :, : n - h] = 0.0
            B[n - h :] = 0.0
            T = rng.standard_normal((n, n)) + n * np.eye(n)
            A, B = T @ A @ np.linalg.inv(T), T @ B
        modes = np.linalg.eigvals(A)
        s = pbh_pencil_values(A, B, modes)
        tol = boundary_tol(s, pick % n, n - 1, side)
        np.testing.assert_array_equal(
            lmi._unreachable_modes(A, B, modes, tol), old_unreachable_modes(A, B, modes, tol)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 2),
        st.integers(0, 4),
        st.sampled_from(["random", "deficient", "zero", "edge"]),
        st.sampled_from([-1, 0, 1]),
        st.integers(0, 2**32 - 1),
    )
    def test_point_family(self, n, m, extra, kind, side, seed):
        """W = [Xi0; Ups0] with about n + m samples.  An "edge" W is diagonal,
        so its singular values are its entries: the last one lies one ulp
        below, at or one ulp above DEFAULT_TOL times the first."""
        rng = np.random.default_rng(seed)
        k = n + m
        if kind == "edge":
            d = np.sort(rng.uniform(0.5, 2.0, k))[::-1]
            cut = DEFAULT_TOL * d[0]
            if k > 1:
                d[-1] = np.nextafter(cut, side * np.inf) if side else cut
            W = np.zeros((k, k + extra))
            W[np.arange(k), np.arange(k)] = d
        else:
            W = rank_fuzz_slice(kind, k, max(1, k + extra - 1), rng)
        Xi0, Ups0, Xi1 = W[:n], W[n:], rng.standard_normal((n, W.shape[1]))
        AB = sample_compatible_systems(Xi0, Xi1, Ups0, 3, 1.0, seed)
        expected = Xi1 @ old_pseudo_inverse(W, DEFAULT_TOL)
        assert AB.shape == (3,) + expected.shape
        point = all(slice_.tobytes() == expected.tobytes() for slice_ in AB)
        assert point == old_point_family(W)
        if kind == "edge" and k > 1:
            assert point == (side >= 0)


def scan_stack(tmp_path, n, seed, minimal):
    """The stack of loops Xi1 R that solve_feasibility ranks on
    ``generate --scenario random-lti`` data at N = 2(n + 1), or at minimal
    N = n + 1 with radius 2.0, with its rate and k_max."""
    path = tmp_path / f"lti-{n}-{seed}-{minimal}.json"
    argv = ["generate", "--scenario", "random-lti", "--n", str(n), "--seed", str(seed)]
    if minimal:
        argv += ["--samples", str(n + 1), "--radius", "2.0"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(path)]) == 0
    batch, stacks = DataBatch.load(path), []

    def ranked(*args):
        stacks.append(args)
        return least_certificate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmi, "least_certificate", ranked)
        solve_feasibility(LmiProblem(Xi0=batch.Xi0, Xi1=batch.Xi1, gamma=0.9))
    (stack,) = stacks
    return stack


class TestLeastCertificateOnScanStacks:
    """least_certificate at the size of the benchmark: the 40 loops of the
    Riccati scan on random-LTI data, 12 x 12 to 20 x 20, whose candidates
    have nearly equal M and k0 up to a few hundred."""

    @pytest.mark.parametrize(
        "n, seed, minimal",
        [(12, 0, False), (16, 1, False), (20, 0, False)]
        + [(12, 1, True), (16, 0, True), (20, 1, True)],
    )
    def test_bits_do_not_depend_on_block_breaks(self, tmp_path, n, seed, minimal):
        """The same (index, M bits, k0) with blocks of one step, with a
        budget of a few steps for a lone loop, and with the default blocks;
        the winner's certificate is construct_certificate of its loop."""
        F, gamma, k_max = scan_stack(tmp_path, n, seed, minimal)
        assert len(F) == 40
        expected = least_certificate(F, gamma, k_max)
        assert expected is not None
        index, cert = expected
        assert construct_certificate(F[index], gamma, k_max) == cert
        for elements in (1, 7 * n * n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operators, "_BLOCK_ELEMENTS", elements)
                assert least_certificate(F, gamma, k_max) == expected
