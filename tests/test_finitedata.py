import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddstab.errors import CutoffExceedsTruncation, DimensionMismatch, InvalidParams
from ddstab.finitedata import (
    Decomposition,
    cascade_decomposition,
    finite_informative,
    lift_gain,
    mode_cutoff,
    project_data,
    verify_on_compatible_plus,
)
from ddstab.informativity import GainResult, synthesize_gain
from ddstab.lmi import Infeasible, LmiProblem, LmiSolution, solve_feasibility
from ddstab.noise import NotApplicable, robust_stabilization
from ddstab.operators import (
    DEFAULT_TOL,
    NotCertifiable,
    PowerStabilityCertificate,
    _rank_count,
    construct_certificate,
    pseudo_inverse,
    spectral_radius,
)
from ddstab.systems import (
    REFERENCE_CASCADE_GAIN_PLUS,
    DataBatch,
    LinearSystem,
    assemble_single_trajectory,
    default_cascade_params,
    reference_cascade_scenario,
    simulate,
)


@pytest.fixture(scope="module")
def reference_setup():
    sys_, batch, params = reference_cascade_scenario(n_modes=50, n_samples=5)
    dec = cascade_decomposition(params, 0.89, 0.1, 0.0)
    return sys_, batch, params, dec


class TestModeCutoff:
    def test_reference_bounds(self):
        assert mode_cutoff(0.1, 0.0, 0.05, 0.89) == 2

    def test_near_unit_bound(self):
        assert mode_cutoff(0.1, 0.0, 0.05, 1.0 - 1e-12) in (0, 1)

    def test_monotone_in_diffusivity(self):
        prev = None
        for a0 in (0.05, 0.1, 0.2, 0.4, 0.8):
            n0 = mode_cutoff(a0, 0.0, 0.05, 0.89)
            if prev is not None:
                assert n0 <= prev
            prev = n0

    def test_definition_minimality(self):
        for a0, b0, tau, gm in [(0.1, 0.0, 0.05, 0.89), (0.3, 0.2, 0.1, 0.5), (1.0, -1.0, 0.01, 0.99)]:
            n0 = mode_cutoff(a0, b0, tau, gm)
            rhs = (math.log(1.0 / gm) + b0 * tau) / (a0 * math.pi**2 * tau)
            assert n0**2 >= rhs
            if n0 > 0:
                assert (n0 - 1) ** 2 < rhs

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(0, 3000),
        ulps=st.sampled_from([-1, 0, 1]),
        b0=st.floats(-2.0, 2.0),
        tau=st.floats(0.01, 1.0),
        gamma_minus=st.floats(0.05, 0.99),
    )
    def test_matches_brute_force_near_squares(self, k, ulps, b0, tau, gamma_minus):
        """mode_cutoff is min{n >= 0 : n^2 >= rhs}, also where rhs is an exact
        square or 1 ulp from one: a0 is solved for rhs = k^2 (moved by
        ``ulps``) and nudged by ulps of its own until the rhs the function
        forms hits that target, where it can."""
        log_rate = math.log(1.0 / gamma_minus) + b0 * tau
        target = math.nextafter(float(k * k), ulps * math.inf) if ulps else float(k * k)
        assume(log_rate > 0.0 and math.pi**2 * tau * target > 0.0)

        def rhs_of(a0):
            return log_rate / (a0 * math.pi**2 * tau)

        a0 = log_rate / (math.pi**2 * tau * target)
        assume(a0 < math.inf)
        for _ in range(8):
            rhs = rhs_of(a0)
            if rhs == target:
                break
            a0 = math.nextafter(a0, math.inf if rhs > target else 0.0)
        rhs, n = rhs_of(a0), 0
        while n * n < rhs:
            n += 1
        assert mode_cutoff(a0, b0, tau, gamma_minus) == n

    def test_param_guards(self):
        with pytest.raises(InvalidParams):
            mode_cutoff(0.0, 0.0, 0.05, 0.9)
        with pytest.raises(InvalidParams):
            mode_cutoff(0.1, 0.0, 0.05, 1.0)

    @pytest.mark.parametrize(
        "a0, b0, tau, gamma_minus",
        [
            (math.nan, 0.0, 0.05, 0.89),
            (math.inf, 0.0, 0.05, 0.89),
            (0.1, math.nan, 0.05, 0.89),
            (0.1, math.inf, 0.05, 0.89),
            (0.1, -math.inf, 0.05, 0.89),
            (0.1, 0.0, math.nan, 0.89),
            (0.1, 0.0, math.inf, 0.89),
            (0.1, 1e308, 10.0, 0.89),  # b0 tau overflows
            (1e-200, 0.0, 1e-200, 0.89),  # a0 tau underflows
            (0.1, 0.0, 0.05, 5e-324),  # log(1 / gamma_minus) overflows
        ],
    )
    def test_non_finite_bounds_rejected(self, a0, b0, tau, gamma_minus):
        with pytest.raises(InvalidParams):
            mode_cutoff(a0, b0, tau, gamma_minus)


class TestCascadeDecomposition:
    def test_reference_dimensions(self, reference_setup):
        _, _, _, dec = reference_setup
        assert dec.n_plus == 4  # head block of 2 plus 2 retained modes
        assert dec.n == 52

    def test_projection_idempotent_exact(self, reference_setup):
        _, batch, _, dec = reference_setup
        plus = project_data(batch, dec)
        again = project_data(plus, Decomposition(dec.n_plus, dec.n_plus))
        for name in ("x1", "x0", "u0"):
            assert np.array_equal(getattr(again, name), getattr(plus, name))

    def test_invariance_of_tail(self, reference_setup):
        sys_, _, _, dec = reference_setup
        assert not sys_.A[: dec.n_plus, dec.n_plus :].any()

    def test_tail_radius_certified(self):
        params = default_cascade_params(n_modes=10)
        # true tail decay exp(lambda_2 tau) must sit below the declared bound
        tail = math.exp(params.eigenvalue(2) * params.tau)
        assert tail == pytest.approx(math.exp(-(0.8 * math.pi**2 + 0.1) * 0.05), rel=1e-12)
        assert tail == pytest.approx(0.6705, abs=1e-4)
        assert tail <= 0.89
        # and the bound-derived cutoff covers it: exp(lambda_2(a0, b0) tau) <= 0.89
        assert math.exp((-0.1 * math.pi**2 * 4 + 0.0) * 0.05) == pytest.approx(0.8209, abs=1e-4)

    def test_zero_cutoff_head_only(self):
        params = default_cascade_params(n_modes=5)
        dec = cascade_decomposition(params, 0.995, 10.0, 0.0)
        assert dec.n_plus == 2 + mode_cutoff(10.0, 0.0, 0.05, 0.995)
        assert dec.n_plus <= 3

    def test_cutoff_exceeds_truncation(self):
        params = default_cascade_params(n_modes=1)
        with pytest.raises(CutoffExceedsTruncation):
            cascade_decomposition(params, 0.89, 0.1, 0.0)

    @pytest.mark.parametrize("n_plus", [-1, 0, 4])
    def test_n_plus_out_of_range(self, n_plus):
        with pytest.raises(CutoffExceedsTruncation):
            Decomposition(3, n_plus)

    def test_bounds_not_covering_instance(self):
        params = default_cascade_params(n_modes=10)
        # claiming much faster diffusion than true makes the tail check fail
        with pytest.raises(InvalidParams):
            cascade_decomposition(params, 0.2, 5.0, 0.0)


class TestProjectData:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(0)
        batch = DataBatch(
            x1=rng.standard_normal((4, 3)),
            x0=rng.standard_normal((4, 3)),
            u0=rng.standard_normal((4, 1)),
        )
        pd = project_data(batch, Decomposition(3, 3))
        assert np.array_equal(pd.Xi1, batch.Xi1)
        assert np.array_equal(pd.Ups0, batch.Ups0)

    def test_reference_shapes(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        assert pd.Xi1.shape == (4, 5)
        assert pd.Xi0.shape == (4, 5)

    def test_projected_consistency(self, reference_setup):
        sys_, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        A_plus = sys_.A[:4, :4]
        B_plus = sys_.B[:4]
        res = np.linalg.norm(A_plus @ pd.Xi0 + B_plus @ pd.Ups0 - pd.Xi1)
        assert res <= 1e-10 * (1 + np.linalg.norm(pd.Xi1))

    def test_dim_mismatch(self, reference_setup):
        _, batch, _, _ = reference_setup
        with pytest.raises(DimensionMismatch):
            project_data(batch, Decomposition(3, 3))


class TestFiniteInformative:
    def test_reference_instance(self, reference_setup):
        sys_, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        result = finite_informative(pd, 0.9, 0.89)
        assert isinstance(result, GainResult)
        assert result.achieved_radius <= 0.9
        A_plus, B_plus = sys_.A[:4, :4], sys_.B[:4]
        assert spectral_radius(A_plus + B_plus @ result.K) <= 0.9 + 1e-9

    def test_rank_deficient_projected_data(self):
        x0 = np.array([[1.0, 2.0], [2.0, 4.0]])  # proportional samples
        pd = DataBatch(x1=np.zeros((2, 2)), x0=x0, u0=np.zeros((2, 1)))
        result = finite_informative(pd, 0.9, 0.5)
        assert isinstance(result, Infeasible)
        assert result.reason == "rank" and result.rank == 1

    def test_uncontrollable_unstable_block(self):
        # identity data with an expanding map and no input authority
        pd = DataBatch(x1=1.1 * np.eye(2), x0=np.eye(2), u0=np.zeros((2, 1)))
        result = finite_informative(pd, 0.95, 0.5)
        assert isinstance(result, Infeasible)
        assert result.reason == "pbh" and result.mode == pytest.approx(1.1)
        assert result.best_margin == pytest.approx(-1.0 / (1.0 + 1.1**2))

    def test_gamma_ordering_guard(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        with pytest.raises(InvalidParams):
            finite_informative(pd, 0.5, 0.89)

    def test_margin_truncation_invariance(self):
        margins = []
        for n_modes in (10, 50):
            _, batch, params = reference_cascade_scenario(n_modes=n_modes, n_samples=5)
            dec = cascade_decomposition(params, 0.89, 0.1, 0.0)
            result = finite_informative(project_data(batch, dec), 0.9, 0.89)
            margins.append(result.lmi_margin)
        assert abs(margins[0] - margins[1]) < 1e-10

    def test_right_inverse_search_agrees_with_lmi(self):
        # randomized one-sided cross-check: if some right inverse already puts
        # the reconstructed loop strictly inside gamma, the LMI must be feasible
        rng = np.random.default_rng(17)
        gamma = 0.9
        found = 0
        for _ in range(12):
            Xi0p = rng.standard_normal((3, 6))
            Xi1p = rng.standard_normal((3, 6))
            R0 = pseudo_inverse(Xi0p)
            P = np.eye(6) - R0 @ Xi0p
            best = min(
                spectral_radius(Xi1p @ (R0 + P @ (rng.standard_normal((6, 3)) * s)))
                for _ in range(300)
                for s in (0.1, 1.0)
            )
            if best < gamma * (1 - 1e-6):
                found += 1
                sol = solve_feasibility(LmiProblem(Xi0=Xi0p, Xi1=Xi1p, gamma=gamma))
                assert isinstance(sol, LmiSolution)
        assert found > 0  # the check must have exercised the implication


class TestLiftGain:
    def test_identity_decomposition(self):
        K_plus = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(lift_gain(K_plus, Decomposition(3, 3)), K_plus)

    def test_reference_gain_lifts_with_zero_tail(self, reference_setup):
        _, _, _, dec = reference_setup
        K = lift_gain(REFERENCE_CASCADE_GAIN_PLUS, dec)
        assert K.shape == (1, 52)
        assert np.array_equal(K[:, :4], REFERENCE_CASCADE_GAIN_PLUS)
        # the padding is +0.0, not -0.0 from a product with zeros
        assert not K[:, 4:].any() and not np.signbit(K[:, 4:]).any()

    def test_zero_gain(self, reference_setup):
        _, _, _, dec = reference_setup
        assert not lift_gain(np.zeros((1, 4)), dec).any()

    def test_wrong_column_count_rejected(self):
        with pytest.raises(DimensionMismatch, match="K_plus has 2 columns, expected 3"):
            lift_gain(np.ones((1, 2)), Decomposition(5, 3))


@pytest.fixture(scope="module")
def underdetermined_cases():
    """Random-LTI single trajectories with N from n to n + m - 1 samples, so
    [Xi0; Ups0] has more rows than columns and the compatible family is not
    one system: m 2-4, n 2-16, open-loop radius 0.8-2.0.  The informative
    ones, with their synthesized results at gamma = 0.9."""
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(600):
        n, m = int(rng.integers(2, 17)), int(rng.integers(2, 5))
        N = int(rng.integers(n, n + m))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.8, 2.0) / spectral_radius(A)
        B = rng.standard_normal((n, m))
        inputs = [rng.standard_normal(m) for _ in range(N)]
        traj = simulate(LinearSystem(A=A, B=B), rng.standard_normal(n), inputs)
        batch = assemble_single_trajectory(traj, inputs)
        result = synthesize_gain(batch, 0.9)
        if isinstance(result, GainResult):
            cases.append((batch, result))
    return cases


def range_defect(batch, K):
    """||(I - P) [I; K]|| / ||[I; K]||, P the projector onto Ran [Xi0; Ups0]
    at the DEFAULT_TOL cut, from the complement of a full SVD."""
    W = np.vstack([batch.Xi0, batch.Ups0])
    U, s, _ = np.linalg.svd(W)
    rank = _rank_count(s, DEFAULT_TOL)
    L = np.vstack([np.eye(batch.n), K])
    return np.linalg.norm(U[:, rank:].T @ L, 2) / np.linalg.norm(L, 2)


def assert_offending(batch, K, report):
    """The reported system fits the data to 1e-12 ||[A B]|| ||W|| and has
    the reported loop radius, above gamma = 0.9."""
    A, B = report.worst_sample
    AB, W = np.hstack([A, B]), np.vstack([batch.Xi0, batch.Ups0])
    residual = np.linalg.norm(AB @ W - batch.Xi1, 2)
    assert residual <= 1e-12 * np.linalg.norm(AB, 2) * np.linalg.norm(W, 2)
    radius = spectral_radius(A + B @ K)
    assert radius == pytest.approx(report.worst_radius, rel=1e-9)
    assert radius > 0.9 and report.failures == 1


class TestVerifyOnCompatiblePlus:
    def test_gains_on_the_range_pass_with_the_synthesis_radius(self, underdetermined_cases):
        """A synthesized K = Ups0 R has [I; K] = W R in Ran W, so every
        compatible system has the synthesized loop Xi1 R."""
        assert len(underdetermined_cases) >= 300
        for batch, result in underdetermined_cases:
            report = verify_on_compatible_plus(batch, result.K, 0.9, trials=3)
            assert report.failures == 0
            assert report.worst_radius == pytest.approx(result.achieved_radius, rel=1e-5)

    def test_gains_off_the_range_fail_with_a_compatible_system(self, underdetermined_cases):
        """Synthesized gains moved by 1e-8 to 1e-1 of ||[I; K]||: each one
        clearly off Ran W (defect above twice the cut; the band around the
        cut is left to rounding) is defeated by the system reported."""
        rng = np.random.default_rng(21)
        off = 0
        for batch, result in underdetermined_cases:
            for rel in 10.0 ** rng.uniform(-8, -1, 2):
                G = rng.standard_normal(result.K.shape)
                scale = rel * np.linalg.norm(np.vstack([np.eye(batch.n), result.K]), 2)
                K = result.K + scale * G / np.linalg.norm(G, 2)
                if range_defect(batch, K) > 2 * DEFAULT_TOL:
                    off += 1
                    assert_offending(batch, K, verify_on_compatible_plus(batch, K, 0.9, trials=2))
        assert off >= len(underdetermined_cases)

    def test_draws_nothing(self, underdetermined_cases, reference_setup, monkeypatch):
        """No stream is made, where the family is one system or not."""
        def no_stream(*args, **kwargs):
            raise AssertionError("verify drew from a random stream")

        monkeypatch.setattr(np.random, "default_rng", no_stream)
        batch, result = underdetermined_cases[0]
        assert verify_on_compatible_plus(batch, result.K, 0.9, trials=5, seed=3).failures == 0
        K = result.K + 0.1 * np.ones_like(result.K)
        assert verify_on_compatible_plus(batch, K, 0.9, trials=5, seed=3).failures == 1
        _, cascade, _, dec = reference_setup
        pd = project_data(cascade, dec)
        assert verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, 0.9, 5).failures == 0

    def test_square_family_is_singleton(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        report = verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, 0.9, trials=20, seed=0)
        assert report.failures == 0
        # W = [Xi0; Ups0] is 5 x 5 and invertible: its one system is reported
        W = np.vstack([pd.Xi0, pd.Ups0])
        A, B = report.worst_sample
        assert np.allclose(np.hstack([A, B]), np.linalg.solve(W.T, pd.Xi1.T).T, atol=1e-9)
        loop = A + B @ np.atleast_2d(REFERENCE_CASCADE_GAIN_PLUS)
        assert report.worst_radius == spectral_radius(loop) <= 0.9

    def test_reference_gain_family(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        report = verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, 0.9, trials=200, seed=0)
        assert report.failures == 0
        assert report.worst_radius <= 0.9 + 1e-6

    @pytest.mark.parametrize("trials", [0, 1, 200])
    def test_trial_count_leaves_the_verdict(self, reference_setup, trials):
        """The family is decided once: every count reports the decided system,
        and K+ = 0 fails with the radius of A+ even at trials = 0."""
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        gain = verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, 0.9, trials=trials)
        A, B = gain.worst_sample
        loop = A + B @ np.atleast_2d(REFERENCE_CASCADE_GAIN_PLUS)
        assert gain.failures == 0 and gain.worst_radius == spectral_radius(loop) < 0.9
        zero = verify_on_compatible_plus(pd, np.zeros((1, 4)), 0.9, trials=trials)
        A, _ = zero.worst_sample
        assert zero.failures == 1 and zero.worst_radius == spectral_radius(A)
        assert zero.worst_radius == pytest.approx(1.118034, abs=1e-6)

    @pytest.mark.parametrize(
        "kwargs", [dict(trials=-1), dict(seed=-1), dict(scale=0.0)], ids=["trials", "seed", "scale"]
    )
    def test_unused_arguments_are_checked(self, reference_setup, kwargs):
        _, batch, _, dec = reference_setup
        args = {"trials": 5, **kwargs}
        with pytest.raises(InvalidParams):
            verify_on_compatible_plus(project_data(batch, dec), REFERENCE_CASCADE_GAIN_PLUS, 0.9, **args)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -0.5])
    def test_gamma_must_be_finite_and_positive(self, reference_setup, gamma):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        with pytest.raises(InvalidParams):
            verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, gamma, trials=5)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 4), (1, 4, 1)])
    def test_gain_must_be_m_by_n(self, reference_setup, shape):
        """A gain of the wrong shape is a dimension error, checked first."""
        _, batch, _, dec = reference_setup
        message = re.escape(f"gain must be m x n = (1, 4), got {shape}")
        with pytest.raises(DimensionMismatch, match=message):
            verify_on_compatible_plus(project_data(batch, dec), np.zeros(shape), -1.0, trials=-1)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")])
    def test_gain_must_be_finite(self, reference_setup, entry):
        """A non-finite gain is an input error, not a failing gain: its SVD
        would not converge."""
        _, batch, _, dec = reference_setup
        K = np.atleast_2d(REFERENCE_CASCADE_GAIN_PLUS).copy()
        K[0, 1] = entry
        with pytest.raises(InvalidParams, match="finite"):
            verify_on_compatible_plus(project_data(batch, dec), K, 0.9, trials=5)

    def test_synthesized_gain_against_sampled_full_systems(self, reference_setup):
        # lift the synthesized gain and close the loop on full systems whose
        # tail blocks are arbitrary but contract at the declared rate
        sys_, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        result = finite_informative(pd, 0.9, 0.89)
        K = lift_gain(result.K, dec)
        rng = np.random.default_rng(0)
        n, npl = 52, 4
        for _ in range(25):
            A_minus = rng.standard_normal((n - npl, n - npl))
            A_minus *= 0.89 * 0.999 / max(spectral_radius(A_minus), 1e-12)
            A = np.zeros((n, n))
            A[:npl, :npl] = sys_.A[:npl, :npl]
            A[npl:, :npl] = rng.standard_normal((n - npl, npl))
            A[npl:, npl:] = A_minus
            B = np.vstack([sys_.B[:npl], rng.standard_normal((n - npl, 1))])
            loop = A + B @ K
            assert spectral_radius(loop) <= 0.9 + 1e-6


class TestClosedLoopFull:
    def test_zero_gain_stable_system(self):
        sys_ = LinearSystem(A=np.diag([0.5, 0.2]), B=np.ones((2, 1)))
        cert = construct_certificate(sys_.A + sys_.B @ np.zeros((1, 2)), 0.6)
        assert isinstance(cert, PowerStabilityCertificate)

    def test_reference_lifted_gain(self, reference_setup):
        sys_, _, _, dec = reference_setup
        K = lift_gain(REFERENCE_CASCADE_GAIN_PLUS, dec)
        cert = construct_certificate(sys_.A + sys_.B @ K, 0.9)
        assert isinstance(cert, PowerStabilityCertificate)
        assert spectral_radius(sys_.A + sys_.B @ K) <= 0.9

    def test_tail_radius_value(self, reference_setup):
        sys_, _, params, dec = reference_setup
        # the block-triangular loop radius is the max of head loop and tail
        tail = math.exp(params.eigenvalue(2) * params.tau)
        assert tail == pytest.approx(0.67046, abs=1e-5)
        K = lift_gain(REFERENCE_CASCADE_GAIN_PLUS, dec)
        loop = sys_.A + sys_.B @ K
        head = spectral_radius(loop[:4, :4])
        assert spectral_radius(loop) == pytest.approx(max(head, tail), abs=1e-8)

    def test_unstable_without_authority(self):
        sys_ = LinearSystem(A=np.diag([1.2, 0.1]), B=np.zeros((2, 1)))
        out = construct_certificate(sys_.A + sys_.B @ np.zeros((1, 2)), 0.9)
        assert isinstance(out, NotCertifiable)

    def test_block_triangular_eigenvalue_union(self, reference_setup):
        sys_, _, _, dec = reference_setup
        K = lift_gain(REFERENCE_CASCADE_GAIN_PLUS, dec)
        loop = sys_.A + sys_.B @ K
        eigs_full = np.sort_complex(np.linalg.eigvals(loop))
        eigs_blocks = np.sort_complex(
            np.concatenate([np.linalg.eigvals(loop[:4, :4]), np.linalg.eigvals(loop[4:, 4:])])
        )
        assert np.max(np.abs(eigs_full - eigs_blocks)) < 1e-8


def knife_edge_batch():
    """A 4 x 7 batch and a tol at which the two double-precision SVDs of its
    Xi0, with and without singular vectors, disagree on its rank.

    Xi0 = Q1 diag(1, 0.7, 0.4, 1e-9) Q2^T with Q1, Q2 orthonormal, so
    sigma_4 / sigma_1 sits on 1e-9 to the last bits; Xi1 = D Xi0 + 1 Ups0 for
    a diagonal D, a column of ones and a Gaussian input row.  The tol is the
    first float past the smaller of the two ratios sigma_4 / sigma_1, or the
    larger ratio, whichever makes the two cuts of operators._rank_count
    disagree; seeds from 7 on are tried until one does."""
    for seed in range(7, 100):
        rng = np.random.default_rng(seed)
        Q1 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((7, 7)))[0][:, :4]
        Xi0 = Q1 @ np.diag([1.0, 0.7, 0.4, 1e-9]) @ Q2.T
        Ups0 = rng.standard_normal((1, 7))
        Xi1 = np.diag([1.2, 0.5, 0.3, 0.2]) @ Xi0 + np.ones((4, 1)) @ Ups0
        plain = np.linalg.svd(Xi0, compute_uv=False)
        with_vectors = np.linalg.svd(Xi0)[1]
        lo, hi = sorted((plain[3] / plain[0], with_vectors[3] / with_vectors[0]))
        for tol in (np.nextafter(lo, hi), hi):
            if _rank_count(plain, tol) != _rank_count(with_vectors, tol):
                return DataBatch(x1=Xi1.T, x0=Xi0.T, u0=Ups0.T), tol
    raise AssertionError("no seed puts the two SVDs on opposite sides of a tol")


class TestOneRankDecision:
    """stabilize, finite-plus and noise read the rank of Xi0 off the one SVD
    that the LMI synthesis takes, so they cannot disagree on it."""

    def test_knife_edge_verdicts_agree(self):
        batch, tol = knife_edge_batch()
        stabilize = synthesize_gain(batch, 0.9, tol)
        plus = finite_informative(batch, 0.9, 0.5, tol)
        robust = robust_stabilization(batch, 0.9, 0.0, 0.0, tol)
        deficient = isinstance(stabilize, Infeasible) and stabilize.reason == "rank"
        assert (isinstance(plus, Infeasible) and plus.reason == "rank") == deficient
        assert (isinstance(robust, NotApplicable) and robust.stage == "frame") == deficient

    @pytest.mark.parametrize("samples", [5, 3], ids=["full-rank", "rank-deficient"])
    def test_one_svd_of_xi0_per_call(self, monkeypatch, samples):
        _, batch, params = reference_cascade_scenario(n_modes=50, n_samples=samples)
        pd = project_data(batch, cascade_decomposition(params, 0.89, 0.1, 0.0))
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for call in (
            lambda: finite_informative(pd, 0.9, 0.89),
            lambda: robust_stabilization(pd, 0.9, 0.003, 0.003),
        ):
            shapes.clear()
            call()
            assert shapes.count((pd.n, pd.N)) == 1

    def test_rank_verdict_carries_the_count(self):
        x0 = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        pd = DataBatch(x1=np.zeros((3, 3)), x0=x0, u0=np.zeros((3, 1)))
        result = finite_informative(pd, 0.9, 0.5)
        assert (result.reason, result.rank, result.best_margin) == ("rank", 1, -1.0)
        assert robust_stabilization(pd, 0.9, 0.0, 0.0).detail == (
            "state sequence is not a frame: rank 1 < dim 3"
        )
