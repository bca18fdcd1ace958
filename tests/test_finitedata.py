import math

import numpy as np
import pytest

from ddstab.errors import CutoffExceedsTruncation, DimensionMismatch, InvalidParams
from ddstab.finitedata import (
    Decomposition,
    ProjectedData,
    cascade_decomposition,
    closed_loop_full,
    finite_informative,
    lift_gain,
    mode_cutoff,
    project_data,
    verify_on_compatible_plus,
)
from ddstab.informativity import GainResult, NotInformative
from ddstab.lmi import LmiProblem, LmiSolution, solve_feasibility
from ddstab.operators import (
    NotCertifiable,
    PowerStabilityCertificate,
    pseudo_inverse,
    spectral_radius,
)
from ddstab.systems import (
    REFERENCE_CASCADE_GAIN_PLUS,
    LinearSystem,
    default_cascade_params,
    reference_cascade_scenario,
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

    def test_param_guards(self):
        with pytest.raises(InvalidParams):
            mode_cutoff(0.0, 0.0, 0.05, 0.9)
        with pytest.raises(InvalidParams):
            mode_cutoff(0.1, 0.0, 0.05, 1.0)


class TestCascadeDecomposition:
    def test_reference_dimensions(self, reference_setup):
        _, _, _, dec = reference_setup
        assert dec.n_plus == 4  # head block of 2 plus 2 retained modes
        assert np.linalg.matrix_rank(dec.Pi) == 4

    def test_projection_idempotent_exact(self, reference_setup):
        _, _, _, dec = reference_setup
        assert np.array_equal(dec.Pi @ dec.Pi, dec.Pi)

    def test_invariance_of_tail(self, reference_setup):
        sys_, _, _, dec = reference_setup
        leak = dec.Pi @ sys_.A @ (np.eye(dec.n) - dec.Pi)
        assert np.linalg.norm(leak) <= 1e-10

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

    def test_bounds_not_covering_instance(self):
        params = default_cascade_params(n_modes=10)
        # claiming much faster diffusion than true makes the tail check fail
        with pytest.raises(InvalidParams):
            cascade_decomposition(params, 0.2, 5.0, 0.0)


class TestProjectData:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(0)
        from ddstab.systems import DataBatch

        batch = DataBatch(
            x1=rng.standard_normal((4, 3)),
            x0=rng.standard_normal((4, 3)),
            u0=rng.standard_normal((4, 1)),
        )
        dec = Decomposition(Pi=np.eye(3), basis_plus=np.eye(3), n_plus=3, gamma_minus=0.5)
        pd = project_data(batch, dec)
        assert np.array_equal(pd.Xi1p, batch.Xi1)
        assert np.array_equal(pd.Ups0, batch.Ups0)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(InvalidParams):
            Decomposition(Pi=np.eye(3), basis_plus=2.0 * np.eye(3), n_plus=3, gamma_minus=0.5)

    def test_reference_shapes(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        assert pd.Xi1p.shape == (4, 5)
        assert pd.Xi0p.shape == (4, 5)

    def test_projected_consistency(self, reference_setup):
        sys_, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        A_plus = sys_.A[:4, :4]
        B_plus = sys_.B[:4]
        res = np.linalg.norm(A_plus @ pd.Xi0p + B_plus @ pd.Ups0 - pd.Xi1p)
        assert res <= 1e-10 * (1 + np.linalg.norm(pd.Xi1p))

    def test_dim_mismatch(self, reference_setup):
        _, batch, _, _ = reference_setup
        dec = Decomposition(Pi=np.eye(3), basis_plus=np.eye(3), n_plus=3, gamma_minus=0.5)
        with pytest.raises(DimensionMismatch):
            project_data(batch, dec)


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
        Xi0p = np.array([[1.0, 2.0], [2.0, 4.0]])  # proportional columns
        pd = ProjectedData(Xi1p=np.zeros((2, 2)), Xi0p=Xi0p, Ups0=np.zeros((1, 2)))
        result = finite_informative(pd, 0.9, 0.5)
        assert isinstance(result, NotInformative)
        assert result.stage == "rank"

    def test_uncontrollable_unstable_block(self):
        # identity data with an expanding map and no input authority
        pd = ProjectedData(Xi1p=1.1 * np.eye(2), Xi0p=np.eye(2), Ups0=np.zeros((1, 2)))
        result = finite_informative(pd, 0.95, 0.5)
        assert isinstance(result, NotInformative)
        assert result.stage == "lmi"

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
        dec = Decomposition(Pi=np.eye(3), basis_plus=np.eye(3), n_plus=3, gamma_minus=0.5)
        K_plus = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(lift_gain(K_plus, dec), K_plus)

    def test_reference_gain_lifts_with_zero_tail(self, reference_setup):
        _, _, _, dec = reference_setup
        K = lift_gain(REFERENCE_CASCADE_GAIN_PLUS, dec)
        assert K.shape == (1, 52)
        assert np.array_equal(K[:, :4], REFERENCE_CASCADE_GAIN_PLUS)
        assert not K[:, 4:].any()
        # vanishes on the complement exactly
        assert np.linalg.norm(K @ (np.eye(52) - dec.Pi)) == 0.0

    def test_zero_gain(self, reference_setup):
        _, _, _, dec = reference_setup
        assert not lift_gain(np.zeros((1, 4)), dec).any()


class TestVerifyOnCompatiblePlus:
    def test_square_family_is_singleton(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        report = verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, 0.9, trials=20, seed=0)
        assert report.failures == 0
        spread = max(report.radii) - min(report.radii)
        assert spread < 1e-9

    def test_reference_gain_family(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        report = verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, 0.9, trials=200, seed=0)
        assert report.failures == 0
        assert report.worst_radius <= 0.9 + 1e-6

    def test_zero_trials_vacuous(self, reference_setup):
        _, batch, _, dec = reference_setup
        pd = project_data(batch, dec)
        report = verify_on_compatible_plus(pd, REFERENCE_CASCADE_GAIN_PLUS, 0.9, trials=0)
        assert report.trials == 0 and report.failures == 0
        assert report.worst_radius == 0.0

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
        cert = closed_loop_full(sys_, np.zeros((1, 2)), 0.6)
        assert isinstance(cert, PowerStabilityCertificate)

    def test_reference_lifted_gain(self, reference_setup):
        sys_, _, _, dec = reference_setup
        K = lift_gain(REFERENCE_CASCADE_GAIN_PLUS, dec)
        cert = closed_loop_full(sys_, K, 0.9)
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
        out = closed_loop_full(sys_, np.zeros((1, 2)), 0.9)
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
