import json
from dataclasses import asdict

import numpy as np
import pytest

from ddstab.errors import IndexOutOfRange, InvalidParams
from ddstab.finitedata import cascade_decomposition, projected_batch
from ddstab.informativity import sample_compatible_systems, stabilization_informative
from ddstab.noise import (
    Incompatible,
    NoiseClassParams,
    NotApplicable,
    RobustGainResult,
    certificate_rate_sweep,
    minimal_noise_constants,
    noise_budget_ok,
    noise_in_class,
    range_breaking_noise,
    robust_decay_rate,
    robust_stabilization,
    verify_robust_gain,
    _scaled_noise_draw,
)
from ddstab.operators import frame_bounds, operator_norm, spectral_radius
from ddstab.systems import DataBatch, counterexample_sequences, reference_cascade_scenario


def zero_noise_like(batch):
    return DataBatch(
        x1=np.zeros_like(batch.x1), x0=np.zeros_like(batch.x0), u0=np.zeros_like(batch.u0)
    )


@pytest.fixture(scope="module")
def projected_cascade():
    _, batch, params = reference_cascade_scenario(n_modes=20, n_samples=5)
    dec = cascade_decomposition(params, 0.89, 0.1, 0.0)
    return projected_batch(batch, dec)


class TestNoiseClass:
    def test_zero_noise_always_in_class(self, projected_cascade):
        noise = zero_noise_like(projected_cascade)
        params = NoiseClassParams(c1=0.0, c0=0.0, Omega=np.linalg.pinv(projected_cascade.Xi0))
        check = noise_in_class(noise, projected_cascade, params)
        assert check
        assert check.margin_state >= -1e-12

    def test_equality_case_needs_unit_constant(self):
        rng = np.random.default_rng(0)
        batch = DataBatch(
            x1=rng.standard_normal((4, 4)),
            x0=rng.standard_normal((4, 4)),
            u0=rng.standard_normal((4, 1)),
        )
        noise = DataBatch(x1=batch.x1, x0=np.zeros((4, 4)), u0=np.zeros((4, 1)))
        Om = np.eye(4)
        assert noise_in_class(noise, batch, NoiseClassParams(c1=1.0, c0=0.0, Omega=Om))
        assert not noise_in_class(noise, batch, NoiseClassParams(c1=0.999, c0=0.0, Omega=Om))

    def test_minimal_constants_zero(self, projected_cascade):
        out = minimal_noise_constants(
            zero_noise_like(projected_cascade),
            projected_cascade,
            np.linalg.pinv(projected_cascade.Xi0),
        )
        assert out == (0.0, 0.0)

    def test_minimal_constant_scalar_factor(self):
        rng = np.random.default_rng(1)
        batch = DataBatch(
            x1=rng.standard_normal((4, 4)),
            x0=rng.standard_normal((4, 4)),
            u0=rng.standard_normal((4, 1)),
        )
        noise = DataBatch(x1=0.1 * batch.x1, x0=np.zeros((4, 4)), u0=np.zeros((4, 1)))
        c1_min, c0_min = minimal_noise_constants(noise, batch, np.eye(4))
        assert c1_min == pytest.approx(0.1, rel=1e-9)
        assert c0_min == 0.0

    def test_minimal_constants_scale_linearly(self):
        rng = np.random.default_rng(2)
        batch = DataBatch(
            x1=rng.standard_normal((5, 3)),
            x0=rng.standard_normal((5, 3)),
            u0=rng.standard_normal((5, 1)),
        )
        raw = rng.standard_normal((5, 3))
        Om = np.linalg.pinv(batch.Xi0)
        cs = []
        for eps in (1e-3, 2e-3):
            noise = DataBatch(x1=eps * raw, x0=np.zeros((5, 3)), u0=np.zeros((5, 1)))
            c1_min, _ = minimal_noise_constants(noise, batch, Om)
            cs.append(c1_min)
        assert cs[1] == pytest.approx(2 * cs[0], rel=1e-9)

    def test_orthogonal_noise_incompatible(self):
        # data range spans e1-e2, noise lives on e3
        batch = DataBatch(
            x1=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
            x0=np.eye(3),
            u0=np.zeros((3, 1)),
        )
        noise = DataBatch(
            x1=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            x0=np.zeros((3, 3)),
            u0=np.zeros((3, 1)),
        )
        out = minimal_noise_constants(noise, batch, np.eye(3))
        assert isinstance(out, Incompatible)
        assert out.stage == "state"

    def test_membership_boundary_consistency(self, projected_cascade):
        rng = np.random.default_rng(3)
        Om = np.linalg.pinv(projected_cascade.Xi0)
        B1 = projected_cascade.Xi1 @ Om
        Phi = rng.standard_normal((4, 4))
        noise = DataBatch(
            x1=(B1 @ Phi @ np.linalg.pinv(Om)).T,
            x0=np.zeros_like(projected_cascade.x0),
            u0=np.zeros_like(projected_cascade.u0),
        )
        constants = minimal_noise_constants(noise, projected_cascade, Om)
        assert not isinstance(constants, Incompatible)
        c1_min, c0_min = constants
        assert noise_in_class(
            noise, projected_cascade, NoiseClassParams(c1=c1_min + 1e-8, c0=c0_min + 1e-8, Omega=Om)
        )
        assert not noise_in_class(
            noise,
            projected_cascade,
            NoiseClassParams(c1=c1_min * (1 - 1e-4), c0=c0_min + 1e-8, Omega=Om),
        )


class TestRobustFormulas:
    def test_degraded_rate_arithmetic(self):
        assert robust_decay_rate(2.0, 0.4, 0.1, 0.1) == pytest.approx(0.6)
        assert noise_budget_ok(2.0, 0.4, 0.1, 0.1)  # 0.14 < 0.3

    def test_rate_guard(self):
        with pytest.raises(InvalidParams):
            robust_decay_rate(2.0, 0.5, 0.0, 0.6)

    def test_margin_identity_on_grid(self):
        # generic grid values keep the equivalent inequalities away from the
        # exact boundary, where rounding could legitimately split them
        for M in (1.0, 1.5, 2.0, 5.0):
            for gamma in (0.13, 0.4, 0.73, 0.9):
                for c1 in (0.0, 0.013, 0.21):
                    for c0 in (0.0, 0.017, 0.23):
                        if M * c0 >= 1.0:
                            continue
                        gt = robust_decay_rate(M, gamma, c1, c0)
                        assert (gt < 1.0) == noise_budget_ok(M, gamma, c1, c0)


class TestRobustStabilization:
    def test_zero_budget_reduces_to_noise_free(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.0, 0.0)
        assert isinstance(res, RobustGainResult)
        assert res.gamma_tilde == pytest.approx(0.9)
        base = stabilization_informative(projected_cascade, 0.9)
        assert np.linalg.norm(res.K - base.K) < 1e-10
        assert np.linalg.norm(projected_cascade.Xi0 @ res.Omega - np.eye(4)) < 1e-9

    def test_budget_violation_flagged(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.05, 0.05)
        if isinstance(res, RobustGainResult):
            assert not res.margin_ok
        else:
            assert res.stage == "margin"

    def test_mc0_guard(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.0, 10.0)
        assert isinstance(res, NotApplicable)
        assert res.stage == "margin"

    def test_frame_failure(self):
        _, batch, _ = reference_cascade_scenario(n_modes=10, n_samples=5)
        res = robust_stabilization(batch, 0.9, 0.0, 0.0)  # 12-dim state, 5 samples
        assert isinstance(res, NotApplicable)
        assert res.stage == "frame"

    def test_small_budget_full_pipeline(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        assert isinstance(res, RobustGainResult)
        assert res.gamma_tilde < 1.0
        assert res.margin_ok
        report = verify_robust_gain(
            projected_cascade, res.K, res.M, res.gamma_tilde, 0.003, 0.003, res.Omega,
            trials=8, seed=0,
        )
        assert report.violations == 0
        assert report.rejected_draws == 0
        assert report.worst_radius <= res.gamma_tilde + 1e-6


class TestVerifyRobustGain:
    def test_zero_noise_matches_noise_free_loop(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.0, 0.0)
        report = verify_robust_gain(
            projected_cascade, res.K, res.M, res.gamma_tilde, 0.0, 0.0, res.Omega,
            trials=3, seed=0,
        )
        base = stabilization_informative(projected_cascade, 0.9)
        assert report.worst_radius == pytest.approx(base.achieved_radius, abs=1e-9)

    def test_tiny_budget_continuity(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 1e-8, 1e-8)
        report = verify_robust_gain(
            projected_cascade, res.K, res.M, res.gamma_tilde, 1e-8, 1e-8, res.Omega,
            trials=5, seed=1,
        )
        base = stabilization_informative(projected_cascade, 0.9)
        assert abs(report.worst_radius - base.achieved_radius) < 1e-4

    def test_fixed_seed_identical_report(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.002, 0.002)
        kwargs = dict(trials=4, seed=7)
        a = verify_robust_gain(
            projected_cascade, res.K, res.M, res.gamma_tilde, 0.002, 0.002, res.Omega, **kwargs
        )
        b = verify_robust_gain(
            projected_cascade, res.K, res.M, res.gamma_tilde, 0.002, 0.002, res.Omega, **kwargs
        )
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)


    @pytest.mark.parametrize("M, gamma_tilde", [(5.0, 0.93), (4.8, 0.86)])
    def test_violations_match_per_system_loop(self, projected_cascade, M, gamma_tilde):
        """M set below the gain's transient: part of the sampled loops exceed
        M gamma~^k, and at gamma~ = 0.86 some radii exceed gamma~ too.  The
        stacked check must count what a loop over single systems counts,
        stopping each system at its first excess."""
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        c, trials, seed, per_trial = 0.02, 10, 3, 3
        report = verify_robust_gain(
            projected_cascade, res.K, M, gamma_tilde, c, c, res.Omega, trials=trials, seed=seed,
            systems_per_trial=per_trial,
        )
        n = projected_cascade.n
        violations, worst_excess, worst_radius = 0, -np.inf, 0.0
        for t in range(trials):
            noise, failed = _scaled_noise_draw(
                np.random.default_rng([seed, t]), projected_cascade, res.Omega, c, c
            )
            assert not failed
            Xi1 = projected_cascade.Xi1 - noise.Xi1
            Xi0 = projected_cascade.Xi0 - noise.Xi0
            Ups0 = projected_cascade.Ups0 - noise.Ups0
            for AB in sample_compatible_systems(Xi0, Xi1, Ups0, per_trial, seed=seed + 7 * t + 1):
                F = AB[:, :n] + AB[:, n:] @ res.K
                rho = spectral_radius(F)
                worst_radius = max(worst_radius, rho)
                violations += rho > gamma_tilde + 1e-6
                P, bound = np.eye(n), M + 1e-6
                for _ in range(100):
                    P = F @ P
                    bound *= gamma_tilde
                    excess = operator_norm(P) - bound
                    worst_excess = max(worst_excess, excess)
                    if excess > 0:
                        violations += 1
                        break
        assert 0 < violations < 2 * trials * per_trial
        assert report.violations == violations
        assert report.worst_power_excess == worst_excess
        assert report.worst_radius == worst_radius
        assert report.rejected_draws == 0


class TestRangeBreakingNoise:
    def test_unit_norm_at_first_sample(self):
        batch = counterexample_sequences(5)
        noise = range_breaking_noise(batch.Xi0, 1)
        assert operator_norm(noise) == pytest.approx(1.0)

    def test_norm_decays_and_rank_drops(self):
        batch = counterexample_sequences(12)
        noise = range_breaking_noise(batch.Xi0, 10)
        assert operator_norm(noise) == pytest.approx(0.1, abs=1e-12)
        perturbed = batch.Xi0 + noise
        assert np.linalg.matrix_rank(perturbed) == 11

    def test_frame_bound_destroyed(self):
        batch = counterexample_sequences(8)
        for k0 in (1, 3, 8):
            fb = frame_bounds(batch.Xi0 + range_breaking_noise(batch.Xi0, k0))
            assert fb.lower == 0.0

    def test_index_guard(self):
        batch = counterexample_sequences(3)
        with pytest.raises(IndexOutOfRange):
            range_breaking_noise(batch.Xi0, 4)


class TestRateSweep:
    def test_smaller_gamma_larger_m(self):
        F = np.array([[0.5, 1.0], [0.0, 0.5]])
        sweep = certificate_rate_sweep(F, [0.6, 0.7, 0.9])
        assert len(sweep) == 3
        ms = [m for _, m in sweep]
        assert ms[0] >= ms[1] >= ms[2]
        assert spectral_radius(F) < 0.6
