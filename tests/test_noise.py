import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddstab.errors import IndexOutOfRange, InvalidParams
from ddstab.finitedata import cascade_decomposition, project_data
from ddstab.informativity import sample_compatible_systems, stabilization_informative
from ddstab.noise import (
    NoiseClassParams,
    NotApplicable,
    RobustGainResult,
    noise_budget_ok,
    noise_in_class,
    range_breaking_noise,
    robust_decay_rate,
    robust_stabilization,
    verify_robust_gain,
    _check_closed_loops,
    _draw_factors,
)
from ddstab import noise as noise_mod
from ddstab import operators
from ddstab.operators import (
    NoFactorization,
    douglas_minimal_constant,
    frame_bounds,
    operator_norm,
    pseudo_inverse,
    spectral_radius,
)
from ddstab.systems import DataBatch, counterexample_sequences, reference_cascade_scenario


#: M and noise-free closed-loop radius of a cascade gain that the oracle
#: cases below were first written for; their constants scale with the
#: synthesized gain's.
REFERENCE_M, REFERENCE_RADIUS = 5.773209082287391, 0.827367934882


def zero_noise_like(batch):
    return DataBatch(
        x1=np.zeros_like(batch.x1), x0=np.zeros_like(batch.x0), u0=np.zeros_like(batch.u0)
    )


def minimal_constants(noise, batch, Omega):
    """Smallest (c1, c0) admitting the noise: the Douglas constants of the
    state blocks and of the stacked state/input blocks, times Omega."""
    state = douglas_minimal_constant(noise.Xi1 @ Omega, batch.Xi1 @ Omega)
    stacked = douglas_minimal_constant(
        np.vstack([noise.Xi0, noise.Ups0]) @ Omega, np.vstack([batch.Xi0, batch.Ups0]) @ Omega
    )
    return state.norm_c, stacked.norm_c


@pytest.fixture(scope="module")
def projected_cascade():
    _, batch, params = reference_cascade_scenario(n_modes=20, n_samples=5)
    dec = cascade_decomposition(params, 0.89, 0.1, 0.0)
    return project_data(batch, dec)


def gaussian_batch(n, m, N, seed):
    """Noise-free data of a random system from Gaussian states and inputs."""
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    x0, u0 = rng.standard_normal((N, n)), rng.standard_normal((N, m))
    return DataBatch(x1=x0 @ A.T + u0 @ B.T, x0=x0, u0=u0)


@pytest.fixture(scope="module")
def wide_batch():
    """Noise-free data of a random system with N = 8 > n + m = 4."""
    return gaussian_batch(3, 1, 8, 11)


def full_power_check(F, M, gamma_tilde, horizon=100):
    """The power check without pruning: the SVD of every remaining loop at
    every step.  Also returns the step of each power violation and the
    first step that holds the worst excess (0 if none)."""
    radii = spectral_radius(F)
    worst_radius = float(radii.max(initial=0.0))
    violations = int(np.sum(radii > gamma_tilde + 1e-6))
    worst, worst_step, steps = -np.inf, 0, []
    P, bound = np.eye(F.shape[-1]), M + 1e-6
    for k in range(1, horizon + 1):
        if F.shape[0] == 0:
            break
        P = F @ P
        bound *= gamma_tilde
        excess = operator_norm(P) - bound
        if excess.max() > worst:
            worst, worst_step = float(excess.max()), k
        keep = excess <= 0
        steps += [k] * int(np.sum(~keep))
        F, P = F[keep], P[keep]
    worst = worst if np.isfinite(worst) else 0.0
    return worst_radius, violations + len(steps), worst, steps, worst_step


def violating_loops(n):
    """100 Gaussian n x n loops with spectral radii drawn from [0.5, 1.05]."""
    rng = np.random.default_rng(n)
    G = rng.standard_normal((100, n, n))
    return G * (rng.uniform(0.5, 1.05, 100) / spectral_radius(G))[:, None, None]


def random_loops(count, radii, seed):
    """Gaussian 4x4 matrices rescaled to the given spectral radii: non-normal,
    so their powers have transients of different lengths."""
    G = np.random.default_rng(seed).standard_normal((count, 4, 4))
    return G * (np.asarray(radii) / spectral_radius(G))[:, None, None]


def cascade_loops(batch, count=60):
    """Closed loops of the robust gain over systems compatible with ``batch``."""
    res = robust_stabilization(batch, 0.9, 0.003, 0.003)
    AB = sample_compatible_systems(batch.Xi0, batch.Xi1, batch.Ups0, count, seed=5)
    return AB[:, :, : batch.n] + AB[:, :, batch.n :] @ res.K, res.M


def power_check_case(name, batch):
    """(closed loops, M, gamma~) of one oracle case."""
    nilpotent = np.triu(np.random.default_rng(1).standard_normal((4, 4)), 1)
    if name == "steps":
        return random_loops(40, np.linspace(0.3, 0.95, 40), seed=2), 3.0, 0.9
    if name == "radius-above-1":
        return random_loops(30, np.linspace(0.5, 1.2, 30), seed=3), 2.0, 1.13
    if name == "cascade-c0.02":
        # c = 0.02 at M = REFERENCE_M; c M is kept, so gamma~ stays about 1.135
        F, M = cascade_loops(batch)
        c = 0.02 * REFERENCE_M / M
        return F, M, robust_decay_rate(M, 0.9, c, c)
    if name == "zero-and-nilpotent":
        F = np.concatenate([np.zeros((1, 4, 4)), nilpotent[None], random_loops(5, [0.8] * 5, seed=4)])
        return F, 2.0, 0.9
    if name == "violators-apart":
        # a loop whose only excess, at step 1, is far below another's norm
        E01 = np.zeros((4, 4))
        E01[0, 1] = 1.0
        return np.stack([5.0 * np.eye(4), E01, 0.5 * np.eye(4)]), 1.0, 0.9
    if name == "only-nilpotent":
        return np.stack([np.zeros((4, 4)), nilpotent, 3.0 * nilpotent]), 1.0, 0.9
    if name == "single":
        return random_loops(1, [0.85], seed=5), 1.5, 0.9
    if name == "early-excess":
        # a steep transient: ||J^k|| / 0.95^k peaks at k = 2, where the
        # bound clears it by 0.01, less than any late bound M 0.95^k
        J = 0.5 * np.eye(4)
        J[0, 1] = 8.0
        M = (operator_norm(J @ J) + 0.01) / 0.95**2 - 1e-6
        return np.concatenate([J[None], random_loops(20, [0.6] * 20, seed=7)]), M, 0.95
    if name == "late-excess":
        # loops far inside a large bound: the excess is about -M 0.9^k,
        # largest at the last step
        return random_loops(30, np.linspace(0.3, 0.85, 30), seed=8), 20.0, 0.9
    if name == "frobenius-misleads":
        # the pair with the largest Frobenius bound is not the worst: 0.9 I
        # has ||P||_F = 2 ||P||, while the rank-one B has ||B^k|| = 1.5 0.9^k
        B = np.zeros((4, 4))
        B[0, :2] = 0.9, np.sqrt(1.35**2 - 0.81)
        return np.stack([0.9 * np.eye(4), B]), 3.0, 0.97
    if name == "rank-one-edge":
        # rank one, so ||P||_F = ||P||: the first loop exceeds its step-1
        # bound by a relative 1e-4, the second stays 1e-4 below it
        D = np.diag([0.8, 0.0, 0.0, 0.0])
        return np.stack([D, (1 - 2e-4) * D]), 1 - 1e-4 - 1e-6, 0.8
    if name == "violator-grows":
        # 1.5 I exceeds the bound at step 1 and then grows without limit;
        # only its step-1 excess counts
        return np.stack([1.5 * np.eye(4), 0.5 * np.eye(4), 0.3 * np.eye(4)]), 1.2, 0.9
    assert name == "empty"
    return np.empty((0, 4, 4)), 2.0, 0.9


def draws_one_at_a_time(rng, count, batch, Omega, c1, c0, fill):
    """The noise of ``count`` trials written one trial at a time (c1, c0 >
    0): each trial draws its blocks G1, G0, E1, E0 from the one generator,
    in trial order.  The factors Phi1 and Phi0 are G1 and G0 rescaled to
    norm fill c1 and fill c0; the noise seen through Omega is the data seen
    through Omega times Phi, and E1, E0 add a free component along
    I - Omega Omega^+, which Omega does not see, at the data's rms entry
    times fill c.  A list of (Phi1, Phi0, noise as a DataBatch)."""
    n, m, N = batch.n, batch.m, batch.N
    Om_pinv = pseudo_inverse(Omega)
    perp = np.eye(N) - Omega @ Om_pinv
    data0 = np.vstack([batch.Xi0, batch.Ups0])
    B1, B0 = batch.Xi1 @ Omega, data0 @ Omega
    rms1 = np.linalg.norm(batch.Xi1) / max(1.0, np.sqrt(N * n))
    rms0 = np.linalg.norm(data0) / max(1.0, np.sqrt(N * (n + m)))
    drawn = []
    for _ in range(count):
        G1, G0 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        Phi1 = G1 * (fill * c1 / operator_norm(G1))
        Phi0 = G0 * (fill * c0 / operator_norm(G0))
        free1 = fill * c1 * rms1 * rng.standard_normal((n, N)) @ perp
        free0 = fill * c0 * rms0 * rng.standard_normal((n + m, N)) @ perp
        D0 = B0 @ Phi0 @ Om_pinv + free0
        noise = DataBatch(x1=(B1 @ Phi1 @ Om_pinv + free1).T, x0=D0[:n].T, u0=D0[n:].T)
        drawn.append((Phi1, Phi0, noise))
    return drawn


def factor_noise(batch, Omega, Phi1, Phi0):
    """The noise seen through Omega as the data times (Phi1, Phi0), and zero
    off Omega, as a DataBatch."""
    Om_pinv = pseudo_inverse(Omega)
    D1 = batch.Xi1 @ Omega @ Phi1 @ Om_pinv
    D0 = np.vstack([batch.Xi0, batch.Ups0]) @ Omega @ Phi0 @ Om_pinv
    return DataBatch(x1=D1.T, x0=D0[: batch.n].T, u0=D0[batch.n :].T)


def sampled_loops(batch, K, Omega, noise, count, seed):
    """Closed loops A + B K of ``count`` systems compatible with ``batch``
    less ``noise``, by the sampled pipeline: the denoised data, with Xi1
    moved into the row space of W = [Xi0; Ups0] where W has rank below N,
    and then sample_compatible_systems on them (stream ``seed``).  The move
    is Xi1 -> X W with X = Xi1 W^+ + (Xi1 - Xi1 W^+ W) Omega (W Omega)^+,
    which keeps Xi1 Omega and makes the data consistent."""
    Xi0, Ups0 = batch.Xi0 - noise.Xi0, batch.Ups0 - noise.Ups0
    Xi1, W = batch.Xi1 - noise.Xi1, np.vstack([Xi0, Ups0])
    if np.linalg.matrix_rank(W) < batch.N:
        X = Xi1 @ pseudo_inverse(W)
        X += (Xi1 @ Omega - X @ W @ Omega) @ pseudo_inverse(W @ Omega)
        Xi1 = X @ W
    AB = sample_compatible_systems(Xi0, Xi1, Ups0, count, seed=seed)
    return AB[:, :, : batch.n] + AB[:, :, batch.n :] @ K


def checked_loops(*args, **kwargs):
    """verify_robust_gain(*args, **kwargs) and the stack of closed loops
    that it handed to the power check."""
    loops, check = [], noise_mod._check_closed_loops
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise_mod, "_check_closed_loops", lambda F, *a: loops.append(F) or check(F, *a))
        report = verify_robust_gain(*args, **kwargs)
    (F,) = loops
    return report, F


def per_loop_check(loops, M, gamma_tilde):
    """The noise check written as a loop over single closed loops:
    (violations, worst power excess, worst radius)."""
    violations, worst_excess, worst_radius = 0, -np.inf, 0.0
    for F in loops:
        rho = spectral_radius(F)
        worst_radius = max(worst_radius, rho)
        violations += rho > gamma_tilde + 1e-6
        P, bound = np.eye(F.shape[0]), M + 1e-6
        for _ in range(100):
            P = F @ P
            bound *= gamma_tilde
            excess = operator_norm(P) - bound
            worst_excess = max(worst_excess, excess)
            if excess > 0:
                violations += 1
                break
    return violations, worst_excess, worst_radius


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
        out = minimal_constants(
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
        c1_min, c0_min = minimal_constants(noise, batch, np.eye(4))
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
            c1_min, _ = minimal_constants(noise, batch, Om)
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
        assert isinstance(douglas_minimal_constant(noise.Xi1, batch.Xi1), NoFactorization)

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
        c1_min, c0_min = minimal_constants(noise, projected_cascade, Om)
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

    @pytest.mark.parametrize("c1, c0", [(float("nan"), 0.0), (0.0, float("inf")), (-float("inf"), 0.0)])
    def test_non_finite_constants_rejected_before_synthesis(self, projected_cascade, c1, c0, monkeypatch):
        """The rule and message of NoiseClassParams, checked before any
        synthesis runs."""

        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis ran on invalid constants")

        monkeypatch.setattr(noise_mod, "synthesize_gain", no_synthesis)
        with pytest.raises(InvalidParams, match="c1 and c0 must be finite"):
            robust_stabilization(projected_cascade, 0.9, c1, c0)
        with pytest.raises(InvalidParams, match="c1 and c0 must be finite"):
            NoiseClassParams(c1=c1, c0=c0, Omega=np.zeros((5, 4)))

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
            projected_cascade, res.M, res.gamma_tilde, 0.003, 0.003, res.Omega,
            trials=8, seed=0,
        )
        assert report.violations == 0
        assert report.rejected_draws == 0
        assert report.worst_radius <= res.gamma_tilde + 1e-6


class TestVerifyRobustGain:
    def test_zero_noise_matches_noise_free_loop(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.0, 0.0)
        report = verify_robust_gain(
            projected_cascade, res.M, res.gamma_tilde, 0.0, 0.0, res.Omega,
            trials=3, seed=0,
        )
        base = stabilization_informative(projected_cascade, 0.9)
        assert report.worst_radius == pytest.approx(base.achieved_radius, abs=1e-9)

    def test_tiny_budget_continuity(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 1e-8, 1e-8)
        report = verify_robust_gain(
            projected_cascade, res.M, res.gamma_tilde, 1e-8, 1e-8, res.Omega,
            trials=5, seed=1,
        )
        base = stabilization_informative(projected_cascade, 0.9)
        assert abs(report.worst_radius - base.achieved_radius) < 1e-4

    def test_fixed_seed_identical_report(self, projected_cascade):
        res = robust_stabilization(projected_cascade, 0.9, 0.002, 0.002)
        kwargs = dict(trials=4, seed=7)
        a = verify_robust_gain(
            projected_cascade, res.M, res.gamma_tilde, 0.002, 0.002, res.Omega, **kwargs
        )
        b = verify_robust_gain(
            projected_cascade, res.M, res.gamma_tilde, 0.002, 0.002, res.Omega, **kwargs
        )
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)


    @pytest.mark.parametrize(
        "M_ratio, radius_gap",
        [
            pytest.param(5.0 / REFERENCE_M, None, id="5.0-0.93"),
            pytest.param(4.8 / REFERENCE_M, 0.86 - REFERENCE_RADIUS, id="4.8-0.86"),
        ],
    )
    def test_violations_match_per_system_loop(self, projected_cascade, M_ratio, radius_gap):
        """M set below the gain's transient: part of the sampled loops exceed
        M gamma~^k, and in the second case some radii exceed gamma~ too.  The
        stacked check must count what a loop over single loops counts,
        stopping each loop at its first excess, and the sampled pipeline
        must find each violation in all three systems of its trial.  The ids
        are (M, gamma~) for the gain with M = REFERENCE_M and noise-free
        closed-loop radius REFERENCE_RADIUS; M keeps its ratio to the
        synthesized M, and the second gamma~ its distance to the synthesized
        loop's radius (gamma~ = 0.93 in the first case)."""
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        M = M_ratio * res.M
        gamma_tilde = 0.93
        if radius_gap is not None:
            gamma_tilde = spectral_radius(projected_cascade.Xi1 @ res.Omega) + radius_gap
        c, trials, seed = 0.02, 10, 3
        report, loops = checked_loops(
            projected_cascade, M, gamma_tilde, c, c, res.Omega, trials=trials, seed=seed
        )
        violations, worst_excess, worst_radius = per_loop_check(loops, M, gamma_tilde)
        assert 0 < violations < 2 * trials
        assert report.violations == violations
        assert report.worst_power_excess == worst_excess
        assert report.worst_radius == worst_radius
        assert report.rejected_draws == 0
        drawn = draws_one_at_a_time(
            np.random.default_rng(seed), trials, projected_cascade, res.Omega, c, c, 0.9
        )
        sampled = np.concatenate([
            sampled_loops(projected_cascade, res.K, res.Omega, noise, 3, t)
            for t, (*_, noise) in enumerate(drawn)
        ])
        sampled_violations, sampled_excess, sampled_radius = per_loop_check(sampled, M, gamma_tilde)
        assert sampled_violations == 3 * violations
        assert sampled_excess == pytest.approx(worst_excess, abs=1e-10 * M)
        assert sampled_radius == pytest.approx(worst_radius, rel=1e-10)

    @pytest.mark.parametrize(
        "case",
        ["steps", "violators-apart", "radius-above-1", "cascade-c0.02", "zero-and-nilpotent",
         "only-nilpotent", "single", "empty", "early-excess", "late-excess", "violator-grows",
         "frobenius-misleads", "rank-one-edge"],
    )
    def test_pruned_power_check_matches_full_svd(self, projected_cascade, case):
        """Skipping the SVD of the pairs that the Frobenius bound clears
        must not change a bit of the result."""
        F, M, gamma_tilde = power_check_case(case, projected_cascade)
        worst_radius, violations, worst_excess, steps, worst_step = full_power_check(
            F, M, gamma_tilde
        )
        assert _check_closed_loops(F, M, gamma_tilde, 100) == (worst_radius, violations, worst_excess)
        if case == "steps":
            assert len(set(steps)) >= 3
        if case in ("radius-above-1", "cascade-c0.02"):
            assert gamma_tilde > 1.1
        if case == "radius-above-1":
            assert violations > 0
        if case == "early-excess":
            assert worst_step == 2 and violations == 0
        if case in ("late-excess", "frobenius-misleads"):
            assert worst_step == 100 and violations == 0
        if case in ("violator-grows", "rank-one-edge"):
            assert steps == [1] and worst_step == 1
        if case == "violator-grows":
            assert worst_excess == pytest.approx(1.5 - 1.2 * 0.9, abs=1e-5)

    @pytest.mark.parametrize("horizon", [0, 1])
    @pytest.mark.parametrize("case", ["steps", "violator-grows", "empty"])
    def test_short_horizons(self, projected_cascade, case, horizon):
        F, M, gamma_tilde = power_check_case(case, projected_cascade)
        full = full_power_check(F, M, gamma_tilde, horizon)
        assert _check_closed_loops(F, M, gamma_tilde, horizon) == full[:3]
        if horizon == 0:
            assert full[1:3] == (int(np.sum(spectral_radius(F) > gamma_tilde + 1e-6)), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        count=st.integers(0, 25),
        gamma_tilde=st.floats(0.5, 1.2),
        M=st.floats(1.0, 8.0),
        horizon=st.integers(0, 100),
        top_radius=st.floats(0.1, 1.3),
        transient=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_check_fuzz(self, n, count, gamma_tilde, M, horizon, top_radius, transient, seed):
        """Random non-normal loops, every third one triangular with a steep
        transient, all of spectral radius at most ``top_radius``: the
        two-pass check gives the full check's triple, bit for bit."""
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((count, n, n))
        radii = spectral_radius(G)
        scale = rng.uniform(0.05, top_radius, count) / np.where(radii > 0, radii, 1.0)
        F = G * scale[:, None, None]
        diagonal = rng.uniform(-top_radius, top_radius, (count, n))[:, :, None] * np.eye(n)
        F[::3] = (diagonal + transient * np.triu(rng.standard_normal((count, n, n)), 1))[::3]
        expected = full_power_check(F, M, gamma_tilde, horizon)[:3]
        assert _check_closed_loops(F, M, gamma_tilde, horizon) == expected

    def test_pruning_skips_most_svds(self, monkeypatch):
        F = random_loops(200, np.linspace(0.3, 0.9, 200), seed=6)
        sizes = []
        monkeypatch.setattr(
            noise_mod, "operator_norm", lambda P: sizes.append(len(P)) or operator_norm(P)
        )
        assert _check_closed_loops(F, 20.0, 0.95, 100)[1] == 0
        assert sum(sizes) < 0.01 * 100 * len(F)

    def test_violators_take_no_svd_after_their_first_excess(self, monkeypatch):
        """With most loops violating, pass 1 takes an SVD only where the
        Frobenius bound is not met, and of each loop only up to its first
        excess, however the steps are chunked."""
        F = random_loops(200, np.linspace(0.5, 1.1, 200), seed=7)
        M, gamma_tilde = 1.5, 0.9
        expected = 0
        for loop in F:
            P, bound = np.eye(4), M + 1e-6
            for _ in range(100):
                P, bound = loop @ P, bound * gamma_tilde
                if np.sqrt(np.sum(P * P)) * (1.0 + operators._LOG_SLACK) > bound:
                    expected += 1
                    if operator_norm(P) > bound:
                        break
        sizes, pass_two = [], noise_mod._largest_power_excess
        monkeypatch.setattr(
            noise_mod, "operator_norm", lambda P: sizes.append(len(P)) or operator_norm(P)
        )
        monkeypatch.setattr(
            noise_mod, "_largest_power_excess", lambda *a: sizes.append(None) or pass_two(*a)
        )
        violations = _check_closed_loops(F, M, gamma_tilde, 100)[1]
        assert violations > 150
        assert sum(sizes[: sizes.index(None)] if None in sizes else sizes) == expected

    @pytest.mark.parametrize("n, steps", [(20, 2), (12, 2), (6, 9)])
    def test_chunks_of_one_two_and_more_steps(self, n, steps):
        """100 loops of n x n, some violating, whose chunks hold ``steps``
        powers, two where the element budget alone would allow one: the
        two-pass check gives the full check's triple, bit for bit."""
        assert max(noise_mod._BLOCK_ELEMENTS // 2 // (100 * n * n), 2) == steps
        F = violating_loops(n)
        expected = full_power_check(F, 3.0, 0.95, 30)[:3]
        assert expected[1] > 0
        assert _check_closed_loops(F, 3.0, 0.95, 30) == expected

    @pytest.mark.parametrize("horizon", [31, 1])
    def test_last_chunk_of_one_step(self, horizon):
        """An odd horizon over chunks of two steps ends in a chunk of one,
        whose base is the last row of the chunk before; horizon 1 is that
        one chunk alone.  Both give the full check's triple, bit for bit."""
        F = violating_loops(20)
        expected = full_power_check(F, 3.0, 0.95, horizon)[:3]
        assert expected[1] > 0
        assert _check_closed_loops(F, 3.0, 0.95, horizon) == expected

    def test_reference_chain_takes_few_svds(self, projected_cascade, monkeypatch):
        """On the reference chain at c = 0.003 (200 trials) the power check
        takes at most 10 SVDs."""
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        _, F = checked_loops(
            projected_cascade, res.M, res.gamma_tilde, 0.003, 0.003, res.Omega,
            trials=200, seed=0,
        )
        sizes = []
        monkeypatch.setattr(
            noise_mod, "operator_norm", lambda P: sizes.append(len(P)) or operator_norm(P)
        )
        assert len(F) == 200
        expected = full_power_check(F, res.M, res.gamma_tilde)[:3]
        assert _check_closed_loops(F, res.M, res.gamma_tilde, 100) == expected
        assert sum(sizes) <= 10

    @pytest.mark.parametrize("c, fill", [(0.003, 0.9), (0.02, 0.9)])
    def test_stacked_draws_match_one_at_a_time(self, projected_cascade, c, fill):
        """Drawing the factors of all trials as one stack gives bitwise what
        the trials draw one block at a time from the same generator, at
        share ``fill`` of the budget, for many trials and for one.  A
        trial's draw is its own row, so fewer trials give a prefix."""
        assert fill == noise_mod._FILL
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        b = projected_cascade
        for count in (74, 1):
            Phi1, Phi0 = _draw_factors(np.random.default_rng(9), count, b.n, b.m, b.N, c, c)
            refs = draws_one_at_a_time(np.random.default_rng(9), count, b, res.Omega, c, c, fill)
            assert len(Phi1) == len(Phi0) == len(refs) == count
            for phi1, phi0, (ref1, ref0, _) in zip(Phi1, Phi0, refs):
                assert np.array_equal(phi1, ref1) and np.array_equal(phi0, ref0)
        first = _draw_factors(np.random.default_rng(9), 74, b.n, b.m, b.N, c, c)
        fewer = _draw_factors(np.random.default_rng(9), 30, b.n, b.m, b.N, c, c)
        for a, f in zip(first, fewer):
            assert np.array_equal(a[:30], f)

    @settings(max_examples=25, deadline=None)
    @given(
        case=st.sampled_from(["cascade-0.003", "cascade-0.01", "cascade-0.02", "random"]),
        n=st.integers(1, 5),
        m=st.integers(1, 2),
        extra=st.integers(1, 6),
        c=st.sampled_from([1e-3, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_matches_sampled_pipeline(
        self, projected_cascade, case, n, m, extra, c, seed
    ):
        """On fixed draws, each trial's closed loop F (I - Phi1)(I - Phi0)^-1
        is the loop of each of three systems that the sampled pipeline draws
        from the data less the trial's noise, free component included, to
        1e-10 relative to ||Xi1~|| ||Omega||: the size of the products that
        make F = Xi1~ Omega, as a deadbeat loop is near zero.  That noise,
        and the noise made from the drawn factors alone, lie in the class.
        Cases: the projected cascade (N = n + m) at three budgets, and
        Gaussian data with N > n + m."""
        if case == "random":
            batch = gaussian_batch(n, m, n + m + extra, seed)
        else:
            batch, c = projected_cascade, float(case.split("-")[1])
        res = robust_stabilization(batch, 0.9, c, c)
        assume(isinstance(res, RobustGainResult))
        trials = 5
        report, loops = checked_loops(
            batch, res.M, res.gamma_tilde, c, c, res.Omega, trials=trials, seed=seed
        )
        assert report.trials == len(loops) == trials and report.rejected_draws == 0
        params = NoiseClassParams(c, c, res.Omega)
        drawn = draws_one_at_a_time(np.random.default_rng(seed), trials, batch, res.Omega, c, c, 0.9)
        scale = np.linalg.norm(batch.Xi1) * np.linalg.norm(res.Omega)
        for t, (loop, (Phi1, Phi0, noise)) in enumerate(zip(loops, drawn)):
            assert noise_in_class(noise, batch, params)
            assert noise_in_class(factor_noise(batch, res.Omega, Phi1, Phi0), batch, params)
            for sampled in sampled_loops(batch, res.K, res.Omega, noise, 3, t):
                assert np.linalg.norm(sampled - loop) <= 1e-10 * scale

    def test_no_state_budget_keeps_every_draw(self, wide_batch):
        """With c1 = 0 the state factor is zero and only Phi0 is drawn: each
        factor pair is in the class, and every trial is checked."""
        res = robust_stabilization(wide_batch, 0.9, 0.0, 0.01)
        b, params = wide_batch, NoiseClassParams(0.0, 0.01, res.Omega)
        Phi1, Phi0 = _draw_factors(np.random.default_rng(4), 10, b.n, b.m, b.N, 0.0, 0.01)
        assert not Phi1.any() and Phi0.any()
        for phi1, phi0 in zip(Phi1, Phi0):
            assert noise_in_class(factor_noise(b, res.Omega, phi1, phi0), b, params)
        report = verify_robust_gain(b, res.M, res.gamma_tilde, 0.0, 0.01, res.Omega, trials=10, seed=4)
        assert report.rejected_draws == 0 and report.worst_radius > 0.0

    def test_negative_trials_rejected(self, wide_batch):
        res = robust_stabilization(wide_batch, 0.9, 0.002, 0.002)
        with pytest.raises(InvalidParams):
            verify_robust_gain(
                wide_batch, res.M, res.gamma_tilde, 0.002, 0.002, res.Omega, trials=-1
            )

    @pytest.mark.parametrize(
        "M_of, c0, message",
        [(lambda M: M, 1.0, "M \\* c0 must be below 1"), (lambda M: 0.5, 0.002, "M must be >= 1")],
        ids=["Mc0-at-least-1", "M-below-1"],
    )
    def test_rate_preconditions_rejected(self, wide_batch, M_of, c0, message):
        """The closed form needs I - Phi0 invertible, which M >= 1 and
        M c0 < 1 guarantee (||Phi0|| = 0.9 c0 < 1 / M): outside them the
        check raises, as robust_decay_rate does, instead of reporting."""
        res = robust_stabilization(wide_batch, 0.9, 0.002, 0.002)
        assert 1.0 <= res.M < 1.1
        with pytest.raises(InvalidParams, match=message):
            verify_robust_gain(wide_batch, M_of(res.M), res.gamma_tilde, 0.002, c0, res.Omega)


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
