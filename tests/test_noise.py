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
    _DRAW_STACK,
    _NoiseSampler,
    _check_closed_loops,
    _scaled_noise_draw,
)
from ddstab import noise as noise_mod
from ddstab.operators import frame_bounds, operator_norm, pseudo_inverse, spectral_radius
from ddstab.systems import DataBatch, counterexample_sequences, reference_cascade_scenario


#: M and noise-free closed-loop radius of a cascade gain that the oracle
#: cases below were first written for; their constants scale with the
#: synthesized gain's.
REFERENCE_M, REFERENCE_RADIUS = 5.773209082287391, 0.827367934882


def zero_noise_like(batch):
    return DataBatch(
        x1=np.zeros_like(batch.x1), x0=np.zeros_like(batch.x0), u0=np.zeros_like(batch.u0)
    )


@pytest.fixture(scope="module")
def projected_cascade():
    _, batch, params = reference_cascade_scenario(n_modes=20, n_samples=5)
    dec = cascade_decomposition(params, 0.89, 0.1, 0.0)
    return projected_batch(batch, dec)


def full_power_check(F, M, gamma_tilde, horizon=100):
    """The power check without pruning: the SVD of every remaining loop at
    every step.  Also returns the step of each power violation."""
    radii = spectral_radius(F)
    worst_radius = float(radii.max(initial=0.0))
    violations = int(np.sum(radii > gamma_tilde + 1e-6))
    worst, steps = -np.inf, []
    P, bound = np.eye(F.shape[-1]), M + 1e-6
    for k in range(1, horizon + 1):
        if F.shape[0] == 0:
            break
        P = F @ P
        bound *= gamma_tilde
        excess = operator_norm(P) - bound
        worst = max(worst, float(excess.max()))
        keep = excess <= 0
        steps += [k] * int(np.sum(~keep))
        F, P = F[keep], P[keep]
    return worst_radius, violations + len(steps), worst if np.isfinite(worst) else 0.0, steps


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
    assert name == "empty"
    return np.empty((0, 4, 4)), 2.0, 0.9


def one_draw_at_a_time(rng, batch, Omega, c1, c0, fill, max_tries):
    """The noise draw written for one generator (c1, c0 > 0): every try is
    built as a DataBatch and checked with noise_in_class."""
    n, m, N = batch.n, batch.m, batch.N
    Om_pinv = pseudo_inverse(Omega)
    perp = np.eye(N) - Omega @ Om_pinv
    data0 = np.vstack([batch.Xi0, batch.Ups0])
    B1, B0 = batch.Xi1 @ Omega, data0 @ Omega
    rms1 = np.linalg.norm(batch.Xi1) / max(1.0, np.sqrt(N * n))
    rms0 = np.linalg.norm(data0) / max(1.0, np.sqrt(N * (n + m)))
    for _ in range(max_tries):
        G1, G0 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        Phi1 = G1 * (fill * c1 / operator_norm(G1))
        Phi0 = G0 * (fill * c0 / operator_norm(G0))
        free1 = fill * c1 * rms1 * rng.standard_normal((n, N)) @ perp
        free0 = fill * c0 * rms0 * rng.standard_normal((n + m, N)) @ perp
        D0 = B0 @ Phi0 @ Om_pinv + free0
        draw = DataBatch(x1=(B1 @ Phi1 @ Om_pinv + free1).T, x0=D0[:n].T, u0=D0[n:].T)
        if noise_in_class(draw, batch, NoiseClassParams(c1, c0, Omega)):
            return draw
    return None


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
        stacked check must count what a loop over single systems counts,
        stopping each system at its first excess.  The ids are (M, gamma~)
        for the gain with M = REFERENCE_M and noise-free closed-loop radius
        REFERENCE_RADIUS; M keeps its ratio to the synthesized M, and the
        second gamma~ its distance to the synthesized loop's radius (gamma~ =
        0.93 in the first case)."""
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        M = M_ratio * res.M
        gamma_tilde = 0.93
        if radius_gap is not None:
            gamma_tilde = spectral_radius(projected_cascade.Xi1 @ res.Omega) + radius_gap
        c, trials, seed, per_trial = 0.02, 10, 3, 3
        report = verify_robust_gain(
            projected_cascade, res.K, M, gamma_tilde, c, c, res.Omega, trials=trials, seed=seed,
            systems_per_trial=per_trial,
        )
        n = projected_cascade.n
        violations, worst_excess, worst_radius = 0, -np.inf, 0.0
        # the systems of all trials come, trial after trial, from one stream
        family = np.random.default_rng([seed, 0, 1])
        for t in range(trials):
            noise, failed = _scaled_noise_draw(
                np.random.default_rng([seed, t]), projected_cascade, res.Omega, c, c
            )
            assert not failed
            Xi1 = projected_cascade.Xi1 - noise.Xi1
            W = np.vstack([projected_cascade.Xi0 - noise.Xi0, projected_cascade.Ups0 - noise.Ups0])
            Wp = pseudo_inverse(W)
            T = family.standard_normal((per_trial, n, W.shape[0]))
            for AB in Xi1 @ Wp + T @ (np.eye(W.shape[0]) - W @ Wp):
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

    @pytest.mark.parametrize(
        "case",
        ["steps", "violators-apart", "radius-above-1", "cascade-c0.02", "zero-and-nilpotent",
         "only-nilpotent", "single", "empty"],
    )
    def test_pruned_power_check_matches_full_svd(self, projected_cascade, case):
        """Skipping the SVD of the loops that the Frobenius and row/column
        bounds clear must not change a bit of the result."""
        F, M, gamma_tilde = power_check_case(case, projected_cascade)
        worst_radius, violations, worst_excess, steps = full_power_check(F, M, gamma_tilde)
        assert _check_closed_loops(F, M, gamma_tilde, 100) == (worst_radius, violations, worst_excess)
        if case == "steps":
            assert len(set(steps)) >= 3
        if case in ("radius-above-1", "cascade-c0.02"):
            assert gamma_tilde > 1.1
        if case == "radius-above-1":
            assert violations > 0

    def test_pruning_skips_most_svds(self, monkeypatch):
        F = random_loops(200, np.linspace(0.3, 0.9, 200), seed=6)
        sizes = []
        monkeypatch.setattr(
            noise_mod, "operator_norm", lambda P: sizes.append(len(P)) or operator_norm(P)
        )
        assert _check_closed_loops(F, 20.0, 0.95, 100)[1] == 0
        assert len(sizes) == 100
        assert sum(sizes) < 0.25 * 100 * len(F)

    @pytest.mark.parametrize("c, fill", [(0.003, 0.9), (0.02, 0.9), (0.01, 1 + 3e-6)])
    def test_stacked_draws_match_one_at_a_time(self, projected_cascade, c, fill):
        """Drawing for many generators in stacks gives bitwise what each
        generator draws alone, here and through _scaled_noise_draw.  At
        fill 1 + 3e-6 some first tries leave the class and are drawn again."""
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        rngs = lambda: [np.random.default_rng([9, t]) for t in range(_DRAW_STACK + 10)]
        sampler = _NoiseSampler(projected_cascade, res.Omega, c, c, fill=fill)
        stacked = sampler.draw(rngs(), max_tries=5)
        assert len(stacked) == _DRAW_STACK + 10
        for rng, again, drawn in zip(rngs(), rngs(), stacked):
            ref = one_draw_at_a_time(rng, projected_cascade, res.Omega, c, c, fill, 5)
            draw, failed = _scaled_noise_draw(
                again, projected_cascade, res.Omega, c, c, fill=fill, max_tries=5
            )
            assert ref is not None and drawn is not None and not failed
            ref0 = np.vstack([ref.Xi0, ref.Ups0])
            assert np.array_equal(drawn[0], ref.Xi1) and np.array_equal(drawn[1], ref0)
            assert np.array_equal(draw.Xi1, ref.Xi1)
            assert np.array_equal(np.vstack([draw.Xi0, draw.Ups0]), ref0)
        if fill > 1:
            first = sampler.draw(rngs(), max_tries=1)
            assert 0 < sum(d is None for d in first) < len(first)

    def test_draws_outside_budget_all_rejected(self, projected_cascade):
        """Factors at twice the budget leave the class: every path gives up."""
        res = robust_stabilization(projected_cascade, 0.9, 0.003, 0.003)
        args = (projected_cascade, res.Omega, 0.01, 0.01)
        draw, failed = _scaled_noise_draw(np.random.default_rng(0), *args, fill=2.0, max_tries=3)
        assert failed and not draw.x1.any()
        assert one_draw_at_a_time(np.random.default_rng(0), *args, 2.0, 3) is None
        sampler = _NoiseSampler(*args, fill=2.0)
        assert sampler.draw([np.random.default_rng(0)], max_tries=3) == [None]


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
