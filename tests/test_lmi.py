import numpy as np
import pytest

from ddstab import lmi, operators
from ddstab.errors import DimensionMismatch, InvalidParams
from ddstab.informativity import NotInformative, synthesize_gain
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

    @pytest.mark.parametrize("field", ["tol", "feas_margin", "sym_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    def test_thresholds_must_be_finite_and_positive(self, field, value):
        """``tol`` is checked; the acceptance thresholds are finite positive
        class constants, which no caller can set."""
        if field != "tol":
            assert 0.0 < getattr(LmiProblem, field) < np.inf
        with pytest.raises(InvalidParams if field == "tol" else TypeError):
            LmiProblem(Xi0=np.eye(2), Xi1=np.eye(2), gamma=0.9, **{field: value})

    def test_zero_state_data_infeasible(self):
        out = solve_feasibility(
            LmiProblem(Xi0=np.zeros((2, 3)), Xi1=np.ones((2, 3)), gamma=0.9)
        )
        assert isinstance(out, Infeasible)
        assert out.best_margin <= -1.0 + 1e-9


def data_from_system(A, B, rng, N):
    """(Xi0, Xi1, Ups0) with N random samples x1 = A x0 + B u0."""
    Xi0 = rng.standard_normal((A.shape[0], N))
    Ups0 = rng.standard_normal((B.shape[1], N))
    return Xi0, A @ Xi0 + B @ Ups0, Ups0


def admissible_margins(Xi0, Xi1, gamma, rng, count=20):
    """Block margins at random admissible points Lambda = R P: R a random
    right inverse of Xi0, P symmetric positive definite, so Xi0 Lambda = P."""
    n, N = Xi0.shape
    Xi0_pinv = np.linalg.pinv(Xi0)
    kernel = np.eye(N) - Xi0_pinv @ Xi0
    margins = []
    for _ in range(count):
        R = Xi0_pinv + kernel @ rng.standard_normal((N, n)) * rng.uniform(0.1, 10.0)
        G = rng.standard_normal((n, n))
        P = (G @ G.T + 1e-3 * np.eye(n)) * 10.0 ** rng.uniform(-2, 4)
        margins.append(evaluate_block(Xi0, Xi1, gamma, R @ P)[0])
    return margins


class TestExactVerdict:
    def test_minimal_data_fuzz(self):
        """Minimal data N = n + 1, random Xi0, Xi1 and one input, n up to 32,
        gamma in [0.5, 0.95].  [Xi0; Ups0] is square, so one system (A, B)
        stands behind the data.  A positive verdict must give rho(A + B K) <
        gamma by eigvals on that system and ||F^k|| <= M gamma^k with M
        attained.  A negative verdict must be a rank or PBH certificate that
        an independent SVD confirms, or else say it is inconclusive
        ("numerical") on data that pass both tests.  Inconclusive verdicts
        are the double-precision limit of single-input data with many fast
        unstable modes; they are counted, and none may occur below n = 20."""
        rng = np.random.default_rng(2024)
        verdicts = {"positive": 0, "rank": 0, "pbh": 0, "numerical": 0}
        for n in [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32] * 2:
            gamma = float(rng.uniform(0.5, 0.95))
            Xi0 = rng.standard_normal((n, n + 1))
            Xi1 = rng.standard_normal((n, n + 1))
            Ups0 = rng.standard_normal((1, n + 1))
            AB = np.linalg.solve(np.vstack([Xi0, Ups0]).T, Xi1.T).T
            A, B = AB[:, :n], AB[:, n:]
            result = synthesize_gain(Xi0, Xi1, Ups0, gamma)
            if isinstance(result, NotInformative):
                verdicts[result.reason] += 1
                assert result.margin < 0.0
                A_hat, Z = Xi1 @ np.linalg.pinv(Xi0), np.linalg.svd(Xi0)[2][n:].T
                pencils = [
                    np.linalg.svd(np.hstack([A_hat - lam * np.eye(n), Xi1 @ Z]), compute_uv=False)
                    for lam in np.linalg.eigvals(A_hat)
                    if abs(lam) >= gamma
                ]
                uncontrollable = any(s[-1] < 1e-9 * s[0] for s in pencils)
                if result.reason == "numerical":
                    assert n >= 20 and not uncontrollable
                else:
                    assert result.reason == "pbh" and uncontrollable
                continue
            verdicts["positive"] += 1
            F = A + B @ result.K
            assert np.max(np.abs(np.linalg.eigvals(F))) < gamma
            M, k0 = result.certificate.M, result.certificate.horizon_checked
            ratios = []
            P = np.eye(n)
            for k in range(2 * k0 + 100):
                ratios.append(np.linalg.norm(P, 2) / gamma**k)
                P = F @ P
            assert max(ratios) <= M * (1.0 + 1e-9)
            assert max(ratios) >= M * (1.0 - 1e-6)
        print(f"minimal-data fuzz verdicts: {verdicts}")
        assert verdicts["positive"] >= 20

    def test_unreachable_mode_above_gamma_is_certified_infeasible(self):
        """A mode at 1.2 that no input reaches: the verdict is a PBH
        certificate naming it, and no admissible point beats its margin."""
        rng = np.random.default_rng(5)
        A = np.diag([1.2, 1.5, 0.3])
        A[1, 2] = 1.0
        B = np.array([[0.0], [1.0], [1.0]])
        Xi0, Xi1, _ = data_from_system(A, B, rng, 6)
        out = solve_feasibility(LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=0.9))
        assert isinstance(out, Infeasible)
        assert out.reason == "pbh"
        assert out.mode == pytest.approx(1.2, abs=1e-9)
        assert out.best_margin == pytest.approx(-1.0 / (1.0 + 1.2**2), rel=1e-9)
        assert max(admissible_margins(Xi0, Xi1, 0.9, rng)) <= out.best_margin + 1e-9

    def test_rank_verdict_bounds_every_margin(self):
        rng = np.random.default_rng(6)
        Xi0 = np.outer(rng.standard_normal(3), rng.standard_normal(5))
        out = solve_feasibility(LmiProblem(Xi0=Xi0, Xi1=rng.standard_normal((3, 5)), gamma=0.9))
        assert isinstance(out, Infeasible) and out.reason == "rank" and out.best_margin == -1.0

    @pytest.mark.parametrize("slow", [0.899, 0.8999999])
    def test_unreachable_mode_just_below_gamma_certifies(self, slow):
        """An unreachable mode just below gamma leaves the pair
        gamma-stabilizable: the verdict must be positive, with the slow mode
        in the closed loop."""
        rng = np.random.default_rng(7)
        A = np.diag([slow, 1.4, -1.1])
        A[1, 2] = 0.5
        B = np.array([[0.0], [1.0], [0.7]])
        Xi0, Xi1, Ups0 = data_from_system(A, B, rng, 6)
        result = synthesize_gain(Xi0, Xi1, Ups0, 0.9)
        assert not isinstance(result, NotInformative), result
        radius = np.max(np.abs(np.linalg.eigvals(A + B @ result.K)))
        assert slow - 1e-6 <= radius < 0.9

    @pytest.mark.parametrize("seed", [2, 5])
    def test_singular_doubling_step_breaks_down_one_pair(self, seed):
        """An unreachable mode at 0.895, just below gamma = 0.9: at the scan
        rates below it the scaled pair cannot be stabilized, and a doubling
        step meets an exactly singular I + G H.  Only that pair breaks down;
        the verdict is positive and the gain stabilizes the true system."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 6))
        A *= 1.3 / spectral_radius(A)
        A[0] = 0.0
        A[0, 0] = 0.895
        B = rng.standard_normal((6, 1))
        B[0] = 0.0
        Xi0, Xi1, Ups0 = data_from_system(A, B, rng, 7)
        result = synthesize_gain(Xi0, Xi1, Ups0, 0.9)
        assert not isinstance(result, NotInformative), result
        assert spectral_radius(A + B @ result.K) < 0.9


def riccati_reference(A, B, rates, weights):
    """_riccati_gains as first written: a fresh identity, a concatenated
    right-hand side [A_k, G_k A_k^T] and np.linalg.norm at every doubling
    step."""
    n, q = B.shape
    rate = np.repeat(rates, len(weights))[:, None, None]
    weight = np.tile(weights, len(rates))[:, None, None]
    c = rate.shape[0]
    As, Bs = A / rate, B / rate
    Ak = As.copy()
    G = Bs @ np.swapaxes(Bs, 1, 2) / weight
    H = np.broadcast_to(np.eye(n), (c, n, n)).copy()
    live = np.arange(c)
    with np.errstate(all="ignore"):
        for _ in range(lmi._DOUBLING_STEPS):
            full = live.size == c
            a, g, h = (Ak, G, H) if full else (Ak[live], G[live], H[live])
            at = np.swapaxes(a, 1, 2)
            solved = lmi._solve_or_nan(np.eye(n) + g @ h, np.concatenate([a, g @ at], axis=2))
            WA, WGAt = solved[..., :n], solved[..., n:]
            h_next = h + at @ h @ WA
            h_next = 0.5 * (h_next + np.swapaxes(h_next, 1, 2))
            g_next = g + a @ WGAt
            a_next, g_next = a @ WA, 0.5 * (g_next + np.swapaxes(g_next, 1, 2))
            if full:
                Ak, G, H = a_next, g_next, h_next
            else:
                Ak[live], G[live], H[live] = a_next, g_next, h_next
            change = np.linalg.norm(h_next - h, axis=(1, 2))
            size = np.linalg.norm(h_next, axis=(1, 2))
            settled = ~(change > 4 * np.finfo(float).eps * size)
            live = live[~settled & np.isfinite(size)]
            if live.size == 0:
                break
        Bt = np.swapaxes(Bs, 1, 2)
        K = -lmi._solve_or_nan(weight * np.eye(q) + Bt @ H @ Bs, Bt @ H @ As)
    K[~np.all(np.isfinite(K), axis=(1, 2))] = np.nan
    return K


class TestRiccatiGains:
    def test_same_bits_as_reference_on_random_pairs(self):
        """200 random (A, B), n 1 to 20 with 1 to 3 inputs and radius 0.5
        to 2, on the scan's rates and weights: the gains are bitwise those of
        the reference doubling step, NaNs included."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, q = int(rng.integers(1, 21)), int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            A *= rng.uniform(0.5, 2.0) / max(spectral_radius(A), 1e-12)
            B = rng.standard_normal((n, q))
            gamma = rng.uniform(0.5, 0.95)
            rates = gamma + lmi._RATE_OFFSETS
            rates, weights = rates[rates > 0], lmi._INPUT_WEIGHTS
            K = lmi._riccati_gains(A, B, rates, weights)
            assert K.tobytes() == riccati_reference(A, B, rates, weights).tobytes()

    @pytest.mark.parametrize("seed", [2, 5])
    def test_same_bits_as_reference_on_singular_step(self, seed, monkeypatch):
        """The instances of the singular doubling step: the pairs that break
        down give NaN gains, and every gain of the scan, NaN or not, has the
        reference's bits."""
        calls = []
        gains = lmi._riccati_gains

        def checked(A, B, rates, weights):
            K = gains(A, B, rates, weights)
            assert K.tobytes() == riccati_reference(A, B, rates, weights).tobytes()
            calls.append(np.isnan(K).any(axis=(1, 2)))
            return K

        monkeypatch.setattr(lmi, "_riccati_gains", checked)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 6))
        A *= 1.3 / spectral_radius(A)
        A[0] = 0.0
        A[0, 0] = 0.895
        B = rng.standard_normal((6, 1))
        B[0] = 0.0
        Xi0, Xi1, Ups0 = data_from_system(A, B, rng, 7)
        assert not isinstance(synthesize_gain(Xi0, Xi1, Ups0, 0.9), NotInformative)
        assert len(calls) == 1 and calls[0].any() and not calls[0].all()


def stein_one_step(F, rate):
    """_stein_solution with its head summed and tested one power at a time."""
    n = F.shape[0]
    Fs = F / rate
    A = np.eye(n)
    P = np.eye(n)
    for _ in range(operators._CERTIFICATE_HORIZON):
        A = Fs @ A
        if np.linalg.norm(A) <= 0.5:
            break
        P += A @ A.T
    P /= rate**2
    for _ in range(lmi._DOUBLING_STEPS):
        step = A @ P @ A.T
        P = P + 0.5 * (step + step.T)
        if not np.linalg.norm(step) > np.finfo(float).eps * np.linalg.norm(P):
            break
        A = A @ A
    return P


def half_norm_loop():
    """A 4 x 4 loop whose square is scaled to Frobenius norm 1/2: the
    batched norm of the square reads 1/2 + 1 ulp, np.linalg.norm reads 1/2."""
    G = np.random.default_rng([2, 30]).standard_normal((4, 4))
    return G * np.sqrt(0.5 / np.linalg.norm(G @ G))


def slow_loop(rho, n=6, seed=0):
    """A non-normal n x n loop of spectral radius rho."""
    G = np.random.default_rng(seed).standard_normal((n, n))
    return G * (rho / spectral_radius(G))


def head_of_length(steps, n=3):
    """An n x n loop c Q, Q orthogonal, whose Stein head at rate 1 stops at
    power ``steps``: ||(c Q)^k||_F = c^k sqrt(n) is 1/2 at k = steps - 1/2,
    a factor c^(1/2) away from the powers on either side."""
    Q = np.linalg.qr(np.random.default_rng(steps).standard_normal((n, n)))[0]
    return Q * (0.5 / np.sqrt(n)) ** (1 / (steps - 0.5))


class TestSteinSolution:
    @pytest.mark.parametrize(
        "F, rate",
        [
            pytest.param(slow_loop(0.995), 1.0, id="rho/rate-0.995"),
            pytest.param(slow_loop(0.9995, seed=1), 1.0, id="rho/rate-0.9995"),
            pytest.param(slow_loop(0.99999, seed=2), 1.0, id="past-the-horizon"),
            pytest.param(np.array([[0.5]]), 1.0, id="norm-exactly-half"),
            pytest.param(half_norm_loop(), 1.0, id="norm-rounds-to-half"),
            pytest.param(0.25 * np.eye(4), 1.0, id="half-at-step-1"),
            pytest.param(np.array([[0.9, 40.0], [0.0, 0.9]]), 0.95, id="transient"),
            pytest.param(np.zeros((3, 3)), 0.5, id="zero"),
            pytest.param(np.array([[0.998]]), 1.0, id="one-by-one"),
            *[
                pytest.param(head_of_length(steps), 1.0, id=f"stop-at-{steps}")
                for steps in (1, 63, 64, 65, 129)
            ],
            pytest.param(head_of_length(81, n=40), 1.0, id="n40-stop-at-81"),
            pytest.param(slow_loop(0.99, n=40), 1.0, id="n40-slow"),
        ],
    )
    def test_blocked_head_matches_one_step_loop(self, F, rate):
        """Forming the head's powers in blocks keeps every bit of P, with
        heads that stop on either side of a block's edge, and at n = 40,
        where the element budget cuts a block to 40 powers."""
        assert lmi._stein_solution(F, rate).tobytes() == stein_one_step(F, rate).tobytes()

    @pytest.mark.parametrize("n, N", [(4, 5), (8, 9), (12, 30)])
    def test_achieved_radius_is_the_loop_radius(self, n, N):
        """The radius a solution carries is bitwise rho(Xi1 R), which the gain
        result reports as its achieved radius."""
        rng = np.random.default_rng(n)
        Xi0, Xi1, gamma = random_feasible_instance(rng, n, N)
        Xi1 = Xi1 + rng.standard_normal(Xi1.shape)
        sol = solve_feasibility(LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=gamma))
        assert isinstance(sol, LmiSolution)
        assert sol.radius == spectral_radius(Xi1 @ sol.right_inverse)
        result = synthesize_gain(Xi0, Xi1, np.ones((1, N)), gamma)
        assert result.achieved_radius == sol.radius


def near_gamma_unreachable_instance():
    """(Xi0, Xi1, Ups0) of a 7-state system whose verdict at gamma = 0.9 is
    "numerical": its mode at 0.8999911 is out of the input's reach, so every
    loop of the scan with rho < gamma has rho / gamma = 1 - 1e-5, and none
    reaches its k0 within the power horizon."""
    rng = np.random.default_rng(1113)
    n = int(rng.integers(3, 9))
    N = int(rng.integers(n + 1, n + 5))
    A = rng.standard_normal((n, n))
    A *= rng.uniform(1.0, 1.5) / spectral_radius(A)
    A[0] = 0.0
    A[0, 0] = 0.9 - rng.uniform(0, 0.02)
    B = rng.standard_normal((n, 1))
    B[0] = 0.0
    Xi0, Ups0 = rng.standard_normal((n, N)), rng.standard_normal((1, N))
    return Xi0, A @ Xi0 + B @ Ups0, Ups0


class TestRankField:
    """Infeasible.rank and NotInformative.rank are the count of the rank cut
    of Xi0 at tol: below n on rank-deficient data, n on every other verdict."""

    @pytest.mark.parametrize("tol, rank", [(1e-9, 3), (1e-4, 2), (1e-2, 1)])
    def test_rank_deficient_data(self, tol, rank):
        rng = np.random.default_rng(11)
        Xi0 = np.hstack([np.diag([1.0, 1e-3, 1e-6, 1e-12]), np.zeros((4, 3))])
        Xi1, Ups0 = rng.standard_normal((4, 7)), rng.standard_normal((1, 7))
        out = solve_feasibility(LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=0.9, tol=tol))
        assert (out.reason, out.rank) == ("rank", rank)
        verdict = synthesize_gain(Xi0, Xi1, Ups0, 0.9, tol)
        assert (verdict.reason, verdict.rank) == ("rank", rank)

    def test_full_rank_verdicts(self):
        rng = np.random.default_rng(5)
        A = np.diag([1.2, 1.5, 0.3])
        A[1, 2] = 1.0
        B = np.array([[0.0], [1.0], [1.0]])
        reasons = []
        for Xi0, Xi1, Ups0 in (data_from_system(A, B, rng, 6), near_gamma_unreachable_instance()):
            out = solve_feasibility(LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=0.9))
            verdict = synthesize_gain(Xi0, Xi1, Ups0, 0.9)
            assert out.reason == verdict.reason
            assert out.rank == verdict.rank == Xi0.shape[0]
            reasons.append(out.reason)
        assert reasons == ["pbh", "numerical"]
