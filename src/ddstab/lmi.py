"""Small dense LMI feasibility engine for data-driven stabilization.

Solves: find Lambda (N x n) with Xi0 Lambda self-adjoint and

    [[gamma^2 Xi0 Lambda - I,  Xi1 Lambda],
     [(Xi1 Lambda)^T,          Xi0 Lambda]]  >=  0.

The symmetry constraint is eliminated by restricting Lambda to the null
space of the linear map Lambda -> Xi0 Lambda - (Xi0 Lambda)^T (computed by
SVD); over the reduced variable the smallest eigenvalue of the block matrix
is maximized through its smooth softmin surrogate with a damped Newton
method and a decreasing smoothing parameter.  Newton is affine invariant,
which matters here: feasible Lambda can be orders of magnitude larger than
the data when the stacked data matrix is ill conditioned, and first-order
ascent stalls long before reaching them.

Instances are tiny (block sizes around 20 x 20), so robustness is preferred
over asymptotic speed throughout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams, NumericalBreakdown
from .operators import DEFAULT_TOL, pseudo_inverse, rank_at_tol

#: Accept a solution when the block's smallest eigenvalue is >= -feas_margin.
DEFAULT_FEAS_MARGIN = 1e-8
#: Largest tolerated Frobenius asymmetry of Xi0 Lambda, relative to
#: max(1, ||Xi0 Lambda||_F).
DEFAULT_SYM_TOL = 1e-9
DEFAULT_MAX_ITERS = 500

# early-stop level for the smoothed ascent; anything above it is comfortably
# feasible and further polishing only inflates Lambda
_STOP_MARGIN = 1e-3
_MU_SCHEDULE_FACTOR = 0.2
_MU_MIN = 1e-10


@dataclass(frozen=True)
class LmiProblem:
    """Feasibility data: matrices Xi0, Xi1 (n x N) and the decay rate.

    A point is accepted when the block's smallest eigenvalue is at least
    ``-feas_margin`` and ||Xi0 Lambda - (Xi0 Lambda)^T||_F is at most
    ``sym_tol * max(1, ||Xi0 Lambda||_F)``: the asymmetry is judged against
    the size of Xi0 Lambda, which on ill-conditioned data can be large
    enough that round-off alone exceeds any fixed absolute level.
    """

    Xi0: np.ndarray
    Xi1: np.ndarray
    gamma: float
    feas_margin: float = DEFAULT_FEAS_MARGIN
    sym_tol: float = DEFAULT_SYM_TOL

    def __post_init__(self):
        Xi0 = np.asarray(self.Xi0, dtype=float)
        Xi1 = np.asarray(self.Xi1, dtype=float)
        if Xi0.ndim != 2 or Xi0.shape != Xi1.shape:
            raise DimensionMismatch(f"Xi0 {Xi0.shape} and Xi1 {Xi1.shape} must be equal-shape 2-D")
        if not (np.all(np.isfinite(Xi0)) and np.all(np.isfinite(Xi1))):
            raise InvalidParams("problem data must be finite")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParams("gamma must lie in (0, 1)")
        if self.feas_margin <= 0 or self.sym_tol <= 0:
            raise InvalidParams("feas_margin and sym_tol must be positive")
        object.__setattr__(self, "Xi0", Xi0)
        object.__setattr__(self, "Xi1", Xi1)


@dataclass(frozen=True)
class LmiSolution:
    """Accepted feasible point with its independently checkable residuals."""

    Lambda: np.ndarray
    min_eig: float
    sym_residual: float
    iterations: int


@dataclass(frozen=True)
class Infeasible:
    """No feasible point found; best_margin is the largest min-eig reached.

    Not a certificate of infeasibility: a negative best margin only means
    the search stopped without producing a point at the requested level.
    """

    best_margin: float
    iterations: int


def evaluate_block(Xi0, Xi1, gamma, Lambda):
    """Smallest eigenvalue of the symmetrized block and the raw asymmetry.

    Never rejects: asymmetric Xi0 Lambda is folded in by symmetrizing the
    assembled block at machine level and reported through the residual.
    """
    Xi0 = np.asarray(Xi0, dtype=float)
    Xi1 = np.asarray(Xi1, dtype=float)
    Lambda = np.asarray(Lambda, dtype=float)
    n, N = Xi0.shape
    if Xi1.shape != (n, N) or Lambda.shape != (N, n):
        raise DimensionMismatch(
            f"shapes disagree: Xi0 {Xi0.shape}, Xi1 {Xi1.shape}, Lambda {Lambda.shape}"
        )
    S = Xi0 @ Lambda
    T = Xi1 @ Lambda
    M = np.block([[gamma**2 * S - np.eye(n), T], [T.T, S]])
    M = 0.5 * (M + M.T)
    min_eig = float(np.linalg.eigvalsh(M)[0])
    sym_residual = float(np.linalg.norm(S - S.T))
    return min_eig, sym_residual


def _commutation(n):
    K = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            K[i * n + j, j * n + i] = 1.0
    return K


def _symmetry_null_basis(Xi0):
    """Orthonormal basis of {vec Lambda : Xi0 Lambda symmetric} (column-major vec)."""
    n, N = Xi0.shape
    asym = (np.eye(n * n) - _commutation(n)) @ np.kron(np.eye(n), Xi0)
    _, s, Vt = np.linalg.svd(asym)
    cutoff = max(asym.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return Vt[rank:].T


class _SmoothedMinEig:
    """Softmin of the block eigenvalues with exact gradient and Hessian.

    f_mu(theta) = -mu log tr exp(-M(theta)/mu) with M(theta) affine in the
    reduced variable; f_mu is smooth, concave, and within mu*log(2n) of the
    true minimum eigenvalue.  Derivatives follow from the Daleckii-Krein
    divided-difference formula in the eigenbasis.
    """

    def __init__(self, Xi0, Xi1, gamma, basis):
        n, N = Xi0.shape
        self.n = n
        d = basis.shape[1]
        self.d = d
        M0 = np.zeros((2 * n, 2 * n))
        M0[:n, :n] = -np.eye(n)
        self.M0 = M0
        Bs = np.zeros((d, 2 * n, 2 * n))
        for j in range(d):
            Lj = basis[:, j].reshape((N, n), order="F")
            S = Xi0 @ Lj
            S = 0.5 * (S + S.T)
            T = Xi1 @ Lj
            Bs[j, :n, :n] = gamma**2 * S
            Bs[j, :n, n:] = T
            Bs[j, n:, :n] = T.T
            Bs[j, n:, n:] = S
        self.Bs = Bs

    def assemble(self, theta):
        return self.M0 + np.tensordot(theta, self.Bs, axes=1)

    def min_eig(self, theta):
        return float(np.linalg.eigvalsh(self.assemble(theta))[0])

    def value(self, theta, mu):
        lam = np.linalg.eigvalsh(self.assemble(theta))
        lmin = lam[0]
        return float(lmin - mu * np.log(np.sum(np.exp((lmin - lam) / mu)))), float(lmin)

    def value_grad_hess(self, theta, mu):
        M = self.assemble(theta)
        lam, V = np.linalg.eigh(M)
        lmin = lam[0]
        w = np.exp((lmin - lam) / mu)
        phi = w.sum()
        f = lmin - mu * np.log(phi)
        wbar = w / phi
        # basis matrices rotated into the eigenbasis of M
        Bt = np.einsum("pi,jpq,qk->jik", V, self.Bs, V, optimize=True)
        g = np.einsum("jpp,p->j", Bt, wbar)
        dl = lam[None, :] - lam[:, None]
        diff = w[:, None] - w[None, :]
        scale = max(1.0, float(abs(lam[-1] - lam[0])))
        with np.errstate(divide="ignore", invalid="ignore"):
            G = np.where(
                np.abs(dl) > 1e-14 * scale,
                mu * diff / np.where(dl == 0.0, 1.0, dl),
                w[:, None],
            )
        G = G / phi
        H1 = np.einsum("jpq,kpq,pq->jk", Bt, Bt, G, optimize=True)
        H = -(H1 - np.outer(g, g)) / mu
        return float(f), g, H, float(lmin)


def _symmetrize_refinement(Xi0, Lambda):
    """One correction step pushing the asymmetry of Xi0 Lambda to round-off.

    Valid when Xi0 has full row rank (guaranteed on the accepted branch by
    the (1,1) block); Xi0 Xi0^+ = I there, so subtracting
    Xi0^+ (skew part)/2 cancels the asymmetry exactly in real arithmetic.
    """
    S = Xi0 @ Lambda
    skew = S - S.T
    return Lambda - pseudo_inverse(Xi0, tol=DEFAULT_TOL) @ (0.5 * skew)


def solve_feasibility(problem: LmiProblem, max_iters=DEFAULT_MAX_ITERS, seed=0):
    """Search for a feasible Lambda; deterministic for a fixed seed.

    Returns an LmiSolution whose ``min_eig`` and ``sym_residual`` are the
    values an independent call to evaluate_block reproduces, or Infeasible
    carrying the best margin reached within the iteration budget.

    Raises NumericalBreakdown if non-finite values appear.
    """
    Xi0, Xi1, gamma = problem.Xi0, problem.Xi1, problem.gamma
    n, N = Xi0.shape

    # warm start near Xi0 Lambda = I / gamma^2, which already satisfies the
    # diagonal blocks whenever Xi0 has full row rank
    warm = pseudo_inverse(Xi0, tol=DEFAULT_TOL) / gamma**2

    if rank_at_tol(Xi0, DEFAULT_TOL) < n:
        # any unit x orthogonal to Ran Xi0 gives [x; 0]^T M [x; 0] = -1 for
        # every Lambda, so the supremum margin is capped at -1: no search
        min_eig, _ = evaluate_block(Xi0, Xi1, gamma, warm)
        min_eig_zero, _ = evaluate_block(Xi0, Xi1, gamma, np.zeros((N, n)))
        return Infeasible(best_margin=max(min_eig, min_eig_zero), iterations=0)

    basis = _symmetry_null_basis(Xi0)
    if basis.shape[1] == 0:
        # only Lambda = 0 is admissible
        min_eig, _ = evaluate_block(Xi0, Xi1, gamma, np.zeros((N, n)))
        return Infeasible(best_margin=min_eig, iterations=0)

    obj = _SmoothedMinEig(Xi0, Xi1, gamma, basis)
    d = obj.d

    theta = basis.T @ warm.reshape(-1, order="F")
    rng = np.random.default_rng(seed)
    theta = theta + 1e-6 * (1.0 + np.linalg.norm(theta)) * rng.standard_normal(d)

    best_theta = theta.copy()
    best_eig = obj.min_eig(theta)
    iterations = 0
    mu = 1.0
    while mu >= _MU_MIN and iterations < max_iters and best_eig < _STOP_MARGIN:
        converged = False
        while iterations < max_iters:
            f, g, H, lmin = obj.value_grad_hess(theta, mu)
            if not (np.isfinite(f) and np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
                raise NumericalBreakdown("non-finite values in LMI ascent")
            if lmin > best_eig:
                best_eig, best_theta = lmin, theta.copy()
            if best_eig >= _STOP_MARGIN:
                break
            # damped Newton ascent step
            Hn = -H
            ridge = 1e-12 * max(1.0, float(np.abs(np.diag(Hn)).max()))
            try:
                L = np.linalg.cholesky(Hn + ridge * np.eye(d))
                step = np.linalg.solve(L.T, np.linalg.solve(L, g))
            except np.linalg.LinAlgError:
                step = g
            slope = float(g @ step)
            if not np.isfinite(slope) or slope <= 0.0:
                step, slope = g, float(g @ g)
            t, improved = 1.0, False
            for _ in range(60):
                f_trial, lmin_trial = obj.value(theta + t * step, mu)
                if np.isfinite(f_trial) and f_trial >= f + 1e-4 * t * slope:
                    improved = True
                    break
                t *= 0.5
            iterations += 1
            if not improved:
                converged = True
                break
            theta = theta + t * step
            if lmin_trial > best_eig:
                best_eig, best_theta = lmin_trial, theta.copy()
            if t * np.linalg.norm(step) < 1e-12 * max(1.0, np.linalg.norm(theta)):
                converged = True
                break
        mu *= _MU_SCHEDULE_FACTOR
        if not converged and iterations >= max_iters:
            break

    Lambda = (basis @ best_theta).reshape((N, n), order="F")
    min_eig, sym_residual = evaluate_block(Xi0, Xi1, gamma, Lambda)
    if min_eig < -problem.feas_margin:
        return Infeasible(best_margin=min_eig, iterations=iterations)

    refined = _symmetrize_refinement(Xi0, Lambda)
    min_eig_r, sym_residual_r = evaluate_block(Xi0, Xi1, gamma, refined)
    if min_eig_r >= -problem.feas_margin and sym_residual_r <= sym_residual:
        Lambda, min_eig, sym_residual = refined, min_eig_r, sym_residual_r
    if sym_residual > problem.sym_tol * max(1.0, float(np.linalg.norm(Xi0 @ Lambda))):
        return Infeasible(best_margin=min_eig, iterations=iterations)
    return LmiSolution(
        Lambda=Lambda, min_eig=min_eig, sym_residual=sym_residual, iterations=iterations
    )
