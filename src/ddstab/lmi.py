"""Exact decision and constructive solution of the data-driven stabilization LMI.

The LMI: find Lambda (N x n) with Xi0 Lambda self-adjoint and

    [[gamma^2 Xi0 Lambda - I,  Xi1 Lambda],
     [(Xi1 Lambda)^T,          Xi0 Lambda]]  >=  0.

Its (1,1) block forces S = Xi0 Lambda > 0, so R = Lambda S^-1 is a right
inverse of Xi0, and the Schur complement reads gamma^2 S - F S F^T >= I with
F = Xi1 R: the LMI is feasible iff some right inverse R of Xi0 puts
rho(Xi1 R) below gamma.  When Xi0 has full row rank its right inverses are
R = Xi0^+ + Z Y over free Y, with Z an orthonormal kernel basis of Xi0, and
Xi1 R = A^ + B^ Y with (A^, B^) = (Xi1 Xi0^+, Xi1 Z).  Feasibility is thus
gamma-stabilizability of (A^, B^), which a PBH test decides exactly: every
eigenvalue |lambda| >= gamma of A^ must leave [A^ - lambda I, B^] of full
row rank (van Waarde et al., "Data informativity", IEEE TAC 2020; the gains
Ups0 R are those of De Persis and Tesi, "Formulas for data-driven control",
IEEE TAC 2020).

A feasible instance is then solved constructively.  A fixed grid of
candidate gains Y comes from the gamma_d-scaled discrete Riccati equations
of (A^, B^) over design rates gamma_d and input weights r, all solved as one
stacked structure-preserving doubling iteration (Chu, Fan, Lin et al.,
2004-05).  Of the candidates with rho(F) < gamma, operators.least_certificate
keeps the one with the smallest power-stability constant M, and its
certificate (M, gamma, k0) is the one the solution carries; no second pass
certifies it again.  The ranking itself takes spectral radii, of the loops
that can win only.  Lambda = R P with
gamma'^2 P - F P F^T = I at gamma' = (rho(F) + gamma) / 2 (Smith doubling)
is the witness that evaluate_block re-checks.
"""

import contextlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, InvalidParams
from .operators import (
    _BLOCK_ELEMENTS,
    _BLOCK_STEPS,
    _CERTIFICATE_HORIZON,
    DEFAULT_TOL,
    PowerStabilityCertificate,
    _finite_product,
    _frobenius,
    _rank_count,
    least_certificate,
    spectral_radius,
)

#: Design rates of the scan are gamma plus these offsets (those above 0);
#: each rate is paired with each input weight, rate-major.
_RATE_OFFSETS = np.arange(-10, 10) / 100
_INPUT_WEIGHTS = (1e-6, 1.0)
#: Doubling steps of the Riccati and Stein iterations: step k has summed
#: 2^k terms of a convergent series, so the cap is never the binding stop on
#: a closed loop that is stable at its design rate.
_DOUBLING_STEPS = 64
#: A block norm this close to 1/2 is tested again by np.linalg.norm, whose
#: rounding the one-step test had.
_STEIN_NORM_MARGIN = 1e-12


@dataclass(frozen=True)
class LmiProblem:
    """Feasibility data: matrices Xi0, Xi1 (n x N) and the decay rate.

    A point is accepted when the block's smallest eigenvalue is at least
    ``-feas_margin`` and ||Xi0 Lambda - (Xi0 Lambda)^T||_F is at most
    ``sym_tol * max(1, ||Xi0 Lambda||_F)``: the asymmetry is judged against
    the size of Xi0 Lambda, which on ill-conditioned data can be large
    enough that round-off alone exceeds any fixed absolute level.  ``tol``
    is the relative singular-value threshold of the rank and PBH tests.
    """

    Xi0: np.ndarray
    Xi1: np.ndarray
    gamma: float
    tol: float = DEFAULT_TOL
    feas_margin: ClassVar[float] = 1e-8
    sym_tol: ClassVar[float] = 1e-9

    def __post_init__(self):
        Xi0 = np.asarray(self.Xi0, dtype=float)
        Xi1 = np.asarray(self.Xi1, dtype=float)
        if Xi0.ndim != 2 or Xi0.shape != Xi1.shape:
            raise DimensionMismatch(f"Xi0 {Xi0.shape} and Xi1 {Xi1.shape} must be equal-shape 2-D")
        if not (np.all(np.isfinite(Xi0)) and np.all(np.isfinite(Xi1))):
            raise InvalidParams("problem data must be finite")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParams("gamma must lie in (0, 1)")
        if not (0.0 < self.tol < np.inf):
            raise InvalidParams("tol must be finite and positive")
        object.__setattr__(self, "Xi0", Xi0)
        object.__setattr__(self, "Xi1", Xi1)


@dataclass(frozen=True)
class LmiSolution:
    """Accepted feasible point with its independently checkable residuals.

    ``right_inverse`` is the R behind the point: Xi0 R = I, the gain is
    Ups0 R and the closed loop Xi1 R.  ``iterations`` counts the scan's
    candidate gains.
    ``certificate`` is the (M, gamma, k0) of Xi1 R from the ranking that
    chose it (operators.least_certificate, whose result for a loop does not
    depend on the stack it is ranked in), so it is bitwise what
    construct_certificate(Xi1 R, gamma) gives.  ``radius`` is rho(Xi1 R),
    from which the rate of the Stein solve behind ``Lambda`` is set.
    """

    Lambda: np.ndarray
    min_eig: float
    sym_residual: float
    iterations: int
    right_inverse: np.ndarray
    certificate: PowerStabilityCertificate
    radius: float


@dataclass(frozen=True)
class Infeasible:
    """No feasible point, and why.

    ``reason`` is "rank" when Xi0 lacks full row rank and "pbh" when the
    eigenvalue ``mode`` of A^, with |mode| >= gamma, is out of reach of B^:
    both are certificates, and ``best_margin`` (-1 and -1 / (1 + |mode|^2))
    bounds the block's smallest eigenvalue at every admissible Lambda.
    "numerical" means the instance passed both tests but no candidate gain
    was accepted: not a certificate, and ``best_margin`` is the block's
    smallest eigenvalue at the least-squares point Lambda = Xi0^+ / gamma^2.
    ``iterations`` counts the scan's candidate gains.  ``rank`` is the count
    of singular values of Xi0 that the cut at ``tol`` keeps: below n for
    "rank", n otherwise.
    """

    best_margin: float
    iterations: int
    reason: str
    rank: int
    mode: complex | None = None


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


def _unreachable_modes(A, B, modes, tol):
    """The eigenvalues among ``modes`` at which [A - lambda I, B] loses row
    rank at ``tol`` (the PBH test); no modes give an empty result."""
    n = A.shape[0]
    pencil = np.concatenate(
        [A - modes[:, None, None] * np.eye(n), np.broadcast_to(B, (modes.size,) + B.shape)], axis=2
    )
    return modes[_rank_count(np.linalg.svd(pencil, compute_uv=False), tol) < n]


def _riccati_gains(A, B, rates, weights):
    """Stabilizing gains of the rate-scaled Riccati equations, one per
    (rate, weight) pair, rate-major; NaN where the doubling broke down.

    For each pair the DARE of (A / rate, B / rate) with state weight I and
    input weight ``weight`` I is solved by structure-preserving doubling:
    A_k+1 = A_k W^-1 A_k, G_k+1 = G_k + A_k W^-1 G_k A_k^T,
    H_k+1 = H_k + A_k^T H_k W^-1 A_k with W = I + G_k H_k, from
    (A_0, G_0, H_0) = (A / rate, B B^T / (weight rate^2), I); H_k converges
    to the stabilizing solution X, and K = -(weight I + B'^T X B')^-1 B'^T X A'
    with (A', B') the scaled pair.  A step whose W is exactly singular (a
    rate below a mode out of reach of B) is a breakdown of its pair.
    """
    n, q = B.shape
    rate = np.repeat(rates, len(weights))[:, None, None]
    weight = np.tile(weights, len(rates))[:, None, None]
    c = rate.shape[0]
    As, Bs = A / rate, B / rate
    Ak = As.copy()
    G = Bs @ np.swapaxes(Bs, 1, 2) / weight
    eye, tiny = np.eye(n), 4 * np.finfo(float).eps
    H = np.broadcast_to(eye, (c, n, n)).copy()
    rhs = np.empty((c, n, 2 * n))  # [A_k, G_k A_k^T] of the live pairs
    live = np.arange(c)
    with np.errstate(all="ignore"):
        for _ in range(_DOUBLING_STEPS):
            # no gather or scatter copies while every pair is live
            full = live.size == c
            a, g, h = (Ak, G, H) if full else (Ak[live], G[live], H[live])
            at = np.swapaxes(a, 1, 2)
            right = rhs[: live.size]
            right[..., :n] = a
            np.matmul(g, at, out=right[..., n:])
            solved = _solve_or_nan(eye + g @ h, right)
            WA, WGAt = solved[..., :n], solved[..., n:]
            h_next = h + at @ h @ WA
            h_next = 0.5 * (h_next + np.swapaxes(h_next, 1, 2))
            g_next = g + a @ WGAt
            a_next, g_next = a @ WA, 0.5 * (g_next + np.swapaxes(g_next, 1, 2))
            if full:
                Ak, G, H = a_next, g_next, h_next
            else:
                Ak[live], G[live], H[live] = a_next, g_next, h_next
            # the bits of np.linalg.norm(x, axis=(1, 2)), without its dispatch
            d = h_next - h
            change = np.sqrt(np.add.reduce(d * d, axis=(1, 2)))
            size = np.sqrt(np.add.reduce(h_next * h_next, axis=(1, 2)))
            settled = ~(change > tiny * size)
            live = live[~settled & np.isfinite(size)]
            if live.size == 0:
                break
        Bt = np.swapaxes(Bs, 1, 2)
        K = -_solve_or_nan(weight * np.eye(q) + Bt @ H @ Bs, Bt @ H @ As)
    K[~np.all(np.isfinite(K), axis=(1, 2))] = np.nan
    return K


def _solve_or_nan(a, b):
    """np.linalg.solve over the stacks a, b, with NaN for each exactly
    singular system rather than an error for the whole stack."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for j in range(len(a)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[j] = np.linalg.solve(a[j], b[j])
        return x


def _stein_solution(F, rate):
    """P with rate^2 P - F P F^T = I; needs rho(F) < rate.

    With Fs = F / rate, P = sum_k Fs^k Fs^kT / rate^2.  The terms are summed
    one by one up to the first power A = Fs^L with ||A||_F <= 1/2, past any
    transient of the powers; the rest of the series is sum_j A^j H A^jT for
    that head sum H, which Smith doubling adds up (Smith, SIAM J. Appl. Math.
    1968): step j adds the next 2^j terms through A^(2^j).  Squaring A only
    after its powers contract keeps the squares accurate; doubling from Fs
    itself loses the solution when the powers have a large transient.  The
    head forms its powers in the blocks of least_certificate for one loop and
    takes their norms by _frobenius; one within ``_STEIN_NORM_MARGIN`` of 1/2
    is taken again by np.linalg.norm, so L is the L of a one-by-one loop.
    Each block's terms come from one stacked product and are added to P in
    one call, term after term, so P has the bits of that loop too.
    """
    n = F.shape[0]
    Fs = F / rate
    A = np.eye(n)
    P = np.eye(n)
    size = min(_BLOCK_STEPS, max(_BLOCK_ELEMENTS // max(n * n, 1), 1))
    powers = np.empty((size, n, n))
    # slot 0 holds P and the next slots the block's terms; a running sum
    # adds them in the order of a one-by-one loop (np.add.reduce may sum a
    # 1 x 1 stack pairwise)
    terms = np.empty((size + 1, n, n))
    for start in range(0, _CERTIFICATE_HORIZON, size):
        block = powers[: min(size, _CERTIFICATE_HORIZON - start)]
        for j in range(len(block)):
            np.matmul(Fs, block[j - 1] if j else A, out=block[j])
        norms = _frobenius(block)
        near = np.flatnonzero(np.abs(norms - 0.5) <= _STEIN_NORM_MARGIN)
        norms[near] = [np.linalg.norm(block[j]) for j in near]
        stop = np.flatnonzero(norms <= 0.5)
        head = block[: stop[0] if stop.size else len(block)]
        if len(head):
            terms[0] = P
            np.matmul(head, np.swapaxes(head, 1, 2), out=terms[1 : len(head) + 1])
            P = np.add.accumulate(terms[: len(head) + 1], axis=0)[-1]
        A = block[stop[0] if stop.size else -1].copy()
        if stop.size:
            break
    P /= rate**2
    for _ in range(_DOUBLING_STEPS):
        step = A @ P @ A.T
        P = P + 0.5 * (step + step.T)
        if not np.linalg.norm(step) > np.finfo(float).eps * np.linalg.norm(P):
            break
        A = A @ A
    return P


def _admissible(Xi0, R, F):
    """Which candidates of the stacks R, F = Xi1 R are right inverses of Xi0
    to DEFAULT_TOL (Frobenius residual) with a finite loop F; a huge gain can
    lose the first in round-off.  The spectral radius below gamma is left to
    least_certificate, which takes it only of the loops that can win."""
    ok = np.linalg.norm(Xi0 @ R - np.eye(Xi0.shape[0]), axis=(1, 2)) <= DEFAULT_TOL
    return ok & np.all(np.isfinite(F), axis=(1, 2))


def solve_feasibility(problem: LmiProblem, max_iters=None, seed=None):
    """Decide the LMI exactly and, when feasible, construct a point.

    Returns an LmiSolution whose ``min_eig`` and ``sym_residual`` are the
    values an independent call to evaluate_block reproduces, or Infeasible
    with its reason (see there).  The route has no iteration budget and no
    randomness: ``max_iters`` and ``seed`` are accepted and ignored, and a
    fixed problem always gives the same bits.
    """
    Xi0, Xi1, gamma, tol = problem.Xi0, problem.Xi1, problem.gamma, problem.tol
    n, N = Xi0.shape
    U, s, Vt = np.linalg.svd(Xi0)
    rank = _rank_count(s, tol)
    if rank < n:
        # a unit x orthogonal to Ran Xi0 gives [x; 0]^T M [x; 0] = -1
        return Infeasible(best_margin=-1.0, iterations=0, reason="rank", rank=rank)
    with np.errstate(over="ignore", invalid="ignore"):
        Xi0_pinv = (Vt[:n].T / s) @ U.T
        A = _finite_product(Xi1 @ Xi0_pinv, "Xi1 Xi0^+")
    # B^ cut to its range: B^ Zc = Ub sb with Zc = Z Vb, so that
    # R = Xi0^+ + Zc K for a gain K of (A^, Ub sb)
    Z = Vt[n:].T
    Ub, sb, Vbt = np.linalg.svd(Xi1 @ Z, full_matrices=False)
    rb = _rank_count(sb, tol)
    B, Zc = Ub[:, :rb] * sb[:rb], Z @ Vbt[:rb].T

    # fixed order (largest modulus first) so the reported mode is deterministic
    modes = np.linalg.eigvals(A)
    modes = modes[np.lexsort((-modes.imag, -np.abs(modes)))]
    unreachable = _unreachable_modes(A, B, modes[np.abs(modes) >= gamma], tol)
    if unreachable.size:
        # with w^* A^ = mode w^*, w^* B^ = 0, the vector [w; -conj(mode) w]
        # bounds the margin of every admissible Lambda by -1 / (1 + |mode|^2),
        # taken as -(1 / |mode|)^2 where |mode|^2 would overflow
        mode = complex(unreachable[0])
        r = abs(mode)
        margin = -1.0 / (1.0 + r**2) if r < 2.0**511 else -((1.0 / r) ** 2)
        return Infeasible(best_margin=margin, iterations=0, reason="pbh", rank=n, mode=mode)

    R, F = Xi0_pinv[None], A[None]  # no kernel direction moves the loop
    if rb:
        rates = gamma + _RATE_OFFSETS
        R = Xi0_pinv + Zc @ _riccati_gains(A, B, rates[rates > 0], _INPUT_WEIGHTS)
        F = Xi1 @ R
    candidates = len(R)
    ok = np.flatnonzero(_admissible(Xi0, R, F))
    least = least_certificate(F[ok], gamma, _CERTIFICATE_HORIZON)
    if least is not None:
        R, F, certificate = R[ok[least[0]]], F[ok[least[0]]], least[1]
        radius = spectral_radius(F)
        P = _stein_solution(F, 0.5 * (radius + gamma))
        Lambda = R @ P
        min_eig, sym_residual = evaluate_block(Xi0, Xi1, gamma, Lambda)
        size = max(1.0, float(np.linalg.norm(Xi0 @ Lambda)))
        if min_eig >= -problem.feas_margin and sym_residual <= problem.sym_tol * size:
            return LmiSolution(
                Lambda=Lambda,
                min_eig=min_eig,
                sym_residual=sym_residual,
                iterations=candidates,
                right_inverse=R,
                certificate=certificate,
                radius=radius,
            )
    min_eig, _ = evaluate_block(Xi0, Xi1, gamma, Xi0_pinv / gamma**2)
    return Infeasible(best_margin=min_eig, iterations=candidates, reason="numerical", rank=n)
