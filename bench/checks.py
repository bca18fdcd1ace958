"""Independent checks of ddstab's outputs, written with numpy alone.

Nothing here imports ddstab: each check recomputes what the program claims
from the raw data and rejects a wrong answer by raising CheckFailed.
"""

import math

import numpy as np

#: Relative slack on ||F^k|| <= M gamma^k; M is tight by construction, so the
#: largest ratio reaches 1 to round-off (1 + 1e-12 on the cascade).
POWER_RTOL = 1e-9
#: M must be attained to this relative tolerance.  Looser than POWER_RTOL:
#: the program tracks powers in log scale, and at M ~ 180 the two ways of
#: computing ||F^k|| part by ~7e-10.
TIGHT_RTOL = 1e-6
#: Largest relative residual ||[A B] H - Xi1|| / ||Xi1|| of a recovered system.
RECOVERY_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def recover_system(x1, x0, u0):
    """The (A, B) behind row-per-sample data x1(k) = A x0(k) + B u0(k).

    Solves [A B] H = Xi1 with H = [Xi0; Ups0]: exactly when H is square,
    by least squares otherwise.  Rejects data whose H lacks full row rank or
    whose residual is not zero to round-off, since then no unique system
    stands behind them.
    """
    x1, x0, u0 = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (x1, x0, u0))
    n, m = x0.shape[1], u0.shape[1]
    Ht = np.hstack([x0, u0])  # H^T, one row per sample
    if Ht.shape[0] == Ht.shape[1]:
        ABt = np.linalg.solve(Ht, x1)
    else:
        ABt, _, rank, _ = np.linalg.lstsq(Ht, x1, rcond=None)
        if rank < n + m:
            raise CheckFailed(f"[Xi0; Ups0] has rank {rank} < n + m = {n + m}")
    residual = np.linalg.norm(Ht @ ABt - x1) / max(np.linalg.norm(x1), 1e-300)
    if residual > RECOVERY_RTOL:
        raise CheckFailed(f"data residual {residual:.3e} exceeds {RECOVERY_RTOL:g}")
    return ABt.T[:, :n], ABt.T[:, n:]


def spectral_radius(F):
    return float(np.max(np.abs(np.linalg.eigvals(F))))


def check_stabilizes(A, B, K, gamma):
    """rho(A + B K) < gamma by np.linalg.eigvals; returns the radius."""
    rho = spectral_radius(A + B @ np.atleast_2d(K))
    if not rho < gamma:
        raise CheckFailed(f"closed-loop radius {rho:.9g} is not below gamma = {gamma}")
    return rho


def check_power_bound(F, M, gamma, horizon):
    """||F^k|| <= M gamma^k for k = 0..horizon, and M is the largest ratio.

    The bound is checked to a relative POWER_RTOL; tightness asks that the
    largest ratio ||F^k|| / gamma^k reach M to TIGHT_RTOL.  Returns
    the largest ratio over M.
    """
    P = np.eye(F.shape[0])
    worst = 1.0 / M
    for k in range(1, horizon + 1):
        P = F @ P
        worst = max(worst, np.linalg.norm(P, 2) / (M * gamma**k))
    if worst > 1.0 + POWER_RTOL:
        raise CheckFailed(f"||F^k|| exceeds M gamma^k by a factor {worst:.12g}")
    if worst < 1.0 - TIGHT_RTOL:
        raise CheckFailed(f"M = {M:.9g} is not attained: largest ratio {worst * M:.12g}")
    return worst


def robust_rate(M, gamma, c1, c0):
    """gamma~ = (1 + M c1) / (1 - M c0) * gamma."""
    return (1.0 + M * c1) / (1.0 - M * c0) * gamma


def check_robust_rate(gamma_tilde, M, gamma, c1, c0):
    """The reported gamma~ equals the recomputed one and lies below 1."""
    expected = robust_rate(M, gamma, c1, c0)
    if not math.isclose(gamma_tilde, expected, rel_tol=1e-12):
        raise CheckFailed(f"gamma~ = {gamma_tilde!r}, recomputed {expected!r}")
    if not expected < 1.0:
        raise CheckFailed(f"gamma~ = {expected!r} is not below 1")
    return expected


def modal_cutoff(a0, b0, tau, gamma_minus):
    """Smallest n0 >= 0 with n0^2 a0 pi^2 tau >= log(1/gamma_minus) + b0 tau."""
    rhs = (math.log(1.0 / gamma_minus) + b0 * tau) / (a0 * math.pi**2 * tau)
    n0 = 0
    while n0 * n0 < rhs:
        n0 += 1
    return n0


def riccati_witness(A, B, gamma, max_iters=20000):
    """A gain K with rho(A + B K) < gamma, or None.

    Runs the Riccati value iteration of the LQ problem for the scaled pair
    (A / gamma, B / gamma) with unit weights until the cost matrix settles;
    it converges to a stabilizing gain of the scaled pair whenever one
    exists.  The settled gain is returned only if it places the loop below
    gamma.
    """
    As, Bs = A / gamma, B / gamma
    n, m = B.shape
    P = np.eye(n)
    for _ in range(max_iters):
        BtP = Bs.T @ P
        K = -np.linalg.solve(np.eye(m) + BtP @ Bs, BtP @ As)
        Acl = As + Bs @ K
        P_next = np.eye(n) + K.T @ K + Acl.T @ P @ Acl
        P_next = 0.5 * (P_next + P_next.T)
        if not np.abs(P_next).max() < 1e150:  # diverging: no stabilizing gain
            return None
        settled = np.linalg.norm(P_next - P) <= 1e-12 * np.linalg.norm(P_next)
        P = P_next
        if settled:
            break
    return K if spectral_radius(A + B @ K) < gamma else None
