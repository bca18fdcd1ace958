"""Operator-theoretic primitives on dense matrices.

Singular values and the one rank rule, frame/Bessel bounds, range and
kernel bases, rank-aware pseudoinverses, minimal-constant factorizations of
the range-inclusion kind, and power-stability certificates.  Everything here is
real double precision; complex data must be embedded by the caller.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams

#: Default relative singular-value threshold for rank decisions.
DEFAULT_TOL = 1e-9
#: Widening of the log-scale norm bounds in least_certificate, far above
#: the rounding of either bound.
_LOG_SLACK = 1e-9


@dataclass(frozen=True)
class FrameBounds:
    """Extreme eigenvalues of the Gram matrix S S^T and the rank decision.

    ``lower`` is positive exactly when the columns have full row rank at the
    tolerance used, i.e. when the finite sequence is a frame for its ambient
    space.  At finite truncation the upper (Bessel) bound is always finite,
    so only the bounds are reported, never a Bessel yes/no.
    """

    upper: float
    lower: float
    rank: int
    tol: float


@dataclass(frozen=True)
class PowerStabilityCertificate:
    """Constants (M, gamma) with a verified bound ||F^k|| <= M gamma^k.

    ``horizon_checked`` is the smallest k0 >= 1 with ||F^k0|| <= gamma^k0.
    Validity for every k >= 0 follows from submultiplicativity: writing
    k = q k0 + r with 0 <= r < k0 gives
    ||F^k|| <= ||F^k0||^q ||F^r|| <= gamma^(q k0) M gamma^r = M gamma^k.
    """

    M: float
    gamma: float
    horizon_checked: int


@dataclass(frozen=True)
class NotCertifiable:
    """Certificate construction failed; not a fault, a verdict."""

    reason: str
    spectral_radius: float
    gamma: float


@dataclass(frozen=True)
class DouglasFactor:
    """Factor C with B C = A and the minimal scaling constant ||C||."""

    C: np.ndarray
    norm_c: float
    residual: float


@dataclass(frozen=True)
class NoFactorization:
    """No factor exists: Ran A is not contained in Ran B."""

    residual: float


def _rank_count(s, tol):
    """Rank from descending singular values ``s``: the count of those at or
    above ``tol * s[0]``, and 0 when there are none or the largest is 0."""
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s >= tol * s[0]))


def singular_values(S):
    """Singular values of a 2-D matrix, descending."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {S.shape}")
    return np.linalg.svd(S, compute_uv=False)


def rank_at_tol(S, tol=DEFAULT_TOL):
    """Rank from singular values >= tol * sigma_max."""
    return _rank_count(singular_values(S), tol)


def frame_bounds(S, tol=DEFAULT_TOL):
    """Upper (Bessel) and lower (frame) bounds of a finite sequence.

    The upper bound is the largest eigenvalue of S S^T.  The lower bound is
    the smallest eigenvalue of S S^T when the columns span the ambient space
    (full row rank at ``tol``), and 0 otherwise.
    """
    s = singular_values(S)
    rank = _rank_count(s, tol)
    dim = np.shape(S)[0]
    upper = float(s[0] ** 2) if s.size else 0.0
    lower = float(s[dim - 1] ** 2) if (rank == dim and s.size >= dim) else 0.0
    return FrameBounds(upper=upper, lower=lower, rank=rank, tol=tol)


def range_and_kernel(M, tol=DEFAULT_TOL):
    """Orthonormal bases of Ran M and of Ker M, as columns, from one SVD of
    the 2-D matrix M at the rank of rank_at_tol; either may have no columns."""
    U, s, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    rank = _rank_count(s, tol)
    return U[:, :rank], Vt[rank:].T


def pseudo_inverse(M, tol=DEFAULT_TOL):
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``tol * sigma_max`` are treated as zero.  A stack
    of shape (..., p, q) gives a stack of shape (..., q, p), each slice the
    pseudoinverse of the matching slice.
    """
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    M = np.asarray(M, dtype=float)
    if 0 in M.shape[-2:]:
        return np.zeros(M.shape[:-2] + (M.shape[-1], M.shape[-2]))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    top = s[..., :1]
    keep = (s >= tol * top) & (top > 0.0)
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    pinv = (np.swapaxes(Vt, -1, -2) * s_inv[..., None, :]) @ np.swapaxes(U, -1, -2)
    # a zero slice is +0.0 throughout, not the signed zeros of the product
    return np.where(top[..., None] > 0.0, pinv, 0.0)


def douglas_minimal_constant(A, B, tol=1e-8):
    """Minimal c with A A^T <= c^2 B B^T, via the factor C = B^+ A.

    Returns a DouglasFactor when the factorization B C = A closes to within
    ``tol * max(1, ||A||_F)`` in Frobenius norm, in which case ``norm_c``
    (the largest singular value of C) is the minimal admissible constant.
    Otherwise returns NoFactorization, signaling that Ran A is not contained
    in Ran B.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise DimensionMismatch(f"row dimensions differ: A {A.shape}, B {B.shape}")
    C = pseudo_inverse(B, tol=min(tol, DEFAULT_TOL)) @ A
    residual = float(np.linalg.norm(B @ C - A))
    if residual > tol * max(1.0, float(np.linalg.norm(A))):
        return NoFactorization(residual=residual)
    norm_c = float(singular_values(C)[0]) if C.size else 0.0
    return DouglasFactor(C=C, norm_c=norm_c, residual=residual)


def spectral_radius(F):
    """Largest eigenvalue modulus of a square matrix.

    A stack of shape (..., n, n) gives an array of shape (...), one radius
    per matrix.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim < 2 or F.shape[-1] != F.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got {F.shape}")
    if not np.all(np.isfinite(F)):
        raise InvalidParams("matrix entries must be finite")
    if F.shape[-1] == 0:
        radius = np.zeros(F.shape[:-2])
    else:
        radius = np.max(np.abs(np.linalg.eigvals(F)), axis=-1)
    return float(radius) if F.ndim == 2 else radius


def operator_norm(F):
    """Spectral (2-) norm.

    A stack of shape (..., p, q) gives an array of shape (...), one norm
    per matrix.
    """
    F = np.asarray(F, dtype=float)
    if F.shape[-1] == 0 or F.shape[-2] == 0:
        norm = np.zeros(F.shape[:-2])
    else:
        norm = np.linalg.svd(F, compute_uv=False)[..., 0]
    return float(norm) if F.ndim == 2 else norm


def least_certificate(F, gamma, k_max):
    """The loop of the stack F (L, n, n) with the smallest power-stability
    constant M at rate gamma, as (index, PowerStabilityCertificate); ties go
    to the lowest index, and None when no loop reaches its k0 within
    ``k_max`` powers.

    k0 of a loop is the first power k >= 1 with ||F^k|| <= gamma^k, and M
    the largest ratio ||F^r|| / gamma^r over 0 <= r < k0 (so M >= 1, from
    r = 0).  All loops are powered as one stack, in log scale so that large
    transients cannot overflow; a loop leaves as soon as its running maximum
    exceeds the smallest M finished so far, since its own M can only be
    larger, so the argmin is exact.  Each power is kept at unit Frobenius
    norm, which bounds its 2-norm by 1 from above and by its largest row or
    column norm from below (each bound widened by _LOG_SLACK against
    rounding); the SVD runs only where these bounds could raise the running
    maximum or straddle the k0 test, so the steps it skips cannot move M or
    k0.
    """
    log_gamma = np.log(gamma)
    index = np.arange(len(F))  # the stack position of each live loop
    P = np.broadcast_to(np.eye(F.shape[-1]), F.shape)
    log_scale = np.zeros(len(F))  # log ||F^k||_F
    running = np.zeros(len(F))  # log of the largest ratio so far; r = 0 gives 0
    best = (np.inf, len(F), None)  # (log M, index, k0) of the least loop finished
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            P = F @ P
            sq = P * P
            rows = sq.sum(axis=2)
            fro = np.sqrt(rows.sum(axis=1))
            cols = sq.sum(axis=1)
            edge = np.sqrt(np.maximum(rows.max(axis=1, initial=0.0), cols.max(axis=1, initial=0.0)))
            fro_safe = np.where(fro > 0, fro, 1.0)
            P = P / fro_safe[:, None, None]
            log_scale += np.log(fro)
            upper = log_scale - k * log_gamma
            lower = upper + np.log(edge / fro_safe)
            ratio = np.where(upper <= 0.0, upper, lower)  # decides the k0 test alone
            exact = (upper + _LOG_SLACK > running) | (
                (upper + _LOG_SLACK > 0.0) & (lower - _LOG_SLACK <= 0.0)
            )
            if exact.any():
                ratio[exact] = upper[exact] + np.log(operator_norm(P[exact]))
                running = np.where(exact, np.maximum(running, ratio), running)
            done = ratio <= 0.0
            for i in np.flatnonzero(done):
                if (running[i], index[i]) < best[:2]:
                    best = (running[i], index[i], k)
            keep = ~done & (running <= best[0])
            if not keep.all():
                F, P, index = F[keep], P[keep], index[keep]
                log_scale, running = log_scale[keep], running[keep]
            if index.size == 0:
                break
    log_m, i, k0 = best
    if k0 is None:
        return None
    return int(i), PowerStabilityCertificate(
        M=float(np.exp(log_m)), gamma=float(gamma), horizon_checked=k0
    )


def construct_certificate(F, gamma, k_max=10000):
    """Power-stability certificate ||F^k|| <= M gamma^k for all k >= 0.

    The smallest k0 in 1..k_max with ||F^k0|| <= gamma^k0, and M the largest
    ratio ||F^r|| / gamma^r over 0 <= r < k0: least_certificate on the
    one-loop stack.

    Returns NotCertifiable when the spectral radius exceeds gamma or when no
    such k0 exists within ``k_max`` (the gap to gamma is reported through
    the spectral radius field).  At rho exactly gamma the bounded search
    decides: normal-like matrices certify with M = 1, defective ones whose
    power ratios never dip below 1 exhaust k_max.
    """
    if gamma <= 0:
        raise InvalidParams("gamma must be positive")
    F = np.asarray(F, dtype=float)
    rho = spectral_radius(F)
    if rho > gamma:
        return NotCertifiable(
            reason=f"spectral radius {rho:.6g} is not below gamma={gamma:.6g}",
            spectral_radius=rho,
            gamma=gamma,
        )
    least = least_certificate(F[None], gamma, k_max)
    if least is None:
        return NotCertifiable(
            reason=f"no k0 <= {k_max} with ||F^k0|| <= gamma^k0; raise k_max",
            spectral_radius=rho,
            gamma=gamma,
        )
    return least[1]
