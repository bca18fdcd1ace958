"""Operator-theoretic primitives on dense matrices.

Synthesis operators (matrices whose columns are data vectors), frame/Bessel
bounds, rank-aware pseudoinverses, minimal-constant factorizations of the
range-inclusion kind, and power-stability certificates.  Everything here is
real double precision; complex data must be embedded by the caller.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyData, InvalidParams

#: Default relative singular-value threshold for rank decisions.
DEFAULT_TOL = 1e-9


def _as_matrix(S):
    """Accept a SynthesisOperator or a plain 2-D array."""
    if isinstance(S, SynthesisOperator):
        return S.matrix
    M = np.asarray(S, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class SynthesisOperator:
    """Dense matrix whose k-th column is the k-th data vector.

    The finite-truncation stand-in for the operator sending a coefficient
    sequence w to sum_k w_k eta_k.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
            raise DimensionMismatch(f"synthesis operator needs a dim x N matrix, got {M.shape}")
        if not np.all(np.isfinite(M)):
            raise InvalidParams("synthesis operator entries must be finite")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def dim(self):
        """Ambient dimension (number of rows)."""
        return self.matrix.shape[0]

    @property
    def N(self):
        """Number of data vectors (columns)."""
        return self.matrix.shape[1]


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


def build_synthesis(data_vectors):
    """Stack data vectors as columns of a SynthesisOperator.

    Parameters
    ----------
    data_vectors : sequence of 1-D arrays
        All vectors must share the same dimension.  Copied verbatim; no
        normalization is applied.
    """
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in data_vectors]
    if not vecs:
        raise EmptyData("at least one data vector is required")
    dim = vecs[0].shape[0]
    for k, v in enumerate(vecs):
        if v.shape[0] != dim:
            raise DimensionMismatch(f"vector {k} has dimension {v.shape[0]}, expected {dim}")
    return SynthesisOperator(np.column_stack(vecs))


def singular_values(S):
    """Singular values of a synthesis operator or matrix, descending."""
    return np.linalg.svd(_as_matrix(S), compute_uv=False)


def rank_at_tol(S, tol=DEFAULT_TOL):
    """Rank from singular values >= tol * sigma_max."""
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    s = singular_values(S)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= tol * s[0]))


def frame_bounds(S, tol=DEFAULT_TOL):
    """Upper (Bessel) and lower (frame) bounds of a finite sequence.

    The upper bound is the largest eigenvalue of S S^T.  The lower bound is
    the smallest eigenvalue of S S^T when the columns span the ambient space
    (full row rank at ``tol``), and 0 otherwise.
    """
    M = _as_matrix(S)
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    dim = M.shape[0]
    s = singular_values(M)
    smax = s[0] if s.size else 0.0
    rank = 0 if smax == 0.0 else int(np.sum(s >= tol * smax))
    upper = float(smax**2)
    lower = float(s[dim - 1] ** 2) if (rank == dim and s.size >= dim) else 0.0
    return FrameBounds(upper=upper, lower=lower, rank=rank, tol=tol)


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


def construct_certificate(F, gamma, k_max=10000):
    """Power-stability certificate ||F^k|| <= M gamma^k for all k >= 0.

    Searches for the smallest k0 in 1..k_max with ||F^k0|| <= gamma^k0 and
    sets M to the largest ratio ||F^r|| / gamma^r over 0 <= r < k0.  Norms
    are tracked in log scale so large transients cannot overflow.

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
    log_gamma = np.log(gamma)
    # log ||F^r|| for r = 0 .. k0, computed on a running normalized power
    log_norms = [0.0]
    P = np.eye(F.shape[0])
    log_scale = 0.0
    k0 = None
    for k in range(1, k_max + 1):
        P = F @ P
        s = operator_norm(P)
        if s == 0.0:
            log_norm = -np.inf
        else:
            P = P / s
            log_scale += np.log(s)
            log_norm = log_scale
        log_norms.append(log_norm)
        if log_norm <= k * log_gamma:
            k0 = k
            break
    if k0 is None:
        return NotCertifiable(
            reason=f"no k0 <= {k_max} with ||F^k0|| <= gamma^k0; raise k_max",
            spectral_radius=rho,
            gamma=gamma,
        )
    M = float(np.exp(max(log_norms[r] - r * log_gamma for r in range(k0))))
    return PowerStabilityCertificate(M=max(M, 1.0), gamma=float(gamma), horizon_checked=k0)
