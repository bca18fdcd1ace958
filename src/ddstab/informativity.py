"""Noise-free informativity tests and data-driven gain synthesis.

All tests operate on the synthesis-operator matrices of a DataBatch.  Rank
decisions stand in for the dense-range conditions of the underlying theory;
they are exact when the batch dimensions are the true ones.  Gains are
taken from the right inverse R of Xi0 that the lmi module returns, as
K = Ups0 R, and certificates always refer to the data-reconstructed closed
loop Xi1 R, which equals A + B K for every data-compatible (A, B).
"""

from dataclasses import dataclass

import numpy as np

from . import lmi
from .errors import InvalidParams
from .operators import (
    DEFAULT_TOL,
    PowerStabilityCertificate,
    construct_certificate,
    pseudo_inverse,
    rank_at_tol,
    spectral_radius,
)
from .systems import DataBatch, LinearSystem, counterexample_sequences


@dataclass(frozen=True)
class IdentificationReport:
    """Rank verdict for identification informativity; truthy when informative."""

    informative: bool
    rank: int
    required_rank: int
    tol: float

    def __bool__(self):
        return self.informative


@dataclass(frozen=True)
class NotUnique:
    """The data admit more than one compatible system."""

    rank: int
    required_rank: int


@dataclass(frozen=True)
class NotInformative:
    """Stabilization test failed at ``stage`` ('rank', 'lmi' or 'certificate').

    ``reason`` says whether the verdict is a certificate: "rank" (the state
    data do not span), "pbh" (the eigenvalue ``mode`` of the data's open
    loop, at or above gamma, is out of the inputs' reach) or "numerical"
    (inconclusive: no candidate gain was accepted).
    """

    stage: str
    margin: float
    reason: str
    mode: complex | None = None


@dataclass(frozen=True)
class GainResult:
    """Synthesized gain with its closed-loop certificate.

    ``lmi_margin`` is the accepted block minimum eigenvalue and
    ``achieved_radius`` the spectral radius of the data-reconstructed closed
    loop; callers needing strict decay should check achieved_radius < gamma
    with their own slack.  ``right_inverse`` is the map R behind the gain:
    Xi0 R = I, K = Ups0 R, closed loop = Xi1 R.
    """

    K: np.ndarray
    certificate: PowerStabilityCertificate
    lmi_margin: float
    achieved_radius: float
    right_inverse: np.ndarray


def identification_informative(batch: DataBatch, tol=DEFAULT_TOL) -> IdentificationReport:
    """True iff rank [Xi0; Ups0] equals n + m at the given tolerance."""
    H = np.vstack([batch.Xi0, batch.Ups0])
    required = batch.n + batch.m
    rank = rank_at_tol(H, tol)
    return IdentificationReport(
        informative=(rank == required), rank=rank, required_rank=required, tol=tol
    )


def unique_system(batch: DataBatch, tol=DEFAULT_TOL):
    """Recover the unique compatible system, or NotUnique.

    When informative, [A B] = Xi1 H^+ is the single bounded solution of
    Xi1 = A Xi0 + B Ups0; the reconstruction residual is checked against
    ``tol`` relative to Xi1.
    """
    report = identification_informative(batch, tol)
    if not report:
        return NotUnique(rank=report.rank, required_rank=report.required_rank)
    H = np.vstack([batch.Xi0, batch.Ups0])
    AB = batch.Xi1 @ pseudo_inverse(H, tol)
    A, B = AB[:, : batch.n], AB[:, batch.n :]
    residual = np.linalg.norm(A @ batch.Xi0 + B @ batch.Ups0 - batch.Xi1)
    if residual > tol * (1.0 + np.linalg.norm(batch.Xi1)):
        return NotUnique(rank=report.rank, required_rank=report.required_rank)
    return LinearSystem(A=A, B=B)


def synthesize_gain(Xi0, Xi1, Ups0, gamma):
    """Shared LMI route: decide, take the gain from the right inverse, certify.

    The lmi module returns a right inverse R of Xi0 with rho(Xi1 R) < gamma;
    the gain is K = Ups0 R and the certificate refers to F = Xi1 R.  Returns
    GainResult or NotInformative; used by the full-dimension test here and by
    the projected test in finitedata.  Feasibility and symmetry thresholds are
    the lmi module defaults.
    """
    problem = lmi.LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=gamma)
    outcome = lmi.solve_feasibility(problem)
    if isinstance(outcome, lmi.Infeasible):
        return NotInformative(
            stage="lmi", margin=outcome.best_margin, reason=outcome.reason, mode=outcome.mode
        )
    right_inverse = outcome.right_inverse
    K = Ups0 @ right_inverse
    F = Xi1 @ right_inverse
    certificate = construct_certificate(F, gamma)
    if not isinstance(certificate, PowerStabilityCertificate):
        return NotInformative(stage="certificate", margin=outcome.min_eig, reason="numerical")
    return GainResult(
        K=K,
        certificate=certificate,
        lmi_margin=outcome.min_eig,
        achieved_radius=spectral_radius(F),
        right_inverse=right_inverse,
    )


def stabilization_informative(batch: DataBatch, gamma, tol=DEFAULT_TOL):
    """Decide informativity for stabilization with decay rate gamma.

    Decides the block LMI exactly (rank of Xi0, then a PBH test); on success
    returns the gain K = Ups0 R, for a right inverse R of Xi0, together with
    a power-stability certificate of the reconstructed closed loop Xi1 R at
    rate gamma.  Failure returns NotInformative with its reason; rank
    deficiency of the state data surfaces there rather than as a separate
    stage.  Feasibility and symmetry thresholds are the lmi defaults.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParams("gamma must lie in (0, 1)")
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    return synthesize_gain(batch.Xi0, batch.Xi1, batch.Ups0, gamma)


def _min_eig_sym(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def gain_inequality_holds(batch: DataBatch, K, c, floor=1e-9):
    """Check (Xi0 + K^T Ups0)^T (Xi0 + K^T Ups0) <= c^2 (Xi0^T Xi0 + Ups0^T Ups0)^2.

    A positive-semidefinite test with eigenvalue floor ``-floor`` after
    symmetrization.  Monotone in c: holding at c implies holding above.
    """
    if c < 0:
        raise InvalidParams("c must be nonnegative")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    lhs = batch.Xi0 + K.T @ batch.Ups0
    gram = batch.Xi0.T @ batch.Xi0 + batch.Ups0.T @ batch.Ups0
    M = c**2 * (gram @ gram) - lhs.T @ lhs
    return _min_eig_sym(M) >= -floor


def closed_range_inequality_holds(batch: DataBatch, c, tol=DEFAULT_TOL):
    """Check Xi0^T Xi0 <= c^2 (Xi0^T Xi0)^2.

    Holds iff every nonzero eigenvalue mu of the Gram matrix satisfies
    mu >= 1/c^2, i.e. iff x0 is a frame for its closed span.  Eigenvalues
    below ``tol`` times the largest count as zero.
    """
    if c < 0:
        raise InvalidParams("c must be nonnegative")
    eigs = np.linalg.eigvalsh(batch.Xi0.T @ batch.Xi0)
    top = eigs[-1] if eigs.size else 0.0
    nonzero = eigs[eigs > tol * max(top, 0.0)] if top > 0 else np.array([])
    if nonzero.size == 0:
        return True
    return bool(float(nonzero.min()) * c**2 >= 1.0 - 1e-9)


def kernel_basis(M, tol=DEFAULT_TOL):
    """Orthonormal basis of Ker M as columns (possibly empty)."""
    M = np.asarray(M, dtype=float)
    _, s, Vt = np.linalg.svd(M)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(M.shape[1])
    rank = int(np.sum(s >= tol * s[0]))
    return Vt[rank:].T


def range_inclusion_diagnostic(batch: DataBatch, K, tol=DEFAULT_TOL):
    """Finite check of Ran(K Xi0 - Ups0) inside Ups0(Ker Xi0).

    Projects each column of K Xi0 - Ups0 onto the span of Ups0 applied to an
    orthonormal kernel basis of Xi0; true iff every residual is <= tol
    (absolute).  This is the computable form of the range-inclusion
    condition a stabilizing gain must satisfy.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    target = K @ batch.Xi0 - batch.Ups0
    Z = kernel_basis(batch.Xi0, tol)
    image = batch.Ups0 @ Z if Z.size else np.zeros((batch.m, 0))
    Q = _orthonormal_range(image, tol)
    residual = target if Q.shape[1] == 0 else target - Q @ (Q.T @ target)
    return bool(np.all(np.linalg.norm(residual, axis=0) <= tol))


def _orthonormal_range(M, tol=DEFAULT_TOL):
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], 0))
    rank = int(np.sum(s >= tol * s[0]))
    return U[:, :rank]


def input_distinguishes_kernel(batch: DataBatch, tol=DEFAULT_TOL):
    """True iff some coefficient vector in Ker Xi0 excites a nonzero input.

    Satisfied, for instance, by two samples with proportional states but
    non-proportional inputs.  Reported as a diagnostic only; no necessity
    claim is attached at finite truncation.
    """
    Z = kernel_basis(batch.Xi0, tol)
    if Z.shape[1] == 0:
        return False
    return bool(np.linalg.norm(batch.Ups0 @ Z) > tol * max(1.0, np.linalg.norm(batch.Ups0)))


def sample_compatible_systems(Xi0, Xi1, Ups0, count, scale=1.0, seed=0):
    """Draw [A B] from the affine family compatible with the data.

    The general solution of [A B] W = Xi1 with W = [Xi0; Ups0] is
    Xi1 W^+ + T (I - W W^+) over free T.  Returns the draws stacked as an
    array of shape (count, n, n + m); slice i uses T = ``scale`` times a
    standard Gaussian from the stream (seed, i), so a slice does not depend
    on ``count`` or on evaluation order.  Requires consistent data (data
    generated by some system).
    """
    if count < 0:
        raise InvalidParams("count must be >= 0")
    if scale <= 0:
        raise InvalidParams("scale must be positive")
    W = np.vstack([Xi0, Ups0])
    shape = (Xi1.shape[0], W.shape[0])
    T = np.empty((count,) + shape)
    for i in range(count):
        T[i] = np.random.default_rng([seed, i]).standard_normal(shape)
    return _compatible_family(Xi1, W, pseudo_inverse(W), scale * T)


def _compatible_family(Xi1, W, Wp, T):
    """Xi1 W^+ + T_i (I - W W^+) for each slice T_i of the stack T, from
    W = [Xi0; Ups0] and its pseudoinverse ``Wp``: the draws of
    ``sample_compatible_systems`` for callers that hold W^+ and draw T
    themselves.  Stacks of data, Xi1 (..., n, N), W (..., n + m, N) and Wp
    (..., N, n + m), pair with T of shape (..., count, n, n + m)."""
    free = np.eye(W.shape[-2]) - W @ Wp
    return (Xi1 @ Wp)[..., None, :, :] + T @ free[..., None, :, :]


def least_squares_gain_norm_growth(n_list):
    """Norms of the minimal gains matching inputs on the counterexample data.

    For each truncation n, builds the sequences x0(k) = e_k/k,
    u0(k) = k^(-3/2) and computes the minimal-norm K with K Xi0 = Ups0 on
    Ran Xi0; its entries are 1/sqrt(k), so the returned norms are square
    roots of partial harmonic sums and grow without bound.  The finite
    shadow of the fact that no bounded gain exists in the limit.
    """
    norms = []
    for n in n_list:
        batch = counterexample_sequences(int(n))
        Kt, *_ = np.linalg.lstsq(batch.Xi0.T, batch.Ups0.T, rcond=None)
        norms.append(float(np.linalg.norm(Kt)))
    return norms
