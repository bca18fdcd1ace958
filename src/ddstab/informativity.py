"""Noise-free informativity tests, gain synthesis and the compatible family.

The tests work on the data matrices Xi0, Xi1 and Ups0 of a DataBatch: a rank
test of [Xi0; Ups0] for identification, and the lmi module's rank, PBH and
Riccati-scan decision for stabilization.  Rank decisions stand in for the
dense-range conditions of the underlying theory; they are exact when the
batch dimensions are the true ones.  A gain is K = Ups0 R for the right
inverse R of Xi0 that the lmi module returns, and its certificate refers to
the closed loop Xi1 R, which equals A + B K for every data-compatible
(A, B).  ``sample_compatible_systems`` draws from the compatible family
Xi1 W^+ + T (I - W W^+), W = [Xi0; Ups0], on which ``verify`` decides a gain
in closed form (finitedata.verify_on_compatible_plus).
"""

from dataclasses import dataclass

import numpy as np

from . import lmi
from .errors import InvalidParams
from .operators import (
    DEFAULT_TOL,
    PowerStabilityCertificate,
    _pinv_and_rank,
    rank_at_tol,
)
from .systems import DataBatch, counterexample_sequences


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
class NotInformative:
    """Stabilization test failed at ``stage`` ('rank' or 'lmi').

    ``reason`` says whether the verdict is a certificate: "rank" (the state
    data do not span), "pbh" (the eigenvalue ``mode`` of the data's open
    loop, at or above gamma, is out of the inputs' reach) or "numerical"
    (inconclusive: no candidate gain was accepted).  ``rank`` is the rank of
    Xi0 at ``tol`` that the synthesis SVD decided: below n for "rank", n
    otherwise.
    """

    stage: str
    margin: float
    reason: str
    rank: int
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


def synthesize_gain(Xi0, Xi1, Ups0, gamma, tol=DEFAULT_TOL):
    """Shared LMI route: decide, and take the gain from the right inverse.

    The lmi module returns a right inverse R of Xi0 with rho(Xi1 R) < gamma
    and the certificate and spectral radius of F = Xi1 R from the ranking
    that chose it; the gain is K = Ups0 R.  Returns GainResult or
    NotInformative; used by the full-dimension test here and by the
    projected test in finitedata.
    ``tol`` is the rank and PBH tolerance of the LMI decision; feasibility
    and symmetry thresholds are the lmi module defaults.
    """
    problem = lmi.LmiProblem(Xi0=Xi0, Xi1=Xi1, gamma=gamma, tol=tol)
    outcome = lmi.solve_feasibility(problem)
    if isinstance(outcome, lmi.Infeasible):
        return NotInformative(
            stage="lmi", margin=outcome.best_margin, reason=outcome.reason,
            rank=outcome.rank, mode=outcome.mode,
        )
    right_inverse = outcome.right_inverse
    return GainResult(
        K=Ups0 @ right_inverse,
        certificate=outcome.certificate,
        lmi_margin=outcome.min_eig,
        achieved_radius=outcome.radius,
        right_inverse=right_inverse,
    )


def stabilization_informative(batch: DataBatch, gamma, tol=DEFAULT_TOL):
    """Decide informativity for stabilization with decay rate gamma.

    Decides the block LMI exactly (rank of Xi0, then a PBH test); on success
    returns the gain K = Ups0 R, for a right inverse R of Xi0, together with
    a power-stability certificate of the reconstructed closed loop Xi1 R at
    rate gamma.  Failure returns NotInformative with its reason; rank
    deficiency of the state data surfaces there rather than as a separate
    stage.  ``tol`` is the rank and PBH tolerance; feasibility and symmetry
    thresholds are the lmi defaults, and lmi.LmiProblem checks gamma and tol.
    """
    return synthesize_gain(batch.Xi0, batch.Xi1, batch.Ups0, gamma, tol)


def _check_family_draw(count, scale, seed):
    """A compatible-family draw's contract, held also where none is drawn."""
    if count < 0 or seed < 0:
        raise InvalidParams("count and seed must be >= 0")
    if not (0.0 < scale < np.inf):
        raise InvalidParams("scale must be finite and positive")


def sample_compatible_systems(Xi0, Xi1, Ups0, count, scale=1.0, seed=0):
    """Draw [A B] from the affine family compatible with the data.

    The general solution of [A B] W = Xi1 with W = [Xi0; Ups0] is
    Xi1 W^+ + T (I - W W^+) over free T.  Returns the draws stacked as an
    array of shape (count, n, n + m); the T of all slices are ``scale``
    times one standard Gaussian draw of shape (count, n, n + m) from the
    stream ``seed``, filled slice after slice, so slice i does not depend on
    ``count``.  When W has rank n + m at the cut of W^+ the family is the
    one system Xi1 W^+: every slice is that system and no stream is drawn.
    Requires consistent data (data generated by some system).
    """
    _check_family_draw(count, scale, seed)
    W = np.vstack([Xi0, Ups0])
    Wp, rank, _ = _pinv_and_rank(W, DEFAULT_TOL)
    base = Xi1 @ Wp
    if rank == W.shape[0]:
        return np.repeat(base[None], count, axis=0)
    T = scale * np.random.default_rng(seed).standard_normal((count,) + base.shape)
    return base + T @ (np.eye(W.shape[0]) - W @ Wp)


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
