"""Informativity for stabilization under structured measurement noise.

The noise triple (delta1, delta0, theta0) is admissible relative to the
measured data when two PSD majorizations hold after right-multiplication by
Omega Omega^T: the state-update noise against Xi1~, and the stacked
state/input noise against [Xi0~; Ups0~].  Under such a class with constants
(c1, c0) and Omega fixed to a computed right inverse of Xi0~, a certified
rate gamma for the reconstructed closed loop degrades to

    gamma~ = (1 + M c1) / (1 - M c0) * gamma      (requires M c0 < 1),

which is below one exactly when gamma c1 + c0 < (1 - gamma) / M.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidParams
from .informativity import _check_sampling, synthesize_gain
from .lmi import Infeasible
from .operators import (
    _ACCEPT_SLACK,
    _BLOCK_ELEMENTS,
    _LOG_SLACK,
    DEFAULT_TOL,
    _frobenius,
    operator_norm,
    spectral_radius,
)
from .systems import DataBatch


@dataclass(frozen=True)
class NoiseClassParams:
    """Constants (c1, c0) and the coefficient map Omega (N x n)."""

    c1: float
    c0: float
    Omega: np.ndarray

    def __post_init__(self):
        _check_noise_constants(self.c1, self.c0)
        object.__setattr__(self, "Omega", np.asarray(self.Omega, dtype=float))


def _check_noise_constants(c1, c0):
    if not (np.isfinite(c1) and np.isfinite(c0)):
        raise InvalidParams("c1 and c0 must be finite")
    if c1 < 0 or c0 < 0:
        raise InvalidParams("c1 and c0 must be nonnegative")


@dataclass(frozen=True)
class NoiseClassCheck:
    """Membership verdict with the two PSD margins (>= -tol passes)."""

    in_class: bool
    margin_state: float
    margin_stacked: float

    def __bool__(self):
        return self.in_class


@dataclass(frozen=True)
class NotApplicable:
    """Robust synthesis stopped at ``stage`` (frame | lmi | margin)."""

    stage: str
    detail: str


@dataclass(frozen=True)
class RobustGainResult:
    """Robust gain with the degraded decay rate gamma~.

    ``margin_ok`` records whether the noise budget satisfies
    gamma c1 + c0 < (1 - gamma) / M, i.e. whether gamma~ < 1.  ``Omega`` is
    the right inverse of Xi0~ defining the noise class the guarantee covers.
    """

    K: np.ndarray
    M: float
    gamma: float
    gamma_tilde: float
    margin_ok: bool
    Omega: np.ndarray


def _check_rate_inputs(M, c0):
    if M < 1:
        raise InvalidParams("M must be >= 1")
    if M * c0 >= 1.0:
        raise InvalidParams("M * c0 must be below 1")


def robust_decay_rate(M, gamma, c1, c0):
    """gamma~ = (1 + M c1)/(1 - M c0) gamma; requires M c0 < 1."""
    _check_rate_inputs(M, c0)
    return (1.0 + M * c1) / (1.0 - M * c0) * gamma


def noise_budget_ok(M, gamma, c1, c0):
    """The admissibility margin: gamma c1 + c0 < (1 - gamma) / M."""
    return bool(gamma * c1 + c0 < (1.0 - gamma) / M)


def _check_noise_shapes(noise_batch: DataBatch, noisy_batch: DataBatch):
    if (noise_batch.n, noise_batch.m, noise_batch.N) != (
        noisy_batch.n,
        noisy_batch.m,
        noisy_batch.N,
    ):
        raise DimensionMismatch("noise and noisy batches must share dimensions")


def _psd_margin(lhs, rhs):
    """Smallest eigenvalue of rhs - lhs after symmetrization."""
    M = rhs - lhs
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def noise_in_class(noise_batch: DataBatch, noisy_batch: DataBatch, params: NoiseClassParams, tol=DEFAULT_TOL):
    """Check the two PSD majorizations defining the noise class.

    The noise triple is packed as a DataBatch: x1 = delta1, x0 = delta0,
    u0 = theta0.  Both inequalities use the eigenvalue floor ``-tol``.
    """
    _check_noise_shapes(noise_batch, noisy_batch)
    Om = params.Omega
    if Om.shape != (noisy_batch.N, noisy_batch.n):
        raise DimensionMismatch(f"Omega must be N x n = {(noisy_batch.N, noisy_batch.n)}, got {Om.shape}")
    D1 = noise_batch.Xi1 @ Om
    X1 = noisy_batch.Xi1 @ Om
    margin_state = _psd_margin(D1 @ D1.T, params.c1**2 * (X1 @ X1.T))
    D0 = np.vstack([noise_batch.Xi0, noise_batch.Ups0]) @ Om
    W0 = np.vstack([noisy_batch.Xi0, noisy_batch.Ups0]) @ Om
    margin_stacked = _psd_margin(D0 @ D0.T, params.c0**2 * (W0 @ W0.T))
    return NoiseClassCheck(
        in_class=bool(margin_state >= -tol and margin_stacked >= -tol),
        margin_state=margin_state,
        margin_stacked=margin_stacked,
    )


def robust_stabilization(noisy_batch: DataBatch, gamma, c1, c0, tol=DEFAULT_TOL):
    """Synthesize a gain from noisy data and certify the degraded rate.

    Pipeline: LMI synthesis of a right inverse Omega of Xi0~, certificate
    (M, gamma) for F = Xi1~ Omega, then gamma~ and the budget margin.
    Returns NotApplicable naming the failing stage when any step is
    unavailable; stage "frame" when the synthesis SVD finds Xi0~ short of
    full row rank, so that the state sequence is not a frame.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParams("gamma must lie in (0, 1)")
    _check_noise_constants(c1, c0)
    synth = synthesize_gain(noisy_batch, gamma, tol)
    if isinstance(synth, Infeasible) and synth.reason == "rank":
        return NotApplicable("frame", f"state sequence is not a frame: rank {synth.rank} < dim {noisy_batch.n}")
    if isinstance(synth, Infeasible):
        return NotApplicable(stage="lmi", detail=f"{synth.reason}, margin {synth.best_margin:.3e}")
    M = synth.certificate.M
    if M * c0 >= 1.0:
        return NotApplicable(stage="margin", detail=f"M*c0 = {M * c0:.3g} >= 1")
    return RobustGainResult(
        K=synth.K,
        M=M,
        gamma=gamma,
        gamma_tilde=robust_decay_rate(M, gamma, c1, c0),
        margin_ok=noise_budget_ok(M, gamma, c1, c0),
        Omega=synth.right_inverse,
    )


@dataclass(frozen=True)
class RobustVerificationReport:
    """Sampled check of the robust guarantee, one closed loop per trial.

    ``rejected_draws`` is always 0: every drawn factor pair lies in the
    class by construction.  The field stays because benchmark traces read
    it.
    """

    trials: int
    worst_radius: float
    radius_bound: float
    violations: int
    rejected_draws: int

    def to_dict(self):
        return asdict(self)


#: Share of the (c1, c0) budget that the drawn factors fill.
_FILL = 0.9


def _draw_factors(rng, count, n, c1, c0):
    """The factor stacks (Phi1, Phi0), each (count, n, n), of ``count``
    trials from ``rng``: trial t takes the pair (G1, G0) in row t of one
    ``standard_normal((count, 2, n, n))`` call, so its draw does not depend
    on the other trials, and rescales it to operator norms _FILL (c1, c0)."""
    G = rng.standard_normal((count, 2, n, n))
    G *= (_FILL * np.array([c1, c0]) / operator_norm(G))[..., None, None]
    return G[:, 0], G[:, 1]


#: Power-check horizon of ``verify_robust_gain``.
_POWER_HORIZON = 100


def verify_robust_gain(noisy_batch: DataBatch, M, gamma_tilde, c1, c0, Omega, trials=20, seed=0):
    """Sample the noise class and check the robust decay bound.

    Omega is the right inverse of Xi0~ behind the gain, so Xi0~ Omega = I
    and K = Ups0~ Omega.  Noise in the class is seen through Omega as
    Delta1 Omega = F Phi1 and [Delta0; Theta0] Omega = [I; K] Phi0 with
    F = Xi1~ Omega, ||Phi1|| <= c1 and ||Phi0|| <= c0.  Every (A, B) that
    fits the data less the noise has (A + B K)(I - Phi0) = F (I - Phi1), so
    its loop is F (I - Phi1) (I - Phi0)^-1 whatever the noise off Omega and
    whichever compatible system is taken: one loop per trial.  Each trial
    draws (Phi1, Phi0) at ``_FILL`` of (c1, c0) (``_draw_factors``), all
    trials from one stream keyed ``seed``; as ||Phi0|| < 1 / M <= 1, I -
    Phi0 is invertible, and one batched solve forms all loops.  They are
    checked as one stack (``_check_closed_loops``) against rho(A + B K) <=
    gamma_tilde + s and ||(A + B K)^k|| <= (M + s) gamma_tilde^k for k up
    to ``_POWER_HORIZON``, s = ``_ACCEPT_SLACK``; ``violations`` counts the
    trials over each bound, so a trial over both counts twice.  Raises
    InvalidParams where ``robust_decay_rate`` does (M < 1 or M c0 >= 1)
    and where a bound (M + s) gamma_tilde^k overflows.
    """
    _check_sampling(trials, seed)
    _check_noise_constants(c1, c0)
    _check_rate_inputs(M, c0)
    n, N = noisy_batch.n, noisy_batch.N
    Om = np.asarray(Omega, dtype=float)
    if Om.shape != (N, n):
        raise DimensionMismatch(f"Omega must be N x n = {(N, n)}, got {Om.shape}")
    Phi1, Phi0 = _draw_factors(np.random.default_rng(seed), int(trials), n, c1, c0)
    F, I = noisy_batch.Xi1 @ Om, np.eye(n)
    # X (I - Phi0) = F (I - Phi1), solved as (I - Phi0)^T X^T = (F (I - Phi1))^T
    loops = np.swapaxes(
        np.linalg.solve(np.swapaxes(I - Phi0, 1, 2), np.swapaxes(F @ (I - Phi1), 1, 2)), 1, 2
    )
    worst_radius, violations = _check_closed_loops(loops, M, gamma_tilde, _POWER_HORIZON)
    return RobustVerificationReport(
        trials=int(trials),
        worst_radius=worst_radius,
        radius_bound=gamma_tilde + _ACCEPT_SLACK,
        violations=violations,
        rejected_draws=0,
    )


def _check_closed_loops(F, M, gamma_tilde, power_horizon):
    """(worst radius, violations) of the stack F of closed loops against
    rho <= gamma_tilde + s and ||F^k|| <= (M + s) gamma_tilde^k for k up to
    ``power_horizon``, s = ``_ACCEPT_SLACK``; a loop leaves the power check
    at its first excess, and ``violations`` counts the loops over each bound.

    The live loops are powered in chunks of steps, each power the product
    of F with the one before and each chunk at most half the numbers of a
    block of least_certificate but two steps or more (bar the last), all in
    one buffer, and ||P|| is bounded by u = ||P||_F (1 + _LOG_SLACK), from
    one contraction per chunk; only where u exceeds the step's bound b_k
    can the loop exceed it, so only there the SVD runs, step by step, and a
    violator takes no SVD after its first excess, nor a power that overflowed
    (it is over its finite bound).  Bounds that overflow raise InvalidParams.
    """
    L, n = F.shape[0], F.shape[-1]
    # (M + _ACCEPT_SLACK) gamma_tilde^k, one rounded product per step
    with np.errstate(over="ignore"):
        bounds = np.multiply.accumulate(np.r_[M + _ACCEPT_SLACK, np.full(power_horizon, gamma_tilde)])[1:]
    if not np.isfinite(bounds).all():
        raise InvalidParams(f"the bound (M + s) gamma_tilde^k overflows: gamma_tilde = {gamma_tilde:.6g}")
    radii = spectral_radius(F)
    worst_radius = float(radii.max(initial=0.0))
    violations = int(np.sum(radii > gamma_tilde + _ACCEPT_SLACK))
    # one buffer for the powers of every chunk, which fills its first rows
    # for the live loops.  A chunk's base is the last row of the chunk
    # before, never row 0, since every chunk but the last has two steps or
    # more, so no product overwrites its own factor.  A chunk is at most
    # half a block of least_certificate: chunks of a whole block were no
    # faster and raised the peak RSS of the cascade chain by 0.5 MB.
    most = min(power_horizon, max(_BLOCK_ELEMENTS // 2 // max(L * n * n, 1), 2))
    Q = np.empty((most, L, n, n))
    P, F_live, k = np.eye(n), F, 0
    while k < power_horizon and len(F_live):
        steps = min(power_horizon - k, most)
        chunk = Q[:steps, : len(F_live)]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(steps):
                np.matmul(F_live, chunk[j - 1] if j else P, out=chunk[j])
            u = _frobenius(chunk) * (1.0 + _LOG_SLACK)
        b = bounds[k : k + steps, None]
        exact = ~(u - b <= 0.0)
        P = chunk[-1]
        if exact.any():
            # the SVDs step by step, of the loops that have not yet exceeded
            stay = np.ones(len(F_live), dtype=bool)
            for j in np.flatnonzero(exact.any(axis=1)):
                rows = np.flatnonzero(exact[j] & stay)
                stay[rows[~np.isfinite(chunk[j, rows]).all(axis=(1, 2))]] = False
                rows = rows[stay[rows]]
                if rows.size:
                    stay[rows[~(operator_norm(chunk[j, rows]) - b[j] <= 0)]] = False
            if not stay.all():
                violations += int(np.count_nonzero(~stay))
                F_live, P = F_live[stay], P[stay]
        k += steps
    return worst_radius, violations


def range_breaking_noise(x0_cols, k0):
    """Noise canceling sample ``k0`` (1-based): zero except column k0 = -x0(k0).

    Applied to the sequence with columns e_k / k this produces noise of
    operator norm exactly 1/k0 that destroys the frame property of the
    perturbed data, however large k0 is taken.
    """
    X = np.asarray(x0_cols, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("x0_cols must be a matrix with samples as columns")
    if not (1 <= k0 <= X.shape[1]):
        raise IndexOutOfRange(f"k0 = {k0} outside 1..{X.shape[1]}")
    noise = np.zeros_like(X)
    noise[:, k0 - 1] = -X[:, k0 - 1]
    return noise
