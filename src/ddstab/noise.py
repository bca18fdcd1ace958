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
from .informativity import (
    NotInformative,
    sample_compatible_systems,
    synthesize_gain,
)
from .operators import (
    DEFAULT_TOL,
    DouglasFactor,
    PowerStabilityCertificate,
    construct_certificate,
    douglas_minimal_constant,
    frame_bounds,
    operator_norm,
    pseudo_inverse,
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
        if not (np.isfinite(self.c1) and np.isfinite(self.c0)):
            raise InvalidParams("c1 and c0 must be finite")
        if self.c1 < 0 or self.c0 < 0:
            raise InvalidParams("c1 and c0 must be nonnegative")
        object.__setattr__(self, "Omega", np.asarray(self.Omega, dtype=float))


@dataclass(frozen=True)
class NoiseClassCheck:
    """Membership verdict with the two PSD margins (>= -tol passes)."""

    in_class: bool
    margin_state: float
    margin_stacked: float

    def __bool__(self):
        return self.in_class


@dataclass(frozen=True)
class Incompatible:
    """A factorization failed: the noise leaves the data's range."""

    stage: str
    residual: float


@dataclass(frozen=True)
class NotApplicable:
    """Robust synthesis stopped at ``stage`` (frame | lmi | certificate | margin)."""

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


def robust_decay_rate(M, gamma, c1, c0):
    """gamma~ = (1 + M c1)/(1 - M c0) gamma; requires M c0 < 1."""
    if M < 1:
        raise InvalidParams("M must be >= 1")
    if M * c0 >= 1.0:
        raise InvalidParams("M * c0 must be below 1")
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


def minimal_noise_constants(noise_batch: DataBatch, noisy_batch: DataBatch, Omega, tol=1e-8):
    """Smallest (c1, c0) admitting the noise, or Incompatible.

    Computed through the minimal-constant factorization applied to
    (Delta1 Omega, Xi1~ Omega) and to the stacked blocks; a failed
    factorization means no finite constant exists (range violation).
    """
    _check_noise_shapes(noise_batch, noisy_batch)
    Om = np.asarray(Omega, dtype=float)
    state = douglas_minimal_constant(noise_batch.Xi1 @ Om, noisy_batch.Xi1 @ Om, tol=tol)
    if not isinstance(state, DouglasFactor):
        return Incompatible(stage="state", residual=state.residual)
    stacked = douglas_minimal_constant(
        np.vstack([noise_batch.Xi0, noise_batch.Ups0]) @ Om,
        np.vstack([noisy_batch.Xi0, noisy_batch.Ups0]) @ Om,
        tol=tol,
    )
    if not isinstance(stacked, DouglasFactor):
        return Incompatible(stage="stacked", residual=stacked.residual)
    return state.norm_c, stacked.norm_c


def robust_stabilization(noisy_batch: DataBatch, gamma, c1, c0, tol=DEFAULT_TOL, seed=0):
    """Synthesize a gain from noisy data and certify the degraded rate.

    Pipeline: frame test on Xi0~, LMI synthesis of a right inverse
    Omega = Lambda (Xi0~ Lambda)^-1, certificate (M, gamma) for
    F = Xi1~ Omega, then gamma~ and the budget margin.  Returns
    NotApplicable naming the failing stage when any step is unavailable.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParams("gamma must lie in (0, 1)")
    if c1 < 0 or c0 < 0:
        raise InvalidParams("c1 and c0 must be nonnegative")
    fb = frame_bounds(noisy_batch.Xi0, tol)
    if fb.lower <= 0.0:
        return NotApplicable(
            stage="frame",
            detail=f"state sequence is not a frame: rank {fb.rank} < dim {noisy_batch.n}",
        )
    synth = synthesize_gain(
        noisy_batch.Xi0, noisy_batch.Xi1, noisy_batch.Ups0, gamma, seed=seed
    )
    if isinstance(synth, NotInformative):
        return NotApplicable(stage=synth.stage, detail=f"margin {synth.margin:.3e}")
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
    """Sampled membership check of the robust guarantee."""

    trials: int
    systems_per_trial: int
    worst_radius: float
    radius_bound: float
    worst_power_excess: float
    violations: int
    rejected_draws: int

    def to_dict(self):
        return asdict(self)


def _rescale_to_norm(M, target):
    top = operator_norm(M)
    return M * (target / top) if top > 0 else M


def _scaled_noise_draw(rng, noisy_batch, Omega, c1, c0, fill=0.9, max_tries=50):
    """Gaussian noise inside the class, scaled to ``fill`` of the budget.

    Class membership forces the noise, seen through Omega, to factor over
    the data: Delta1 Omega = (Xi1~ Omega) Phi1 and
    [Delta0; Theta0] Omega = ([Xi0~; Ups0~] Omega) Phi0 with ||Phi|| within
    budget.  A raw Gaussian matrix violates the stacked range inclusion
    almost surely, so the admissible component is drawn through Gaussian
    factors Phi rescaled to ``fill`` of (c1, c0); a free Gaussian component
    invisible to Omega (and hence unconstrained by the class) is added at a
    matching magnitude.  Draws whose minimal constants still exceed the
    budget are rejected.
    """
    n, m, N = noisy_batch.n, noisy_batch.m, noisy_batch.N
    Om = np.asarray(Omega, dtype=float)
    Om_pinv = pseudo_inverse(Om)
    perp = np.eye(N) - Om @ Om_pinv
    B1 = noisy_batch.Xi1 @ Om
    B0 = np.vstack([noisy_batch.Xi0, noisy_batch.Ups0]) @ Om
    rms1 = np.linalg.norm(noisy_batch.Xi1) / max(1.0, np.sqrt(N * n))
    rms0 = np.linalg.norm(np.vstack([noisy_batch.Xi0, noisy_batch.Ups0])) / max(
        1.0, np.sqrt(N * (n + m))
    )
    for _ in range(max_tries):
        Phi1 = _rescale_to_norm(rng.standard_normal((n, n)), fill * c1) if c1 > 0 else np.zeros((n, n))
        Phi0 = _rescale_to_norm(rng.standard_normal((n, n)), fill * c0) if c0 > 0 else np.zeros((n, n))
        free1 = fill * c1 * rms1 * rng.standard_normal((n, N)) @ perp if c1 > 0 else np.zeros((n, N))
        free0 = fill * c0 * rms0 * rng.standard_normal((n + m, N)) @ perp if c0 > 0 else np.zeros((n + m, N))
        Delta1 = B1 @ Phi1 @ Om_pinv + free1
        D0 = B0 @ Phi0 @ Om_pinv + free0
        draw = DataBatch(x1=Delta1.T, x0=D0[:n].T, u0=D0[n:].T, meta="noise draw")
        check = noise_in_class(draw, noisy_batch, NoiseClassParams(c1=c1, c0=c0, Omega=Om))
        if check.in_class:
            return draw, False
    return (
        DataBatch(x1=np.zeros((N, n)), x0=np.zeros((N, n)), u0=np.zeros((N, m))),
        True,
    )


def verify_robust_gain(
    noisy_batch: DataBatch,
    K,
    M,
    gamma_tilde,
    c1,
    c0,
    Omega,
    trials=20,
    seed=0,
    systems_per_trial=3,
    scale=1.0,
    power_horizon=100,
):
    """Sample the noisy compatible set and check the robust decay bound.

    Each trial draws admissible noise (rejection-scaled Gaussian, per-seed
    deterministic), denoises the batch, samples systems compatible with the
    denoised data, and checks rho(A + B K) <= gamma_tilde + 1e-6 together
    with ||(A + B K)^k|| <= (M + 1e-6) gamma_tilde^k for k up to
    ``power_horizon``.  All trials' closed loops are checked as one stack;
    a loop leaves the power check at its first excess, which counts as one
    violation.  Inconsistent denoised batches (possible when the sampled
    noise misses the data's row space) are rejected and counted.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    Om = np.asarray(Omega, dtype=float)
    n = noisy_batch.n
    radius_bound = gamma_tilde + 1e-6
    rejected = 0
    draws = [np.empty((0, n, n + noisy_batch.m))]
    for t in range(int(trials)):
        rng = np.random.default_rng([seed, t])
        noise, failed = _scaled_noise_draw(rng, noisy_batch, Om, c1, c0)
        if failed:
            rejected += 1
            continue
        Xi1 = noisy_batch.Xi1 - noise.Xi1
        W = np.vstack([noisy_batch.Xi0 - noise.Xi0, noisy_batch.Ups0 - noise.Ups0])
        proj = Xi1 @ pseudo_inverse(W) @ W
        if np.linalg.norm(proj - Xi1) > 1e-8 * (1.0 + np.linalg.norm(Xi1)):
            rejected += 1
            continue
        draws.append(
            sample_compatible_systems(
                W[:n], Xi1, W[n:], systems_per_trial, scale=scale, seed=seed + 7 * t + 1
            )
        )
    AB = np.concatenate(draws)
    F = AB[:, :, :n] + AB[:, :, n:] @ K
    radii = spectral_radius(F)
    worst_radius = float(radii.max(initial=0.0))
    violations = int(np.sum(radii > radius_bound))
    worst_power_excess = -np.inf
    P = np.eye(n)
    bound = M + 1e-6
    for _ in range(power_horizon):
        if F.shape[0] == 0:
            break
        P = F @ P
        bound *= gamma_tilde
        excess = operator_norm(P) - bound
        worst_power_excess = max(worst_power_excess, float(excess.max()))
        keep = excess <= 0
        violations += int(np.sum(~keep))
        F, P = F[keep], P[keep]
    if not np.isfinite(worst_power_excess):
        worst_power_excess = 0.0
    return RobustVerificationReport(
        trials=int(trials),
        systems_per_trial=systems_per_trial,
        worst_radius=worst_radius,
        radius_bound=radius_bound,
        worst_power_excess=worst_power_excess,
        violations=violations,
        rejected_draws=rejected,
    )


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


def certificate_rate_sweep(F, gammas, k_max=10000):
    """Certificates (gamma, M) along a sweep of candidate rates.

    Smaller M enlarges the admissible noise budget in the robust margin, so
    scanning rates above the spectral radius lets a caller trade decay
    against noise tolerance.  Rates that cannot be certified are skipped.
    """
    out = []
    for g in gammas:
        cert = construct_certificate(F, g, k_max=k_max)
        if isinstance(cert, PowerStabilityCertificate):
            out.append((float(g), cert.M))
    return out
