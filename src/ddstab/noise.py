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

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidParams
from .informativity import NotInformative, _compatible_family, synthesize_gain
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
    """Smallest eigenvalue of rhs - lhs after symmetrization, one per matrix
    of a stack."""
    M = rhs - lhs
    return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))[..., 0]


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
    margin_state = float(_psd_margin(D1 @ D1.T, params.c1**2 * (X1 @ X1.T)))
    D0 = np.vstack([noise_batch.Xi0, noise_batch.Ups0]) @ Om
    W0 = np.vstack([noisy_batch.Xi0, noisy_batch.Ups0]) @ Om
    margin_stacked = float(_psd_margin(D0 @ D0.T, params.c0**2 * (W0 @ W0.T)))
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


def robust_stabilization(noisy_batch: DataBatch, gamma, c1, c0, tol=DEFAULT_TOL):
    """Synthesize a gain from noisy data and certify the degraded rate.

    Pipeline: frame test on Xi0~, LMI synthesis of a right inverse Omega of
    Xi0~, certificate (M, gamma) for
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
    synth = synthesize_gain(noisy_batch.Xi0, noisy_batch.Xi1, noisy_batch.Ups0, gamma)
    if isinstance(synth, NotInformative):
        return NotApplicable(stage=synth.stage, detail=f"{synth.reason}, margin {synth.margin:.3e}")
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
    """Each matrix of the stack M scaled to operator norm ``target``; a zero
    matrix stays zero."""
    top = operator_norm(M)
    return M * np.divide(target, top, out=np.ones_like(top), where=top > 0)[:, None, None]


#: At most this many noise generators (about 4.5 KB each) are held and
#: drawn for as one stack.
_DRAW_STACK = 64


class _NoiseSampler:
    """Gaussian noise inside the class, scaled to ``fill`` of the budget.

    Class membership forces the noise, seen through Omega, to factor over
    the data: Delta1 Omega = (Xi1~ Omega) Phi1 and
    [Delta0; Theta0] Omega = ([Xi0~; Ups0~] Omega) Phi0 with ||Phi|| within
    budget.  A raw Gaussian matrix violates the stacked range inclusion
    almost surely, so the admissible component is drawn through Gaussian
    factors Phi rescaled to ``fill`` of (c1, c0); a free Gaussian component
    invisible to Omega (and hence unconstrained by the class) is added at a
    matching magnitude.  Draws whose minimal constants still exceed the
    budget are rejected.  ``denoise`` subtracts accepted draws from the
    data.  Everything that does not depend on the random stream is computed
    once, here.
    """

    def __init__(self, noisy_batch, Omega, c1, c0, fill=0.9):
        params = NoiseClassParams(c1=c1, c0=c0, Omega=Omega)
        n, m, N = noisy_batch.n, noisy_batch.m, noisy_batch.N
        Om = params.Omega
        if Om.shape != (N, n):
            raise DimensionMismatch(f"Omega must be N x n = {(N, n)}, got {Om.shape}")
        data0 = np.vstack([noisy_batch.Xi0, noisy_batch.Ups0])
        self.n, self.m, self.N = n, m, N
        self.c1, self.c0, self.fill = c1, c0, fill
        self.Om = Om
        self.Xi1, self.data0 = noisy_batch.Xi1, data0
        self.Om_pinv = pseudo_inverse(Om)
        self.perp = np.eye(N) - Om @ self.Om_pinv
        self.B1 = noisy_batch.Xi1 @ Om
        self.B0 = data0 @ Om
        self.budget1 = c1**2 * (self.B1 @ self.B1.T)
        self.budget0 = c0**2 * (self.B0 @ self.B0.T)
        self.rms1 = np.linalg.norm(noisy_batch.Xi1) / max(1.0, np.sqrt(N * n))
        self.rms0 = np.linalg.norm(data0) / max(1.0, np.sqrt(N * (n + m)))

    def draw(self, rngs, max_tries=50):
        """Noise inside the class from each generator of the iterable
        ``rngs``: a list of (Delta1, [Delta0; Theta0]), or None where all
        ``max_tries`` draws from that generator were rejected.  A generator's
        draws do not depend on the others.  The generators are taken
        ``_DRAW_STACK`` at a time, which bounds the memory they hold."""
        rngs, drawn = iter(rngs), []
        while stack := list(itertools.islice(rngs, _DRAW_STACK)):
            drawn += self._draw_stack(stack, max_tries)
        return drawn

    def state_in_budget(self, Delta1):
        """Whether each Delta1 of the stack meets the state-update
        majorization of the class (the c1 budget)."""
        D1m = Delta1 @ self.Om
        return _psd_margin(D1m @ np.swapaxes(D1m, 1, 2), self.budget1) >= -DEFAULT_TOL

    def denoise(self, drawn):
        """The batches denoised by the non-empty list ``drawn`` of ``draw``
        results, as stacks (Xi1, W, W^+) with W = [Xi0; Ups0], and which of
        them are kept.

        Where W has rank below N (its rank at ``DEFAULT_TOL`` is the trace
        of the projector W^+ W, from the same SVD as W^+), the part of Xi1
        outside the row space of W is moved into Delta1, which makes the
        batch consistent; the draw is dropped if Delta1 then leaves the c1
        budget.  A batch is also dropped if Xi1 W^+ W misses Xi1 by more
        than 1e-8 relative.
        """
        N = self.N
        # each Delta1 keeps the column-major layout it was drawn in
        Delta1 = np.swapaxes(np.stack([d[0].T for d in drawn]), 1, 2)
        W = self.data0 - np.stack([d[1] for d in drawn])
        Wp = pseudo_inverse(W)
        Xi1 = self.Xi1 - Delta1
        ok = np.ones(len(drawn), dtype=bool)
        WpW = Wp @ W
        short = np.flatnonzero(np.rint(np.trace(WpW, axis1=1, axis2=2)) < N)
        if short.size:
            Delta1[short] += Xi1[short] @ (np.eye(N) - WpW[short])
            ok[short] = self.state_in_budget(Delta1[short])
            Xi1 = self.Xi1 - Delta1
        residual = np.linalg.norm(Xi1 @ Wp @ W - Xi1, axis=(1, 2))
        ok &= residual <= 1e-8 * (1.0 + np.linalg.norm(Xi1, axis=(1, 2)))
        return Xi1, W, Wp, ok

    def _draw_stack(self, rngs, max_tries):
        """``draw`` for a list of generators; each try of those still
        pending runs as one stack."""
        n, m, N = self.n, self.m, self.N
        c1, c0, fill = self.c1, self.c0, self.fill
        drawn = [None] * len(rngs)
        pending = np.arange(len(rngs))
        for _ in range(max_tries):
            if pending.size == 0:
                break
            G1, G0 = np.zeros((pending.size, n, n)), np.zeros((pending.size, n, n))
            E1, E0 = np.zeros((pending.size, n, N)), np.zeros((pending.size, n + m, N))
            for j, i in enumerate(pending):
                if c1 > 0:
                    G1[j] = rngs[i].standard_normal((n, n))
                if c0 > 0:
                    G0[j] = rngs[i].standard_normal((n, n))
                if c1 > 0:
                    E1[j] = rngs[i].standard_normal((n, N))
                if c0 > 0:
                    E0[j] = rngs[i].standard_normal((n + m, N))
            Phi1 = _rescale_to_norm(G1, fill * c1) if c1 > 0 else G1
            Phi0 = _rescale_to_norm(G0, fill * c0) if c0 > 0 else G0
            free1 = fill * c1 * self.rms1 * E1 @ self.perp if c1 > 0 else E1
            free0 = fill * c0 * self.rms0 * E0 @ self.perp if c0 > 0 else E0
            # each Delta1 in the column-major layout of DataBatch.Xi1, so that
            # BLAS sums the products below as noise_in_class does on a batch
            Delta1 = np.swapaxes(np.swapaxes(self.B1 @ Phi1 @ self.Om_pinv + free1, 1, 2).copy(), 1, 2)
            D0 = self.B0 @ Phi0 @ self.Om_pinv + free0
            D0m = D0 @ self.Om
            ok = self.state_in_budget(Delta1) & (
                _psd_margin(D0m @ np.swapaxes(D0m, 1, 2), self.budget0) >= -DEFAULT_TOL
            )
            for j in np.flatnonzero(ok):
                drawn[pending[j]] = Delta1[j], D0[j]
            pending = pending[~ok]
        return drawn


def _scaled_noise_draw(rng, noisy_batch, Omega, c1, c0, fill=0.9, max_tries=50):
    """One draw of ``_NoiseSampler`` as a DataBatch, and whether it failed
    (then the batch is zero)."""
    n, m, N = noisy_batch.n, noisy_batch.m, noisy_batch.N
    drawn = _NoiseSampler(noisy_batch, Omega, c1, c0, fill).draw([rng], max_tries)[0]
    if drawn is None:
        return (
            DataBatch(x1=np.zeros((N, n)), x0=np.zeros((N, n)), u0=np.zeros((N, m))),
            True,
        )
    Delta1, D0 = drawn
    return DataBatch(x1=Delta1.T, x0=D0[:n].T, u0=D0[n:].T, meta="noise draw"), False


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

    Each trial draws admissible noise (rejection-scaled Gaussian from the
    trial's own stream (seed, t)) and denoises the batch; all trials are
    denoised as one stack.  Where the denoised [Xi0; Ups0] has rank below N,
    the part of the denoised Xi1 outside its row space is moved into the
    noise, and the draw is rejected if that leaves the c1 budget.  Then
    ``systems_per_trial`` systems compatible with each denoised batch are
    sampled; the systems of all trials come, trial after trial, from the
    one stream (seed, 0, 1), which no noise stream shares.  It checks
    rho(A + B K) <= gamma_tilde + 1e-6 together with
    ||(A + B K)^k|| <= (M + 1e-6) gamma_tilde^k for k up to
    ``power_horizon``.  All trials' closed loops are checked as one stack
    (``_check_closed_loops``); a loop leaves the power check at its first
    excess, which counts as one violation, and singular values are computed
    only where a Frobenius bound cannot rule out an excess or the worst
    excess, so the report is the one the full computation gives.  Rejected
    and inconsistent draws are counted in ``rejected_draws``.
    """
    if trials < 0:
        raise InvalidParams("trials must be >= 0")
    if systems_per_trial < 0:
        raise InvalidParams("systems_per_trial must be >= 0")
    if scale <= 0:
        raise InvalidParams("scale must be positive")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = noisy_batch.n
    shape = (systems_per_trial, n, n + noisy_batch.m)
    sampler = _NoiseSampler(noisy_batch, Omega, c1, c0)
    rngs = (np.random.default_rng([seed, t]) for t in range(int(trials)))
    drawn = [d for d in sampler.draw(rngs) if d is not None]
    AB, accepted = np.empty((0,) + shape[1:]), 0
    if drawn:
        Xi1, W, Wp, ok = sampler.denoise(drawn)
        accepted = int(ok.sum())
        T = scale * np.random.default_rng([seed, 0, 1]).standard_normal((accepted,) + shape)
        AB = _compatible_family(Xi1[ok], W[ok], Wp[ok], T).reshape((-1,) + shape[1:])
    worst_radius, violations, worst_power_excess = _check_closed_loops(
        AB[:, :, :n] + AB[:, :, n:] @ K, M, gamma_tilde, power_horizon
    )
    return RobustVerificationReport(
        trials=int(trials),
        systems_per_trial=systems_per_trial,
        worst_radius=worst_radius,
        radius_bound=gamma_tilde + 1e-6,
        worst_power_excess=worst_power_excess,
        violations=violations,
        rejected_draws=int(trials) - accepted,
    )


#: Relative widening of the Frobenius bound on ||F^k|| in
#: ``_check_closed_loops``, far above the rounding of the bound or of the SVD.
_NORM_BOUND_SLACK = 1e-9


def _check_closed_loops(F, M, gamma_tilde, power_horizon):
    """(worst radius, violations, worst power excess) of the stack F of
    closed loops against rho <= gamma_tilde + 1e-6 and
    ||F^k|| <= (M + 1e-6) gamma_tilde^k for k up to ``power_horizon``; a
    loop leaves the power check at its first excess.

    The power check is exact in two passes.  Pass 1 powers the live loops
    and bounds ||P|| by u = ||P||_F (1 + slack); only where u exceeds the
    step's bound b_k can the loop exceed it, so only there the SVD runs and
    a violator is dropped.  It keeps u - b_k of every other counted (step,
    loop) pair.  Pass 2 sets T to the largest excess known exactly: those
    of pass 1 and that of the pair with the largest u - b_k.  A pair with
    u - b_k < T has ||P|| - b_k < T, so only the pairs with u - b_k >= T
    can hold the worst excess, and only their powers are recomputed and
    their SVDs taken.
    """
    L, n = F.shape[0], F.shape[-1]
    radii = spectral_radius(F)
    worst_radius = float(radii.max(initial=0.0))
    violations = int(np.sum(radii > gamma_tilde + 1e-6))
    bounds, bound = [], M + 1e-6
    for _ in range(power_horizon):
        bound *= gamma_tilde
        bounds.append(bound)
    # u - b_k of the counted pairs not yet known exactly, -inf elsewhere
    gap = np.full((power_horizon, L), -np.inf)
    worst = -np.inf
    live, P, F_live = np.arange(L), np.eye(n), F
    for k, bound in enumerate(bounds):
        if live.size == 0:
            break
        P = F_live @ P
        u = np.sqrt(np.einsum("lij,lij->l", P, P)) * (1.0 + _NORM_BOUND_SLACK)
        gap[k, live] = u - bound
        exact = np.flatnonzero(~(u <= bound))
        if exact.size:
            gap[k, live[exact]] = -np.inf
            excess = operator_norm(P[exact]) - bound
            worst = max(worst, float(excess.max()))
            over = exact[~(excess <= 0)]
            if over.size:
                violations += over.size
                live, F_live, P = (np.delete(a, over, axis=0) for a in (live, F_live, P))
    if gap.size and gap.max() > worst:
        top = np.unravel_index(np.argmax(gap), gap.shape)
        worst = max(worst, _largest_power_excess(F, bounds, *top))
        gap[top] = -np.inf
        worst = max(worst, _largest_power_excess(F, bounds, *np.nonzero(gap >= worst)))
    if not np.isfinite(worst):
        worst = 0.0
    return worst_radius, violations, worst


def _largest_power_excess(F, bounds, steps, loops):
    """Largest ||F[j]^(k+1)|| - bounds[k] over the pairs (k, j) zipped from
    ``steps`` and ``loops``, each power formed as pass 1 of
    ``_check_closed_loops`` forms it, from F alone; -inf for no pair."""
    steps, loops = np.atleast_1d(steps), np.atleast_1d(loops)
    used, slot = np.unique(loops, return_inverse=True)
    F, P, worst = F[used], np.eye(F.shape[-1]), -np.inf
    for k in range(steps.max(initial=-1) + 1):
        P = F @ P
        at = slot[steps == k]
        if at.size:
            worst = max(worst, float((operator_norm(P[at]) - bounds[k]).max()))
    return worst


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
