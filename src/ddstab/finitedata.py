"""Finite-length data with partial system knowledge.

When the state space splits as X = X+ (+) X- with X+ finite-dimensional,
A X- contained in X-, and a known decay bound gamma_minus for the tail,
stabilization reduces to the noise-free problem on X+, whose projected data
are input-state data of the X+ subsystem: project, synthesize a gain there,
lift it back with zeros on X-.  For the modal heat cascade X+ is a block of
leading coordinates, so every step is exact regardless of how many tail
modes the truncation keeps.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CutoffExceedsTruncation,
    DimensionMismatch,
    InvalidParams,
)
from .informativity import NotInformative, _check_family_draw, synthesize_gain
from .operators import DEFAULT_TOL, _pinv_and_rank, spectral_radius
from .systems import DataBatch, HeatCascadeParams


@dataclass(frozen=True)
class Decomposition:
    """X+ as the first n_plus of the n state coordinates (at least one),
    X- as the rest, with the declared decay bound gamma_minus of the tail."""

    n: int
    n_plus: int
    gamma_minus: float

    def __post_init__(self):
        if not (1 <= self.n_plus <= self.n):
            raise CutoffExceedsTruncation(f"n_plus = {self.n_plus} outside 1..{self.n}")
        if not (0.0 < self.gamma_minus < 1.0):
            raise InvalidParams("gamma_minus must lie in (0, 1)")


def mode_cutoff(a0, b0, tau, gamma_minus):
    """Smallest n0 >= 0 with n0^2 >= (log(1/gamma_minus) + b0 tau) / (a0 pi^2 tau).

    ``a0`` is a lower bound on the diffusivity and ``b0`` an upper bound on
    the reaction rate, so the cutoff is valid for every parameter pair they
    bound: all modes from n0 on decay at least as fast as gamma_minus per
    sample.
    """
    if not (0.0 < a0 < math.inf and 0.0 < tau < math.inf and abs(b0) < math.inf):
        raise InvalidParams("a0 and tau must be finite and positive, and b0 finite")
    if not (0.0 < gamma_minus < 1.0):
        raise InvalidParams("gamma_minus must lie in (0, 1)")
    scale = a0 * math.pi**2 * tau
    rhs = (math.log(1.0 / gamma_minus) + b0 * tau) / scale if scale > 0.0 else math.inf
    if rhs == math.inf:
        raise InvalidParams(f"no finite cutoff for a0={a0}, b0={b0}, tau={tau}")
    if rhs <= 0.0:
        return 0
    n0 = max(0, math.isqrt(math.ceil(rhs)))
    while n0**2 < rhs:
        n0 += 1
    while n0 >= 1 and (n0 - 1) ** 2 >= rhs:
        n0 -= 1
    return n0


def modal_decomposition(n, head_dim, n0, gamma_minus) -> Decomposition:
    """Coordinate split keeping [head block; first n0 modes] as X+."""
    if head_dim < 0:
        raise InvalidParams(f"head_dim = {head_dim} must be >= 0")
    return Decomposition(n, head_dim + n0, gamma_minus)


def cascade_decomposition(p: HeatCascadeParams, gamma_minus, a0, b0) -> Decomposition:
    """Decomposition of the cascade state from parameter bounds.

    Validates the cutoff against the truncation and checks that the true
    tail satisfies the declared decay, exp(lambda_{n0} tau) <= gamma_minus,
    using the instance's own (a, b).
    """
    n0 = mode_cutoff(a0, b0, p.tau, gamma_minus)
    if p.n_modes < n0:
        raise CutoffExceedsTruncation(
            f"cutoff n0 = {n0} exceeds the truncation n_modes = {p.n_modes}"
        )
    tail_radius = math.exp(p.eigenvalue(n0) * p.tau)
    if tail_radius > gamma_minus:
        raise InvalidParams(
            f"true tail decay {tail_radius:.6g} exceeds gamma_minus = {gamma_minus}; "
            "the declared bounds do not cover the instance"
        )
    n = p.m_v + p.n_modes
    return modal_decomposition(n, p.m_v, n0, gamma_minus)


def project_data(batch: DataBatch, dec: Decomposition) -> DataBatch:
    """Input-state data of the X+ subsystem: the first n_plus coordinates
    of each state sample, with the inputs unchanged."""
    if batch.n != dec.n:
        raise DimensionMismatch(f"batch state dim {batch.n} != decomposition dim {dec.n}")
    p = dec.n_plus
    return DataBatch(x1=batch.x1[:, :p], x0=batch.x0[:, :p], u0=batch.u0)


def _check_rates(gamma, gamma_minus):
    """The contract of every result on X+: 0 < gamma_minus < gamma < 1."""
    if not (0.0 < gamma_minus < gamma < 1.0):
        raise InvalidParams("need 0 < gamma_minus < gamma < 1")


def finite_informative(batch: DataBatch, gamma, gamma_minus, tol=DEFAULT_TOL):
    """Informativity for stabilization on X+ at decay rate gamma.

    ``batch`` holds data on X+ (from project_data).  Requires
    gamma_minus < gamma < 1 (``_check_rates``).  Decides and solves the LMI;
    when its SVD finds Xi0 short of full row rank (the finite stand-in for
    Ran Xi0+ = X+), the verdict is stage "rank" with margin rank - n.  The
    returned gain acts on X+ coordinates; lift it with lift_gain.
    """
    _check_rates(gamma, gamma_minus)
    result = synthesize_gain(batch.Xi0, batch.Xi1, batch.Ups0, gamma, tol)
    if isinstance(result, NotInformative) and result.reason == "rank":
        return replace(result, stage="rank", margin=float(result.rank - batch.n))
    return result


def lift_gain(K_plus, dec: Decomposition):
    """Extend a gain on X+ by zero on X-: K = [K_plus, 0]."""
    K_plus = np.atleast_2d(np.asarray(K_plus, dtype=float))
    if K_plus.shape[1] != dec.n_plus:
        raise DimensionMismatch(f"K_plus has {K_plus.shape[1]} columns, expected {dec.n_plus}")
    return np.pad(K_plus, ((0, 0), (0, dec.n - dec.n_plus)))


@dataclass(frozen=True)
class CompatibleFamilyReport:
    """The one system that stands for the compatible family in
    verify_on_compatible_plus: ``worst_sample`` is its (A+, B+) pair (None
    when no trials ran) and ``worst_radius`` its loop radius (0.0 then);
    ``failures`` is ``trials`` when that radius exceeds ``radius_bound``,
    else 0.
    """

    trials: int
    worst_radius: float
    radius_bound: float
    failures: int
    worst_sample: tuple | None


def verify_on_compatible_plus(
    batch: DataBatch, K_plus, gamma, trials, seed=0, scale=1.0
) -> CompatibleFamilyReport:
    """Decide exactly, drawing nothing, whether K_plus keeps every system
    compatible with ``batch`` at radius gamma or below.

    The family is Xi1 W^+ + T (I - W W^+) over free T, W = [Xi0; Ups0] (on
    project_data's data, the systems on X+); its loops are Xi1 W^+ L +
    T (I - W W^+) L, L = [I; K_plus].  From one SVD of W, W^+ and a basis
    U_r of Ran W: if D = L - U_r U_r^T L has ||D|| <= DEFAULT_TOL ||L||, all
    loops are Xi1 W^+ L and Xi1 W^+ is reported.  Else, with (y, sigma, x)
    D's top singular triple, y^T W = 0 and Xi1 W^+ + t x y^T is reported,
    t = (n (gamma + 1) - tr(Xi1 W^+ L)) / sigma: its loop has trace
    n (gamma + 1), so radius >= gamma + 1.  K_plus must be finite;
    ``trials``, ``seed`` and ``scale`` are checked as in
    sample_compatible_systems.  trials = 0 gives an empty, vacuously passing
    report.
    """
    if not (0.0 < gamma < np.inf):
        raise InvalidParams("gamma must be finite and positive")
    _check_family_draw(trials, scale, seed)
    K_plus = np.atleast_2d(np.asarray(K_plus, dtype=float))
    if not np.isfinite(K_plus).all():
        raise InvalidParams("gain entries must be finite")
    npl, W = batch.n, np.vstack([batch.Xi0, batch.Ups0])
    Wp, rank, U = _pinv_and_rank(W, DEFAULT_TOL)
    AB = batch.Xi1 @ Wp
    L, Ur = np.vstack([np.eye(npl), K_plus]), U[:, :rank]
    Y, s, Xt = np.linalg.svd(L - Ur @ (Ur.T @ L), full_matrices=False)
    if s[0] > DEFAULT_TOL * np.linalg.norm(L, 2):
        # the rounding of D tilts y into Ran W by up to eps ||L|| / sigma
        y = Y[:, 0] - Ur @ (Ur.T @ Y[:, 0])
        t = (npl * (gamma + 1.0) - np.trace(AB @ L)) / s[0]
        AB = AB + t * np.outer(Xt[0], y)
    radius = spectral_radius(AB[:, :npl] + AB[:, npl:] @ K_plus)
    bound, trials = gamma + 1e-6, int(trials)
    return CompatibleFamilyReport(
        trials=trials,
        worst_radius=radius if trials else 0.0,
        radius_bound=bound,
        failures=trials if radius > bound else 0,
        worst_sample=(AB[:, :npl], AB[:, npl:]) if trials else None,
    )

