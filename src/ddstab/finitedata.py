"""Finite-length data with partial system knowledge.

When the state space splits as X = X+ (+) X- with X+ finite-dimensional,
A X- contained in X-, and a known decay bound gamma_minus for the tail,
stabilization reduces to the projected data on X+: project, synthesize a
gain there, lift it back with zeros on X-.  For the modal heat cascade the
decomposition is a coordinate split and every step is exact regardless of
how many tail modes the truncation keeps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffExceedsTruncation,
    DimensionMismatch,
    InvalidParams,
)
from .informativity import NotInformative, sample_compatible_systems, synthesize_gain
from .operators import (
    DEFAULT_TOL,
    construct_certificate,
    rank_at_tol,
    spectral_radius,
)
from .systems import DataBatch, HeatCascadeParams, LinearSystem


@dataclass(frozen=True)
class Decomposition:
    """Projection onto X+ along X- with the declared tail decay bound."""

    Pi: np.ndarray
    basis_plus: np.ndarray
    n_plus: int
    gamma_minus: float

    def __post_init__(self):
        Pi = np.asarray(self.Pi, dtype=float)
        basis = np.asarray(self.basis_plus, dtype=float)
        if Pi.ndim != 2 or Pi.shape[0] != Pi.shape[1]:
            raise DimensionMismatch(f"Pi must be square, got {Pi.shape}")
        if basis.shape != (Pi.shape[0], self.n_plus):
            raise DimensionMismatch(
                f"basis_plus must be n x n_plus = {(Pi.shape[0], self.n_plus)}, got {basis.shape}"
            )
        if not (0.0 < self.gamma_minus < 1.0):
            raise InvalidParams("gamma_minus must lie in (0, 1)")
        if np.linalg.norm(Pi @ Pi - Pi) > 1e-12 * max(1.0, np.linalg.norm(Pi)):
            raise InvalidParams("Pi is not idempotent")
        if np.linalg.norm(basis.T @ basis - np.eye(self.n_plus)) > 1e-12:
            raise InvalidParams("basis_plus must have orthonormal columns")
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "basis_plus", basis)

    @property
    def n(self):
        return self.Pi.shape[0]

    def coordinate_map(self):
        """The matrix of x -> coordinates of Pi x in basis_plus (n_plus x n).

        basis_plus has orthonormal columns, so this is basis_plus^T Pi; a
        coordinate split keeps its structural zeros.
        """
        return self.basis_plus.T @ self.Pi


@dataclass(frozen=True)
class ProjectedData:
    """Data projected onto X+: Xi1p = Pi~ Xi1, Xi0p = Pi~ Xi0; inputs pass through."""

    Xi1p: np.ndarray
    Xi0p: np.ndarray
    Ups0: np.ndarray

    def __post_init__(self):
        Xi1p = np.asarray(self.Xi1p, dtype=float)
        Xi0p = np.asarray(self.Xi0p, dtype=float)
        Ups0 = np.atleast_2d(np.asarray(self.Ups0, dtype=float))
        if Xi1p.shape != Xi0p.shape or Xi1p.shape[1] != Ups0.shape[1]:
            raise DimensionMismatch(
                f"inconsistent projected data: {Xi1p.shape}, {Xi0p.shape}, {Ups0.shape}"
            )
        object.__setattr__(self, "Xi1p", Xi1p)
        object.__setattr__(self, "Xi0p", Xi0p)
        object.__setattr__(self, "Ups0", Ups0)

    @property
    def n_plus(self):
        return self.Xi0p.shape[0]

    @property
    def m(self):
        return self.Ups0.shape[0]

    @property
    def N(self):
        return self.Xi0p.shape[1]


def mode_cutoff(a0, b0, tau, gamma_minus):
    """Smallest n0 >= 0 with n0^2 >= (log(1/gamma_minus) + b0 tau) / (a0 pi^2 tau).

    ``a0`` is a lower bound on the diffusivity and ``b0`` an upper bound on
    the reaction rate, so the cutoff is valid for every parameter pair they
    bound: all modes from n0 on decay at least as fast as gamma_minus per
    sample.
    """
    if a0 <= 0 or tau <= 0:
        raise InvalidParams("a0 and tau must be positive")
    if not (0.0 < gamma_minus < 1.0):
        raise InvalidParams("gamma_minus must lie in (0, 1)")
    rhs = (math.log(1.0 / gamma_minus) + b0 * tau) / (a0 * math.pi**2 * tau)
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
    n_plus = head_dim + n0
    if not (0 <= n_plus <= n):
        raise CutoffExceedsTruncation(f"n_plus = {n_plus} outside 0..{n}")
    diag = np.zeros(n)
    diag[:n_plus] = 1.0
    return Decomposition(
        Pi=np.diag(diag),
        basis_plus=np.eye(n, n_plus),
        n_plus=n_plus,
        gamma_minus=gamma_minus,
    )


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


def project_data(batch: DataBatch, dec: Decomposition) -> ProjectedData:
    """Apply the coordinate map to both state blocks; inputs pass through."""
    if batch.n != dec.n:
        raise DimensionMismatch(f"batch state dim {batch.n} != decomposition dim {dec.n}")
    Pt = dec.coordinate_map()
    return ProjectedData(Xi1p=Pt @ batch.Xi1, Xi0p=Pt @ batch.Xi0, Ups0=batch.Ups0)


def projected_batch(batch: DataBatch, dec: Decomposition) -> DataBatch:
    """The projected data repackaged as a DataBatch on X+."""
    pd = project_data(batch, dec)
    return DataBatch(
        x1=pd.Xi1p.T, x0=pd.Xi0p.T, u0=pd.Ups0.T, meta=(batch.meta + " [projected]").strip()
    )


def finite_informative(pd: ProjectedData, gamma, gamma_minus, tol=DEFAULT_TOL, seed=0):
    """Informativity for stabilization on X+ at decay rate gamma.

    Requires gamma_minus < gamma < 1.  Checks surjectivity of Xi0p (the
    finite stand-in for Ran Xi0+ = X+), then runs the LMI synthesis on the
    projected operators.  The returned gain acts on X+ coordinates; lift it
    with lift_gain.
    """
    if not (0.0 < gamma_minus < gamma < 1.0):
        raise InvalidParams("need 0 < gamma_minus < gamma < 1")
    rank = rank_at_tol(pd.Xi0p, tol)
    if rank < pd.n_plus:
        return NotInformative(stage="rank", margin=float(rank - pd.n_plus))
    return synthesize_gain(pd.Xi0p, pd.Xi1p, pd.Ups0, gamma, seed=seed)


def lift_gain(K_plus, dec: Decomposition):
    """Extend a gain on X+ by zero on X-: K = K_plus Pi~ (structural zeros)."""
    K_plus = np.atleast_2d(np.asarray(K_plus, dtype=float))
    if K_plus.shape[1] != dec.n_plus:
        raise DimensionMismatch(f"K_plus has {K_plus.shape[1]} columns, expected {dec.n_plus}")
    return K_plus @ dec.coordinate_map()


@dataclass(frozen=True)
class CompatibleFamilyReport:
    """Worst closed-loop radius over sampled compatible projected systems.

    ``worst_sample`` holds the (A+, B+) pair attaining the worst radius so a
    violation can be reported concretely; None when no trials ran.
    """

    trials: int
    worst_radius: float
    radius_bound: float
    failures: int
    radii: tuple
    worst_sample: tuple | None

    def to_dict(self):
        d = {
            "trials": self.trials,
            "worst_radius": self.worst_radius,
            "radius_bound": self.radius_bound,
            "failures": self.failures,
            "radii": list(self.radii),
        }
        if self.worst_sample is not None:
            d["worst_sample"] = {
                "A_plus": self.worst_sample[0].tolist(),
                "B_plus": self.worst_sample[1].tolist(),
            }
        return d


def verify_on_compatible_plus(
    pd: ProjectedData, K_plus, gamma, trials, seed=0, scale=1.0
) -> CompatibleFamilyReport:
    """Sample the compatible family on X+ and check the decay of each loop.

    The family is [A+ B+] = Xi1p W^+ + T (I - W W^+) with W = [Xi0p; Ups0],
    drawn by sample_compatible_systems; with trials = 0 the report is empty
    and vacuously passing.
    """
    K_plus = np.atleast_2d(np.asarray(K_plus, dtype=float))
    AB = sample_compatible_systems(pd.Xi0p, pd.Xi1p, pd.Ups0, int(trials), scale=scale, seed=seed)
    npl = pd.n_plus
    radii = spectral_radius(AB[:, :, :npl] + AB[:, :, npl:] @ K_plus)
    bound = gamma + 1e-6
    worst_radius, worst_sample = 0.0, None
    if radii.size:
        i = int(np.argmax(radii))
        worst_radius, worst_sample = float(radii[i]), (AB[i, :, :npl], AB[i, :, npl:])
    return CompatibleFamilyReport(
        trials=int(trials),
        worst_radius=worst_radius,
        radius_bound=bound,
        failures=int(np.sum(radii > bound)),
        radii=tuple(radii.tolist()),
        worst_sample=worst_sample,
    )


def closed_loop_full(sys: LinearSystem, K, gamma):
    """Certificate for the full truncated closed loop A + B K.

    With a lifted gain the loop is block lower triangular, so its spectral
    radius is the maximum of the X+ loop radius and the tail radius; the
    certificate is built directly on the assembled matrix.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (sys.m, sys.n):
        raise DimensionMismatch(f"K must be m x n = {(sys.m, sys.n)}, got {K.shape}")
    return construct_certificate(sys.A + sys.B @ K, gamma)
