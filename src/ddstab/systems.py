"""System models, the sampled heat/ODE cascade, simulation, data assembly.

The cascade couples a finite-dimensional block v(k+1) = A_v v(k) + B_v u(k)
into a 1-D heat equation with Neumann boundary flux -C_v v(k) at the left
end, sampled with period tau under zero-order hold.  The heat state is kept
in its cosine eigenbasis, where the sampled dynamics are diagonal and the
boundary coupling is a known column; modal truncation is therefore exact for
every retained mode (no spatial discretization error).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyData,
    InvalidParams,
    LengthMismatch,
)
from .operators import _check_addressable


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LinearSystem:
    """Discrete-time pair (A, B): x(k+1) = A x(k) + B u(k)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _readonly(self.A)
        B = _readonly(np.atleast_2d(self.B))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise InvalidParams("system matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass(frozen=True)
class HeatCascadeParams:
    """Parameters of the sampled heat/ODE cascade.

    ``a`` is the diffusivity, ``b`` the reaction rate, ``tau`` the sampling
    period, and ``n_modes`` the number of retained cosine modes.  The state
    ordering after discretization is [v ; mode 0, ..., mode n_modes-1].
    """

    A_v: np.ndarray
    B_v: np.ndarray
    C_v: np.ndarray
    a: float
    b: float
    tau: float
    n_modes: int = 50

    def __post_init__(self):
        object.__setattr__(self, "A_v", _readonly(np.atleast_2d(self.A_v)))
        object.__setattr__(self, "B_v", _readonly(np.atleast_2d(self.B_v)))
        object.__setattr__(self, "C_v", _readonly(np.atleast_2d(self.C_v)))
        if self.a <= 0 or self.tau <= 0 or self.n_modes < 1:
            raise InvalidParams("need a > 0, tau > 0, n_modes >= 1")
        m_v = self.A_v.shape[0]
        if self.A_v.shape != (m_v, m_v):
            raise InvalidParams(f"A_v must be square, got {self.A_v.shape}")
        if self.B_v.shape[0] != m_v or self.C_v.shape != (1, m_v):
            raise InvalidParams("B_v / C_v shapes inconsistent with A_v")

    @property
    def m_v(self):
        """Dimension of the finite-dimensional head block."""
        return self.A_v.shape[0]

    def eigenvalue(self, n):
        """Continuous-time heat eigenvalue of mode n: -a pi^2 n^2 + b."""
        return -self.a * np.pi**2 * n**2 + self.b


def default_cascade_params(n_modes=50):
    """Reference instance of the cascade used throughout docs and tests."""
    return HeatCascadeParams(
        A_v=np.array([[1.0, 0.5], [-0.5, 1.0]]),
        B_v=np.array([[2.0], [-1.0]]),
        C_v=np.array([[0.5, 1.0]]),
        a=0.2,
        b=-0.1,
        tau=0.05,
        n_modes=n_modes,
    )


#: Stabilizing gain on the 4-dimensional unstable part of the reference
#: cascade instance (decay rate 0.9, data length 5), computed independently
#: with a commercial SDP solver.  Shipped as a verification fixture: gains
#: are non-unique, so tests check the closed-loop decay it induces, never
#: equality against a synthesized gain.
REFERENCE_CASCADE_GAIN_PLUS = np.array([[-0.4615, 0.6464, 1.6387, -0.1597]])


def heat_cascade_discretize(p: HeatCascadeParams) -> LinearSystem:
    """Exact zero-order-hold discretization of the cascade in modal form.

    The block structure is lower triangular,

        A = [[A_v, 0], [A_vz, A_z]],   B = [[B_v], [0]],

    with A_z = diag(exp(lambda_n tau)) and row n of A_vz equal to
    (integral_0^tau exp(lambda_n t) dt) * phi_n(0) * C_v, where phi_0(0) = 1
    and phi_n(0) = sqrt(2) for n >= 1.  The integral degenerates to tau when
    lambda_n = 0 (removable singularity).
    """
    m_v, n_modes, tau = p.m_v, p.n_modes, p.tau
    lam = np.array([p.eigenvalue(n) for n in range(n_modes)])
    decay = np.exp(lam * tau)
    phi_at_zero = np.array([1.0] + [np.sqrt(2.0)] * (n_modes - 1))
    integral = np.empty(n_modes)
    nz = lam != 0.0
    integral[nz] = (decay[nz] - 1.0) / lam[nz]
    integral[~nz] = tau
    A_vz = (integral * phi_at_zero)[:, None] @ p.C_v

    n = m_v + n_modes
    A = np.zeros((n, n))
    A[:m_v, :m_v] = p.A_v
    A[m_v:, :m_v] = A_vz
    A[m_v:, m_v:] = np.diag(decay)
    B = np.vstack([p.B_v, np.zeros((n_modes, p.B_v.shape[1]))])
    return LinearSystem(A=A, B=B)


def simulate(sys: LinearSystem, x_init, inputs):
    """Run the recursion x(k+1) = A x(k) + B u(k).

    Returns the full trajectory [x(0), ..., x(L)] with L = len(inputs).
    """
    x = np.asarray(x_init, dtype=float).reshape(-1)
    if x.shape[0] != sys.n:
        raise DimensionMismatch(f"initial state has dim {x.shape[0]}, expected {sys.n}")
    traj = [x]
    for k, u in enumerate(inputs):
        u = np.atleast_1d(np.asarray(u, dtype=float)).reshape(-1)
        if u.shape[0] != sys.m:
            raise DimensionMismatch(f"input {k} has dim {u.shape[0]}, expected {sys.m}")
        traj.append(sys.A @ traj[-1] + sys.B @ u)
    return traj


@dataclass(frozen=True)
class DataBatch:
    """Aligned sample triple (x1, x0, u0) with x1(k) = A x0(k) + B u0(k).

    Arrays are stored row-per-sample: x1, x0 have shape (N, n) and u0 has
    shape (N, m).  The synthesis-operator views ``Xi1``, ``Xi0``, ``Ups0``
    are the transposes (columns are samples).  Immutable after assembly.
    """

    x1: np.ndarray
    x0: np.ndarray
    u0: np.ndarray
    meta: str = ""

    def __post_init__(self):
        x1 = _readonly(np.atleast_2d(self.x1))
        x0 = _readonly(np.atleast_2d(self.x0))
        u0 = _readonly(np.atleast_2d(self.u0))
        if x1.shape[0] < 1:
            raise EmptyData("a data batch needs at least one sample")
        if not (x1.shape[0] == x0.shape[0] == u0.shape[0]):
            raise LengthMismatch(
                f"sample counts differ: x1 {x1.shape[0]}, x0 {x0.shape[0]}, u0 {u0.shape[0]}"
            )
        if x1.shape[1] != x0.shape[1]:
            raise DimensionMismatch("x1 and x0 must share the state dimension")
        if x1.shape[1] < 1:
            raise EmptyData("a data batch needs at least one state coordinate")
        for name, arr in (("x1", x1), ("x0", x0), ("u0", u0)):
            if arr.ndim != 2:
                raise DimensionMismatch(f"{name} must be a matrix, got {arr.ndim} dimensions")
            if not np.all(np.isfinite(arr)):
                raise InvalidParams(f"{name} contains non-finite entries")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "u0", u0)

    @property
    def N(self):
        return self.x1.shape[0]

    @property
    def n(self):
        return self.x1.shape[1]

    @property
    def m(self):
        return self.u0.shape[1]

    @property
    def Xi1(self):
        """State synthesis operator of x1 (n x N)."""
        return self.x1.T

    @property
    def Xi0(self):
        """State synthesis operator of x0 (n x N)."""
        return self.x0.T

    @property
    def Ups0(self):
        """Input synthesis operator of u0 (m x N)."""
        return self.u0.T

    def to_dict(self):
        d = {
            "schema_version": 1,
            "n": self.n,
            "m": self.m,
            "N": self.N,
            "x1": self.x1.tolist(),
            "x0": self.x0.tolist(),
            "u0": self.u0.tolist(),
        }
        if self.meta:
            d["meta"] = self.meta
        return d

    @classmethod
    def from_dict(cls, d):
        try:
            batch = cls(
                x1=np.array(d["x1"], dtype=float),
                x0=np.array(d["x0"], dtype=float),
                u0=np.array(d["u0"], dtype=float),
                meta=str(d.get("meta", "")),
            )
        except KeyError as exc:
            raise InvalidParams(f"missing data batch field: {exc}") from exc
        for key in ("n", "m", "N"):
            if key in d and int(d[key]) != getattr(batch, key):
                raise InvalidParams(f"declared {key}={d[key]} does not match arrays")
        return batch

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def assemble_single_trajectory(traj, inputs, meta="") -> DataBatch:
    """Shift one trajectory into a batch: x1(k)=x(k), x0(k)=x(k-1), u0(k)=u(k-1)."""
    traj = [np.asarray(x, dtype=float).reshape(-1) for x in traj]
    inputs = [np.atleast_1d(np.asarray(u, dtype=float)).reshape(-1) for u in inputs]
    if len(traj) != len(inputs) + 1:
        raise LengthMismatch(
            f"trajectory of length {len(traj)} needs exactly {len(traj) - 1} inputs, got {len(inputs)}"
        )
    if not inputs:
        raise EmptyData("cannot assemble a batch from a length-1 trajectory")
    return DataBatch(
        x1=np.stack(traj[1:]),
        x0=np.stack(traj[:-1]),
        u0=np.stack(inputs),
        meta=meta,
    )


def assemble_multi_trajectory(segments, meta="") -> DataBatch:
    """Concatenate several (trajectory, inputs) segments into one batch.

    Sample ordering follows the segments, each shifted as in
    assemble_single_trajectory; offsets are the cumulative segment lengths.
    """
    if not segments:
        raise EmptyData("at least one segment is required")
    batches = []
    for idx, (traj, inputs) in enumerate(segments):
        try:
            batches.append(assemble_single_trajectory(traj, inputs))
        except (LengthMismatch, EmptyData, DimensionMismatch) as exc:
            raise type(exc)(f"segment {idx}: {exc}") from exc
    return DataBatch(
        x1=np.vstack([b.x1 for b in batches]),
        x0=np.vstack([b.x0 for b in batches]),
        u0=np.vstack([b.u0 for b in batches]),
        meta=meta,
    )


def counterexample_sequences(n) -> DataBatch:
    """Truncation of the sequences x1(k) = 0, x0(k) = e_k / k, u0(k) = k^(-3/2).

    A scalar-input family whose infinite sequences are informative for
    identification while no bounded gain satisfies the range-inclusion
    condition in the limit; see least_squares_gain_norm_growth.  Each
    truncation has n samples, so [Xi0; Ups0] has rank n and falls one short
    of n + 1.  Its only left-kernel direction, (k^(-1/2), -1), is not
    square-summable, so no nonzero vector annihilates the infinite data.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    _check_addressable((n, n), "x0")
    ks = np.arange(1, n + 1, dtype=float)
    x0 = np.diag(1.0 / ks)  # row k-1 is e_k / k
    u0 = (ks ** (-1.5)).reshape(-1, 1)
    x1 = np.zeros((n, n))
    return DataBatch(x1=x1, x0=x0, u0=u0, meta=f"counterexample n={n}")


def reference_cascade_scenario(n_modes=50, n_samples=5):
    """Build the reference cascade experiment: v(0)=0, zeta(.,0) == 1, u == 1.

    The flat initial profile has modal coordinates e_0 (all cosine modes of
    positive frequency integrate to zero against a constant).  Returns the
    discretized system, the assembled batch of ``n_samples`` samples, and
    the parameter record.
    """
    params = default_cascade_params(n_modes=n_modes)
    sys = heat_cascade_discretize(params)
    x_init = np.zeros(sys.n)
    x_init[params.m_v] = 1.0
    inputs = [np.ones(sys.m)] * int(n_samples)
    traj = simulate(sys, x_init, inputs)
    batch = assemble_single_trajectory(
        traj, inputs, meta=f"heat-cascade n_modes={n_modes} N={n_samples}"
    )
    return sys, batch, params
