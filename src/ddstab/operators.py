"""Operator-theoretic primitives on dense matrices.

Singular values and the one rank rule, frame/Bessel bounds, range and
kernel bases, rank-aware pseudoinverses, minimal-constant factorizations of
the range-inclusion kind, and power-stability certificates.  Everything here is
real double precision; complex data must be embedded by the caller.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyData, InvalidParams

#: Default relative singular-value threshold for rank decisions.
DEFAULT_TOL = 1e-9
#: Widening of the log-scale norm bounds in least_certificate, far above
#: the rounding of any bound.
_LOG_SLACK = 1e-9
#: Slack of the radius and power bounds that verify and noise accept a loop by.
_ACCEPT_SLACK = 1e-6
#: Most numbers (loops x steps x n x n) in one block of powers of
#: least_certificate, and most steps in a block.
_BLOCK_ELEMENTS = 2**16
_BLOCK_STEPS = 64
#: A block of powers whose Frobenius norms all lie in [2^-400, 2^400] (or
#: are zero) keeps the mantissas of a chain rescaled at every step: the
#: squares in the norm stay normal, and LAPACK's SVD rescales a matrix only
#: when an entry passes about 2^459.  Other blocks are formed again one
#: step at a time.
_RANGE = 2.0**400
#: ln 2, by which least_certificate turns power-of-two exponents into logs.
_LN2 = np.log(2.0)
#: First step at which least_certificate drops live loops with rho >= gamma;
#: the next checks follow at four times the last.
_FIRST_CHECKPOINT = 64
#: Blocks the probe of least_certificate powers for each block of the rest.
_PROBE_BLOCKS = 4
#: Largest power examined by construct_certificate by default and by the LMI.
_CERTIFICATE_HORIZON = 10000


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
    """The one rank cut: per row of descending singular values ``s`` (..., k),
    the count of those >= ``tol`` times the row's first (0 for an empty row
    or a zero first); an int for one row, an int array (...) for a stack."""
    if not (0.0 < tol < np.inf):
        raise InvalidParams("tol must be finite and positive")
    top = s[..., :1]
    count = np.sum((s >= tol * top) & (top > 0.0), axis=-1)
    return int(count) if s.ndim == 1 else count


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
    (full row rank at ``tol``), and 0 otherwise.  A matrix with no rows
    raises EmptyData, as a DataBatch with no state coordinate does.
    """
    s = singular_values(S)
    dim = np.shape(S)[0]
    if dim == 0:
        raise EmptyData("frame bounds need at least one row")
    rank = _rank_count(s, tol)
    upper = float(s[0] ** 2) if s.size else 0.0
    lower = float(s[dim - 1] ** 2) if rank == dim else 0.0
    return FrameBounds(upper=upper, lower=lower, rank=rank, tol=tol)


def pseudo_inverse(M, tol=DEFAULT_TOL):
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``tol * sigma_max`` are treated as zero.  A stack
    of shape (..., p, q) gives a stack of shape (..., q, p), each slice the
    pseudoinverse of the matching slice.
    """
    if not (0.0 < tol < np.inf):
        raise InvalidParams("tol must be finite and positive")
    M = np.asarray(M, dtype=float)
    if 0 in M.shape[-2:]:
        return np.zeros(M.shape[:-2] + (M.shape[-1], M.shape[-2]))
    return _pinv_and_rank(M, tol)[0]


def _finite_product(P, name):
    """P, a product of the data taken under np.errstate(over="ignore",
    invalid="ignore"); InvalidParams unless every entry is finite."""
    if not np.isfinite(P).all():
        raise InvalidParams(f"the data overflow double precision: {name} is not finite")
    return P


def _pinv_and_rank(M, tol):
    """pseudo_inverse of M (at least one row), and from the same SVD the rank
    of each slice (the count of singular values kept) and the left vectors U."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    rank = _rank_count(s, tol)
    keep = np.arange(s.shape[-1]) < np.asarray(rank)[..., None]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    pinv = (np.swapaxes(Vt, -1, -2) * s_inv[..., None, :]) @ np.swapaxes(U, -1, -2)
    # a zero slice is +0.0 throughout, not the signed zeros of the product
    return np.where(s[..., :1, None] > 0.0, pinv, 0.0), rank, U


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
    C = pseudo_inverse(B) @ A
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
    """The loop of the stack F (L, n, n) with spectral radius below gamma and
    the smallest power-stability constant M at rate gamma, as (index,
    PowerStabilityCertificate); ties go to the lowest index, and None when
    no such loop reaches its k0 within ``k_max`` powers.  Raises
    InvalidParams unless gamma is finite and positive.

    k0 of a loop is the first power k >= 1 with ||F^k|| <= gamma^k, and M
    the largest ratio ||F^r|| / gamma^r over 0 <= r < k0 (so M >= 1, from
    r = 0).  Every comparison, of a ratio with 1 for k0 and of two steps'
    ratios for the running maximum, is settled lazily by the cheapest
    bracket on the 2-norm of a power that decides it, each widened by
    _LOG_SLACK against rounding: the Frobenius norm above, with one step of
    power iteration below (_power_lower) only where the k0 test is open,
    then the Gram-power bracket (_gram_bracket) on the open k0 tests and on
    the steps that may hold the maximum, then the SVD (operator_norm), which
    runs only where two steps' Gram brackets overlap or one straddles the
    k0 test.  Each loop keeps one pending contender, the only unsettled
    step whose bracket can still top its settled ratios, and settles it
    when the loop finishes and can still win.

    The loops advance in blocks (_Ranking.advance), and a loop leaves as
    soon as the lower end of its running maximum exceeds the least M
    admitted so far, since its own M can only be larger, so the argmin is
    exact.  So that a small M is admitted early, a probe powers the most
    promising loop alone, ahead of the rest (_least_certificate).  Each
    power is the plain product of F with the one before, carried with an
    exact power-of-two exponent, and each log norm is log(mantissa) +
    exponent ln 2; M is the ratio computed at the loop's largest step, so a
    loop gets the same bits in any stack, from any block breaks and
    whichever loops run ahead.

    A finisher has rho <= gamma, since rho^k0 <= ||F^k0|| <= gamma^k0, so
    spectral radii are taken only of the finishers that can still win, in
    the order of the lower ends of their M, of the loops a probe meets, and
    of the live loops at steps 64, 256, 1024, ..., where loops with
    rho >= gamma leave rather than run to ``k_max``.
    """
    if not (0.0 < gamma < np.inf):
        raise InvalidParams("gamma must be finite and positive")
    F = np.asarray(F, dtype=float)
    return _least_certificate(F, gamma, k_max, check_radius=True)


def _frobenius(Q):
    """Frobenius norm of each matrix of the stack Q (..., n, n), in one
    contraction.  No certificate depends on the order of its sum: every M
    and every k0 test the brackets leave open is settled by operator_norm,
    every bracket is widened by _LOG_SLACK, far above the rounding of the
    sum, and the next base of a chain is rescaled by a power of two taken
    from the norm's exponent alone, so its mantissas stay those of the plain
    product."""
    return np.sqrt(np.einsum("...ij,...ij->...", Q, Q))


def _log_norm(norm, exponent):
    """log(norm 2^exponent), as log(mantissa) + (its exponent + exponent)
    ln 2: the same bits for every power-of-two scaling of ``norm`` that
    ``exponent`` makes up for."""
    mantissa, own = np.frexp(norm)
    return np.log(mantissa) + (own + exponent) * _LN2


def _power_block(F, P, steps):
    """The next ``steps`` powers F^j P of each loop of the stack F (L, n, n)
    from its base P (L, n, n), each the product of F with the power before:
    one matmul per step for the whole stack.

    Returns the block Q (L, steps, n, n), the exponents e (L, steps) with
    F^j P = Q_j 2^e_j (zero unless rescaled, see below), and the Frobenius
    norms of Q (L, steps).

    A loop whose block has a norm outside the range of _RANGE, an overflow
    among them, is formed again one step at a time, each power rescaled by
    the power of two that puts its Frobenius norm in [1/2, 1).  Powers of
    two are exact, so either way Q_j 2^e_j has the mantissas of the plain
    product F...F."""
    Q = np.empty((len(F), steps) + F.shape[1:])
    for j in range(steps):
        np.matmul(F, Q[:, j - 1] if j else P, out=Q[:, j])
    fro = _frobenius(Q)
    exponents = np.zeros(fro.shape, dtype=np.int64)
    wild = ~((fro == 0.0) | ((fro >= 1.0 / _RANGE) & (fro <= _RANGE))).all(axis=1)
    if wild.any():
        rows = np.flatnonzero(wild)
        e, before = 0, P[rows]
        for j in range(steps):
            Qj = F[rows] @ before
            shift = np.frexp(_frobenius(Qj))[1]
            Q[rows, j] = before = np.ldexp(Qj, -shift[:, None, None])
            e = e + shift
            exponents[rows, j] = e
        fro[rows] = _frobenius(Q[rows])
    return Q, exponents, fro


def _power_lower(Q, fro):
    """A lower bound on log(||Q|| / ||Q||_F) for each matrix of the stack
    Q (m, n, n) with Frobenius norms ``fro``, from one step of power
    iteration: ||Q^T w|| / ||w|| for w = Q 1 (-inf where w = 0).  Both
    vectors are scaled by 1 / ||Q||_F, so that no square overflows."""
    scale = np.where(fro > 0, fro, 1.0)[:, None]
    w = np.einsum("...ij->...i", Q) / scale
    z = np.matmul(w[:, None, :], Q)[:, 0, :] / scale
    ww, zz = np.einsum("...i,...i->...", w, w), np.einsum("...i,...i->...", z, z)
    return 0.5 * np.log(np.where(ww > 0, zz, 0.0) / np.where(ww > 0, ww, 1.0))


def _gram_bracket(P):
    """Bounds on log(||P|| / ||P||_F) for each nonzero matrix of the stack
    P.  With P scaled to unit Frobenius norm and G = P^T P, tr G^p is the
    sum of sigma^(2p), so t9 / t8 <= ||P||^2 <= t8^(1/8) for
    t8 = tr G^8 = ||G^4||_F^2 and t9 = tr G^9 = <G^4, G^5>: four matrix
    products, no factorization."""
    fro = _frobenius(P)
    P = P / np.where(fro > 0, fro, 1.0)[..., None, None]
    G = np.swapaxes(P, -1, -2) @ P
    G4 = G @ G
    G4 = G4 @ G4
    t8 = np.einsum("...ij,...ij->...", G4, G4)
    t9 = np.einsum("...ij,...ij->...", G4, G4 @ G)
    return 0.5 * np.log(t9 / t8), np.log(t8) / 16


def _top(values, mask):
    """Row-wise maximum of ``values`` over ``mask``, -inf where none."""
    return np.where(mask, values, -np.inf).max(axis=-1)


class _Ranking:
    """Live loops of least_certificate that advance together, block by
    block, up to the horizon ``k_max``, with the state each carries between
    blocks: F^k = P 2^exponent, the largest settled log ratio, and the
    pending contender (its bracket, its power with its exponent, and log
    gamma^r at its step).  Without ``check_radius`` the caller vouches for
    rho <= gamma on every loop, and no spectral radius is taken."""

    _ROWS = ("F", "index", "P", "exponent", "running", "pending_lo", "pending_hi",
             "pending_P", "pending_exponent", "pending_drift", "last_hi")

    def __init__(self, F, gamma, k_max, check_radius):
        self.F, self.index = F, np.arange(len(F))
        self.gamma, self.log_gamma, self.check_radius = gamma, np.log(gamma), check_radius
        self.k, self.k_max, self.checkpoint = 0, k_max, _FIRST_CHECKPOINT
        self.P = np.tile(np.eye(F.shape[-1]), (len(F), 1, 1))  # F^0; tiled, so BLAS multiplies
        self.exponent = np.zeros(len(F), dtype=np.int64)
        self.running = np.zeros(len(F))  # r = 0 gives 0
        self.pending_lo, self.pending_hi = np.full(len(F), -np.inf), np.full(len(F), -np.inf)
        self.pending_P = np.zeros(F.shape)
        self.pending_exponent = np.zeros(len(F), dtype=np.int64)
        self.pending_drift = np.zeros(len(F))
        self.last_hi = np.full(len(F), np.inf)  # upper end at the last step so far

    def take(self, rows):
        """Keep the loops ``rows`` (a mask or an index array) and drop the rest."""
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[rows])

    def lower(self):
        """The lower end of each loop's M, in log scale."""
        return np.maximum(self.running, self.pending_lo)

    def probe(self, best):
        """Split off, as a ranking of its own that needs no radius, the live
        loop with the least lower end of its M that is past its peak (its
        last step below that lower end, so that its M is likely final) and
        has rho < gamma; the loops with rho >= gamma met on the way leave.
        None when no live loop past its peak could beat ``best``."""
        lower = self.lower()
        leave, alone = np.zeros(len(lower), dtype=bool), None
        for i in np.lexsort((self.index, lower)):
            if lower[i] > best[0]:
                break
            if not self.last_hi[i] < lower[i]:
                continue
            leave[i] = True
            if spectral_radius(self.F[i]) < self.gamma:
                alone = copy.copy(self)
                alone.take([i])
                alone.check_radius = False
                break
        self.take(~leave)
        return alone

    def pending_ratio(self, i):
        """The exact log ratio of the pending step of loop(s) i."""
        return (
            _log_norm(operator_norm(self.pending_P[i]), self.pending_exponent[i])
            - self.pending_drift[i]
        )

    def advance(self, best):
        """Power every loop through one block, admit its finishers against
        ``best``, the (log M, index, k0) of the least loop finished so far,
        and drop the loops that can no longer beat it; returns the new best."""
        keep = self.lower() <= best[0]
        if not keep.all():
            self.take(keep)
            if not self.index.size:
                return best
        F, k, n = self.F, self.k, max(self.F.shape[-1], 1)
        steps = min(_BLOCK_STEPS, max(_BLOCK_ELEMENTS // (len(F) * n * n), 1), self.k_max - k)
        if self.check_radius:
            steps = min(steps, self.checkpoint - k)
        Q, exponents, fro = _power_block(F, self.P, steps)
        exponents += self.exponent[:, None]
        drift = np.arange(k + 1, k + steps + 1) * self.log_gamma  # log gamma^r
        # log ||F^r||_F / gamma^r; log ||F^r|| / gamma^r lies in [lo, hi],
        # and lo == hi once settled by the SVD
        base = _log_norm(fro, exponents) - drift
        hi = base + _LOG_SLACK
        lo = base - (0.5 * np.log(n) + _LOG_SLACK)  # ||P||_F <= sqrt(n) ||P||
        running, pending_lo, pending_hi = self.running, self.pending_lo, self.pending_hi

        def before():
            """The steps before the first sure finish (hi <= 0)."""
            return np.logical_and.accumulate(~(hi <= 0.0), axis=1)

        def refine(mask, b_lo, b_hi=None):
            lo[mask] = np.maximum(lo[mask], base[mask] + b_lo - _LOG_SLACK)
            if b_hi is not None:
                hi[mask] = np.minimum(hi[mask], base[mask] + b_hi + _LOG_SLACK)

        def settle(mask):
            rows, cols = np.nonzero(mask)
            lo[rows, cols] = hi[rows, cols] = (
                _log_norm(operator_norm(Q[rows, cols]), exponents[rows, cols]) - drift[cols]
            )

        # power iteration where the k0 test is open; then Gram brackets on
        # the k0 tests still open and each loop's highest step, then on the
        # steps whose upper ends still reach above the highest lower end,
        # which may hold the maximum (two rounds take far fewer Gram
        # brackets than one on every step that may); last, SVDs of the k0
        # tests still open
        first = before()
        near = first & (lo <= 0.0)
        if near.any():
            refine(near, _power_lower(Q[near], fro[near]))
        top = np.where(first, hi, -np.inf)
        gram = (first & (lo <= 0.0)) | (
            (top == top.max(axis=1)[:, None]) & (top > np.maximum(running, pending_lo)[:, None])
        )
        if gram.any():
            refine(gram, *_gram_bracket(Q[gram]))
            first = before()
        floor = np.maximum(np.maximum(running, pending_lo), _top(lo, first))
        rest = first & ~gram & (hi > floor[:, None])
        if rest.any():
            refine(rest, *_gram_bracket(Q[rest]))
            first = before()
        open_ = first & (lo <= 0.0)
        if open_.any():
            settle(open_)
            first = before()
        counted = first  # the steps r < k0
        done = counted.sum(axis=1)  # k0 = k + done + 1 where done < steps

        def contenders():
            """The settled running maximum, the steps whose brackets reach
            above every lower end, and whether the pending one does."""
            exact = lo == hi
            known = np.maximum(running, _top(hi, counted & exact))
            floor = np.maximum(np.maximum(known, pending_lo), _top(lo, counted))
            return known, counted & ~exact & (hi > floor[:, None]), pending_hi > floor

        # of two or more contenders for the running maximum, all but the one
        # with the highest upper end are settled; it becomes the pending step
        known, contend, held = contenders()
        crowded = contend.sum(axis=1) + held > 1
        if crowded.any():
            rows = np.flatnonzero(crowded & ~(held & (pending_hi >= _top(hi, contend))))
            contend &= crowded[:, None]
            contend[rows, np.where(contend, hi, -np.inf)[rows].argmax(axis=1)] = False
            settle(contend)
            drop = rows[held[rows]]
            running[drop] = np.maximum(running[drop], self.pending_ratio(drop))
            pending_lo[drop] = pending_hi[drop] = -np.inf
            known, contend, held = contenders()
        self.running = running = known
        chosen = contend.any(axis=1)
        new = np.flatnonzero(chosen)
        at = contend[new].argmax(axis=1)
        self.pending_P[new], self.pending_exponent[new] = Q[new, at], exponents[new, at]
        self.pending_drift[new] = drift[at]
        pending_lo[new], pending_hi[new] = lo[new, at], hi[new, at]
        gone = ~(held | chosen)
        pending_lo[gone] = pending_hi[gone] = -np.inf

        # finishers, by the lower end of their M: settle the pending step
        # and check rho until the lower end exceeds the least M admitted
        lower = np.maximum(running, pending_lo)
        fin = done < steps
        if fin.any():
            index = self.index
            for i in np.flatnonzero(fin)[np.lexsort((index[fin], lower[fin]))]:
                if lower[i] > best[0]:
                    break
                if pending_hi[i] > running[i]:
                    running[i] = max(running[i], self.pending_ratio(i))
                if (running[i], index[i]) < best[:2] and (
                    not self.check_radius or spectral_radius(F[i]) < self.gamma
                ):
                    best = (running[i], index[i], k + int(done[i]) + 1)

        self.k = k = k + steps
        keep = ~fin & (lower <= best[0])
        if self.check_radius and k == self.checkpoint:
            self.checkpoint *= 4
            if keep.any() and k < self.k_max:
                keep[keep] = spectral_radius(F[keep]) < self.gamma
        # the next base, rescaled by a power of two to a norm in [1/2, 1)
        shift = np.frexp(fro[keep, -1])[1]
        self.P, self.exponent, self.last_hi = Q[:, -1], exponents[:, -1], hi[:, -1]
        self.take(keep)
        self.P, self.exponent = np.ldexp(self.P, -shift[:, None, None]), self.exponent + shift
        return best

    def live(self):
        """Whether any loop is left to power."""
        return self.index.size > 0 and self.k < self.k_max


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _least_certificate(F, gamma, k_max, check_radius):
    """least_certificate; without ``check_radius`` the caller vouches for
    rho <= gamma on every loop, and no spectral radius is taken.

    All loops go through the first block together.  Then, up to step 64,
    a probe splits off the live loop past its peak with the least lower end
    of its M (_Ranking.probe) and powers it alone, _PROBE_BLOCKS blocks for
    each block of the rest, each as long as a block may be, so its M,
    likely the least, is admitted long before the rest would finish it, and
    prunes them.  A new probe follows when one ends.  The result
    does not depend on this order: best is the least (log M, index) over
    the finished loops with rho < gamma, and a loop leaves only when the
    lower end of its M exceeds an M already admitted."""
    best = (np.inf, len(F), None)  # (log M, index, k0) of the least loop finished
    main, alone = _Ranking(F, gamma, k_max, check_radius), None
    while main.live() or alone is not None:
        if main.live():
            best = main.advance(best)
        if alone is None and len(main.index) > 1 and main.k < _FIRST_CHECKPOINT:
            alone = main.probe(best)
        for _ in range(_PROBE_BLOCKS):
            if alone is not None and alone.live():
                best = alone.advance(best)
        if alone is not None and not alone.live():
            alone = None
    log_m, i, k0 = best
    if k0 is None:
        return None
    return int(i), PowerStabilityCertificate(
        M=float(np.exp(log_m)), gamma=float(gamma), horizon_checked=k0
    )


def construct_certificate(F, gamma, k_max=_CERTIFICATE_HORIZON):
    """Power-stability certificate ||F^k|| <= M gamma^k for all k >= 0.

    The smallest k0 in 1..k_max with ||F^k0|| <= gamma^k0, and M the largest
    ratio ||F^r|| / gamma^r over 0 <= r < k0: least_certificate on the
    one-loop stack.

    Raises InvalidParams unless gamma is finite and positive.  Returns
    NotCertifiable when the spectral radius exceeds gamma or when no
    such k0 exists within ``k_max`` (the gap to gamma is reported through
    the spectral radius field).  At rho exactly gamma the bounded search
    decides: normal-like matrices certify with M = 1, defective ones whose
    power ratios never dip below 1 exhaust k_max.
    """
    if not (0.0 < gamma < np.inf):
        raise InvalidParams("gamma must be finite and positive")
    F = np.asarray(F, dtype=float)
    rho = spectral_radius(F)
    if rho > gamma:
        return NotCertifiable(
            reason=f"spectral radius {rho:.6g} is not below gamma={gamma:.6g}",
            spectral_radius=rho,
            gamma=gamma,
        )
    least = _least_certificate(F[None], gamma, k_max, check_radius=False)
    if least is None:
        return NotCertifiable(
            reason=f"no k0 <= {k_max} with ||F^k0|| <= gamma^k0; raise k_max",
            spectral_radius=rho,
            gamma=gamma,
        )
    return least[1]
