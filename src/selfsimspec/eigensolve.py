"""Self-contained symmetric eigensolvers tuned for graded matrices.

The matrices of this problem have entries spanning q^N, many orders of
magnitude, and the small eigenvalues carry the asymptotics that the rest
of the package verifies. Norm-based eigensolvers lose them; everything
here therefore works with relative thresholds:

* one inertia-count bisection core for tridiagonal problems
  T y = lambda * diag(m) y: the section (unit mass) and the
  stiffness/mass pencil (the weight's masses, of either sign). LDL^T
  pivot signs of T - x*diag(m) count the eigenvalues below each probe;
  brackets are isolated on a binary probe grid first, so each spans at
  most a factor of 2 and the iteration cap holds across the full dynamic
  range, then cut by multisection, many probes per vectorised count;
* twisted LDL^T factorizations for pencil eigenvectors, O(N) each;
* cyclic Jacobi rotations with the relative threshold
  |a_pq| <= tol*sqrt(|a_pp*a_qq|) and Rutishauser diagonal updates for
  dense symmetric matrices (the Green-kernel route), which attain high
  relative accuracy on graded positive definite inputs.

Iteration caps (120 bisection steps, 30 Jacobi sweeps, 50 inverse
iteration steps) are diagnostics, not tunables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeight,
    NonConvergence,
    NotPositiveDefinite,
    OutOfRange,
    ZeroEigenvalue,
)
from .operators import TridiagonalSymmetric

_PIVMIN = 1e-300
_MU_GUARD = 1e-290
_BISECT_CAP = 120
_SWEEP_CAP = 30
_INVIT_CAP = 50
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PencilProblem:
    """Generalized problem K y = lambda M y, K tridiagonal positive definite."""

    K: TridiagonalSymmetric
    M: np.ndarray
    order: int

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if len(M) != self.order or self.K.order != self.order:
            raise OutOfRange("pencil dimensions disagree")
        if np.any(M == 0.0):
            raise DegenerateWeight("mass matrix has a zero entry")
        object.__setattr__(self, "M", M)


@dataclass(frozen=True)
class EigenvalueList:
    """Ascending eigenvalues with the solver's own accuracy statement.

    residual_bound is relative: for bisection (sections and pencils) the
    widest final bracket over max(|lo|, |hi|), at most eps for pencils,
    whose brackets close to adjacent doubles; for Jacobi the off-diagonal
    Frobenius fraction. dropped counts pencil eigenvalues of magnitude
    beyond 1/_MU_GUARD, which are excluded rather than computed.
    """

    values: np.ndarray
    residual_bound: float
    method: str
    dropped: int = 0


def _pivots(diag, off, mass, xs):
    """LDL^T pivots of T - x*diag(mass), row by row, one entry per shift x.

    The update (d_i - x*m_i) - off*(off/piv) squares no entry, so it stays
    in range wherever T does; pivots below _PIVMIN in magnitude are moved
    to +-_PIVMIN, keeping their sign, before they divide.
    """
    piv = diag[0] - xs * mass[0]
    for i in range(len(diag)):
        if i:
            piv = (diag[i] - xs * mass[i]) - off[i - 1] * (off[i - 1] / piv)
        small = np.abs(piv) < _PIVMIN
        if small.any():
            piv = np.where(small, np.where(piv < 0.0, -_PIVMIN, _PIVMIN), piv)
        yield piv


def _counts_below(diag, off, mass, probes) -> np.ndarray:
    """Eigenvalues of T y = lambda*diag(mass) y strictly below each probe.

    By Sylvester's law the negative pivots nu(x) of T - x*diag(mass) count
    the eigenvalues below x when every mass is positive (any symmetric T).
    With negative masses T must be positive definite; nu(x) then counts the
    eigenvalues between 0 and x, the n_neg negative masses give n_neg
    negative eigenvalues, and the count below x is n_neg + nu(x) for x > 0
    and n_neg - nu(x) for x < 0. An overflowed x*m_i keeps its sign, which
    is all a count needs.
    """
    xs = np.asarray(probes, dtype=float)
    nu = np.zeros(xs.shape, dtype=np.int64)
    with np.errstate(over="ignore"):
        for piv in _pivots(diag, off, mass, xs):
            nu += piv < 0.0
    n_neg = int(np.sum(mass < 0.0))
    if n_neg == 0:
        return nu
    return np.where(xs < 0.0, n_neg - nu, n_neg + nu)


def sturm_count(T: TridiagonalSymmetric, x: float) -> int:
    """Number of eigenvalues of T strictly below x."""
    return int(_counts_below(T.diag, T.offdiag, np.ones(T.order), [float(x)])[0])


def _gershgorin(diag, off, mass) -> tuple[float, float]:
    """Interval holding every eigenvalue of T y = lambda*diag(mass) y.

    Gershgorin on sign(m) |M|^(-1/2) T |M|^(-1/2): row i has centre d_i/m_i
    and radius the scaled off-diagonals |e|/sqrt(|m_i*m_j|) beside it. The
    interval is widened by 1e-10 of its largest end; a row that overflows
    (tiny masses) widens it to the whole line.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(np.abs(mass))
        scaled = np.abs(off) / root[:-1] / root[1:]
        rad = np.zeros(len(diag))
        rad[:-1] += scaled
        rad[1:] += scaled
        centre = diag / mass
        lo, hi = centre - rad, centre + rad
    glo = float(np.min(np.where(np.isnan(lo), -np.inf, lo)))
    ghi = float(np.max(np.where(np.isnan(hi), np.inf, hi)))
    pad = 1e-10 * max(abs(glo), abs(ghi), 1.0)
    return glo - pad, ghi + pad


def _probe_grid(glo: float, ghi: float) -> np.ndarray:
    """Binary grid over the Gershgorin interval, refined toward zero.

    Halving toward zero from each endpoint isolates eigenvalues of either
    sign across the full dynamic range: every bracket taken from this grid
    spans a factor of at most 2 or ends at zero below |x| = 2e-300, so the
    multisection steps needed do not depend on the eigenvalue's magnitude.
    """
    probes = [glo, ghi]
    if ghi > 0.0:
        t = ghi
        floor = max(glo, _PIVMIN)
        while t / 2.0 > floor:
            t /= 2.0
            probes.append(t)
    if glo < 0.0:
        t = glo
        ceil = min(ghi, -_PIVMIN)
        while t / 2.0 < ceil:
            t /= 2.0
            probes.append(t)
    if glo < 0.0 < ghi:
        probes.append(0.0)
    return np.unique(np.asarray(probes))


def _bisect(diag, off, mass, glo: float, ghi: float, idxs: np.ndarray, tol: float):
    """Eigenvalues idxs (1-based, ascending) of T y = lambda*diag(mass) y in [glo, ghi].

    Each bracket from the probe grid is cut into 2^b equal parts per step,
    all brackets in one vectorised count (b grows as fewer brackets remain,
    since a count's cost is mostly per row, not per probe), until it is
    <= tol wide relative to its ends, or its ends are adjacent doubles
    (tol = 0). Returns (values, widest final relative bracket width).
    """
    probes = _probe_grid(glo, ghi)
    reached = np.maximum.accumulate(_counts_below(diag, off, mass, probes))
    j = np.clip(np.searchsorted(reached, idxs), 1, len(probes) - 1)
    los, his = probes[j - 1], probes[j]

    active = np.ones(len(idxs), dtype=bool)
    for _ in range(_BISECT_CAP):
        act = np.flatnonzero(active)
        if not len(act):
            break
        parts = 2 ** min(6, max(1, int(math.log2(4096 / len(act)))))
        frac = np.arange(1, parts) / parts
        lo, hi = los[act, None], his[act, None]
        # lo*(1-f) + hi*f cannot overflow; f = 1/2 splits any 2-ulp bracket
        pts = np.minimum(np.maximum(lo * (1.0 - frac) + hi * frac, lo), hi)
        cnt = _counts_below(diag, off, mass, pts.ravel()).reshape(pts.shape)
        # points before the first count >= idx; monotone even if roundoff is not
        c = np.sum(~np.logical_or.accumulate(cnt >= idxs[act, None], axis=1), axis=1)
        ends = np.hstack((lo, pts, hi))
        rows = np.arange(len(act))
        new_lo, new_hi = ends[rows, c], ends[rows, c + 1]
        stuck = (new_lo == los[act]) & (new_hi == his[act])
        los[act], his[act] = new_lo, new_hi
        done = (new_hi - new_lo) <= tol * np.maximum(np.abs(new_lo), np.abs(new_hi)) + _PIVMIN
        active[act[done | stuck]] = False
    if active.any():
        raise NonConvergence(f"bisection cap {_BISECT_CAP} reached")
    vals = 0.5 * (los + his)
    vals = np.maximum.accumulate(vals)  # enforce monotone output against roundoff
    scale = np.maximum(np.maximum(np.abs(los), np.abs(his)), _PIVMIN)
    width = float(np.max((his - los) / scale)) if len(idxs) else 0.0
    return vals, width


def tridiag_eigs(
    T: TridiagonalSymmetric,
    index_range: tuple[int, int] | None = None,
    tol: float = 1e-13,
) -> EigenvalueList:
    """Eigenvalues lambda_k1..lambda_k2 (1-based, ascending) by bisection.

    The inertia core with unit mass; each eigenvalue is bracketed to
    relative width <= tol.
    """
    if tol < 4 * _EPS:
        raise OutOfRange(f"tol below 4*eps: {tol!r}")
    n = T.order
    if index_range is None:
        k1, k2 = 1, n
    else:
        k1, k2 = int(index_range[0]), int(index_range[1])
        if not 1 <= k1 <= k2 <= n:
            raise OutOfRange(f"index range {index_range!r} outside 1..{n}")
    unit = np.ones(n)
    glo, ghi = _gershgorin(T.diag, T.offdiag, unit)
    vals, width = _bisect(T.diag, T.offdiag, unit, glo, ghi, np.arange(k1, k2 + 1), tol)
    return EigenvalueList(vals, residual_bound=width, method="bisect")


def tridiag_cholesky(K: TridiagonalSymmetric) -> tuple[np.ndarray, np.ndarray]:
    """Lower bidiagonal L with L L^T = K: returns (diagonal, subdiagonal)."""
    d, e, n = K.diag, K.offdiag, K.order
    ld = np.empty(n)
    ls = np.empty(max(n - 1, 0))
    piv = float(d[0])
    if not piv > 0.0:
        raise NotPositiveDefinite(f"pivot {piv!r} at row 1")
    ld[0] = math.sqrt(piv)
    for i in range(1, n):
        ls[i - 1] = e[i - 1] / ld[i - 1]
        piv = float(d[i]) - ls[i - 1] * ls[i - 1]
        if not piv > 0.0:
            raise NotPositiveDefinite(f"pivot {piv!r} at row {i + 1}")
        ld[i] = math.sqrt(piv)
    return ld, ls


def _jacobi(S: np.ndarray, tol: float, want_vectors: bool):
    """Cyclic Jacobi with relative rotation threshold; returns (vals, vecs, off)."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    V = np.eye(n) if want_vectors else None
    rot_tol = max(1e-15, 4 * n * _EPS)
    fro = float(np.sqrt(np.sum(A * A)))
    for _ in range(_SWEEP_CAP):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                if abs(apq) <= rot_tol * math.sqrt(abs(A[p, p] * A[q, q])):
                    continue
                rotated = True
                app, aqq = A[p, p], A[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                # Rutishauser updates: exact rotation invariants on the 2x2 block
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
                if want_vectors:
                    vp = V[:, p].copy()
                    vq = V[:, q].copy()
                    V[:, p] = c * vp - s * vq
                    V[:, q] = s * vp + c * vq
        off = A.copy()
        np.fill_diagonal(off, 0.0)
        off_fro = float(np.sqrt(np.sum(off * off)))
        if not rotated or off_fro <= tol * fro:
            break
    else:
        raise NonConvergence(f"Jacobi sweep cap {_SWEEP_CAP} reached")
    if off_fro > tol * fro and fro > 0.0:
        raise NonConvergence(f"off-diagonal norm {off_fro!r} above tol*|S| after convergence")
    vals = np.diag(A).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], (V[:, order] if want_vectors else None), off_fro


def dense_symmetric_eigs(S: np.ndarray, tol: float = 1e-13) -> EigenvalueList:
    """All eigenvalues of a dense symmetric matrix by cyclic Jacobi.

    Stops when the off-diagonal Frobenius norm falls below tol times the
    Frobenius norm of S (or when the relative rotation threshold leaves
    nothing to rotate, whichever is earlier). High relative accuracy on
    graded positive definite matrices is the point of this solver.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise OutOfRange(f"S must be square, got shape {S.shape}")
    scale = float(np.max(np.abs(S))) if S.size else 0.0
    if scale > 0.0 and float(np.max(np.abs(S - S.T))) > 1e-12 * scale:
        raise OutOfRange("S is not symmetric to 1e-12 relative")
    vals, _, off = _jacobi(0.5 * (S + S.T), tol, want_vectors=False)
    fro = float(np.sqrt(np.sum(S * S)))
    rel = off / fro if fro > 0.0 else 0.0
    return EigenvalueList(vals, residual_bound=rel, method="jacobi")


def solve_pencil(p: PencilProblem, tol: float = 1e-13) -> EigenvalueList:
    """Eigenvalues of K y = lambda M y, ascending, by the inertia core.

    The brackets come from Gershgorin on sign(M) |M|^(-1/2) K |M|^(-1/2),
    cut to |lambda| <= 1/_MU_GUARD; eigenvalues beyond that are counted in
    dropped. Every bracket closes to adjacent doubles, so the result meets
    any tol >= eps; tol is accepted for the common solver signature.
    """
    K, m, n = p.K, p.M, p.order
    if _counts_below(K.diag, K.offdiag, np.ones(n), [0.0])[0]:
        raise NotPositiveDefinite("stiffness matrix has a negative eigenvalue")
    ceil = 1.0 / _MU_GUARD
    glo, ghi = _gershgorin(K.diag, K.offdiag, m)
    glo, ghi = np.clip((glo, ghi), -ceil, ceil)
    k1, k2 = _counts_below(K.diag, K.offdiag, m, [glo, ghi])
    if k2 <= k1:
        raise ZeroEigenvalue("every eigenvalue lies beyond the range guard")
    vals, width = _bisect(K.diag, K.offdiag, m, glo, ghi, np.arange(k1 + 1, k2 + 1), 0.0)
    return EigenvalueList(vals, residual_bound=width, method="bisect", dropped=int(n - (k2 - k1)))


def _twisted_vectors(p: PencilProblem, lam: np.ndarray) -> np.ndarray:
    """Unit null vectors of K - lambda*M, one column per eigenvalue, O(N) each.

    Forward and backward LDL^T pivots D+ and D- of K - lambda*M meet at
    the twist index r where gamma_r = D+_r + D-_r - (K - lambda*M)_rr is
    smallest in magnitude; with x_r = 1 the two bidiagonal factors carry
    the solution outward. The sign makes x_r positive.
    """
    d, e, m = p.K.diag, p.K.offdiag, p.M
    n, k = p.order, len(lam)
    with np.errstate(over="ignore"):
        fwd = np.array(list(_pivots(d, e, m, lam)))
        bwd = np.array(list(_pivots(d[::-1], e[::-1], m[::-1], lam)))[::-1]
        gamma = fwd + bwd - (d[:, None] - m[:, None] * lam)
    r = np.argmin(np.abs(gamma), axis=0)
    X = np.zeros((n, k))
    X[r, np.arange(k)] = 1.0
    for i in range(n - 2, -1, -1):
        c = i < r
        X[i, c] = -(e[i] / fwd[i, c]) * X[i + 1, c]
    for i in range(1, n):
        c = i > r
        X[i, c] = -(e[i - 1] / bwd[i, c]) * X[i - 1, c]
    return X / np.linalg.norm(X, axis=0)


def pencil_eigenpairs(
    p: PencilProblem, tol: float = 1e-13
) -> tuple[np.ndarray, np.ndarray, EigenvalueList]:
    """Eigenvalues and unit eigenvectors of K y = lambda M y.

    Eigenvalues come from solve_pencil, eigenvectors from one twisted
    factorization each, with the componentwise accuracy that slope and
    form checks need. Returns (lambda ascending, y columns, EigenvalueList).
    """
    info = solve_pencil(p, tol)
    return info.values, _twisted_vectors(p, info.values), info


def inverse_iteration(matrix, lam: float, tol: float = 1e-10) -> np.ndarray:
    """Unit eigenvector for an eigenvalue already known to accuracy ~tol.

    Accepts a TridiagonalSymmetric or a dense symmetric array. Returns v
    with ||(A - lam) v|| <= 10*tol*||A||; the sign is fixed so the largest
    component is positive.
    """
    A = matrix.dense() if isinstance(matrix, TridiagonalSymmetric) else np.asarray(matrix, dtype=float)
    n = A.shape[0]
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    shift = float(lam)
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(_INVIT_CAP):
        try:
            w = np.linalg.solve(A - shift * np.eye(n), v)
            wn = float(np.linalg.norm(w))
        except np.linalg.LinAlgError:
            wn = 0.0
        if wn == 0.0 or not math.isfinite(wn):
            # (near-)exact singularity: nudge the shift off the eigenvalue
            shift += 10.0 * _EPS * max(abs(shift), norm, 1.0)
            continue
        v = w / wn
        if v[int(np.argmax(np.abs(v)))] < 0.0:
            v = -v
        res = float(np.linalg.norm(A @ v - lam * v))
        if res <= 10.0 * tol * norm:
            return v
    raise NonConvergence(f"inverse iteration cap {_INVIT_CAP} reached")
