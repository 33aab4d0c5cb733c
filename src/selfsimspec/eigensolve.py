"""Self-contained symmetric eigensolvers tuned for graded matrices.

The matrices of this problem have entries spanning q^N, many orders of
magnitude, and the small eigenvalues carry the asymptotics that the rest
of the package verifies. Norm-based eigensolvers lose them; everything
here therefore works with relative thresholds:

* one inertia-count bisection core, solve_pencil, for tridiagonal
  problems T y = lambda * diag(m) y: the section (masses r times its
  signature, either sign of d), the stiffness/mass pencil (the weight's
  masses, of either sign) and tridiag_eigs (unit mass). LDL^T pivot
  signs of T - x*diag(m) count the eigenvalues below each probe;
  brackets are isolated on a binary probe grid first, so each spans at
  most a factor of 2 and the iteration cap holds across the full dynamic
  range, then cut by multisection, many probes per vectorised count
  (taken a block of rows at a time), until their ends are adjacent
  doubles; no stop has an absolute term, so eigenvalues near 1e-300 keep
  their digits;
* twisted LDL^T factorizations for pencil eigenvectors, O(N) each;
* the Green-kernel route, which shares no code with the core: the
  weighted Green matrix W G W = L L^T by LAPACK's Cholesky, then
  L^T sign(M) L by Jacobi, whose eigenvalues are the reciprocals. Each
  Jacobi step rotates a round of disjoint pairs with
  |a_pq| > rot_tol*sqrt|a_pp|*sqrt|a_qq| (rot_tol = max(1e-15, 4*n*eps))
  until no entry of the matrix exceeds that; a sweep visits the pairs
  (i, i + s) for s = 1..w, w the widest |p - q| above rot_tol, since a
  graded matrix's relative couplings die off with |i - j|. A round's
  rows are strided views of the matrix, rotated in place; its columns
  rotate as the rows of a transposed copy, one buffer per solve, and the
  mean of that copy and its transpose symmetrizes where they cross. The
  result is bit for bit that of gathering and scattering the pairs by
  index. No product of two entries is formed, and graded positive
  definite inputs keep high relative accuracy. The route holds 25 bytes
  per matrix entry at once, so orders beyond _green_max_order (the
  _GREEN_BUDGET of 1 GiB) are refused before anything is allocated.

Iteration caps (120 bisection steps, 30 Jacobi sweeps) are diagnostics,
not tunables; no solver takes a tolerance.
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
_BLOCK = 32  # rows per blocked count
_PROBE_BUDGET = 1024  # multisection probes per count
_MU_GUARD = 1e-290
_BISECT_CAP = 120
_SWEEP_CAP = 30
# Bytes the Green route's n x n arrays may take at once: 25 per entry, for G, LAPACK's copy
# of it and L in the Cholesky, then G's buffer, L and L^T S L, then in Jacobi A, its
# transposed copy B, the ratios (float64 each) and the ratios' mask above rot_tol (bool).
# 1 GiB allows order 6553.
_GREEN_BUDGET = 2**30
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PencilProblem:
    """Generalized problem K y = lambda M y, K symmetric tridiagonal, M diagonal.

    K must be positive definite when a mass is negative (solve_pencil
    checks); with positive masses any symmetric K is allowed.
    """

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

    residual_bound is relative: for bisection the widest final bracket
    over max(|lo|, |hi|), at most eps, since brackets close to adjacent
    doubles; for Jacobi the largest |a_ij| / (sqrt|a_ii| * sqrt|a_jj|)
    left. dropped counts eigenvalues beyond 1/_MU_GUARD (for Green,
    reciprocals below _MU_GUARD), which are excluded rather than reported.
    """

    values: np.ndarray
    residual_bound: float
    method: str
    dropped: int = 0


def _pivots(diag, off, mass, xs, prev=None):
    """LDL^T pivots of T - x*diag(mass), row by row, one entry per shift x.

    The update (d_i - x*m_i) - off*(off/piv) squares no entry, so it stays
    in range wherever T does; pivots below _PIVMIN in magnitude are moved
    to +-_PIVMIN, keeping their sign, before they divide. With prev, the
    pivots of the row before diag[0], the factorization continues from
    there, and off[0] is the entry coupling that row to diag[0].
    """
    if prev is None:
        prev, off = np.inf, np.concatenate(([0.0], off))  # d_0 - x*m_0 - 0, unchanged
    for i in range(len(diag)):
        piv = (diag[i] - xs * mass[i]) - off[i] * (off[i] / prev)
        small = np.abs(piv) < _PIVMIN
        if small.any():
            piv = np.where(small, np.where(piv < 0.0, -_PIVMIN, _PIVMIN), piv)
        yield piv
        prev = piv


def _counts_below(diag, off, mass, probes) -> np.ndarray:
    """Eigenvalues of T y = lambda*diag(mass) y strictly below each probe.

    By Sylvester's law the negative pivots nu(x) of T - x*diag(mass) count
    the eigenvalues below x when every mass is positive (any symmetric T).
    With negative masses T must be positive definite; nu(x) then counts the
    eigenvalues between 0 and x, the n_neg negative masses give n_neg
    negative eigenvalues, and the count below x is n_neg + nu(x) for x > 0
    and n_neg - nu(x) for x < 0. An overflowed x*m_i keeps its sign, which
    is all a count needs.

    Rows go in blocks of _BLOCK: d - x*m for the block in one outer
    product, then three in-place operations per row with no clamp. A
    block holding a pivot below _PIVMIN or a NaN is redone by _pivots, so
    every pivot, and every count, is the clamped recurrence's.
    """
    xs = np.asarray(probes, dtype=float)
    nu = np.zeros(xs.shape, dtype=np.int64)
    off = np.concatenate(([0.0], off))  # off[i] couples row i to row i - 1
    piv, tmp = np.inf, np.empty(xs.shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for b in range(0, len(diag), _BLOCK):
            sl, prev = slice(b, b + _BLOCK), piv
            rows = diag[sl, None] - np.multiply.outer(mass[sl], xs)
            for e, row in zip(off[sl], rows):
                np.divide(e, piv, out=tmp)
                tmp *= e
                row -= tmp
                piv = row
            if not (np.abs(rows) >= _PIVMIN).all():  # a tiny pivot or a NaN
                rows = np.array(list(_pivots(diag[sl], off[sl], mass[sl], xs, prev)))
                piv = rows[-1]
            nu += np.count_nonzero(rows < 0.0, axis=0)
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
    Halving is exact above the floor; the halvings a side needs come from
    log2 of its ends, since their ratio can overflow.
    """
    probes = [np.array([glo, ghi, 0.0] if glo < 0.0 < ghi else [glo, ghi])]
    for t, bound in ((ghi, max(glo, _PIVMIN)), (glo, min(ghi, -_PIVMIN))):
        if math.copysign(1.0, bound) * t > 0.0:  # ghi > 0, or glo < 0
            k = max(0, int(math.log2(abs(t)) - math.log2(abs(bound))) + 2)
            side = np.ldexp(t, -np.arange(1, k + 1))
            probes.append(side[np.abs(side) > abs(bound)])
    return np.unique(np.concatenate(probes))


def _ratios(A: np.ndarray) -> np.ndarray:
    """|a_ij| / max(sqrt|a_ii| * sqrt|a_jj|, tiny) in one buffer, zero diagonal; NaN stays NaN."""
    root = np.sqrt(np.abs(np.diagonal(A)))
    buf = np.multiply.outer(root, root)
    np.maximum(buf, np.finfo(float).tiny, out=buf)  # 0/0 reads 0, never NaN
    np.abs(np.divide(A, buf, out=buf), out=buf)
    np.fill_diagonal(buf, 0.0)
    return buf


def _band(big: np.ndarray) -> int:
    """The widest |p - q| over the True entries of the symmetric big, 0 if there are none."""
    n = big.shape[0]
    last = n - 1 - np.argmax(big[:, ::-1], axis=1)  # each row's last True column
    return int(np.max(last - np.arange(n), where=big.any(axis=1), initial=0))


def _jacobi(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues (ascending) of the exactly symmetric A, which is overwritten, and max _ratios.

    Each sweep takes the _ratios of A once: their maximum is the stop test (<= rot_tol), and
    the widest |p - q| among pairs above rot_tol is the band w. The sweep rotates the rounds
    (s, o) for s = 1..w, o = 0 then s, so every pair above rot_tol at the start of a sweep
    is visited in it, nearest neighbours first, where a graded matrix has its largest
    relative couplings.
    """
    n = A.shape[0]
    rot_tol = max(1e-15, 4 * n * _EPS)
    B = np.empty_like(A)  # each round's transposed copy of A
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(_SWEEP_CAP + 1):
            ratios = _ratios(A)
            rel = float(ratios.max(initial=0.0))
            if not rel > rot_tol or sweep == _SWEEP_CAP:  # converged, NaN, or the cap
                break
            w = _band(ratios > rot_tol)
            del ratios  # else it stays beside the next sweep's, one more n x n array
            for s in range(1, min(w, n - 1) + 1):
                for o in (0, s) if 2 * s < n else (0,):  # (s, s) is empty unless 2s < n
                    _band_round(A, B, s, o, rot_tol)
    if not rel <= rot_tol:  # NaN included
        raise NonConvergence(f"Jacobi sweep cap {_SWEEP_CAP} reached")
    return np.sort(np.diagonal(A)), rel


def _band_round(A: np.ndarray, B: np.ndarray, s: int, o: int, rot_tol: float) -> None:
    """Rotate the pairs (i, i + s), i in the length-s blocks at o, o + 2s, ..., above rot_tol.

    The pairs of a round are disjoint. A pair's ratio is computed as in _ratios; pairs at or
    below rot_tol get t = 0, whose rotation leaves their entries as they are. Rows rotate
    in place through strided views of A (see _turn_rows). Columns rotate as the rows of B,
    A's transposed copy, and A = (B + B^T) / 2: on the block where rotated rows and columns
    cross that is the symmetrization, and every other entry is already exactly symmetric and
    reads back unchanged, so A stays exactly symmetric and the stop test agrees with the
    rotation test entry for entry. Rutishauser updates the diagonal.
    """
    n = A.shape[0]
    blocks, rest = divmod(n - o, 2 * s)  # whole blocks, rows after them
    tail = max(0, rest - s)  # pairs of the partial block
    j = np.arange(blocks * s + tail)
    p = o + j + s * (j // s)  # pair j lies in block j // s
    ix = np.add.outer(np.array((0, s * (n + 1), s, s * n)), p * (n + 1))  # a_pp, a_qq, a_pq, a_qp
    flat = A.reshape(-1)
    app, aqq, apq = flat[ix[:3]]
    big = np.abs(apq) / (np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq))) > rot_tol
    if not big.any():
        return
    ix, app, aqq, apq = ix[:, big], app[big], aqq[big], apq[big]
    # t = tan of the angle that zeroes a_pq, the root of magnitude <= 1
    diff, twice = aqq - app, 2.0 * apq
    t = np.zeros(len(p))
    t[big] = twice / (diff + np.copysign(np.hypot(diff, twice), diff))
    c = 1.0 / np.hypot(1.0, t)
    rot = np.array((c, -t * c, t * c, c)).T.reshape(-1, 2, 2)
    _turn_rows(A, B, rot, s, o, blocks, tail)
    np.copyto(B, A.T)
    _turn_rows(B, A, rot, s, o, blocks, tail)
    np.copyto(A, B.T)  # then A + B: a transposed copy is cheaper than a transposed add
    A += B
    A *= 0.5
    t = t[big]
    flat[ix[0]] = app - t * apq
    flat[ix[1]] = aqq + t * apq
    flat[ix[2:]] = 0.0


def _turn_rows(
    X: np.ndarray, scratch: np.ndarray, rot: np.ndarray, s: int, o: int, blocks: int, tail: int
) -> None:
    """Rows p, p + s of X <- rot[k] @ (row p, row p + s) for the k-th pair p of a round, in place.

    The whole blocks and the partial one are each count blocks of width pairs, a block every
    2s rows from first: a strided view of X of shape (count, width, p or q, column), no copy.
    The products pass through scratch, an array of X's size whose contents are not needed.
    """
    n, (row, col) = X.shape[1], X.strides
    for first, count, width, r in ((o, blocks, s, rot[: blocks * s]),
                                   (o + 2 * s * blocks, 1, tail, rot[blocks * s :])):
        if count * width:
            shape = (count, width, 2, n)
            rows = np.ndarray(shape, X.dtype, X, first * row, (2 * s * row, row, s * row, col))
            prod = scratch.reshape(-1)[: count * width * 2 * n].reshape(shape)
            rows[...] = np.matmul(r.reshape(count, width, 2, 2), rows, out=prod)


def _green_max_order() -> int:
    """The largest order whose Green-route arrays, 25 bytes per entry, fit _GREEN_BUDGET."""
    return math.isqrt(_GREEN_BUDGET // 25)


def solve_green(G: np.ndarray, masses: np.ndarray) -> EigenvalueList:
    """Eigenvalues lambda = 1/mu, ascending, where G*diag(masses) y = mu y.

    G is the unweighted Green matrix of operators and is overwritten. With
    W = sqrt(|m|) and S = sign(m), the similarity transform of G*diag(m) is
    H*S with H = W G W symmetric positive definite; H = L L^T turns
    H S z = mu z into the symmetric problem (L^T S L) w = mu w for either
    sign of d. G is totally nonnegative, so L >= 0 and L^T L forms without
    cancellation; Jacobi needs fewer rotations on it than on H. mu below
    _MU_GUARD in magnitude is counted in dropped; residual_bound is the
    relative off-diagonal Jacobi leaves. LAPACK's Cholesky passes a NaN
    pivot through rather than reject it; Jacobi then raises NonConvergence.
    """
    W = np.sqrt(np.abs(masses))
    H = G  # H, then S L, then L^T S L share G's buffer
    H *= W[:, None]
    H *= W
    try:
        L = np.linalg.cholesky(H)  # reads the lower triangle only
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"weighted Green matrix: {exc}") from None
    T = L.T @ np.multiply(np.sign(masses)[:, None], L, out=H)
    np.add(T, T.T, out=H)
    H *= 0.5
    del L, T
    mu, rel = _jacobi(H)
    keep = np.abs(mu) >= _MU_GUARD
    if not keep.any():
        raise ZeroEigenvalue("all reciprocal eigenvalues below the underflow guard")
    values = np.sort(1.0 / mu[keep])
    return EigenvalueList(values, residual_bound=rel, method="jacobi", dropped=int(np.sum(~keep)))


def solve_pencil(p: PencilProblem) -> EigenvalueList:
    """Eigenvalues of K y = lambda M y, ascending, by the inertia core.

    The brackets come from Gershgorin on sign(M) |M|^(-1/2) K |M|^(-1/2),
    cut to |lambda| <= 1/_MU_GUARD; eigenvalues beyond that are counted in
    dropped. One count over the _probe_grid gives the kept index range, the
    brackets and, when a mass is negative (only then does the count need K
    positive definite), K's inertia from one extra probe at 0. Each bracket
    is cut into 2^b equal parts per step, all in one vectorised count (b
    grows as fewer brackets remain: a count costs mostly per row, not per
    probe), until its ends are adjacent doubles.
    """
    K, M = p.K, p.M
    glo, ghi = np.clip(_gershgorin(K.diag, K.offdiag, M), -1.0 / _MU_GUARD, 1.0 / _MU_GUARD)
    probes = _probe_grid(glo, ghi)
    n_neg = int(np.sum(M < 0.0))
    counts = _counts_below(K.diag, K.offdiag, M, np.append(probes, 0.0) if n_neg else probes)
    if n_neg:
        counts, at_zero = counts[:-1], counts[-1]
        if at_zero != n_neg:
            raise NotPositiveDefinite("stiffness matrix has a negative eigenvalue")
    k1, k2 = int(counts[0]), int(counts[-1])
    if k2 <= k1:
        raise ZeroEigenvalue("every eigenvalue lies beyond the range guard")
    idxs = np.arange(k1 + 1, k2 + 1)
    j = np.clip(np.searchsorted(np.maximum.accumulate(counts), idxs), 1, len(probes) - 1)
    los, his = probes[j - 1], probes[j]

    active = np.ones(len(idxs), dtype=bool)
    for _ in range(_BISECT_CAP):
        act = np.flatnonzero(active)
        if not len(act):
            break
        parts = 2 ** min(6, max(1, int(math.log2(_PROBE_BUDGET / len(act)))))
        frac = np.arange(1, parts) / parts
        lo, hi = los[act, None], his[act, None]
        # lo*(1-f) + hi*f cannot overflow; f = 1/2 splits any 2-ulp bracket
        pts = np.minimum(np.maximum(lo * (1.0 - frac) + hi * frac, lo), hi)
        cnt = _counts_below(K.diag, K.offdiag, M, pts.ravel()).reshape(pts.shape)
        # points before the first count >= idx; monotone even if roundoff is not
        c = np.sum(~np.logical_or.accumulate(cnt >= idxs[act, None], axis=1), axis=1)
        ends = np.hstack((lo, pts, hi))
        rows = np.arange(len(act))
        new_lo, new_hi = ends[rows, c], ends[rows, c + 1]
        stuck = (new_lo == los[act]) & (new_hi == his[act])
        los[act], his[act] = new_lo, new_hi
        active[act[stuck]] = False
    if active.any():
        raise NonConvergence(f"bisection cap {_BISECT_CAP} reached")
    vals = np.maximum.accumulate(0.5 * (los + his))  # monotone output against roundoff
    scale = np.maximum(np.maximum(np.abs(los), np.abs(his)), _PIVMIN)
    width = float(np.max((his - los) / scale))
    return EigenvalueList(vals, residual_bound=width, method="bisect", dropped=int(p.order - (k2 - k1)))


def tridiag_eigs(T: TridiagonalSymmetric) -> EigenvalueList:
    """All eigenvalues of the symmetric T, ascending: solve_pencil with unit mass."""
    return solve_pencil(PencilProblem(T, np.ones(T.order), T.order))


def _twisted_vectors(p: PencilProblem, lam: np.ndarray) -> np.ndarray:
    """Unit null vectors of K - lambda*M, one column per eigenvalue, O(N) each.

    Forward and backward LDL^T pivots D+ and D- of K - lambda*M meet at
    the twist index r where gamma_r = D+_r + D-_r - (K - lambda*M)_rr is
    smallest relative to m_r, the twist of the mass-scaled problem: on a
    graded pencil the roundoff of gamma's large rows exceeds its true
    minimum. With x_r = 1 the two bidiagonal factors carry the solution
    outward. The sign makes x_r positive. Where a step multiplies a zero
    component by an overflowed ratio (a near-zero pivot), the pencil row
    through that zero gives the next one instead, x_(i+1) =
    -(e_(i-1)/e_i) x_(i-1), as in LAPACK's dlar1v. A vector that still
    overflows raises NonConvergence.
    """
    d, e, m = p.K.diag, p.K.offdiag, p.M
    n, k = p.order, len(lam)
    with np.errstate(over="ignore"):
        fwd = np.array(list(_pivots(d, e, m, lam)))
        bwd = np.array(list(_pivots(d[::-1], e[::-1], m[::-1], lam)))[::-1]
        gamma = fwd + bwd - (d[:, None] - m[:, None] * lam)
        r = np.argmin(np.abs(gamma) / np.abs(m)[:, None], axis=0)
    X = np.zeros((n, k))
    X[r, np.arange(k)] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            c = i < r
            X[i, c] = -(e[i] / fwd[i, c]) * X[i + 1, c]
            z = np.isnan(X[i])  # an overflowed ratio times a zero; x_r = 1, so i + 2 <= r
            if z.any():
                X[i, z] = -(e[i + 1] / e[i]) * X[i + 2, z]
        for i in range(1, n):
            c = i > r
            X[i, c] = -(e[i - 1] / bwd[i, c]) * X[i - 1, c]
            z = np.isnan(X[i])
            if z.any():
                X[i, z] = -(e[i - 2] / e[i - 1]) * X[i - 2, z]
        X /= np.linalg.norm(X, axis=0)
    if not np.isfinite(X).all():
        raise NonConvergence("twisted eigenvector overflowed")
    return X


def pencil_eigenpairs(p: PencilProblem) -> tuple[np.ndarray, np.ndarray, EigenvalueList]:
    """Eigenvalues and unit eigenvectors of K y = lambda M y.

    Eigenvalues come from solve_pencil, eigenvectors from one twisted
    factorization each, with the componentwise accuracy that slope and
    form checks need. Returns (lambda ascending, y columns, EigenvalueList).
    """
    info = solve_pencil(p)
    return info.values, _twisted_vectors(p, info.values), info

