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
  range (one count at a seed, every 32nd grid point or a guess's
  candidates, then one at the grid points inside the brackets still
  open), then cut by one rule, at the change of count nearest a chosen
  probe, until their ends are adjacent doubles, many probes per
  vectorised count: equal parts
  (multisection) and, once most brackets hold one eigenvalue each, a fan
  of probes around Rayleigh-quotient estimates, which Newton steps on the
  twist element gamma_r of the twisted factorization take to roundoff in
  a few sweeps (Dhillon & Parlett, Linear Algebra Appl. 387, 2004). The
  counts stay the only judge, and no stop has an absolute term, so
  eigenvalues near 2.2e-308 keep their digits. Given a guess (order
  continuation's candidates, see spectral), the seed count closes every
  bracket the candidates certify, and only the rest take the grid;
* one pivot kernel, _pivot_blocks, for every count and every twist: it
  runs the LDL^T recurrence a block of rows at a time, with one clamp
  rule, and writes each block into the rows its caller reads, a ring of
  two blocks for a count and the whole buffer for a twist;
* twisted LDL^T factorizations, O(N) each, one helper for those steps
  and for the pencil eigenvectors: one pass runs both factorizations side
  by side over one frame layout (_frames) into one buffer, which the
  Rayleigh steps turn into their sums in place, and the eigenvectors into
  their components;
* the Green-kernel route, which shares no code with the core: the
  weighted Green matrix W G W = L L^T by LAPACK's Cholesky, then
  L^T sign(M) L by Jacobi, whose eigenvalues are the reciprocals. Each
  Jacobi step rotates a round of disjoint pairs p < q with
  |a_pq| > rot_tol*sqrt|a_pp|*sqrt|a_qq| (rot_tol = max(1e-15, 4*n*eps))
  until no entry above the diagonal exceeds that; a sweep visits the
  pairs (i, i + s) for s = 1..w, w the widest q - p above rot_tol, since
  a graded matrix's relative couplings die off with |i - j|. A round
  is two passes over two buffers: the pairs' rows rotate from one into
  the other through strided views, the transpose is copied back and its
  rows rotate again. Rounds are planned once per solve: the first sweep
  to reach a round builds its views of both buffers, and later sweeps
  reuse them. The matrix is then symmetric to roundoff only, so every
  test reads the entries above the diagonal. No product of two
  entries is formed, and graded positive definite inputs keep high
  relative accuracy. The route holds _DENSE_BYTES per matrix entry at
  once, as the pencil eigenvectors do, so both refuse orders beyond 6553
  (for the 1 GiB operators._DENSE_BUDGET) before anything is allocated.

Iteration caps (120 bisection steps, 30 Jacobi sweeps) are diagnostics,
not tunables; no solver takes a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateWeight,
    NonConvergence,
    NotPositiveDefinite,
    OutOfRange,
    ZeroEigenvalue,
)
from .operators import TridiagonalSymmetric, _check_dense

_PIVMIN = 1e-300
_BLOCK = 32  # rows per block: of a count, of the Jacobi stop test
_COARSE = 32  # probe grid points per cell of the first count
_PROBE_BUDGET = 1024  # multisection probes per count
_MU_GUARD = 1e-290
_BISECT_CAP = 120
_SWEEP_CAP = 30
_EPS = np.finfo(float).eps
# The Rayleigh-quotient stage (see solve_pencil): a bracket qualifies when its width is at
# most _RQ_NARROW of the gap to its neighbours; a batch runs once _RQ_SHARE of the open
# brackets qualify, at any order (a sweep costs per row, like a count, and a few take most
# estimates to roundoff, where multisection gains at most 6 bits a count); each estimate
# steps until a step is below _RQ_STOP relative, it leaves its bracket, or _RQ_CAP; the fan
# probes x and x*(1 + _FAN); a sweep's twists take at most _TWIST_BUDGET bytes at once.
# A twist holds _TWIST_BYTES per (row, shift) at once: one float64 buffer of shape
# (n + 1, 2, shifts), which _pivot_blocks writes its pivots into and _zmz turns into its
# sums in place, 16 in all, and beside it the O(n) state and _twist_index's per-block minima
# and one block's gamma and ratios, under 2 more where the budget binds (n from ~1400; 17.45
# measured by tracemalloc at n = 2000 with 2000 shifts). The budget keeps the buffer under
# glibc's 32 MiB ceiling for its mmap threshold, so the heap serves each twist's buffer
# again; a larger one is mapped afresh and its pages faulted in on every twist.
_RQ_NARROW = 1.0 / 8.0
_RQ_SHARE = 0.9
_RQ_STOP = 1e-8
_RQ_CAP = 8
_FAN = np.array([-64.0, -16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0, 64.0]) * _EPS
_TWIST_BUDGET = 2**25
_TWIST_BYTES = 18
# Bytes per matrix entry the dense routes hold at once. Green: G, LAPACK's copy of it and L in
# the Cholesky, then G's buffer, L and L^T S L, then in Jacobi A and B (float64 each), 24 in
# all; the stop test's row blocks, the rounds' per-pair arrays and the table of planned rounds
# fit in the 25th. A planned round (_Round) holds four views of ~160 bytes per part and its
# tuple: ~0.93 KB with one part, ~1.86 KB with two (tracemalloc, n = 1000, 1.20 KB over all
# 1498 rounds). A solve plans at most (n - 1) + (n - 1) // 2 rounds, ~1.5n, so at order 6553
# with w = n under 9828 * 1.86 KB = 18.3 MB, and with the row blocks (32 rows, 1.7 MB) and
# the per-pair arrays (< 1 MB) under the n^2 bytes, 42.9 MB, of the 25th.
# pencil_eigenpairs: the twist's buffer, 16, and the vectors, 8; its O(n) state fits in the
# 25th. Orders up to 6553 for 1 GiB.
_DENSE_BYTES = 25


@dataclass(frozen=True)
class PencilProblem:
    """Generalized problem K y = lambda M y, K symmetric tridiagonal, M diagonal.

    Masses are finite and nonzero; K must be positive definite when one is
    negative (solve_pencil checks), else any symmetric K is allowed.
    """

    K: TridiagonalSymmetric
    M: np.ndarray
    order: int

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if len(M) != self.order or self.K.order != self.order:
            raise OutOfRange("pencil dimensions disagree")
        if not np.all(np.isfinite(M)):
            raise OutOfRange("masses must be finite")
        if np.any(M == 0.0):
            raise DegenerateWeight("mass matrix has a zero entry")
        object.__setattr__(self, "M", M)


@dataclass(frozen=True)
class EigenvalueList:
    """Ascending eigenvalues with the solver's own accuracy statement.

    residual_bound is relative: for bisection the widest final bracket
    over max(|lo|, |hi|), at most eps, since brackets close to adjacent
    doubles; for Jacobi the largest |a_ij| / (sqrt|a_ii| * sqrt|a_jj|),
    i < j, left. dropped counts eigenvalues beyond 1/_MU_GUARD (for Green,
    reciprocals below _MU_GUARD), which are excluded rather than reported.
    passes is the work done: inertia-count passes for bisection, the
    seeding step's included, and sweeps for Jacobi. levels is the number of
    orders solved for this one: 1, or more where order continuation (see
    spectral) solved lower orders first, and passes then sums the counts of
    every level.
    """

    values: np.ndarray
    residual_bound: float
    method: str
    dropped: int = 0
    passes: int = 0
    levels: int = 1


def _clamped(piv):
    """piv with each entry below _PIVMIN in magnitude moved to +-_PIVMIN, keeping its sign."""
    small = np.abs(piv) < _PIVMIN
    return np.where(small, np.where(piv < 0.0, -_PIVMIN, _PIVMIN), piv) if small.any() else piv


def _pivots(diag, off, mass, xs, prev=None):
    """LDL^T pivots of T - x*diag(mass), row by row, one entry per shift x.

    The update (d_i - x*m_i) - off*(off/piv) squares no entry, so it stays
    in range wherever T does; pivots below _PIVMIN in magnitude are moved
    to +-_PIVMIN, keeping their sign, before they divide (_clamped). With
    prev, the pivots of the row before diag[0], the factorization continues
    from there, and off[0] is the entry coupling that row to diag[0].
    """
    if prev is None:
        prev, off = np.inf, np.concatenate(([0.0], off))  # d_0 - x*m_0 - 0, unchanged
    for i in range(len(diag)):
        piv = _clamped((diag[i] - xs * mass[i]) - off[i] * (off[i] / prev))
        yield piv
        prev = piv


def _pivot_blocks(diag, off, mass, xs, out):
    """The pivots of _pivots, bit for bit, _BLOCK rows at a time, written into out: yields each
    block's rows of out.

    The block from row b takes the rows of out from b % len(out) on: out holds all n rows
    (_twist's buffer) or a ring of len(out) = min(2*_BLOCK, n) rows, in which the previous
    block's rows stay intact while the next is formed (_counts_below). d - x*m for a block is
    one outer product, then three in-place operations per row with no clamp. A block holding a
    pivot below _PIVMIN or a NaN takes one clamp rule: where that is in its last row only, the
    pivot is clamped in place (_clamped), since no row of the block divides by it; otherwise the
    block is redone by _pivots. Either way every pivot is the clamped recurrence's. A probe at
    an eigenvalue of the rounded recurrence, as order continuation's candidates are, makes the
    last pivot exactly zero, and only that row is touched. Several factorizations can run side
    by side: diag and mass of shape (n, c), off of shape (n - 1, c, 1) and out of shape
    (rows, c, len(xs)) give pivots of shape (c, len(xs)) per row (_twist runs the forward and
    the backward one so). The caller sets np.errstate.
    """
    diag, mass = diag[..., None], mass[..., None]
    off = np.concatenate((np.zeros((1,) + off.shape[1:]), off))  # row i to row i - 1
    piv, tmp = np.inf, np.empty(out.shape[1:])
    for b in range(0, len(diag), _BLOCK):
        sl, prev = slice(b, b + _BLOCK), piv
        rows = out[b % len(out) :][: len(diag[sl])]
        np.subtract(diag[sl], np.multiply(mass[sl], xs, out=rows), out=rows)
        for e, row in zip(off[sl], rows):
            np.divide(e, piv, out=tmp)
            tmp *= e
            row -= tmp
            piv = row
        if not (np.abs(rows) >= _PIVMIN).all():  # a tiny pivot or a NaN
            if (np.abs(rows[:-1]) >= _PIVMIN).all():
                piv[...] = _clamped(piv)
            else:
                rows[...] = list(_pivots(diag[sl], off[sl], mass[sl], xs, prev))
        yield rows


def _counts_below(diag, off, mass, probes) -> np.ndarray:
    """Eigenvalues of T y = lambda*diag(mass) y strictly below each probe.

    By Sylvester's law the negative pivots nu(x) of T - x*diag(mass) count
    the eigenvalues below x when every mass is positive (any symmetric T).
    With negative masses T must be positive definite; nu(x) then counts the
    eigenvalues between 0 and x, the n_neg negative masses give n_neg
    negative eigenvalues, and the count below x is n_neg + nu(x) for x > 0
    and n_neg - nu(x) for x < 0. An overflowed x*m_i keeps its sign, which
    is all a count needs. The pivots come from _pivot_blocks, into a ring of
    two blocks' rows.
    """
    xs = np.asarray(probes, dtype=float)
    nu = np.zeros(xs.shape, dtype=np.int64)
    ring = np.empty((min(2 * _BLOCK, len(diag)),) + xs.shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for rows in _pivot_blocks(diag, off, mass, xs, ring):
            nu += np.count_nonzero(rows < 0.0, axis=0)
    n_neg = int(np.sum(mass < 0.0))
    if n_neg == 0:
        return nu
    return np.where(xs < 0.0, n_neg - nu, n_neg + nu)


def _frames(v):
    """v in the forward and the backward frame of a twist, shape (len(v), 2): row j holds
    v_j and v_(len(v)-1-j)."""
    return np.stack((v, v[::-1]), axis=1)


def _twist(diag, off, mass, xs):
    """Twisted LDL^T factorizations of T - x*diag(mass), one per shift x, O(n) each.

    Forward and backward pivots D+ and D- (of _pivot_blocks, from the first
    row and from the last) meet at the twist index r where gamma_r = D+_r +
    D-_r - (T - x*diag(mass))_rr is smallest relative to m_r, the twist of
    the mass-scaled problem: on a graded pencil the roundoff of gamma's large
    rows exceeds its true minimum (_twist_index, which gives r and gamma_r).
    The z with z_r = 1 that the two bidiagonal factors carry outward solves
    (T - x*diag(mass)) z = gamma_r e_r, so its Rayleigh quotient is x +
    gamma_r / (z^T diag(mass) z) (_zmz sums that from the pivots).

    One pass runs both factorizations side by side over the _frames, step s
    taking row s forward and row n-1-s backward, and _pivot_blocks writes
    every step straight into one float64 buffer of shape (n + 1, 2, len(xs)):
    the pivots of step s in row s + 1, row 0 left for _zmz. Returns (r,
    gamma_r, buffer); D+ = buffer[1:, 0] and D- = buffer[:0:-1, 1], of shape
    (n, len(xs)).
    """
    d_2, e_2, m_2 = (_frames(v) for v in (diag, off, mass))
    buf = np.empty((len(diag) + 1, 2, len(xs)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in _pivot_blocks(d_2, e_2[..., None], m_2, xs, buf[1:]):
            pass
        r, gamma = _twist_index(buf[1:, 0], buf[:0:-1, 1], diag, mass, xs)
    return r, gamma, buf


def _zmz(buf, r, off, mass):
    """z^T diag(mass) z * 2^-e of _twist's vectors, and e, from its buffer, overwritten.

    off_i coupling row i to row i - 1, the sums s_i = m_i + (off_i /
    piv_(i-1))^2 s_(i-1), s_0 = m_0, add m_j z_j^2 over the rows up to i, so
    z^T diag(mass) z is the forward and the backward sums at r less m_r. Sum i
    needs only the ratio of pivot i - 1, which lies in buffer row i: squaring
    the ratios in rows 1..n-1, m_0 in row 0 and then row i *= row i - 1, row
    i += m_i leaves sum i in row i, both directions at once. The sums run on
    the masses times 2^-e, e >= 0 the exponent of the largest |m_i|: exact,
    and finite where masses near 1e308 would overflow them.
    """
    n, cols = len(mass), np.arange(buf.shape[2])
    e = max(0, math.frexp(float(np.max(np.abs(mass))))[1])
    m_s = np.ldexp(_frames(mass), -e)[..., None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = np.divide(_frames(off)[..., None], buf[1:n], out=buf[1:n])
        sq *= sq
        buf[0] = m_s[0]
        for i in range(1, n):
            buf[i] *= buf[i - 1]
            buf[i] += m_s[i]
        return buf[r, 0, cols] + buf[n - 1 - r, 1, cols] - m_s[r, 0, 0], e


def _twist_index(fwd, bwd, diag, mass, xs):
    """(r, gamma_r) per shift x: the row of least |gamma_i| / |m_i|, gamma = fwd + bwd - (diag -
    x*mass), and gamma there.

    np.argmin within each block of _BLOCK rows, then over the blocks' minima, which is
    np.argmin's rule over all rows (ties and NaN go to the lowest) by construction; gamma_r
    is kept from the block that chose r. No n x len(xs) array is formed beside the pivots.
    The caller sets np.errstate.
    """
    cols = np.arange(len(xs))
    least = np.empty((-(-len(diag) // _BLOCK), len(xs)))
    row, gamma = np.empty(least.shape, dtype=np.intp), np.empty(least.shape)
    for i, b in enumerate(range(0, len(diag), _BLOCK)):
        sl = slice(b, b + _BLOCK)
        g = fwd[sl] + bwd[sl] - (diag[sl, None] - mass[sl, None] * xs)
        ratio = np.abs(g) / np.abs(mass[sl])[:, None]
        j = np.argmin(ratio, axis=0)
        least[i], row[i], gamma[i] = ratio[j, cols], b + j, g[j, cols]
    k = np.argmin(least, axis=0)
    return row[k, cols], gamma[k, cols]


def sturm_count(T: TridiagonalSymmetric, x: float) -> int:
    """Number of eigenvalues of T strictly below x."""
    if math.isnan(x):
        raise OutOfRange("sturm_count probe is NaN")
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
    sign across the full dynamic range: each side halves down to the other
    end or to a point at or below the smallest normal double, 2.2e-308, so
    every bracket taken from this grid spans a factor of at most 2 or ends
    at zero below that, and the multisection steps needed do not depend on
    the eigenvalue's magnitude. Halving is exact above it; the halvings a
    side needs come from log2 of its ends, since their ratio can overflow.
    Each side stays strictly inside the other end: the grid ascends strictly
    unless both ends clip to one range guard."""
    probes = [np.array([glo, ghi, 0.0] if glo < 0.0 < ghi else [glo, ghi])]
    tiny = np.finfo(float).tiny
    for t, bound in ((ghi, max(glo, tiny / 2)), (glo, min(ghi, -tiny / 2))):
        if math.copysign(1.0, bound) * t > 0.0:  # ghi > 0, or glo < 0
            k = max(0, int(math.log2(abs(t)) - math.log2(abs(bound))) + 2)
            side = np.ldexp(t, -np.arange(1, k + 1))
            probes.append(side[np.abs(side) > abs(bound)])
    return np.sort(np.concatenate(probes))


def _couplings(A: np.ndarray, rot_tol: float) -> tuple[float, int]:
    """The largest |a_pq| / max(sqrt|a_pp| * sqrt|a_qq|, tiny), p < q (NaN if one is), and
    the widest q - p above rot_tol (0 if none), _BLOCK rows at a time.

    Only p < q is read, as by _band_round's rotation test: A is symmetric to roundoff only,
    and a pair the stop test saw above rot_tol but its round declined would sweep to the cap.
    """
    n = A.shape[0]
    root = np.sqrt(np.abs(np.diagonal(A)))
    tops, band = [0.0], 0
    for b in range(0, n, _BLOCK):
        k = min(_BLOCK, n - b)
        r = np.multiply.outer(root[b : b + k], root[b:])  # rows b.., columns b..
        np.maximum(r, np.finfo(float).tiny, out=r)
        np.abs(np.divide(A[b : b + k, b:], r, out=r), out=r)
        r[:, :k] = np.triu(r[:, :k], 1)
        tops.append(r.max())
        i, j = np.arange(k), np.argmax((r > rot_tol)[:, ::-1], axis=1)  # j columns from the last
        hit = r[i, -1 - j] > rot_tol  # the row has a column above rot_tol, and -1 - j is its last
        band = max(band, int(np.max((n - 1 - b - j - i)[hit], initial=0)))
    return float(np.max(tops)), band


def _jacobi(A: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Eigenvalues (ascending) of the symmetric A, overwritten; the largest ratio left; sweeps.

    Each sweep takes _couplings once: the largest ratio is the stop test (<= rot_tol), and
    the band w bounds the sweep, which rotates the rounds (s, o) for s = 1..w, o = 0 then s,
    so every pair above rot_tol at the start of a sweep is visited in it, nearest neighbours
    first, where a graded matrix has its largest relative couplings. A round writes the
    rotated matrix into the other of two buffers. Rounds are planned once per solve: the
    first sweep to reach (s, o) builds its _Round, views of both buffers and ints only, and
    later sweeps take it from a table that is dropped on return. A NaN ratio (from a NaN or
    an infinite entry) raises NonConvergence naming its pair and sweep at once.
    """
    n = A.shape[0]
    rot_tol = max(1e-15, 4 * n * _EPS)
    X, cur = (A, np.empty_like(A)), 0  # X[cur] holds the matrix
    plans = {}  # (s, o) -> _Round
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(_SWEEP_CAP + 1):
            rel, w = _couplings(X[cur], rot_tol)
            if math.isnan(rel):
                a, (p, q) = X[cur], _nan_pair(X[cur])
                raise NonConvergence(
                    f"Jacobi coupling of ({p}, {q}) is not finite at sweep {sweep}: a_pp, a_pq, "
                    f"a_qq = {float(a[p, p])!r}, {float(a[p, q])!r}, {float(a[q, q])!r}")
            if not rel > rot_tol:
                break
            if sweep == _SWEEP_CAP:
                raise NonConvergence(f"Jacobi sweep cap {_SWEEP_CAP} reached")
            for s in range(1, min(w, n - 1) + 1):
                for o in (0, s) if 2 * s < n else (0,):  # (s, s) is empty unless 2s < n
                    if (s, o) not in plans:
                        plans[s, o] = _plan_round(*X, s, o)
                    if _band_round(X, cur, plans[s, o], rot_tol):
                        cur = 1 - cur
    return np.sort(np.diagonal(X[cur])), rel, sweep


def _nan_pair(A: np.ndarray) -> tuple[int, int]:
    """The first pair p < q, row by row, whose ratio in _couplings is NaN; A must hold one."""
    root = np.sqrt(np.abs(np.diagonal(A)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(A.shape[0]):
            r = np.abs(A[p, p + 1 :] / np.maximum(root[p] * root[p + 1 :], np.finfo(float).tiny))
            nan = np.flatnonzero(np.isnan(r))
            if len(nan):
                return p, p + 1 + int(nan[0])


class _Round(NamedTuple):
    """The geometry of the round (s, o) over two n x n buffers X[0] and X[1]: views and ints.

    The round's pairs (i, i + s) lie in up to two parts, the whole length-s blocks at o,
    o + 2s, ... and the partial last block; k pairs lie in the first part present. views holds
    four views per part: of its pairs' two rows in X[0] and in X[1], then of their 2x2 blocks
    in X[0] and in X[1]. No pair holds the rows [0, o) and [lo, hi).
    """

    s: int
    o: int
    k: int
    lo: int
    hi: int
    views: tuple


def _plan_round(X0: np.ndarray, X1: np.ndarray, s: int, o: int) -> _Round:
    """The _Round (s, o) of the C-contiguous n x n buffers X0 and X1, of one dtype.

    A part (first, count, width) holds the pairs p = first + 2s*i + j, i < count, j < width:
    its views of X start at entry p*step, step n for the rows and n + 1 for the 2x2 blocks.
    """
    n, size = X0.shape[0], X0.itemsize
    blocks, rest = divmod(n - o, 2 * s)
    last, tail = o + 2 * s * blocks, max(0, rest - s)
    views = []
    for first, count, width in ((o, blocks, s), (last, 1, tail)):
        if count * width:
            for step, inner, col in ((n, (2, n), 1), (n + 1, (2, 2), s)):  # rows; 2x2 blocks
                strides = tuple(size * e for e in (2 * s * step, step, s * n, col))
                views += [np.ndarray((count, width) + inner, X.dtype, X, size * first * step,
                                     strides) for X in (X0, X1)]
    return _Round(s, o, blocks * s or tail, last + tail, min(n, last + s), tuple(views))


def _band_round(X: tuple, cur: int, plan: _Round, rot_tol: float) -> bool:
    """Rotate the pairs of plan, a _Round of the buffers X, whose ratios exceed rot_tol.

    A = X[cur] holds the matrix and B = X[1 - cur]. Returns whether any pair rotated; B then
    holds the rotated matrix and A is spent. The pairs are disjoint, their ratios read a_pq,
    p < q, and those at or below rot_tol get t = 0, which copies their rows. A's rows rotate
    into B, B^T is copied into A, and A's rows rotate into B again: B = R A^T R^T, symmetric
    to roundoff where rotated rows and columns cross. Rutishauser updates the diagonal;
    rotated pairs' a_pq and a_qp become zero.
    """
    A, B, v = X[cur], X[1 - cur], plan.views
    src, dst, before, after = v[cur::4], v[1 - cur :: 4], v[2 + cur :: 4], v[3 - cur :: 4]
    if not before:
        return False
    got = [x.reshape(-1, 4) for x in before]  # each a copy
    app, apq, aqp, aqq = (got[0] if len(got) == 1 else np.concatenate(got)).T
    big = np.abs(apq) / (np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq))) > rot_tol
    rotated = np.count_nonzero(big)
    if not rotated:
        return False
    big = big if rotated < len(big) else slice(None)  # most rounds: a slice, copying nothing
    # t = tan of the angle that zeroes a_pq, the root of magnitude <= 1
    diff, twice = aqq[big] - app[big], 2.0 * apq[big]
    t = np.zeros(len(app))
    t[big] = twice / (diff + np.copysign(np.hypot(diff, twice), diff))
    c = 1.0 / np.hypot(1.0, t)
    rot = np.array((c, -t * c, t * c, c)).T.reshape(-1, 2, 2)
    # each pair's block after the round; an unrotated one is A's transposed, as in R A^T R^T
    new = np.array((app - t * apq, aqp, apq, aqq + t * apq)).T
    new[big, 1:3] = 0.0
    o, k, lo, hi = plan.o, plan.k, plan.lo, plan.hi
    rots = [r.reshape(x.shape[:2] + (2, 2)) for x, r in zip(src, (rot[:k], rot[k:]))]
    for turn in range(2):
        if turn:
            np.copyto(A, B.T)
        for r, x, y in zip(rots, src, dst):
            np.matmul(r, x, out=y)
        if o:  # the rows no pair holds
            B[:o] = A[:o]
        if lo < hi:
            B[lo:hi] = A[lo:hi]
    for y, x in zip(after, (new[:k], new[k:])):
        y[...] = x.reshape(y.shape)
    return True


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
    Masses all below 1/2 are scaled by 2^-e (e < 0 even; exact through the
    square roots) and mu by 2^e, lest H underflow and the Cholesky refuse it.
    """
    e = min(0, 2 * (math.frexp(float(np.max(np.abs(masses))))[1] // 2))
    W = np.sqrt(np.ldexp(np.abs(masses), -e))
    H = G  # H, then S L, then L^T S L share G's buffer
    H *= W[:, None]
    H *= W
    try:
        L = np.linalg.cholesky(H)  # reads the lower triangle only
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"weighted Green matrix: {exc}") from None
    T = L.T @ np.multiply(np.sign(masses)[:, None], L, out=H)
    del L
    np.add(T, T.T, out=H)
    H *= 0.5
    del T
    mu, rel, sweeps = _jacobi(H)
    mu = np.ldexp(mu, e)
    keep = np.abs(mu) >= _MU_GUARD
    if not keep.any():
        raise ZeroEigenvalue("all reciprocal eigenvalues below the underflow guard")
    values = np.sort(1.0 / mu[keep])
    return EigenvalueList(
        values, residual_bound=rel, method="jacobi", dropped=int(np.sum(~keep)), passes=sweeps
    )


def _isolated(los, his) -> np.ndarray:
    """Brackets at most _RQ_NARROW as wide as the gap to the nearer neighbouring bracket.

    Such a bracket holds exactly one eigenvalue: its neighbours' brackets
    hold eigenvalues idx - 1 and idx + 1 and lie apart from it, so the counts
    at its ends are idx - 1 and idx.
    """
    gaps = los[1:] - his[:-1]
    gap = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    return his - los <= _RQ_NARROW * gap


def _rayleigh(K: TridiagonalSymmetric, M: np.ndarray, los, his) -> np.ndarray:
    """Rayleigh-quotient corrections from the bracket midpoints, NaN where they miss.

    Each step moves x to the Rayleigh quotient of the twisted vector at x
    (see _twist), a Newton step on gamma_r. Each estimate steps until a step
    is below _RQ_STOP relative (the convergence is quadratic, so the next
    would be below roundoff) or leaves its bracket, which leaves NaN; those
    still moving after _RQ_CAP steps keep their last x. Each twist's buffer
    becomes its sums in place (_zmz) and is dropped before the next twist, so
    at most _TWIST_BUDGET bytes are held at once and many brackets go in
    chunks. The sums are scaled by 2^-e, so gamma_r over them is the step times
    2^e, below 2|x|*max|m| for a step inside the bracket: under 1e300 at
    max-order points (8.6e299 at (0.2, -1.5, 0.3, 1), N = 429), where x*2^e
    would come close to overflow, so the sums are scaled and not x.
    """
    x = 0.5 * los + 0.5 * his
    est = np.full(len(x), np.nan)
    live = np.arange(len(x))
    chunk = max(1, _TWIST_BUDGET // (_TWIST_BYTES * K.order))
    for _ in range(_RQ_CAP):
        step = np.empty(len(live))
        for s in range(0, len(live), chunk):
            r, gamma, buf = _twist(K.diag, K.offdiag, M, x[live[s : s + chunk]])
            zmz, e = _zmz(buf, r, K.offdiag, M)
            del buf  # before the next twist allocates its own
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                step[s : s + chunk] = np.ldexp(gamma / zmz, -e)
        new = x[live] + step
        inside = (new > los[live]) & (new < his[live])  # False for NaN
        done = inside & (np.abs(step) <= _RQ_STOP * np.abs(new))
        est[live[done]] = new[done]
        x[live] = new
        live = live[inside & ~done]
        if not len(live):
            break
    est[live] = x[live]
    return est


def _cut(lo, pts, hi, up, m):
    """Each row's sub-bracket of its ends [lo, pts, hi] (lo, hi columns) at the change of up,
    whether the point's count reaches the row's index, nearest column m; lo is below it and hi
    reaches it. m = 1 is the first change from the left. Returns (new lo, new hi)."""
    up = np.hstack((np.zeros_like(lo, bool), up, np.ones_like(hi, bool)))
    after = m - 1 + np.argmax(up[:, m:], axis=1)  # just before the first end from m that reaches
    before = m - 1 - np.argmax(~up[:, m - 1 :: -1], axis=1)  # the last end before m below it
    c = np.where(up[:, m], before, after)[:, None]
    return np.take_along_axis(np.hstack((lo, pts, hi)), np.hstack((c, c + 1)), axis=1).T


def _guess_probes(guess, glo: float, ghi: float) -> np.ndarray:
    """glo, ghi and each candidate of the guess strictly between them with its two adjacent
    doubles, ascending and distinct. A NaN candidate raises OutOfRange; one outside (glo, ghi),
    beyond the range guard or infinite, is left out."""
    c = np.asarray(guess, dtype=float).ravel()
    if np.isnan(c).any():
        raise OutOfRange("guess holds a NaN")
    c = c[(c > glo) & (c < ghi)]
    probes = np.sort(np.concatenate(([glo, ghi], np.nextafter(c, -np.inf), c,
                                     np.nextafter(c, np.inf))))
    return probes[np.diff(probes, prepend=-np.inf) != 0.0]


def _brackets(probes, counts, idxs) -> tuple[np.ndarray, np.ndarray]:
    """Each index's bracket of the ascending probes: the probe before and the first probe whose
    count, made monotone by a running maximum, reaches the index."""
    j = np.clip(np.searchsorted(np.maximum.accumulate(counts), idxs), 1, len(probes) - 1)
    return probes[j - 1], probes[j]


def _seed(diag, off, mass, glo: float, ghi: float, guess=None):
    """solve_pencil's seeding step: (idxs, los, his, counts taken), the kept indices and their
    brackets, each between two counted probes. The first count's seed is the guess's probes
    (_guess_probes) or every _COARSE-th grid point, the last and any at 0.0; the second, if a
    bracket is still wider than adjacent doubles, the grid points strictly inside the open ones."""
    if guess is None:
        grid = _probe_grid(glo, ghi)
        at = grid == 0.0
        at[::_COARSE] = at[-1] = True
        probes = grid[at]
    else:
        grid, probes = None, _guess_probes(guess, glo, ghi)
    counts = _counts_below(diag, off, mass, np.append(probes, 0.0))
    n_neg = int(np.sum(mass < 0.0))
    if n_neg and counts[-1] != n_neg:
        raise NotPositiveDefinite("stiffness matrix has a negative eigenvalue")
    counts = counts[:-1]
    if counts[-1] <= counts[0]:
        raise ZeroEigenvalue("every eigenvalue lies beyond the range guard")
    idxs = np.arange(counts[0] + 1, counts[-1] + 1)
    los, his = _brackets(probes, counts, idxs)
    wide = np.nextafter(los, his) != his
    if not wide.any():
        return idxs, los, his, 1
    grid = _probe_grid(glo, ghi) if grid is None else grid
    # the open brackets over each grid point: +1 from the first point above lo, -1 from hi on
    first, stop = np.searchsorted(grid, los[wide], "right"), np.searchsorted(grid, his[wide])
    over = np.bincount(first, minlength=len(grid)) - np.bincount(stop, minlength=len(grid))
    inside = grid[np.cumsum(over) > 0]
    if len(inside):
        probes = np.concatenate((probes, inside))
        counts = np.concatenate((counts, _counts_below(diag, off, mass, inside)))
        order = np.argsort(probes)  # no probe is counted twice
        los, his = _brackets(probes[order], counts[order], idxs)
    return idxs, los, his, 1 + bool(len(inside))


def solve_pencil(p: PencilProblem, guess=None) -> EigenvalueList:
    """Eigenvalues of K y = lambda M y, ascending, by the inertia core.

    The brackets come from Gershgorin on sign(M) |M|^(-1/2) K |M|^(-1/2),
    cut to |lambda| <= 1/_MU_GUARD; eigenvalues beyond that are counted in
    dropped. A pencil where |K_ii| + X*|m_i| overflows for some row coupled
    to a neighbour, X the larger end of that cut interval, is refused
    (OutOfRange): every pivot starts from K_ii - x*m_i, and where that
    overflows near an eigenvalue the pivots lose what the neighbour needs (an
    overflowed pivot turns the next e^2/piv into 0). A row with no coupling
    is its own eigenvalue K_ii/m_i, and an overflowed x*m_i there keeps the
    sign its count reads, so it is solved. Pencils built from a weight or a
    section below the range guard keep X*|m_i| near q^N or a^-N, within 1e301.

    _seed's one seeding step gives the kept index range, the brackets and,
    when a mass is negative (only then does the count need K positive
    definite), K's inertia from its probe at 0: a count at the seed, every
    _COARSE-th point of the _probe_grid, then, if a bracket is still wider
    than adjacent doubles, one at the grid points strictly inside the open
    brackets, after which every bracket is taken again from all the probes
    counted. Each then lies within a grid cell and ends at a counted probe.

    guess, eigenvalue candidates in any order (order continuation supplies
    them, see spectral), is the seed instead: each candidate inside the
    Gershgorin interval and its two adjacent doubles. An index whose bracket
    from these probes is two adjacent doubles is closed at once, and the
    grid is built and counted only if one is left open. The counts judge the
    guess as they judge every probe, so a wrong candidate costs counts, not
    accuracy, and where the count is monotone the result is the solve
    without a guess, bit for bit. passes counts the seeding step's counts.

    Each count then probes every open bracket, in groups, and _cut takes one
    rule on all: the sub-bracket at the change of count nearest column m of
    the bracket's probes. Multisection cuts 2^b equal parts (b grows as
    fewer brackets remain: a count costs mostly per row, not per probe) at
    m = 1, the first change. Once at least _RQ_SHARE of the open brackets no
    correction has served, and at least one, are _isolated (one eigenvalue
    each, narrow against their neighbours), those get _rayleigh's
    corrections in one batch, and that count probes a fan around each
    estimate x, x*(1 + _FAN), with m at x (where roundoff makes the count
    non-monotone over a few ulps, the first change can lie elsewhere): an
    estimate within an ulp closes its bracket at once, and a bracket the
    corrections missed carries on with multisection. The counts stay the
    only judge; every bracket ends at adjacent doubles.
    """
    K, M = p.K, p.M
    glo, ghi = np.clip(_gershgorin(K.diag, K.offdiag, M), -1.0 / _MU_GUARD, 1.0 / _MU_GUARD)
    with np.errstate(over="ignore"):
        reach = np.abs(K.diag) + max(-glo, ghi) * np.abs(M)
    coupled = np.append(K.offdiag != 0.0, False) | np.append(False, K.offdiag != 0.0)
    if not np.isfinite(reach[coupled]).all():
        raise OutOfRange("pencil out of double range: K_ii - x*m_i overflows within the "
                         "Gershgorin bounds")
    idxs, los, his, passes = _seed(K.diag, K.offdiag, M, glo, ghi, guess)
    active = np.nextafter(los, his) != his
    fresh = np.ones(len(idxs), dtype=bool)  # no correction has served the bracket
    for _ in range(_BISECT_CAP):
        act = np.flatnonzero(active)
        if not len(act):
            break
        fan = []  # probe groups (brackets, points, m), each cut at the change nearest column m
        ready = np.flatnonzero(fresh & active & _isolated(los, his))
        if len(ready) >= max(1, _RQ_SHARE * np.count_nonzero(fresh[act])):
            fresh[ready] = False
            est = _rayleigh(K, M, los[ready], his[ready])
            served, est = ready[np.isfinite(est)], est[np.isfinite(est), None]
            fan = [(served, est + np.abs(est) * _FAN, 1 + len(_FAN) // 2)]
            act = act[~np.isin(act, served)]
        parts = 2 ** min(6, max(1, int(math.log2(_PROBE_BUDGET / max(len(act), 1)))))
        # one rounding after exact steps keeps the points monotone in f, so f = 1/2 splits any
        # 2-ulp bracket (lo*(1-f) + hi*f rounds twice and can put hi before the midpoint);
        # hi - lo <= 2/_MU_GUARD cannot overflow
        lo, hi = los[act, None], his[act, None]
        groups = [(act, lo + (hi - lo) * (np.arange(1, parts) / parts), 1), *fan]
        pts = [np.minimum(np.maximum(x, los[b, None]), his[b, None]) for b, x, _ in groups]
        cnt = _counts_below(K.diag, K.offdiag, M, np.concatenate([x.ravel() for x in pts]))
        passes += 1
        for (b, _, m), x, c in zip(groups, pts, np.split(cnt, np.cumsum([x.size for x in pts]))):
            up = c.reshape(x.shape) >= idxs[b, None]  # zip drops the last piece, which is empty
            los[b], his[b] = _cut(los[b, None], x, his[b, None], up, m)
        # No bracket sticks: parts is a power of two >= 2, so every multisection row holds
        # f = 1/2; hi - lo is exact, since a bracket spans at most a factor of 2 or ends at 0;
        # so lo + (hi - lo)*0.5 lies strictly inside a bracket wider than adjacent doubles,
        # and every cut shrinks it. One that did would reach _BISECT_CAP and raise.
        active &= np.nextafter(los, his) != his  # adjacent doubles
    if active.any():
        raise NonConvergence(f"bisection cap {_BISECT_CAP} reached")
    vals = np.maximum.accumulate(0.5 * (los + his))  # monotone output against roundoff
    scale = np.maximum(np.maximum(np.abs(los), np.abs(his)), _PIVMIN)
    width = float(np.max((his - los) / scale))
    return EigenvalueList(
        vals, residual_bound=width, method="bisect", dropped=p.order - len(idxs), passes=passes
    )


def tridiag_eigs(T: TridiagonalSymmetric) -> EigenvalueList:
    """All eigenvalues of the symmetric T, ascending: solve_pencil with unit mass."""
    return solve_pencil(PencilProblem(T, np.ones(T.order), T.order))


def _twisted_vectors(p: PencilProblem, lam: np.ndarray) -> np.ndarray:
    """Unit null vectors of K - lambda*M, one column per eigenvalue, O(N) each.

    _twist gives the twist index r; with x_r = 1 (the sign) the two bidiagonal
    factors carry the solution outward, in one pass over _twist's frames (the
    backward one's row j is row n-1-j): from the last row down, x_j is 0 past the
    twist row, 1 at it and -(e_j/piv_j) x_(j+1) before it, over the pivot used.
    Where a step multiplies a zero component by an overflowed ratio (a near-zero
    pivot), the pencil row through that zero gives the next one instead, x_j =
    -(e_(j+1)/e_j) x_(j+2), as in LAPACK's dlar1v. X is the forward frame plus
    the reversed backward one. A vector that still overflows raises NonConvergence.
    """
    e, n, cols = p.K.offdiag, p.order, np.arange(len(lam))
    r, _, buf = _twist(p.K.diag, e, p.M, lam)
    x, t = buf[1:], np.stack((r, n - 1 - r))  # the twist row in each frame
    ne_2 = -_frames(e)[..., None]  # -e, row j to row j + 1, in each frame
    x[n - 1] = t == n - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n - 2, -1, -1):
            row = np.divide(ne_2[j], x[j], out=x[j])
            row *= x[j + 1]
            np.copyto(row, t == j, where=t <= j)
            z = np.isnan(row)  # an overflowed ratio times a zero x_(j+1), so j + 2 <= t
            if z.any() and j + 2 < n:  # a NaN pivot at n - 2 stays NaN, for the norms
                row[z] = (-(ne_2[j + 1] / ne_2[j]) * x[j + 2])[z]
        X = x[:, 0] + x[::-1, 1]
        X[r, cols] = 1.0
        norms = np.sqrt(np.einsum("ij,ij->j", X, X))  # no n x k square
    if not np.isfinite(norms).all():
        raise NonConvergence("twisted eigenvector overflowed")
    X /= norms
    return X


def pencil_eigenpairs(p: PencilProblem) -> tuple[np.ndarray, np.ndarray, EigenvalueList]:
    """Eigenvalues and unit eigenvectors of K y = lambda M y.

    Eigenvalues come from solve_pencil, eigenvectors from one twisted
    factorization each, with the componentwise accuracy that slope and
    form checks need. Returns (lambda ascending, y columns, EigenvalueList).
    An order beyond the dense budget for _DENSE_BYTES raises OutOfRange before
    anything of size N x N is allocated.
    """
    _check_dense("eigenvector", p.order, _DENSE_BYTES)
    info = solve_pencil(p)
    return info.values, _twisted_vectors(p, info.values), info

