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
  range (one count takes every 32nd grid point, a second only the cells
  whose count changes), then cut by one rule, at the change of count
  nearest a chosen probe, until their ends are adjacent doubles, many
  probes per vectorised count (taken a block of rows at a time): equal
  parts (multisection) and, once most brackets hold one eigenvalue each,
  a fan of probes around Rayleigh-quotient estimates, which Newton steps
  on the twist element gamma_r of the twisted factorization take to
  roundoff in a few sweeps (Dhillon & Parlett, Linear Algebra Appl. 387,
  2004). The counts stay the only judge, and no stop has an absolute
  term, so eigenvalues near 2.2e-308 keep their digits. Given a guess
  (order continuation's candidates, see spectral), one count at each
  candidate and its two adjacent doubles closes every bracket it
  certifies, and only the rest take the probe grid and the steps above;
* twisted LDL^T factorizations, O(N) each, one helper for those steps
  and for the pencil eigenvectors: one pass runs both factorizations side
  by side into one buffer, which the Rayleigh steps turn into their sums
  in place, and the eigenvectors into their components;
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
  rows rotate again. The matrix is then symmetric to roundoff only, so
  every test reads the entries above the diagonal. No product of two
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
# (n + 1, 2, shifts), its pivots and then, in place, _zmz's sums, 16 in all, and the O(n)
# state and the row blocks beside it, under 2 more where the budget binds (n from ~1400;
# 17.3 measured at n = 2000 with 2000 shifts). The budget keeps the buffer under glibc's
# 32 MiB ceiling for its mmap threshold, so the heap serves each twist's buffer again; a
# larger one is mapped afresh and its pages faulted in on every twist.
_RQ_NARROW = 1.0 / 8.0
_RQ_SHARE = 0.9
_RQ_STOP = 1e-8
_RQ_CAP = 8
_FAN = np.array([-64.0, -16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0, 64.0]) * _EPS
_TWIST_BUDGET = 2**25
_TWIST_BYTES = 18
# Bytes per matrix entry the dense routes hold at once. Green: G, LAPACK's copy of it and L in
# the Cholesky, then G's buffer, L and L^T S L, then in Jacobi A and B (float64 each), 24 in
# all; the stop test's row blocks and the rounds' per-pair arrays fit in the 25th.
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
    passes is the work done: inertia-count passes for bisection, the probe
    grid's counts included, and sweeps for Jacobi. levels is the number of
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


def _pivot_blocks(diag, off, mass, xs):
    """The pivots of _pivots, bit for bit, _BLOCK rows at a time: yields (rows slice, pivots).

    d - x*m for a block is one outer product, then three in-place operations
    per row with no clamp. A block holding a pivot below _PIVMIN or a NaN is
    redone by _pivots, so every pivot is the clamped recurrence's. The last
    row is left out of that check, since no row divides by its pivot, and is
    clamped in place: a probe at an eigenvalue of the rounded recurrence, as
    order continuation's candidates are, makes that pivot exactly zero, and
    the check would send its whole block to _pivots. Several factorizations
    can run side by side: diag and mass of shape (n, c) and off of shape
    (n - 1, c, 1) give pivots of shape (c, len(xs)) per row (_twist runs the
    forward and the backward one so, and copies every block into its
    buffer). The blocks alternate between two buffers allocated once, so a
    count allocates no array per block, and a yielded block is overwritten
    two blocks on. The caller sets np.errstate and must not write to the
    yielded pivots.
    """
    diag, mass = diag[..., None], mass[..., None]
    off = np.concatenate((np.zeros((1,) + off.shape[1:]), off))  # row i to row i - 1
    piv, tmp = np.inf, np.empty(diag.shape[1:-1] + xs.shape)
    bufs = np.empty((2, min(_BLOCK, len(diag))) + tmp.shape)  # a block's, and the one before
    for b in range(0, len(diag), _BLOCK):
        sl, prev, last = slice(b, b + _BLOCK), piv, b + _BLOCK >= len(diag)
        rows = bufs[(b // _BLOCK) % 2, : len(diag[sl])]
        np.subtract(diag[sl], np.multiply(mass[sl], xs, out=rows), out=rows)
        for e, row in zip(off[sl], rows):
            np.divide(e, piv, out=tmp)
            tmp *= e
            row -= tmp
            piv = row
        if not (np.abs(rows[:-1] if last else rows) >= _PIVMIN).all():  # a tiny pivot or a NaN
            rows = np.array(list(_pivots(diag[sl], off[sl], mass[sl], xs, prev)))
            piv = rows[-1]
        elif last:
            small = np.abs(piv) < _PIVMIN
            if small.any():
                piv[...] = np.where(small, np.where(piv < 0.0, -_PIVMIN, _PIVMIN), piv)
        yield sl, rows


def _counts_below(diag, off, mass, probes) -> np.ndarray:
    """Eigenvalues of T y = lambda*diag(mass) y strictly below each probe.

    By Sylvester's law the negative pivots nu(x) of T - x*diag(mass) count
    the eigenvalues below x when every mass is positive (any symmetric T).
    With negative masses T must be positive definite; nu(x) then counts the
    eigenvalues between 0 and x, the n_neg negative masses give n_neg
    negative eigenvalues, and the count below x is n_neg + nu(x) for x > 0
    and n_neg - nu(x) for x < 0. An overflowed x*m_i keeps its sign, which
    is all a count needs. The pivots come from _pivot_blocks.
    """
    xs = np.asarray(probes, dtype=float)
    nu = np.zeros(xs.shape, dtype=np.int64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _, rows in _pivot_blocks(diag, off, mass, xs):
            nu += np.count_nonzero(rows < 0.0, axis=0)
    n_neg = int(np.sum(mass < 0.0))
    if n_neg == 0:
        return nu
    return np.where(xs < 0.0, n_neg - nu, n_neg + nu)


def _twist(diag, off, mass, xs):
    """Twisted LDL^T factorizations of T - x*diag(mass), one per shift x, O(n) each.

    Forward and backward pivots D+ and D- (of _pivot_blocks, from the first
    row and from the last) meet at the twist index r where gamma_r = D+_r +
    D-_r - (T - x*diag(mass))_rr is smallest relative to m_r, the twist of
    the mass-scaled problem: on a graded pencil the roundoff of gamma's large
    rows exceeds its true minimum (_twist_index). The z with z_r = 1 that the
    two bidiagonal factors carry outward solves (T - x*diag(mass)) z =
    gamma_r e_r, so its Rayleigh quotient is x + gamma_r / (z^T diag(mass) z)
    (_zmz sums that from the pivots).

    One pass runs both factorizations side by side, step s taking row s
    forward and row n-1-s backward, and keeps every step in one float64
    buffer of shape (n + 1, 2, len(xs)): the pivots of step s in row s + 1,
    row 0 left for _zmz. Returns (r, gamma_r, buffer); D+ = buffer[1:, 0] and
    D- = buffer[:0:-1, 1], of shape (n, len(xs)).
    """
    cols = np.arange(len(xs))
    d_2, e_2, m_2 = (np.stack((v, v[::-1]), axis=1) for v in (diag, off, mass))
    buf = np.empty((len(diag) + 1, 2, len(xs)))
    piv = buf[1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sl, rows in _pivot_blocks(d_2, e_2[..., None], m_2, xs):
            piv[sl] = rows
        fwd, bwd = piv[:, 0], piv[::-1, 1]
        r = _twist_index(fwd, bwd, diag, mass, xs)
        gamma = fwd[r, cols] + bwd[r, cols] - (diag[r] - mass[r] * xs)
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
    m_s = np.ldexp(np.stack((mass, mass[::-1]), axis=1), -e)[..., None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = np.divide(np.stack((off, off[::-1]), axis=1)[..., None], buf[1:n], out=buf[1:n])
        sq *= sq
        buf[0] = m_s[0]
        for i in range(1, n):
            buf[i] *= buf[i - 1]
            buf[i] += m_s[i]
        return buf[r, 0, cols] + buf[n - 1 - r, 1, cols] - m_s[r, 0, 0], e


def _twist_index(fwd, bwd, diag, mass, xs):
    """The row of least |gamma_i| / |m_i|, gamma = fwd + bwd - (diag - x*mass), per shift x.

    np.argmin within each block of _BLOCK rows, then over the blocks' minima, which is
    np.argmin's rule over all rows (ties and NaN go to the lowest) by construction. No
    n x len(xs) array is formed beside the pivots. The caller sets np.errstate.
    """
    cols = np.arange(len(xs))
    least = np.empty((-(-len(diag) // _BLOCK), len(xs)))
    row = np.empty(least.shape, dtype=np.intp)
    for i, b in enumerate(range(0, len(diag), _BLOCK)):
        sl = slice(b, b + _BLOCK)
        g = fwd[sl] + bwd[sl] - (diag[sl, None] - mass[sl, None] * xs)
        ratio = np.abs(g) / np.abs(mass[sl])[:, None]
        j = np.argmin(ratio, axis=0)
        least[i], row[i] = ratio[j, cols], b + j
    return row[np.argmin(least, axis=0), cols]


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


def _grid_counts(diag, off, mass, grid: np.ndarray) -> tuple[np.ndarray, int, int]:
    """_counts_below at every point of the ascending grid and at 0.0, in one count or two.

    The first probes every _COARSE-th grid point, the last, any at 0.0, and 0.0. Counts are
    monotone, so a cell whose ends agree holds their count; the second probes the interior
    of the other cells, if they have any. Returns (counts, count at 0.0, counts taken).
    """
    at = grid == 0.0
    at[::_COARSE] = at[-1] = True
    coarse = np.flatnonzero(at)
    first = _counts_below(diag, off, mass, np.append(grid[coarse], 0.0))
    counts = np.repeat(first[:-1], np.diff(coarse, append=len(grid)))  # a cell's left end's
    changed = np.repeat(np.diff(first[:-1]) != 0, np.diff(coarse))  # per point but the last
    changed[coarse[:-1]] = False
    fine = np.flatnonzero(changed)
    if len(fine):
        counts[fine] = _counts_below(diag, off, mass, grid[fine])
    return counts, int(first[-1]), 1 + bool(len(fine))


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
        rows, cols = np.nonzero(r > rot_tol)
        band = max(band, int(np.max(cols - rows, initial=0)))
    return float(np.max(tops)), band


def _jacobi(A: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Eigenvalues (ascending) of the symmetric A, overwritten; the largest ratio left; sweeps.

    Each sweep takes _couplings once: the largest ratio is the stop test (<= rot_tol), and
    the band w bounds the sweep, which rotates the rounds (s, o) for s = 1..w, o = 0 then s,
    so every pair above rot_tol at the start of a sweep is visited in it, nearest neighbours
    first, where a graded matrix has its largest relative couplings. A round writes the
    rotated matrix into the other of two buffers.
    """
    n = A.shape[0]
    rot_tol = max(1e-15, 4 * n * _EPS)
    B = np.empty_like(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(_SWEEP_CAP + 1):
            rel, w = _couplings(A, rot_tol)
            if not rel > rot_tol or sweep == _SWEEP_CAP:  # converged, NaN, or the cap
                break
            for s in range(1, min(w, n - 1) + 1):
                for o in (0, s) if 2 * s < n else (0,):  # (s, s) is empty unless 2s < n
                    if _band_round(A, B, s, o, rot_tol):
                        A, B = B, A
    if not rel <= rot_tol:  # NaN included
        raise NonConvergence(f"Jacobi sweep cap {_SWEEP_CAP} reached")
    return np.sort(np.diagonal(A)), rel, sweep


def _band_round(A: np.ndarray, B: np.ndarray, s: int, o: int, rot_tol: float) -> bool:
    """Rotate the pairs (i, i + s), i in the length-s blocks at o, o + 2s, ..., above rot_tol.

    Returns whether any pair was; B then holds the rotated matrix and A is spent. The pairs
    are disjoint, their ratios read a_pq, p < q, and those at or below rot_tol get t = 0,
    which copies their rows. A's rows rotate into B, B^T is copied into A, and A's rows
    rotate into B again: B = R A^T R^T, symmetric to roundoff where rotated rows and columns
    cross. Rutishauser updates the diagonal; rotated pairs' a_pq and a_qp become zero.
    """
    n = A.shape[0]
    blocks, rest = divmod(n - o, 2 * s)
    last, tail = o + 2 * s * blocks, max(0, rest - s)
    parts = [x for x in ((o, blocks, s), (last, 1, tail)) if x[1] * x[2] > 0]
    if not parts:
        return False
    pair = (n + 1, (2, 2), (s * n, s))  # each pair's [[a_pp, a_pq], [a_qp, a_qq]]
    before = _pair_views(A, s, parts, *pair)
    app, apq, aqp, aqq = np.concatenate([v.reshape(-1, 4) for v in before]).T
    big = np.abs(apq) / (np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq))) > rot_tol
    if not big.any():
        return False
    # t = tan of the angle that zeroes a_pq, the root of magnitude <= 1
    diff, twice = aqq[big] - app[big], 2.0 * apq[big]
    t = np.zeros(len(big))
    t[big] = twice / (diff + np.copysign(np.hypot(diff, twice), diff))
    c = 1.0 / np.hypot(1.0, t)
    rot = np.array((c, -t * c, t * c, c)).T.reshape(-1, 2, 2)
    # each pair's block after the round; an unrotated one is A's transposed, as in R A^T R^T
    new = np.array((app - t * apq, aqp, apq, aqq + t * apq)).T
    new[big, 1:3] = 0.0
    src, dst = (_pair_views(X, s, parts, n, (2, n), (s * n, 1)) for X in (A, B))
    copied = [(lo, hi) for lo, hi in ((0, o), (last + tail, min(n, last + s))) if lo < hi]
    k = parts[0][1] * parts[0][2]  # the pairs of the first part
    for turn in range(2):
        if turn:
            np.copyto(A, B.T)
        for x, y, r in zip(src, dst, (rot[:k], rot[k:])):
            np.matmul(r.reshape(x.shape[:2] + (2, 2)), x, out=y)
        for lo, hi in copied:  # the rows no pair holds
            B[lo:hi] = A[lo:hi]
    for v, x in zip(_pair_views(B, s, parts, *pair), (new[:k], new[k:])):
        v[...] = x.reshape(v.shape)
    return True


def _pair_views(X: np.ndarray, s: int, parts, step: int, inner=(), inner_strides=()) -> list:
    """Views of X at p*step, shape (count, width) + inner, for each part of a round: the pairs
    p = first + 2s*i + j, i < count, j < width. step and inner_strides count entries."""
    size = X.itemsize
    strides = tuple(size * k for k in (2 * s * step, step) + inner_strides)
    return [np.ndarray((count, width) + inner, X.dtype, X, size * first * step, strides)
            for first, count, width in parts]


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

    The counts over the _probe_grid (_grid_counts: a coarse count, then one
    of the cells whose count changes) give the kept index range, the
    brackets and, when a mass is negative (only then does the count need K
    positive definite), K's inertia from the first count's probe at 0.

    guess, eigenvalue candidates in any order (order continuation supplies
    them, see spectral), replaces the grid by one count: at each candidate
    inside the Gershgorin interval and its two adjacent doubles, at the
    interval's ends (the kept range) and at 0 (the inertia). An index whose
    bracket from these probes is two adjacent doubles is closed at once. If
    any is left open, the grid's counts are taken too, and every bracket is
    taken again from both sets of probes, so each open one lies within a grid
    cell; only those go on to the loop below. The counts judge the guess as
    they judge every probe, so a wrong candidate costs counts, not accuracy,
    and where the count is monotone the result is the solve without a guess,
    bit for bit. passes counts the guess's count too.

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
    if guess is None:
        probes = _probe_grid(glo, ghi)
        counts, at_zero, passes = _grid_counts(K.diag, K.offdiag, M, probes)
    else:
        probes = _guess_probes(guess, glo, ghi)
        counts = _counts_below(K.diag, K.offdiag, M, np.append(probes, 0.0))
        counts, at_zero, passes = counts[:-1], int(counts[-1]), 1
    n_neg = int(np.sum(M < 0.0))
    if n_neg and at_zero != n_neg:
        raise NotPositiveDefinite("stiffness matrix has a negative eigenvalue")
    k1, k2 = int(counts[0]), int(counts[-1])
    if k2 <= k1:
        raise ZeroEigenvalue("every eigenvalue lies beyond the range guard")
    idxs = np.arange(k1 + 1, k2 + 1)
    los, his = _brackets(probes, counts, idxs)
    if guess is not None and (np.nextafter(los, his) != his).any():
        grid = _probe_grid(glo, ghi)
        grid_counts, _, taken = _grid_counts(K.diag, K.offdiag, M, grid)
        order = np.argsort(np.concatenate((probes, grid)), kind="stable")
        probes = np.concatenate((probes, grid))[order]
        keep = np.diff(probes, prepend=-np.inf) != 0.0  # a probe of the guess's before the grid's
        los, his = _brackets(probes[keep], np.concatenate((counts, grid_counts))[order][keep],
                             idxs)
        passes += taken

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
        vals, residual_bound=width, method="bisect", dropped=int(p.order - (k2 - k1)), passes=passes
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
    ne_2 = -np.stack((e, e[::-1]), axis=1)[..., None]  # -e, row j to row j + 1, in each frame
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

