"""Finite matrix sections and quadratic forms of the weighted problem.

The eigenvalue problem for the weight has three equivalent finite
renderings, all built here:

* the N x N leading section of the infinite tridiagonal operator acting on
  slope partial sums, with diagonal (1+dq)*q^(k-1), superdiagonal -q^k and
  subdiagonal -d*q^(k-1) (1-based rows k), whose eigenvalues approximate
  lambda*r; symmetrized_section turns it into a positive definite T
  against a signature S for either sign of d;
* the stiffness/mass pencil of the piecewise-linear eigenfunctions on the
  geometric grid, exact for the truncated weight because those
  eigenfunctions are themselves piecewise linear;
* the Green kernel matrix C[i,j] = min(x_i,x_j)(1-max(x_i,x_j))*m_j, the
  inverse rendering of the same pencil, with bounded entries; dense, so
  it serves as the independent check of the tridiagonal routes.

All geometry uses the gaps a^k (see DiscreteWeight); entries grow like q^N
and builders raise RangeOverflow past the params range guard. section is
the one catalogue of dense matrices (SECTION_KINDS, which the command line
offers), every kind behind that guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, RangeOverflow
from .selfsim import DiscreteWeight, SelfSimilarParams, _freeze, weight_truncation

SECTION_KINDS = ("A", "B", "Binv", "ABinv", "sym", "K", "M", "green")
# Bytes the n x n float64 arrays of one dense computation may take at once: a section, the
# Green route or pencil_eigenpairs' vectors (each counts its own bytes per entry).
_DENSE_BUDGET = 2**30


@dataclass(frozen=True)
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix of the given order >= 1, with finite entries."""

    diag: np.ndarray
    offdiag: np.ndarray
    order: int

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise OutOfRange(f"order must be >= 1, got {n}")
        if len(self.diag) != n or len(self.offdiag) != n - 1:
            raise OutOfRange(
                f"order {n} needs {n} diagonal and {n - 1} off-diagonal entries, "
                f"got {len(self.diag)} and {len(self.offdiag)}"
            )
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.offdiag))):
            raise OutOfRange("tridiagonal entries must be finite")

    def dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        idx = np.arange(self.order - 1)
        out[idx, idx + 1] = self.offdiag
        out[idx + 1, idx] = self.offdiag
        return out


@dataclass(frozen=True)
class SlopeSequence:
    """Slopes s_k of a piecewise-linear function on the geometric grid.

    tail = "zero": s_k = 0 beyond the stored values (compactly supported).
    tail = "constant": the last stored slope continues on every further
    interval, which is how a truncated eigenfunction reaches y(1) = 0.
    The interval weights a^(k-1) are implicit via the params.
    """

    values: np.ndarray
    tail: str = "zero"

    def __post_init__(self):
        if self.tail not in ("zero", "constant"):
            raise OutOfRange(f"tail must be 'zero' or 'constant', got {self.tail!r}")
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, dtype=float).copy()))


def _as_slopes(s) -> SlopeSequence:
    return s if isinstance(s, SlopeSequence) else SlopeSequence(np.asarray(s, dtype=float))


def _check_order(params: SelfSimilarParams, N: int) -> None:
    if N < 1:
        raise OutOfRange(f"order must be >= 1, got {N}")
    if N > params.max_order:
        raise RangeOverflow(
            f"order {N} beyond the range guard {params.max_order} "
            f"(entries ~ q^N leave double range)"
        )


def _dense_max_order(bytes_per_entry: int) -> int:
    """The largest order whose n x n arrays, bytes_per_entry per entry, fit _DENSE_BUDGET."""
    return math.isqrt(_DENSE_BUDGET // bytes_per_entry)


def _check_dense(what: str, N: int, bytes_per_entry: int) -> None:
    """Refuse (OutOfRange) an order beyond _dense_max_order(bytes_per_entry), before allocating."""
    if N > (top := _dense_max_order(bytes_per_entry)):
        raise OutOfRange(
            f"{what} order {N} exceeds {top}, the largest whose n x n arrays fit the memory budget"
        )


def section(params: SelfSimilarParams, N: int, kind: str) -> np.ndarray:
    """The N x N matrix of the named kind (one of SECTION_KINDS), read-only.

    A, B, Binv, ABinv are sections of the slope-to-sequence operators and
    their composition, sym the symmetric T of symmetrized_section (either
    sign of d; for d < 0 ABinv is similar to S T, not T); K, M and
    green are the stiffness, mass and Green kernel matrices of the order-N
    truncation. Every kind raises RangeOverflow for N > params.max_order.
    A kind holds at most two N x N float64 arrays at once (B: the outer
    product and its lower triangle; green: G and G times the masses), 16
    bytes per entry, so an order beyond _dense_max_order(16) (8192 for the
    1 GiB _DENSE_BUDGET) raises OutOfRange before anything is allocated.
    """
    if kind not in SECTION_KINDS:
        raise OutOfRange(f"unknown section kind {kind!r}")
    _check_order(params, N)
    _check_dense("section", N, 16)
    if kind == "sym":
        return _freeze(symmetrized_section(params, N).dense())
    if kind in ("K", "M", "green"):
        w = weight_truncation(params, N)
        if kind == "K":
            return _freeze(stiffness_matrix(w).dense())
        if kind == "M":
            return _freeze(np.diag(mass_matrix(w)))
        return _freeze(green_kernel_matrix(w))
    a, d, q = params.a, params.d, params.q
    k = np.arange(N, dtype=float)
    idx = np.arange(N - 1)
    if kind == "B":
        out = np.tril(np.outer(d ** k, a ** k))
    else:
        out = np.zeros((N, N))
    if kind == "A":
        np.fill_diagonal(out, 1.0)
        out[idx, idx + 1] = -1.0
    elif kind == "Binv":
        out[np.arange(N), np.arange(N)] = q ** k
        out[idx + 1, idx] = -d * q ** (k[1:])
    elif kind == "ABinv":
        out[np.arange(N), np.arange(N)] = (1.0 + d * q) * q ** k
        out[idx, idx + 1] = -(q ** (k[:-1] + 1.0))
        out[idx + 1, idx] = -d * q ** (k[1:])
    if not np.all(np.isfinite(out)):
        raise RangeOverflow(f"section {kind} entries overflow at N = {N}")
    return _freeze(out)


def symmetrized_section(params: SelfSimilarParams, N: int) -> TridiagonalSymmetric:
    """Symmetric T with ABinv u = mu u equivalent to T y = mu S y, S = diag(sign(d)^k).

    ABinv is symmetric in the sequence weight (1/d)^k (k 0-based), indefinite
    for d < 0. Scaling by |d|^(k/2) turns the weight into S and ABinv into T:
    diagonal (1+dq)|q|^k, off-diagonal sqrt|d|*|q|^(k+1) (a +-1 similarity
    that keeps S drops its sign, sign(d)); for d > 0, S = I. T is positive
    definite for either sign: as d*q = 1/a, its LDL^T pivots are
    |q|^(k-1)*t_k (1-based), t_1 = 1 + 1/a, t_(k+1) = 1 + 1/a - 1/(a*t_k) > 1/a.
    """
    _check_order(params, N)
    d, q = params.d, abs(params.q)
    k = np.arange(N, dtype=float)
    diag = (1.0 + d * params.q) * q ** k
    off = np.sqrt(abs(d)) * q ** (k[:-1] + 1.0)
    return TridiagonalSymmetric(_freeze(diag), _freeze(off), N)


def _intervals(weight: DiscreteWeight) -> np.ndarray:
    """Interval lengths h_1..h_(N+1) of the geometric grid, as exact products.

    h_k = a^(k-1) * (1-a) for k <= N and h_(N+1) = a^N. Recovering a from
    gaps[0] keeps this weight-only.
    """
    a = float(weight.gaps[0])
    N = weight.order
    h = np.empty(N + 1)
    h[0] = 1.0 - a
    h[1:N] = (1.0 - a) * weight.gaps[: N - 1]
    h[N] = weight.gaps[N - 1]
    return h


def stiffness_matrix(weight: DiscreteWeight) -> TridiagonalSymmetric:
    """Dirichlet stiffness of the hat functions on the grid 0 < x_1 < ... < x_N < 1.

    K[k,k] = 1/h_k + 1/h_(k+1), K[k,k+1] = -1/h_(k+1), with the final
    interval 1 - x_N = a^N closing the domain so y(1) = 0 holds exactly.
    """
    h = _intervals(weight)
    inv = 1.0 / h
    if not np.all(np.isfinite(inv)):
        raise RangeOverflow(f"1/h overflows at order {weight.order}")
    diag = inv[:-1] + inv[1:]
    off = -inv[1:-1]
    return TridiagonalSymmetric(_freeze(diag), _freeze(off), weight.order)


def mass_matrix(weight: DiscreteWeight) -> np.ndarray:
    """Diagonal of the mass matrix: the point masses themselves."""
    return weight.masses.copy()


def green_kernel_matrix(weight: DiscreteWeight) -> np.ndarray:
    """C[i,j] = G(x_i, x_j) * m_j with G(x,t) = min(x,t)(1 - max(x,t)).

    G is the Dirichlet Green function of -y'' on [0,1], so C is the exact
    inverse rendering of the stiffness/mass pencil: eigenvalues of C are
    the reciprocals 1/lambda. Entries are bounded by 1; they are formed as
    (1 - a^lo) * a^hi from the gaps, never from positions.
    """
    return _green_unweighted(weight) * weight.masses[None, :]


def _green_unweighted(weight: DiscreteWeight) -> np.ndarray:
    """G(x_i, x_j) alone, from the gaps: (1 - a^min(i,j)) * a^max(i,j).

    Both products (1 - a^i) * a^j and (1 - a^j) * a^i are formed; the wanted
    one is the smaller by a factor of at least 1/a, far above rounding, so
    the minimum picks it exactly.
    """
    U = np.multiply.outer(1.0 - weight.gaps, weight.gaps)
    return np.minimum(U, U.T, out=U)


def quadratic_form_sides(params: SelfSimilarParams, s, lam: float) -> tuple[float, float]:
    """Both sides of the quadratic-form identity for a slope sequence.

    lhs = sum_k a^(k-1) s_k^2 (the energy, with the exact geometric tail
    when the final slope continues), rhs = lam * r * sum_(k<=n)
    d^(k-1) F_k^2 where F_k = sum_(j<=k) a^(j-1) s_j and n is the mass
    count the sequence implies: a constant-tail sequence of length N+1 comes
    from an N-mass truncation (its final slope lives on the closing
    interval), so n = N; a compact sequence supplies one term per stored
    slope. For an eigenpair of the order-N pencil the two sides coincide.

    A constant tail encodes y(1) = 0 (see eigenfunction_slopes), so also
    F_k = -sum_(j>k) a^(j-1) s_j; each F_k is summed from the end with the
    smaller sum of |a^(j-1) s_j|, whose roundoff is the smaller. d^k
    magnifies the roundoff of late F_k summed forward (a = 0.3, d = 1.7).
    """
    s = _as_slopes(s)
    a, d = params.a, params.d
    v = s.values
    t = a ** np.arange(len(v), dtype=float) * v
    F = np.cumsum(t)
    if s.tail == "constant" and len(v):
        # the last slope continues: its energy is an exact geometric series;
        # v[-1] ~ a^-N: weight one factor first so the square stays in range
        lhs = float(np.sum(t[:-1] * v[:-1]))
        lhs += float(v[-1]) * a ** (len(v) - 1) * float(v[-1]) / (1.0 - a)
        # the terms beyond k, the tail past the last slope in closed form, summed from the far end
        back = np.append(float(v[-1]) * a ** len(v) / (1.0 - a), t[:0:-1])
        cheaper = np.cumsum(np.abs(t)) <= np.cumsum(np.abs(back))[::-1]
        F = np.where(cheaper, F, -np.cumsum(back)[::-1])[: max(len(v) - 1, 1)]
    else:
        lhs = float(np.sum(t * v))
    rhs = float(lam * params.r * np.sum(d ** np.arange(len(F), dtype=float) * F * F))
    return lhs, rhs


def boundary_functional(params: SelfSimilarParams, s) -> float:
    """sum_k a^(k-1) s_k over the full (possibly infinite) support.

    For a constant tail the geometric continuation is summed in closed
    form. Vanishes exactly when the piecewise-linear function with these
    slopes satisfies y(1) = 0, which is the extension-selecting boundary
    condition of the problem.
    """
    s = _as_slopes(s)
    v = s.values
    if len(v) == 0:
        return 0.0
    a = params.a
    w = a ** np.arange(len(v), dtype=float)
    total = float(np.sum(w * v))
    if s.tail == "constant":
        total += float(v[-1]) * a ** len(v) / (1.0 - a)
    return total


def eigenfunction_slopes(weight: DiscreteWeight, y: np.ndarray) -> SlopeSequence:
    """Slope sequence of the piecewise-linear eigenfunction with nodal values y.

    y holds the values at x_1..x_N; y(0) = y(1) = 0 are implied. The
    returned sequence has N+1 slopes, the last one continuing constantly,
    which encodes the linear descent to zero on [x_N, 1].
    """
    h = _intervals(weight)
    y = np.asarray(y, dtype=float)
    N = weight.order
    if y.shape != (N,):
        raise OutOfRange(f"y must hold the {N} nodal values, got shape {y.shape}")
    s = np.empty(N + 1)
    s[0] = y[0] / h[0]
    s[1:N] = np.diff(y) / h[1:N]
    s[N] = -y[N - 1] / h[N]
    return SlopeSequence(s, tail="constant")


def symmetry_defect(params: SelfSimilarParams, u, v, N: int) -> float:
    """<Mu, v> - <u, Mv> in the sequence weight (1/d)^(k-1), M the ABinv section.

    Symmetry pairs the superdiagonal of row k with the subdiagonal of
    row k+1: w_(k+1) * (-d*q^k) against w_k * (-q^k), identical in exact
    arithmetic. The defect is evaluated edge by edge in exactly that
    paired form; expanding the two inner products first would sum terms of
    size (q/d)^N whose roundoff buries the cancellation. When a, d are
    exact binary fractions the paired form cancels to exactly zero; in
    general each edge keeps a few ulps of its weighted magnitude. u and v should be
    supported on 1..N-1 so the section acts as the infinite matrix.
    """
    _check_order(params, N)
    if len(u) > N or len(v) > N:
        raise OutOfRange(f"u and v must have at most N = {N} entries, got {len(u)} and {len(v)}")
    d, q = params.d, params.q
    uu = np.zeros(N)
    vv = np.zeros(N)
    uu[: len(u)] = u
    vv[: len(v)] = v
    k = np.arange(1, N, dtype=float)  # edge between rows k and k+1, 1-based
    wk1 = (1.0 / d) ** k  # weight at row k+1
    wk0 = (1.0 / d) ** (k - 1.0)  # weight at row k
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = wk1 * (-d * q ** k) - wk0 * (-(q ** k))
    if not np.all(np.isfinite(coeff)):
        raise RangeOverflow(f"weighted edge terms (q/d)^k overflow below order {N}")
    cross = uu[:-1] * vv[1:] - uu[1:] * vv[:-1]
    return float(np.sum(coeff * cross))

