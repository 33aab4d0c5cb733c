"""Finite matrix sections and quadratic forms of the weighted problem.

The eigenvalue problem for the weight has three equivalent finite
renderings, all built here:

* the N x N leading section of the infinite tridiagonal operator acting on
  slope partial sums, with diagonal (1+dq)*q^(k-1), superdiagonal -q^k and
  subdiagonal -d*q^(k-1) (1-based rows k), whose eigenvalues approximate
  lambda*r;
* the stiffness/mass pencil of the piecewise-linear eigenfunctions on the
  geometric grid, exact for the truncated weight because those
  eigenfunctions are themselves piecewise linear;
* the Green kernel matrix C[i,j] = min(x_i,x_j)(1-max(x_i,x_j))*m_j, the
  inverse rendering of the same pencil, with bounded entries; dense, so
  it serves as the independent check of the tridiagonal routes.

All geometry uses the gaps a^k (see DiscreteWeight); entries grow like q^N
and builders raise RangeOverflow past the params range guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteCase, OutOfRange, RangeOverflow
from .selfsim import DiscreteWeight, SelfSimilarParams, _freeze

@dataclass(frozen=True)
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix of the given order."""

    diag: np.ndarray
    offdiag: np.ndarray
    order: int

    def dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        idx = np.arange(self.order - 1)
        out[idx, idx + 1] = self.offdiag
        out[idx + 1, idx] = self.offdiag
        return out


@dataclass(frozen=True)
class BandedSection:
    """N x N leading principal section of a named infinite matrix."""

    kind: str
    data: np.ndarray
    order: int


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


def section(params: SelfSimilarParams, N: int, kind: str) -> BandedSection:
    """Leading N x N section of the named matrix.

    Kinds A, B, Binv, ABinv are the slope-to-sequence operators and their
    composition; Stiffness, Mass, Green are the weight-side matrices built
    from the order-N truncation.
    """
    if kind in ("Stiffness", "Mass", "Green"):
        from .selfsim import weight_truncation

        w = weight_truncation(params, N)
        if kind == "Stiffness":
            return BandedSection(kind, _freeze(stiffness_matrix(w).dense()), N)
        if kind == "Mass":
            return BandedSection(kind, _freeze(np.diag(mass_matrix(w))), N)
        return BandedSection(kind, _freeze(green_kernel_matrix(w)), N)
    _check_order(params, N)
    a, d, q = params.a, params.d, params.q
    k = np.arange(N, dtype=float)
    idx = np.arange(N - 1)
    out = np.zeros((N, N))
    if kind == "A":
        np.fill_diagonal(out, 1.0)
        out[idx, idx + 1] = -1.0
    elif kind == "B":
        out = np.tril(np.outer(d ** k, a ** k))
    elif kind == "Binv":
        out[np.arange(N), np.arange(N)] = q ** k
        out[idx + 1, idx] = -d * q ** (k[1:])
    elif kind == "ABinv":
        out[np.arange(N), np.arange(N)] = (1.0 + d * q) * q ** k
        out[idx, idx + 1] = -(q ** (k[:-1] + 1.0))
        out[idx + 1, idx] = -d * q ** (k[1:])
    else:
        raise OutOfRange(f"unknown section kind {kind!r}")
    if not np.all(np.isfinite(out)):
        raise RangeOverflow(f"section {kind} entries overflow at N = {N}")
    return BandedSection(kind, _freeze(out), N)


def symmetrized_section(params: SelfSimilarParams, N: int) -> TridiagonalSymmetric:
    """Symmetric tridiagonal similar to the ABinv section, for d > 0.

    The similarity is by the square root of the sequence weight
    (1/d)^(k-1); it maps the off-pair (-q^k, -d*q^k) to the geometric mean
    sqrt(d)*q^k and keeps the spectrum. For d < 0 the weight is indefinite
    and no such symmetrization exists; use the pencil or Green route.
    """
    if params.d < 0:
        raise IndefiniteCase("symmetrization requires d > 0")
    _check_order(params, N)
    d, q = params.d, params.q
    k = np.arange(N, dtype=float)
    diag = (1.0 + d * q) * q ** k
    off = np.sqrt(d) * q ** (k[:-1] + 1.0)
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
    """G(x_i, x_j) alone, from the gaps: (1 - a^min(i,j)) * a^max(i,j)."""
    N = weight.order
    i = np.arange(N)
    lo = np.minimum.outer(i, i)
    hi = np.maximum.outer(i, i)
    return (1.0 - weight.gaps[lo]) * weight.gaps[hi]


def _materialized(params: SelfSimilarParams, s: SlopeSequence, depth: int) -> np.ndarray:
    """Slopes s_1..s_depth with the tail rule applied."""
    v = s.values
    if depth <= len(v):
        return v[:depth]
    pad = v[-1] if (s.tail == "constant" and len(v)) else 0.0
    return np.concatenate((v, np.full(depth - len(v), pad)))


def default_form_depth(s: SlopeSequence) -> int:
    """Mass count implied by a slope sequence.

    A constant-tail sequence of length N+1 comes from an N-mass truncation
    (the final slope lives on the closing interval), so the outer sum of
    the quadratic form stops at N; a compact sequence supplies one term per
    stored slope.
    """
    s = _as_slopes(s)
    n = len(s.values)
    return max(n - 1, 1) if s.tail == "constant" else n


def quadratic_form_sides(
    params: SelfSimilarParams, s, lam: float, depth: int | None = None
) -> tuple[float, float]:
    """Both sides of the quadratic-form identity for a slope sequence.

    lhs = sum_k a^(k-1) s_k^2 (the energy, with the exact geometric tail
    when the final slope continues), rhs = lam * r * sum_(k<=depth)
    d^(k-1) F_k^2 where F_k = sum_(j<=k) a^(j-1) s_j. For an eigenpair of
    the order-N pencil the two sides coincide with depth = N.
    """
    s = _as_slopes(s)
    if depth is None:
        depth = default_form_depth(s)
    if depth < 1:
        raise OutOfRange(f"depth must be >= 1, got {depth}")
    a, d = params.a, params.d
    v = s.values
    wv = a ** np.arange(len(v), dtype=float)
    if s.tail == "constant" and len(v):
        # the last slope continues: its energy is an exact geometric series
        lhs = float(np.sum(wv[:-1] * v[:-1] * v[:-1]))
        lhs += float(v[-1]) ** 2 * a ** (len(v) - 1) / (1.0 - a)
    else:
        lhs = float(np.sum(wv * v * v))
    sl = _materialized(params, s, depth)
    w = a ** np.arange(depth, dtype=float)
    F = np.cumsum(w * sl)
    rhs = float(lam * params.r * np.sum(d ** np.arange(depth, dtype=float) * F * F))
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
    d, q = params.d, params.q
    uu = np.zeros(N)
    vv = np.zeros(N)
    uu[: len(u)] = u
    vv[: len(v)] = v
    k = np.arange(1, N, dtype=float)  # edge between rows k and k+1, 1-based
    wk1 = (1.0 / d) ** k  # weight at row k+1
    wk0 = (1.0 / d) ** (k - 1.0)  # weight at row k
    coeff = wk1 * (-d * q ** k) - wk0 * (-(q ** k))
    cross = uu[:-1] * vv[1:] - uu[1:] * vv[:-1]
    return float(np.sum(coeff * cross))


def extension_condition_trace(params: SelfSimilarParams, u, N: int) -> np.ndarray:
    """The sequence u_n / d^(n-1), n = 1..N.

    Sequences in the domain of the selected self-adjoint extension have
    this trace tending to zero; u = B s for an eigen slope sequence decays
    like a^n, while generic sequences do not decay at all.
    """
    u = np.asarray(u, dtype=float)[:N]
    return u / params.d ** np.arange(len(u), dtype=float)


def adjoint_domain_residual(params: SelfSimilarParams, u, N: int) -> float:
    """Partial sum sum_(k=2..N) (1/d^(k-1)) * (-d q^(k-1) u_(k-1) + (1+dq) q^(k-1) u_k + q^k u_(k+1))^2.

    Formal adjoint-domain membership diagnostic; finite for sequences in
    the domain, divergent in N for growing sequences. The middle and last
    signs follow the printed row expression, which differs from the matrix
    row's signs; this is a diagnostic, not a solver path.
    """
    u = np.asarray(u, dtype=float)
    if len(u) < N + 1:
        raise OutOfRange(f"u must have length >= N+1 = {N + 1}, got {len(u)}")
    d, q = params.d, params.q
    k = np.arange(2, N + 1, dtype=float)
    term = (
        -d * q ** (k - 1.0) * u[(k - 2).astype(int)]
        + (1.0 + d * q) * q ** (k - 1.0) * u[(k - 1).astype(int)]
        + q ** k * u[k.astype(int)]
    )
    return float(np.sum((1.0 / d) ** (k - 1.0) * term * term))
