"""Spectra of the weighted problem and their geometric asymptotics.

Three formulations of the same eigenvalue problem:

* "jacobi-section": inertia-count bisection on the symmetrized
  slope-operator section T against the masses r*S, S its signature
  (see symmetrized_section), for either sign of d;
* "fem-pencil": inertia-count bisection on the tridiagonal stiffness
  matrix against the diagonal mass matrix, O(N) per probe, for either
  sign of d;
* "green-kernel": the weighted Green kernel matrix, factored as L L^T,
  with L^T sign(M) L diagonalized by band-ordered Jacobi, O(N^3); its
  eigenvalues are the reciprocals. It shares no solver code with the
  other two.

The solvers all live in eigensolve and return an EigenvalueList; this
module builds their inputs. Where a and |d| are powers of two, the fem and
section pencils are exactly self-similar across orders, and
_pencil_spectrum solves order N from a lower order's spectrum (order
continuation), one certifying count per order. compute_spectrum produces
the spectra and refuses N beyond the range guard with RangeOverflow on every formulation
(and green-kernel N beyond its memory budget with OutOfRange),
cross_validate compares them pairwise, estimate_c and indefinite_report
check the geometric laws lambda_k ~ c*q^k (single sign) and
lambda_(+/-j) ~ +/- c*q^(2j) (alternating signs), and verify_suite bundles
the package's internal consistency checks for the command line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyWindow, OutOfRange, WrongSign
from .eigensolve import (
    _DENSE_BYTES,
    EigenvalueList,
    PencilProblem,
    pencil_eigenpairs,
    solve_green,
    solve_pencil,
)
from .operators import (
    _check_dense,
    _check_order,
    _dense_max_order,
    _green_unweighted,
    boundary_functional,
    eigenfunction_slopes,
    mass_matrix,
    quadratic_form_sides,
    stiffness_matrix,
    symmetrized_section,
    symmetry_defect,
)
from .selfsim import (
    _ENTRY_CEIL,
    DiscreteWeight,
    SelfSimilarParams,
    fixed_point_residual,
    weight_truncation,
)

FORMULATIONS = ("jacobi-section", "fem-pencil", "green-kernel")


@dataclass(frozen=True)
class SpectrumResult:
    """Selected eigenvalues of one formulation, ascending by value.

    info is the solver's record of the whole spectrum (its method,
    residual_bound, dropped, passes and levels), before count selects;
    dropped reads it (0 without one).
    """

    params: SelfSimilarParams
    order: int
    formulation: str
    values: np.ndarray
    info: EigenvalueList | None = None

    @property
    def dropped(self) -> int:
        return self.info.dropped if self.info is not None else 0


@dataclass(frozen=True)
class AsymptoticsReport:
    """Fit of lambda_k ~ c * q^k over a 1-based index window.

    per_k_c holds lambda_k / q^k for each k in the window, c_estimate their
    geometric mean (signed), max_rel_dispersion the worst relative spread
    of per_k_c around the estimate, and ratios the successive quotients
    lambda_(k+1)/lambda_k inside the window (which should approach q).
    """

    c_estimate: float
    q_used: float
    window: tuple[int, int]
    per_k_c: np.ndarray
    max_rel_dispersion: float
    ratios: np.ndarray


@dataclass(frozen=True)
class IndefiniteReport:
    """Two-branch asymptotics of an alternating spectrum.

    Branches are paired by magnitude: positive eigenvalues ascending,
    negative ones by increasing magnitude, pair index j starting at 0.
    The branch of the sign of r holds the smallest magnitude and follows
    c * q^(2j), the other c * |q|^(2j+1) (for r > 0: pos_j ~ c * q^(2j),
    |neg_j| ~ c * |q|^(2j+1)), so the in-branch ratios approach q^2 and
    the cross ratios, the other branch over r's, approach |q|.
    """

    positive: np.ndarray
    negative: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    cross_ratios: np.ndarray
    ratios_positive: np.ndarray
    ratios_negative: np.ndarray
    q_used: float
    window: tuple[int, int]


@dataclass(frozen=True)
class CrossValidation:
    """Worst relative eigenvalue disagreement between formulation pairs.

    count is the number of indices fem-pencil and green-kernel are compared
    at; converged the number of indices jacobi-section has converged at and
    is compared with fem-pencil at (none reads 0.0).
    """

    order: int
    count: int
    max_rel_diff: dict[str, float]
    converged: int


def _fem_pencil(w: DiscreteWeight) -> PencilProblem:
    """The hat-function stiffness/mass pencil of a truncated weight."""
    return PencilProblem(stiffness_matrix(w), mass_matrix(w), w.order)


def _section_pencil(params: SelfSimilarParams, N: int) -> PencilProblem:
    """The section as the pencil T y = lambda * r*S y (see symmetrized_section).

    T against S has the section's eigenvalues, which approximate lambda*r;
    putting r into the masses gives lambda itself, with no division.
    """
    signature = np.sign(params.d) ** np.arange(N, dtype=float)
    return PencilProblem(symmetrized_section(params, N), params.r * signature, N)


def _exact_depths(params: SelfSimilarParams, formulation: str) -> tuple[int, int] | None:
    """(K0, T) of order continuation for the fem or section pencil, or None where a or |d|
    is not a power of two.

    Rows 2..N of the order-N pencil are the order-(N-1) pencil with K/a (the
    section: |q| T) and masses times d. So, ordered by magnitude and
    0-based, lambda_(k+1)(N) = q*lambda_k(N-1) for k >= K0, where the first
    row no longer reaches, and lambda_k(N) = lambda_k(N-1) for
    k < N - 1 - T, where the truncation no longer reaches. Where a and |d|
    are powers of two the scalings are exact, and both hold bit for bit
    (tests pin them at seven such points). K0 = ceil(sqrt(37 /
    ln|q|)) + 2, from the super-geometric remainder |q|^(-k^2); T = ceil(36 /
    ln(1/(a^2 |d|))) + 2 for fem, whose truncation error falls like
    (a^2 |d|)^(N-k), and ceil(36 / ln(1/a)) + 2 for the section. The + 2 is
    a margin: the laws under-read the measured depths by up to 1.1.
    """
    a, d = params.a, abs(params.d)
    if math.frexp(a)[0] != 0.5 or math.frexp(d)[0] != 0.5:
        return None
    k0 = math.ceil(math.sqrt(37.0 / math.log(abs(params.q)))) + 2
    rate = a if formulation == "jacobi-section" else a * a * d
    return k0, math.ceil(36.0 / math.log(1.0 / rate)) + 2


def _pencil_spectrum(params: SelfSimilarParams, N: int, formulation: str) -> EigenvalueList:
    """solve_pencil on the order-N fem or section pencil, by order continuation where exact.

    Where a and |d| are powers of two (_exact_depths) and M = ceil((N + K0 +
    T) / 2) < N, order M is solved first, by this same rule, and its
    spectrum, ordered by magnitude, gives order N's candidates, j = N - M:
    lambda_i(M) for the K0 + j smallest magnitudes (0-based i < K0 + j <=
    M - T, below the truncation's reach) and q^j * lambda_(i-j)(M) for the
    rest (q^j carries sign(q)^j for d < 0). solve_pencil takes them as its
    guess, and its counts certify them. passes sums every level's counts
    and levels says how many ran. Other inputs, and N <= K0 + T + 1, are
    solved directly.
    """
    if formulation == "jacobi-section":
        pencil = _section_pencil(params, N)
    else:
        pencil = _fem_pencil(weight_truncation(params, N))
    depths = _exact_depths(params, formulation)
    M = N if depths is None else -(-(N + sum(depths)) // 2)
    if M >= N:
        return solve_pencil(pencil)
    k0, j = depths[0], N - M
    low = _pencil_spectrum(params, M, formulation)
    mag = _by_magnitude(low.values)
    with np.errstate(over="ignore"):  # an infinite candidate lies beyond the range guard
        top = params.q**j * mag[k0:]
    ev = solve_pencil(pencil, np.concatenate((mag[: k0 + j], top)))
    return replace(ev, passes=low.passes + ev.passes, levels=low.levels + 1)


def _max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Worst |a_i - b_i| / max(|a_i|, |b_i|) over the leading indices both have."""
    n = min(len(a), len(b))
    if n == 0:
        return 0.0
    denom = np.maximum(np.abs(a[:n]), np.abs(b[:n]))
    return float(np.max(np.abs(a[:n] - b[:n]) / denom))


def _by_magnitude(values: np.ndarray) -> np.ndarray:
    """The values by increasing magnitude, the negative first on a tie."""
    return values[np.lexsort((values, np.abs(values)))]


def _select(values: np.ndarray, count: int | None) -> np.ndarray:
    """The count eigenvalues of smallest magnitude, returned ascending."""
    if count is None:
        return values
    if count < 0:
        raise OutOfRange(f"count must be >= 0, got {count}")
    if count > len(values):
        raise OutOfRange(f"count {count} exceeds the {len(values)} available eigenvalues")
    return np.sort(_by_magnitude(values)[:count])


def compute_spectrum(
    params: SelfSimilarParams,
    N: int,
    formulation: str = "fem-pencil",
    count: int | None = None,
) -> SpectrumResult:
    """Eigenvalues of the order-N problem in the requested formulation.

    count selects that many eigenvalues of smallest magnitude (all when
    None); values are stored ascending by signed value. The three
    formulations agree to near machine precision, jacobi-section from the
    bottom of the spectrum up (see cross_validate). Eigenvalues beyond the
    solvers' range guard are counted in dropped, and N beyond
    params.max_order raises RangeOverflow on every formulation. green-kernel
    holds several N x N arrays at once and refuses (OutOfRange), before
    allocating any, an order whose arrays would exceed its memory budget.
    fem-pencil and jacobi-section are solved by _pencil_spectrum, by order
    continuation where a and |d| are powers of two. The result keeps the
    solver's EigenvalueList as info.
    """
    if formulation not in FORMULATIONS:
        raise OutOfRange(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
    _check_order(params, N)
    if formulation == "green-kernel":
        w = weight_truncation(params, N)
        _check_dense("green-kernel", N, _DENSE_BYTES)
        ev = solve_green(_green_unweighted(w), w.masses)
    else:
        ev = _pencil_spectrum(params, N, formulation)
    return SpectrumResult(params, N, formulation, _select(ev.values, count), ev)


def cross_validate(params: SelfSimilarParams, N: int) -> CrossValidation:
    """Pairwise relative disagreement of the formulations at order N.

    fem-pencil and green-kernel solve the same truncated problem and must
    agree at every index, aligned by ascending order. jacobi-section is a
    finite section of the infinite problem and converges to its spectrum
    from the smallest magnitudes up, at a rate that depends on the point
    (geometrically in N at a = d = 1/2, far more slowly as a -> 1). So it is
    compared with fem-pencil, both ordered by magnitude (both signs for
    d < 0), only at the indices where it has measurably converged: where the
    sections of orders N and N - max(N//4, 1) agree to 1e-12 relative.
    """
    fem = compute_spectrum(params, N, "fem-pencil").values
    green = compute_spectrum(params, N, "green-kernel").values
    jac = _by_magnitude(compute_spectrum(params, N, "jacobi-section").values)
    coarse = N - max(N // 4, 1)
    prev = jac[:0]
    if coarse:
        prev = _by_magnitude(compute_spectrum(params, coarse, "jacobi-section").values)
    k = min(len(jac), len(prev), len(fem))
    converged = np.abs(jac[:k] - prev[:k]) <= 1e-12 * np.maximum(np.abs(jac[:k]), np.abs(prev[:k]))
    return CrossValidation(N, min(len(fem), len(green)), {
        "fem-pencil:green-kernel": _max_rel_diff(fem, green),
        "jacobi-section:fem-pencil": _max_rel_diff(
            jac[:k][converged], _by_magnitude(fem)[:k][converged]
        ),
    }, int(np.sum(converged)))


def _window_slice(n: int, window: tuple[int, int] | None, what: str) -> tuple[int, int]:
    if window is None:
        return 1, n
    k1, k2 = int(window[0]), int(window[1])
    if not 1 <= k1 <= k2 <= n:
        raise EmptyWindow(f"empty window {k1}:{k2} for {n} {what}")
    return k1, k2


def estimate_c(spec: SpectrumResult, window: tuple[int, int] | None = None) -> AsymptoticsReport:
    """Fit lambda_k ~ c * q^k over the window (1-based, inclusive).

    Single-signed spectra only; an alternating spectrum follows the
    two-branch law instead (see indefinite_report). c_estimate is the
    geometric mean of lambda_k / q^k over the window and carries the
    common sign of the spectrum.
    """
    if spec.params.d < 0:
        raise WrongSign("alternating spectrum: use indefinite_report for d < 0")
    vals = spec.values
    k1, k2 = _window_slice(len(vals), window, "eigenvalues")
    vw = vals[k1 - 1 : k2]
    if np.any(vw == 0.0) or (np.any(vw > 0.0) and np.any(vw < 0.0)):
        raise WrongSign("window mixes signs or contains zero; no single geometric law fits")
    q = spec.params.q
    per = vw / q ** np.arange(k1, k2 + 1, dtype=float)
    sign = 1.0 if per[0] > 0.0 else -1.0
    c = sign * math.exp(float(np.mean(np.log(np.abs(per)))))
    disp = float(np.max(np.abs(per - c) / abs(c)))
    ratios = vw[1:] / vw[:-1]
    return AsymptoticsReport(c, q, (k1, k2), per, disp, ratios)


def indefinite_report(
    spec: SpectrumResult, window: tuple[int, int] | None = None
) -> IndefiniteReport:
    """Two-branch fit for an alternating spectrum (d < 0).

    Pairs are indexed 1-based in the window argument; pair k holds the
    k-th smallest positive eigenvalue and the k-th smallest-magnitude
    negative one, j = k-1. The branch of the sign of r, which holds the
    smallest magnitude, follows c*q^(2j) and the other c*|q|^(2j+1); both
    share c, so the cross ratio (other branch over r's branch) tends to |q|.
    """
    if spec.params.d > 0:
        raise WrongSign("single-signed spectrum: use estimate_c for d > 0")
    vals = spec.values
    pos = np.sort(vals[vals > 0.0])
    neg = np.sort(vals[vals < 0.0])[::-1]  # increasing magnitude
    pairs = min(len(pos), len(neg))
    if pairs == 0:
        raise EmptyWindow("no positive/negative pairs in the spectrum")
    k1, k2 = _window_slice(pairs, window, "pairs")
    p = pos[k1 - 1 : k2]
    ng = neg[k1 - 1 : k2]
    j = np.arange(k1 - 1, k2, dtype=float)
    q2 = spec.params.q * spec.params.q
    absq = abs(spec.params.q)
    even, odd = (p, np.abs(ng)) if spec.params.r > 0 else (np.abs(ng), p)
    c_even, c_odd = even / q2 ** j, odd / absq ** (2.0 * j + 1.0)
    c_plus, c_minus = (c_even, c_odd) if spec.params.r > 0 else (c_odd, c_even)
    cross = odd / even
    return IndefiniteReport(
        positive=p,
        negative=ng,
        c_plus=c_plus,
        c_minus=c_minus,
        cross_ratios=cross,
        ratios_positive=p[1:] / p[:-1],
        ratios_negative=np.abs(ng[1:]) / np.abs(ng[:-1]),
        q_used=spec.params.q,
        window=(k1, k2),
    )


def verify_suite(params: SelfSimilarParams, N: int = 20) -> list[tuple[str, bool, str]]:
    """Internal consistency checks; returns (name, passed, detail) triples.

    Deterministic: the symmetry check's random pairs come from a fixed
    seed. Covers the fixed-point property of the step function (relative
    to max(|beta1|, |beta2|, 1)), formal symmetry of the section (relative
    to the size of the paired edge terms it cancels), the quadratic-form
    identity and boundary functional on eigenfunctions and agreement of the
    pencil and Green formulations (at the largest order the dense routes
    allow, if N is beyond it), and the inertia count: kept plus dropped
    eigenvalues make N, and the weight's negative masses lie between the
    kept negative eigenvalues and those plus the dropped ones. Each line
    names the order it ran at.
    """
    out = []
    rng = random.Random(1234)  # the stdlib generator: numpy.random is a large import

    depth = min(40, params.max_order)
    res = fixed_point_residual(params, depth)
    scale = max(abs(params.beta1), abs(params.beta2), 1.0)  # the plateau values grow with it
    out.append(("fixed-point residual", res <= 1e-12 * scale, f"{res:.3e} at depth {depth}"))

    M = min(N, params.max_order)
    # symmetry_defect sums paired edge terms w_(k+1)*d*q^k and w_k*q^k, each keeping a few
    # ulps of its own size: scale by those sizes, up to the order where (q/d)^k fits
    Ms = min(M, 1 + int(math.log(_ENTRY_CEIL) / math.log(abs(params.q / params.d))))
    k = np.arange(1, Ms, dtype=float)
    edge = 2.0 * np.abs(1.0 / params.d) ** (k - 1.0) * np.abs(params.q) ** k
    worst = 0.0
    for _ in range(20):
        u = np.array([rng.gauss(0.0, 1.0) for _ in range(Ms)])
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(Ms)])
        defect = abs(symmetry_defect(params, u, v, Ms))
        scale = float(np.sum(edge * np.abs(u[:-1] * v[1:] - u[1:] * v[:-1])))
        worst = max(worst, defect / scale if scale > 0.0 else defect)
    out.append(("symmetry defect", worst <= 1e-12, f"max {worst:.3e} over 20 pairs at order {Ms}"))

    # the eigenvectors and the Green matrix are N x N: at the largest order both allow, if N
    # is beyond it
    w = weight_truncation(params, M)
    Mv = min(M, _dense_max_order(_DENSE_BYTES))
    wv = w if Mv == M else weight_truncation(params, Mv)
    lam, Y, ev = pencil_eigenpairs(_fem_pencil(wv))
    worst_form = 0.0
    worst_bnd = 0.0
    for k in range(len(lam)):
        s = eigenfunction_slopes(wv, Y[:, k])
        lhs, rhs = quadratic_form_sides(params, s, lam[k])
        worst_form = max(worst_form, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        bscale = float(np.sum(params.a ** np.arange(len(s.values)) * np.abs(s.values)))
        worst_bnd = max(worst_bnd, abs(boundary_functional(params, s)) / bscale)
    out.append(("quadratic form identity", worst_form <= 1e-9,
                f"max rel {worst_form:.3e} at order {Mv}"))
    out.append(("boundary functional", worst_bnd <= 1e-9, f"max rel {worst_bnd:.3e} at order {Mv}"))

    fg = _max_rel_diff(lam, compute_spectrum(params, Mv, "green-kernel").values)
    out.append(("fem vs green spectra", fg <= 1e-10, f"max rel {fg:.3e} at order {Mv}"))
    if Mv < M:
        ev = solve_pencil(_fem_pencil(w))

    # eigenvalues beyond the range guard are dropped, of either sign
    neg_m = int(np.sum(w.masses < 0.0))
    neg_l, kept = int(np.sum(ev.values < 0.0)), len(ev.values)
    ok = kept + ev.dropped == M and neg_l <= neg_m <= neg_l + ev.dropped
    dropped = f", {ev.dropped} dropped beyond the range guard" if ev.dropped else ""
    out.append(("inertia count", ok, f"{neg_l} negative of {kept}, weight has {neg_m}{dropped}"))
    return out
