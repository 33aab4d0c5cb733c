"""Spectra of the weighted problem and their geometric asymptotics.

Three formulations of the same eigenvalue problem:

* "jacobi-section": bisection on the symmetrized slope-operator section,
  eigenvalues divided by r (d > 0 only);
* "fem-pencil": inertia-count bisection on the tridiagonal stiffness
  matrix against the diagonal mass matrix, O(N) per probe, for either
  sign of d;
* "green-kernel": the Green kernel matrix diagonalized by Jacobi
  rotations, O(N^3); its eigenvalues are the reciprocals. It shares no
  solver code with the other two and serves as their independent check.

compute_spectrum produces them, cross_validate compares them pairwise,
estimate_c and indefinite_report check the geometric laws lambda_k ~ c*q^k
(single sign) and lambda_(+/-j) ~ +/- c*q^(2j) (alternating signs), and
verify_suite bundles the package's internal consistency checks for the
command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyWindow,
    IndefiniteCase,
    NotPositiveDefinite,
    OutOfRange,
    WrongSign,
    ZeroEigenvalue,
)
from .eigensolve import (
    _MU_GUARD,
    PencilProblem,
    _jacobi,
    pencil_eigenpairs,
    solve_pencil,
    tridiag_eigs,
)
from .operators import (
    _green_unweighted,
    boundary_functional,
    eigenfunction_slopes,
    mass_matrix,
    quadratic_form_sides,
    section,
    stiffness_matrix,
    symmetrized_section,
    symmetry_defect,
)
from .selfsim import SelfSimilarParams, fixed_point_residual, weight_truncation

FORMULATIONS = ("jacobi-section", "fem-pencil", "green-kernel")


@dataclass(frozen=True)
class SpectrumResult:
    """Selected eigenvalues of one formulation, ascending by value."""

    params: SelfSimilarParams
    order: int
    formulation: str
    values: np.ndarray
    dropped: int = 0


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
    The laws are pos_j ~ c * q^(2j), |neg_j| ~ c * |q|^(2j+1), so the
    in-branch ratios approach q^2 and the cross ratios |neg_j| / pos_j
    approach |q|.
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
    """Worst relative eigenvalue disagreement between formulation pairs."""

    order: int
    count: int
    max_rel_diff: dict[str, float]


def _dense_cholesky(H: np.ndarray) -> np.ndarray:
    """Lower triangular L with L L^T = H for dense symmetric positive definite H."""
    n = H.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        piv = H[j, j] - L[j, :j] @ L[j, :j]
        if not piv > 0.0:
            raise NotPositiveDefinite(f"pivot {piv!r} at row {j + 1}")
        L[j, j] = math.sqrt(piv)
        L[j + 1 :, j] = (H[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def _drop_tiny(mu: np.ndarray) -> tuple[np.ndarray, int]:
    keep = np.abs(mu) >= _MU_GUARD
    if not keep.any():
        raise ZeroEigenvalue("all reciprocal eigenvalues below the underflow guard")
    return mu[keep], int(np.sum(~keep))


def _green_values(params: SelfSimilarParams, N: int, tol: float) -> tuple[np.ndarray, int]:
    """Eigenvalues via the Green kernel: reciprocals of a bounded matrix.

    With W = sqrt(|m|) and S = sign(m), the similarity transform of
    G*diag(m) is H*S with H = W G W symmetric positive definite. For a
    positive weight H itself is diagonalized; otherwise H = L L^T turns
    H S z = mu z into the symmetric problem (L^T S L) w = mu w.
    """
    w = weight_truncation(params, N)
    G = _green_unweighted(w)
    m = w.masses
    W = np.sqrt(np.abs(m))
    H = W[:, None] * G * W[None, :]
    H = 0.5 * (H + H.T)
    if np.all(m > 0.0):
        mu, _, _ = _jacobi(H, tol, want_vectors=False)
    else:
        L = _dense_cholesky(H)
        sig = np.sign(m)
        T = L.T @ (sig[:, None] * L)
        T = 0.5 * (T + T.T)
        mu, _, _ = _jacobi(T, tol, want_vectors=False)
    mu, dropped = _drop_tiny(mu)
    return np.sort(1.0 / mu), dropped


def _fem_pencil(params: SelfSimilarParams, N: int) -> PencilProblem:
    """The hat-function stiffness/mass pencil of the order-N truncation."""
    w = weight_truncation(params, N)
    return PencilProblem(stiffness_matrix(w), mass_matrix(w), N)


def _select(values: np.ndarray, count: int | None) -> np.ndarray:
    """The count eigenvalues of smallest magnitude, returned ascending."""
    if count is None:
        return values
    if count < 0:
        raise OutOfRange(f"count must be >= 0, got {count}")
    if count > len(values):
        raise OutOfRange(f"count {count} exceeds the {len(values)} available eigenvalues")
    order = np.lexsort((values, np.abs(values)))
    return np.sort(values[order[:count]])


def compute_spectrum(
    params: SelfSimilarParams,
    N: int,
    formulation: str = "fem-pencil",
    count: int | None = None,
    tol: float = 1e-13,
) -> SpectrumResult:
    """Eigenvalues of the order-N problem in the requested formulation.

    count selects that many eigenvalues of smallest magnitude (all when
    None); values are stored ascending by signed value. The three
    formulations agree to near machine precision; "jacobi-section" exists
    for d > 0 only and divides the section eigenvalues by r.
    """
    if formulation not in FORMULATIONS:
        raise OutOfRange(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")
    if formulation == "jacobi-section":
        if params.d < 0:
            raise IndefiniteCase("jacobi-section needs d > 0; use fem-pencil or green-kernel")
        ev = tridiag_eigs(symmetrized_section(params, N), tol=max(tol, 1e-15))
        values, dropped = np.sort(ev.values / params.r), 0
    elif formulation == "fem-pencil":
        ev = solve_pencil(_fem_pencil(params, N), tol)
        values, dropped = ev.values, ev.dropped
    else:
        values, dropped = _green_values(params, N, tol)
    return SpectrumResult(params, N, formulation, _select(values, count), dropped)


def cross_validate(
    params: SelfSimilarParams, N: int, count: int | None = None, tol: float = 1e-13
) -> CrossValidation:
    """Pairwise relative disagreement of the formulations at order N.

    Always compares fem-pencil against green-kernel, which solve the same
    truncated problem and must agree at every index. When d > 0 it also
    compares jacobi-section against fem-pencil, but only over the first
    N//2 indices: the finite section converges to the spectrum from the
    bottom (the error at index k shrinks geometrically in N - k), so its
    top indices never match any fixed truncation. Eigenvalues are aligned
    by ascending order.
    """
    fem = compute_spectrum(params, N, "fem-pencil", count, tol).values
    green = compute_spectrum(params, N, "green-kernel", count, tol).values
    diffs = {}

    def _pair(a: np.ndarray, b: np.ndarray, upto: int | None = None) -> float:
        n = min(len(a), len(b)) if upto is None else min(len(a), len(b), upto)
        if n == 0:
            return 0.0
        denom = np.maximum(np.abs(a[:n]), np.abs(b[:n]))
        return float(np.max(np.abs(a[:n] - b[:n]) / denom))

    diffs["fem-pencil:green-kernel"] = _pair(fem, green)
    if params.d > 0:
        jac = compute_spectrum(params, N, "jacobi-section", count, tol).values
        diffs["jacobi-section:fem-pencil"] = _pair(jac, fem, upto=max(N // 2, 1))
    used = count if count is not None else min(len(fem), len(green))
    return CrossValidation(N, used, diffs)


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
    negative one. Branch constants come from pos ~ c*q^(2j) and
    |neg| ~ c*|q|^(2j+1) with j = k-1; both branches share c, so the
    cross ratio tends to |q|.
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
    c_plus = p / q2 ** j
    c_minus = np.abs(ng) / absq ** (2.0 * j + 1.0)
    cross = np.abs(ng) / p
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


def stable_window(
    params: SelfSimilarParams,
    N: int,
    formulation: str = "green-kernel",
    min_k: int = 8,
    rel: float = 1e-4,
) -> tuple[int, int]:
    """Largest index window where the order-N spectrum has converged.

    Compares against order N//2 and keeps the contiguous run of indices
    k >= min_k whose eigenvalues moved by less than rel; the low indices
    are excluded because the geometric law is asymptotic, the high ones
    because they still feel the truncation.
    """
    if params.d < 0:
        raise WrongSign("stable_window applies to single-signed spectra")
    if N < 2 * min_k:
        raise EmptyWindow(f"order {N} too small for a window starting at {min_k}")
    full = compute_spectrum(params, N, formulation).values
    half = compute_spectrum(params, max(N // 2, 1), formulation).values
    limit = min(len(full), len(half))
    k = min_k
    if k > limit:
        raise EmptyWindow(f"no indices at or beyond {min_k} to compare")
    while k <= limit:
        err = abs(full[k - 1] - half[k - 1]) / max(abs(full[k - 1]), abs(half[k - 1]))
        if err > rel:
            break
        k += 1
    if k == min_k:
        raise EmptyWindow(f"no stable indices at or beyond {min_k}")
    return min_k, k - 1


def verify_suite(
    params: SelfSimilarParams, N: int = 20, seed: int = 1234
) -> list[tuple[str, bool, str]]:
    """Internal consistency checks; returns (name, passed, detail) triples.

    Deterministic for a given seed. Covers the fixed-point property of the
    step function, formal symmetry of the section (relative to the size of
    the paired edge terms it cancels), the quadratic-form
    identity and boundary functional on eigenfunctions, agreement of the
    pencil and Green formulations, and the inertia count.
    """
    out = []
    rng = np.random.default_rng(seed)

    depth = min(40, params.max_order)
    res = fixed_point_residual(params, depth)
    out.append(("fixed-point residual", res <= 1e-12, f"{res:.3e} at depth {depth}"))

    M = min(N, params.max_order)
    # symmetry_defect sums paired edge terms w_(k+1)*d*q^k and w_k*q^k, each
    # of which keeps a few ulps of its own size: scale by those sizes
    k = np.arange(1, M, dtype=float)
    edge = 2.0 * np.abs(1.0 / params.d) ** (k - 1.0) * np.abs(params.q) ** k
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(M)
        v = rng.standard_normal(M)
        defect = abs(symmetry_defect(params, u, v, M))
        scale = float(np.sum(edge * np.abs(u[:-1] * v[1:] - u[1:] * v[:-1])))
        worst = max(worst, defect / scale if scale > 0.0 else defect)
    out.append(("symmetry defect", worst <= 1e-12, f"max {worst:.3e} over 20 pairs"))

    lam, Y, _ = pencil_eigenpairs(_fem_pencil(params, M))
    w = weight_truncation(params, M)
    worst_form = 0.0
    worst_bnd = 0.0
    for k in range(len(lam)):
        s = eigenfunction_slopes(w, Y[:, k])
        lhs, rhs = quadratic_form_sides(params, s, lam[k])
        worst_form = max(worst_form, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        bscale = float(np.sum(params.a ** np.arange(len(s.values)) * np.abs(s.values)))
        worst_bnd = max(worst_bnd, abs(boundary_functional(params, s)) / bscale)
    out.append(("quadratic form identity", worst_form <= 1e-9, f"max rel {worst_form:.3e}"))
    out.append(("boundary functional", worst_bnd <= 1e-9, f"max rel {worst_bnd:.3e}"))

    cv = cross_validate(params, M)
    fg = cv.max_rel_diff["fem-pencil:green-kernel"]
    out.append(("fem vs green spectra", fg <= 1e-10, f"max rel {fg:.3e} at order {M}"))

    neg_m = int(np.sum(w.masses < 0.0))
    neg_l = int(np.sum(lam < 0.0))
    ok = neg_l == neg_m and len(lam) == M
    out.append(("inertia count", ok, f"{neg_l} negative of {len(lam)}, weight has {neg_m}"))
    return out
