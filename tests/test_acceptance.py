"""Acceptance suite: the package's headline guarantees at fixed tolerances.

Each test covers one numbered guarantee, prints one PASS line with the
measured figure, and enforces the stated runtime budget. The canonical
parameters are a = 1/2, d = +-1/2, beta1 = 0, beta2 = 1 (q = +-4, r = 1/2).
"""

import inspect
import math
import time
from pathlib import Path

import numpy as np

import selfsimspec as ss
from conftest import canonical, run_cli
from selfsimspec import spectral

GOLDEN = Path(__file__).parent / "golden"
P = canonical()
PN = canonical(-1.0)


def _failing_verify(monkeypatch) -> int:
    """verify's exit code with a fixed-point residual far above its bound."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "fixed_point_residual", lambda params, depth: 1.0)
        return run_cli("verify", "--n", "8")[0]


def test_criterion_1_fixed_point():
    """fixed_point_residual <= 1e-12 at depth 40 for both signs of d."""
    t0 = time.perf_counter()
    worst = max(ss.fixed_point_residual(P, 40), ss.fixed_point_residual(PN, 40))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 0.1
    print(f"PASS criterion 1: fixed-point residual {worst:.3e} <= 1e-12 ({elapsed:.3f}s)")


def test_criterion_2_symmetry():
    """symmetry_defect <= 1e-12*||u||*||v|| over 100 pairs supported on
    1..N-1, N = 20, both signs of d."""
    t0 = time.perf_counter()
    N = 20
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p in (P, PN):
        for _ in range(100):
            u = rng.standard_normal(N - 1)
            v = rng.standard_normal(N - 1)
            bound = np.linalg.norm(u) * np.linalg.norm(v)
            worst = max(worst, abs(ss.symmetry_defect(p, u, v, N)) / bound)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"PASS criterion 2: symmetry defect {worst:.3e} of ||u||*||v|| ({elapsed:.3f}s)")


def test_criterion_3_equivalence_on_eigenpairs():
    """Both quadratic-form sides agree to 1e-9 relative and the boundary
    functional vanishes to 1e-9 for every N = 20 fem-pencil eigenpair."""
    t0 = time.perf_counter()
    worst_form = 0.0
    worst_bnd = 0.0
    for p in (P, PN):
        w = ss.weight_truncation(p, 20)
        pencil = ss.PencilProblem(ss.stiffness_matrix(w), ss.mass_matrix(w), 20)
        lam, Y, _ = ss.pencil_eigenpairs(pencil)
        for k in range(len(lam)):
            s = ss.eigenfunction_slopes(w, Y[:, k])
            lhs, rhs = ss.quadratic_form_sides(p, s, lam[k])
            worst_form = max(worst_form, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            worst_bnd = max(worst_bnd, abs(ss.boundary_functional(p, s)))
    elapsed = time.perf_counter() - t0
    assert worst_form <= 1e-9
    assert worst_bnd <= 1e-9
    assert elapsed < 1.0
    print(
        f"PASS criterion 3: form sides rel {worst_form:.3e}, "
        f"boundary {worst_bnd:.3e} ({elapsed:.3f}s)"
    )


def test_criterion_4_formulation_identity():
    """fem-pencil and green-kernel agree to 1e-10 at N in {2, 10, 30}; at
    N = 2 both match the closed forms for both signs of d to 1e-12."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in (P, PN):
        for N in (2, 10, 30):
            worst = max(worst, ss.cross_validate(p, N).max_rel_diff["fem-pencil:green-kernel"])
    closed = {
        1.0: np.array([11.0 - math.sqrt(57.0), 11.0 + math.sqrt(57.0)]),
        -1.0: np.array([-5.0 - math.sqrt(89.0), -5.0 + math.sqrt(89.0)]),
    }
    worst_closed = 0.0
    for sign, want in closed.items():
        for formulation in ("fem-pencil", "green-kernel"):
            got = ss.compute_spectrum(canonical(sign), 2, formulation).values
            worst_closed = max(worst_closed, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert worst_closed <= 1e-12
    assert elapsed < 1.0
    print(
        f"PASS criterion 4: fem vs green {worst:.3e}, closed forms {worst_closed:.3e} "
        f"({elapsed:.3f}s)"
    )


def test_criterion_5_finite_section_convergence():
    """Section eigenvalues k <= 10 move less than 1e-8 between N = 40 and
    N = 60 and sit within 1e-6 of the N = 60 fem-pencil values."""
    t0 = time.perf_counter()
    sec40 = ss.compute_spectrum(P, 40, "jacobi-section").values[:10]
    sec60 = ss.compute_spectrum(P, 60, "jacobi-section").values[:10]
    fem60 = ss.compute_spectrum(P, 60, "fem-pencil").values[:10]
    drift = float(np.max(np.abs(sec40 - sec60) / np.abs(sec60)))
    agree = float(np.max(np.abs(sec60 - fem60) / np.abs(fem60)))
    elapsed = time.perf_counter() - t0
    assert drift <= 1e-8
    assert agree <= 1e-6
    assert elapsed < 5.0
    print(
        f"PASS criterion 5: section drift {drift:.3e} <= 1e-8, "
        f"section vs fem {agree:.3e} <= 1e-6 ({elapsed:.3f}s)"
    )


def test_criterion_6_definite_asymptotics():
    """At N = 60 the ratios sit within 5% of q = 4 on [8, 20] and the per-k
    c over [12, 20] disperses below 2%; c itself is a frozen regression
    value from the first verified run."""
    t0 = time.perf_counter()
    spec = ss.compute_spectrum(P, 60, "green-kernel")
    ratios = ss.estimate_c(spec, (8, 21)).ratios  # quotients for k = 8..20
    rep = ss.estimate_c(spec, (12, 20))
    elapsed = time.perf_counter() - t0
    assert float(np.max(np.abs(ratios - 4.0))) <= 0.05 * 4.0
    assert rep.max_rel_dispersion <= 0.02
    assert abs(rep.c_estimate - 1.0000000000000004) <= 1e-12  # frozen baseline
    assert elapsed < 10.0
    print(
        f"PASS criterion 6: ratios off by {float(np.max(np.abs(ratios - 4.0))):.3e}, "
        f"c = {rep.c_estimate!r} dispersion {rep.max_rel_dispersion:.3e} ({elapsed:.3f}s)"
    )


def test_criterion_7_indefinite_asymptotics():
    """At N = 40 both branch ratios sit within 10% of q^2 = 16 and the
    cross ratios within 10% of |q| = 4 over the stable pair window; the
    inertia equals the negative-mass count at N in {2, 10, 40}."""
    t0 = time.perf_counter()
    spec = ss.compute_spectrum(PN, 40, "fem-pencil")
    # pairs 3..16 converged at this order (drift below 1e-3 against N = 20)
    rep = ss.indefinite_report(spec, (3, 16))
    worst_plus = float(np.max(np.abs(rep.ratios_positive - 16.0)))
    worst_minus = float(np.max(np.abs(rep.ratios_negative - 16.0)))
    worst_cross = float(np.max(np.abs(rep.cross_ratios - 4.0)))
    inertia_ok = True
    for N in (2, 10, 40):
        vals = ss.compute_spectrum(PN, N, "fem-pencil").values
        w = ss.weight_truncation(PN, N)
        inertia_ok &= int(np.sum(vals < 0)) == int(np.sum(w.masses < 0))
        inertia_ok &= len(vals) == N
    elapsed = time.perf_counter() - t0
    assert worst_plus <= 0.10 * 16.0
    assert worst_minus <= 0.10 * 16.0
    assert worst_cross <= 0.10 * 4.0
    assert inertia_ok
    assert elapsed < 10.0
    print(
        f"PASS criterion 7: branch ratios off {worst_plus:.3e}/{worst_minus:.3e}, "
        f"cross off {worst_cross:.3e}, inertia exact ({elapsed:.3f}s)"
    )


def test_criterion_8_eigensolver_oracles():
    """Bisection reproduces (15 +- sqrt(113))/2 on the order-2 section,
    Sturm counts are monotone over 1000 probes, and the N = 12 and N = 11
    sections interlace."""
    t0 = time.perf_counter()
    got = ss.tridiag_eigs(ss.symmetrized_section(P, 2)).values
    want = np.array([(15.0 - math.sqrt(113.0)) / 2.0, (15.0 + math.sqrt(113.0)) / 2.0])
    closed = float(np.max(np.abs(got - want) / want))

    T = ss.symmetrized_section(P, 10)
    rng = np.random.default_rng(8)
    xs = np.sort(rng.uniform(-10.0, float(T.diag[-1]) * 1.1, size=1000))
    counts = [ss.sturm_count(T, x) for x in xs]
    monotone = all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))

    big = ss.tridiag_eigs(ss.symmetrized_section(P, 12)).values
    small = ss.tridiag_eigs(ss.symmetrized_section(P, 11)).values
    interlaced = all(
        big[k] <= small[k] * (1 + 1e-12) and small[k] <= big[k + 1] * (1 + 1e-12)
        for k in range(11)
    )
    elapsed = time.perf_counter() - t0
    assert closed <= 1e-12
    assert monotone
    assert interlaced
    assert elapsed < 1.0
    print(
        f"PASS criterion 8: closed forms {closed:.3e}, 1000-probe monotone, "
        f"interlacing holds ({elapsed:.3f}s)"
    )


def test_criterion_9_cli_contract(monkeypatch):
    """Golden bytes for weight, ABinv matrix (N = 3) and spectrum (N = 2);
    exit codes 0, 1, 2, 3 all observed."""
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        "weight", "--a", "0.5", "--d", "0.5", "--beta1", "0", "--beta2", "1",
        "--n", "3", "--format", "csv",
    )
    assert code == 0 and out == (GOLDEN / "weight_n3.csv").read_text()
    code, out, _ = run_cli("matrix", "--kind", "ABinv", "--n", "3")
    assert code == 0 and out == (GOLDEN / "matrix_abinv_n3.json").read_text()
    code, out, _ = run_cli("spectrum", "--n", "2", "--formulation", "fem")
    assert code == 0 and out == (GOLDEN / "spectrum_n2.json").read_text()

    codes = {
        0: run_cli("spectrum", "--n", "2")[0],
        1: _failing_verify(monkeypatch),
        2: run_cli("weight", "--a", "1.5")[0],
        3: run_cli("matrix", "--n", "500")[0],
    }
    elapsed = time.perf_counter() - t0
    assert codes == {0: 0, 1: 1, 2: 2, 3: 3}
    assert elapsed < 1.0
    print(f"PASS criterion 9: goldens byte-identical, exit codes 0/1/2/3 ({elapsed:.3f}s)")


def test_public_names_are_pinned():
    """__all__ is sorted, has no duplicates, and is exactly the public names the
    package imports, so a deleted function cannot leave a stale export."""
    names = ss.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    assert all(hasattr(ss, name) for name in names)
    public = {n for n, v in vars(ss).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(names)
