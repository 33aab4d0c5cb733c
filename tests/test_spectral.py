import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import selfsimspec as ss
from selfsimspec import eigensolve, operators, spectral
from conftest import canonical, contraction_params, run_cli

P = canonical()
PN = canonical(-1.0)


def _synthetic(params, values):
    return ss.SpectrumResult(params, len(values), "fem-pencil", np.asarray(values, float))


class TestComputeSpectrum:
    def test_closed_forms_order_two(self):
        fem = ss.compute_spectrum(P, 2, "fem-pencil").values
        green = ss.compute_spectrum(P, 2, "green-kernel").values
        want = [11.0 - math.sqrt(57.0), 11.0 + math.sqrt(57.0)]
        np.testing.assert_allclose(fem, want, rtol=1e-13)
        np.testing.assert_allclose(green, want, rtol=1e-13)

    def test_section_closed_form_order_two(self):
        # the order-2 finite section has its own exact eigenvalues
        # (15 +- sqrt(113))/2, divided by r = 1/2
        got = ss.compute_spectrum(P, 2, "jacobi-section").values
        want = [15.0 - math.sqrt(113.0), 15.0 + math.sqrt(113.0)]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_indefinite_closed_form(self):
        for formulation in ("fem-pencil", "green-kernel"):
            got = ss.compute_spectrum(PN, 2, formulation).values
            want = [-5.0 - math.sqrt(89.0), -5.0 + math.sqrt(89.0)]
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_section_closed_form_indefinite(self):
        """The order-2 section of d = -1/2: T = [[3, sqrt(8)], [sqrt(8), 12]]
        against r*S = diag(1/2, -1/2) has eigenvalues -9 -+ sqrt(193)."""
        got = ss.compute_spectrum(PN, 2, "jacobi-section").values
        want = [-9.0 - math.sqrt(193.0), -9.0 + math.sqrt(193.0)]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_unknown_formulation(self):
        with pytest.raises(ss.OutOfRange):
            ss.compute_spectrum(P, 4, "qr")

    @pytest.mark.parametrize("formulation", ss.FORMULATIONS)
    def test_order_beyond_the_guard_overflows(self, formulation):
        """Past max_order the eigenvalue guard would drop eigenvalues from
        the pencil and Green routes, so every formulation refuses instead."""
        with pytest.raises(ss.RangeOverflow):
            ss.compute_spectrum(P, P.max_order + 1, formulation)

    def test_green_refuses_an_order_beyond_its_memory_budget(self):
        """(0.99, 0.99) allows order 33220, where one N x N array is 8.8 GB:
        green-kernel refuses before allocating anything of that size."""
        p = ss.make_params(0.99, 0.99, 0.0, 1.0)
        assert p.max_order > 20000
        start = time.perf_counter()
        top = operators._dense_max_order(eigensolve._DENSE_BYTES)
        with pytest.raises(ss.OutOfRange, match=f"order 20000 exceeds {top}"):
            ss.compute_spectrum(p, 20000, "green-kernel")
        assert time.perf_counter() - start < 1.0

    def test_canonical_fem_has_converged_at_the_fit_window(self):
        """Orders 60 and 30 agree to 1e-4 at indices 8..20 (2.0e-10 measured), so
        the geometric-law fits there see the infinite problem's eigenvalues."""
        full = ss.compute_spectrum(P, 60).values[7:20]
        half = ss.compute_spectrum(P, 30).values[7:20]
        assert np.max(np.abs(full - half) / np.maximum(np.abs(full), np.abs(half))) <= 1e-4

    def test_count_selects_smallest_magnitude(self):
        spec = ss.compute_spectrum(PN, 10, "fem-pencil", count=2)
        assert len(spec.values) == 2
        full = ss.compute_spectrum(PN, 10, "fem-pencil").values
        want = sorted(sorted(full, key=abs)[:2])
        np.testing.assert_array_equal(spec.values, want)
        assert spec.values[0] < 0 < spec.values[1]

    def test_count_bounds(self):
        assert len(ss.compute_spectrum(P, 3, count=0).values) == 0
        with pytest.raises(ss.OutOfRange):
            ss.compute_spectrum(P, 3, count=4)
        with pytest.raises(ss.OutOfRange):
            ss.compute_spectrum(P, 3, count=-1)

    def test_values_ascending(self):
        for p in (P, PN):
            vals = ss.compute_spectrum(p, 12, "green-kernel").values
            assert np.all(np.diff(vals) > 0)


class TestInertiaCore:
    @given(contraction_params(), st.integers(2, 80))
    @settings(deadline=None, max_examples=30)
    def test_pencil_matches_green_and_inertia(self, p, N):
        """pytest turns RuntimeWarning into an error, so this also checks
        that no numpy warning leaks anywhere in the domain."""
        N = min(N, p.max_order)
        fem = ss.compute_spectrum(p, N, "fem-pencil")
        green = ss.compute_spectrum(p, N, "green-kernel").values
        assert fem.dropped == 0 and len(fem.values) == N
        np.testing.assert_allclose(fem.values, green, rtol=1e-10)
        masses = ss.weight_truncation(p, N).masses
        assert int(np.sum(fem.values < 0.0)) == int(np.sum(masses < 0.0))

    @given(contraction_params(edge=0.99), st.integers(2, 40))
    @settings(deadline=None, max_examples=25)
    def test_green_matches_pencil_toward_the_domain_edge(self, p, N):
        """Toward a -> 1 and a*d^2 -> 1 the weight is barely graded and
        Jacobi needs the most sweeps; no warning may leak there either."""
        N = min(N, p.max_order)
        fem = ss.compute_spectrum(p, N, "fem-pencil").values
        green = ss.compute_spectrum(p, N, "green-kernel").values
        np.testing.assert_allclose(fem, green, rtol=1e-10)

    @pytest.mark.parametrize("N", [60, 150])
    def test_canonical_green_matches_pencil(self, N):
        """A norm-wise stop ends Jacobi sweeps early (2e-8 off here);
        the relative stop keeps the Green route at pencil accuracy."""
        fem = ss.compute_spectrum(P, N, "fem-pencil").values
        green = ss.compute_spectrum(P, N, "green-kernel").values
        np.testing.assert_allclose(green, fem, rtol=1e-13)

    def test_green_keeps_digits_at_a_weakly_graded_point(self):
        """At (0.99, 0.99) the relative couplings die off slowly with |i - j|;
        round-robin sweeps left 4.6e-13 against fem here, sweeps that go out
        from the diagonal band by band 9e-14."""
        p = ss.make_params(0.99, 0.99, 0.0, 1.0)
        fem = ss.compute_spectrum(p, 150, "fem-pencil").values
        green = ss.compute_spectrum(p, 150, "green-kernel").values
        assert np.max(np.abs(green - fem) / np.abs(fem)) <= 2e-13

    @pytest.mark.parametrize("N", [10, 150])
    def test_pencil_keeps_eigenvalues_near_the_pivot_floor(self, N):
        """At beta2 = 1e300 the eigenvalues sit near 1e-300, the beta2 = 1
        ones scaled by 1e-300; a bracket stop with an absolute 1e-300 term
        and no rescaling left 4e-3."""
        tiny = ss.compute_spectrum(ss.make_params(0.5, 0.5, 0.0, 1e300), N).values
        unit = ss.compute_spectrum(P, N).values
        np.testing.assert_allclose(tiny, unit / 1e300, rtol=1e-12)

    @pytest.mark.parametrize("beta2", [1e289, 1e300])
    def test_pencil_keeps_full_accuracy_at_huge_beta2(self, beta2):
        """beta2 only scales the masses, so the spectrum is the beta2 = 1 one
        over beta2, reaching from ~1e-289 to ~1e0 at N = 481; an absolute
        1e-300 term in the bracket stop leaves 4.9e-13 at 1e289."""
        N = P.max_order
        big = ss.compute_spectrum(ss.make_params(0.5, 0.5, 0.0, beta2), N).values
        unit = ss.compute_spectrum(P, N).values
        np.testing.assert_allclose(big, unit / beta2, rtol=1e-14)

    @pytest.mark.parametrize("beta2,N", [(1e-100, 481), (1e-200, 411), (1e-250, 245)])
    def test_green_matches_pencil_at_tiny_masses(self, beta2, N):
        """W G W underflowed at tiny masses and LAPACK's Cholesky refused it at orders fem
        solves (from N ~ 370 at 1e-100, 206 at 1e-200, ~120 at 1e-250); solve_green scales
        the masses by an even power of two, and mu back, exactly. N is max_order here."""
        p = ss.make_params(0.5, 0.5, 0.0, beta2)
        assert p.max_order == N
        fem = ss.compute_spectrum(p, N, "fem-pencil")
        green = ss.compute_spectrum(p, N, "green-kernel")
        assert green.dropped == fem.dropped > 0
        assert np.max(np.abs(green.values - fem.values) / np.abs(fem.values)) <= 1e-13

    @pytest.mark.parametrize("args,N,rtol", [((0.9, 0.9, 0.0, 1e308), 60, 1e-13),
                                             ((0.9, 0.9, 0.0, 1e308), 300, 1e-13),
                                             ((0.999, 0.999, 1e-308, 1e308), 100, 1e-12)])
    def test_green_matches_pencil_at_huge_masses(self, args, N, rtol):
        """Masses near 1e308: unscaled, L^T S L overflowed (a RuntimeWarning, eigenvalues up
        to 0.149 off fem at (0.9, 0.9) N = 60, a non-finite Jacobi coupling at (0.999, 0.999)
        N = 1000). solve_green scales the largest mass to about 1 whatever its size. The
        weakly graded point keeps fewer digits at the top of its spectrum."""
        p = ss.make_params(*args)
        fem = ss.compute_spectrum(p, N, "fem-pencil")
        green = ss.compute_spectrum(p, N, "green-kernel")
        assert green.dropped == fem.dropped == 0
        np.testing.assert_allclose(green.values, fem.values, rtol=rtol)

    def test_section_reaches_max_order(self):
        """Sturm counts no longer square the off-diagonal, so the section
        runs at every order the range guard admits."""
        N = P.max_order
        sec = ss.compute_spectrum(P, N, "jacobi-section").values
        fem = ss.compute_spectrum(P, N, "fem-pencil").values
        k = N // 2
        np.testing.assert_allclose(sec[:k], fem[:k], rtol=1e-12)

    @given(contraction_params(edge=0.99), st.integers(2, 300))
    @settings(deadline=None, max_examples=30)
    def test_section_inertia_for_either_sign(self, p, N):
        """Across the domain the section solves without a warning and has
        as many negative eigenvalues as its masses r*S have negative
        entries (all kept unless beyond the range guard)."""
        N = min(N, p.max_order)
        sec = ss.compute_spectrum(p, N, "jacobi-section")
        assert len(sec.values) + sec.dropped == N
        n_neg = int(np.sum(p.r * np.sign(p.d) ** np.arange(N) < 0.0))
        if sec.dropped == 0:
            assert int(np.sum(sec.values < 0.0)) == n_neg

    def test_indefinite_section_reaches_max_order(self):
        """For d < 0 the section's signature gives its inertia: as many
        negative eigenvalues as r*S has negative entries; its N//2
        smallest magnitudes match fem."""
        N = PN.max_order
        sec = ss.compute_spectrum(PN, N, "jacobi-section")
        fem = ss.compute_spectrum(PN, N, "fem-pencil", count=N // 2).values
        assert sec.dropped == 0 and len(sec.values) == N
        assert int(np.sum(sec.values < 0.0)) == int(np.sum(PN.r * (-1.0) ** np.arange(N) < 0.0))
        near = ss.compute_spectrum(PN, N, "jacobi-section", count=N // 2).values
        np.testing.assert_allclose(near, fem, rtol=1e-12)


# Points where a and |d| are powers of two, so that order continuation fires.
DYADIC = [(0.5, 0.5, 0.0, 1.0), (0.5, -0.5, 0.0, 1.0), (0.5, 0.25, 0.0, 1.0), (0.25, 0.5, 0.0, 1.0),
          (0.25, -1.0, 0.0, 1.0), (0.5, 1.0, 0.0, 1.0), (0.125, 2.0, 0.5, 1.0)]
PENCIL_FORMS = ("fem-pencil", "jacobi-section")


def _pencil(p, N, form):
    if form == "fem-pencil":
        return spectral._fem_pencil(ss.weight_truncation(p, N))
    return spectral._section_pencil(p, N)


def _check_direct(spec, pencil):
    """compute_spectrum's values and dropped equal solve_pencil's on the order-N pencil, bit for
    bit, except at an index where the count changes more than once between the two values:
    roundoff makes it non-monotone there, and either change is an answer of the count."""
    want = ss.solve_pencil(pencil)
    assert spec.dropped == want.dropped and len(spec.values) == len(want.values)
    K, M = pencil.K, pencil.M
    below = int(eigensolve._counts_below(K.diag, K.offdiag, M, [-1.0 / eigensolve._MU_GUARD])[0])
    for i in np.flatnonzero(spec.values != want.values):
        lo, hi = sorted((spec.values[i], want.values[i]))
        ulp = np.spacing(min(abs(lo), abs(hi)))
        xs = lo + ulp * np.arange(-2, (hi - lo) / ulp + 3)
        assert len(xs) < 10**5
        up = eigensolve._counts_below(K.diag, K.offdiag, M, xs) > below + i
        assert not up[np.argmax(up):].all(), (i, spec.values[i], want.values[i])
    return want


class TestOrderContinuation:
    """Where a and |d| are powers of two, compute_spectrum solves the fem and section pencils
    of order N from the base order M = K0 + T + 1, solved directly, and certifies the mapped
    candidates by one count."""

    @pytest.mark.parametrize("form", PENCIL_FORMS)
    @pytest.mark.parametrize("args", DYADIC)
    def test_self_similarity_is_exact(self, args, form):
        """The two identities the candidates rest on, bit for bit, at the helper's own K0 and
        T: lambda_(k+1)(N) = q*lambda_k(N-1) for k >= K0 and lambda_k(N) = lambda_k(N-1)
        below depth T, by magnitude, 0-based. The depths measured at N = 200 lie within them:
        K0 3-7, fem T 10-27 and section T 17-53."""
        p, N = ss.make_params(*args), 200
        k0, T = spectral._exact_depths(p, form)
        big, small = (spectral._by_magnitude(ss.solve_pencil(_pencil(p, n, form)).values)
                      for n in (N, N - 1))
        assert len(big) == N and len(small) == N - 1
        np.testing.assert_array_equal(big[k0 + 1 :], p.q * small[k0:])
        np.testing.assert_array_equal(big[: N - 1 - T], small[: N - 1 - T])

    @pytest.mark.parametrize("form", PENCIL_FORMS)
    @given(st.sampled_from((0.5, 0.25, 0.125)), st.integers(-1, 12), st.sampled_from((1.0, -1.0)),
           st.floats(-1.0, 1.0), st.floats(-1.0, 2.0), st.integers(1, 1000))
    @settings(deadline=None, max_examples=25)
    def test_continued_equals_direct(self, form, a, k, sign, beta1, beta2, N):
        """Over dyadic a and d = +-2^-k in the contraction domain, up to max_order."""
        d = sign * 2.0**-k
        assume(a * d * d < 1.0 and abs(d * beta1 + beta2 - beta1) >= 0.1)
        p = ss.make_params(a, d, beta1, beta2)
        N = min(N, p.max_order)
        spec = ss.compute_spectrum(p, N, form)
        _check_direct(spec, _pencil(p, N, form))
        assert spec.info.levels >= 1 + (N > sum(spectral._exact_depths(p, form)) + 1)

    @pytest.mark.parametrize("form", PENCIL_FORMS)
    @pytest.mark.parametrize("args,N", [
        *[(args, N) for args in DYADIC[:2] for N in (20, 60, 150, 300)],
        ((0.5, 0.5, 0.0, 1e308), 481), ((0.5, 0.5, 0.0, 1e-250), 245), ((0.5, 1.0, 0.0, 1.0), 963),
    ])
    def test_ladders_and_extremes_are_bit_identical(self, args, N, form):
        """The benchmark's dyadic ladders, masses near 1e308 and 1e-250, and q = 2 at its
        max_order."""
        p = ss.make_params(*args)
        spec = ss.compute_spectrum(p, N, form)
        want = _check_direct(spec, _pencil(p, N, form))
        np.testing.assert_array_equal(spec.values, want.values)

    @pytest.mark.parametrize("args", DYADIC[:2])
    @pytest.mark.parametrize("form,N", [*[("fem-pencil", N) for N in (60, 150, 300, 481)],
                                        *[("jacobi-section", N) for N in (150, 300, 481)]])
    def test_middle_is_exactly_q_geometric(self, args, N, form):
        """The ladders' dyadic classes: by magnitude, 0-based, lambda_(k+1) = q*lambda_k bit
        for bit for K0 <= k < N - T - 2, and the middle is mag_K0 * q^i of the base order M =
        K0 + T + 1, as the guess takes it. (Not every dyadic point is exact there: a few
        section solves at a = 1/2, d = -1/8 miss it at one index, and the counts close it.)"""
        p = ss.make_params(*args)
        k0, T = spectral._exact_depths(p, form)
        spec = ss.compute_spectrum(p, N, form)
        mag = spectral._by_magnitude(spec.values)
        base = spectral._by_magnitude(ss.compute_spectrum(p, k0 + T + 1, form).values)
        assert len(mag) == N and spec.info.levels == 2
        np.testing.assert_array_equal(mag[k0 + 1 : N - T - 1], p.q * mag[k0 : N - T - 2])
        np.testing.assert_array_equal(mag[k0 : N - T - 1],
                                      base[k0] * p.q ** np.arange(N - T - 1 - k0))

    @pytest.mark.parametrize("form", PENCIL_FORMS)
    @pytest.mark.parametrize("args,N", [((0.5, 0.5, 0.0, 1e-285), 129),
                                        ((0.25, 0.25, 0.0, 1e-283), 68)])
    def test_base_keeping_at_most_k0_eigenvalues(self, args, N, form):
        """Masses near the range guard: the base order keeps only its K0 smallest
        magnitudes, and those are the whole guess, with no middle (reading mag_K0 raised
        IndexError). The values and dropped are the direct solve's."""
        p = ss.make_params(*args)
        k0, T = spectral._exact_depths(p, form)
        assert len(ss.compute_spectrum(p, k0 + T + 1, form).values) <= k0
        spec = ss.compute_spectrum(p, N, form)
        want = ss.solve_pencil(_pencil(p, N, form))
        np.testing.assert_array_equal(spec.values, want.values)
        assert spec.dropped == want.dropped and spec.info.levels == 2

    def test_counts_summed_over_levels_at_canonical_order_300(self, monkeypatch):
        """The direct solve takes 9 counts and 3 Rayleigh sweeps here. Continued, the base
        order 29 is solved directly (5 counts, 3 sweeps) and order 300 takes one count: 6
        counts over 2 levels, the sweeps all at the base."""
        sweeps, twist = [], eigensolve._twist
        monkeypatch.setattr(eigensolve, "_twist", lambda *a: sweeps.append(len(a[3])) or twist(*a))
        info = ss.compute_spectrum(P, 300).info
        assert (info.passes, info.levels, len(sweeps)) == (6, 2, 3)
        assert info.method == "bisect" and info.residual_bound <= np.finfo(float).eps

    @pytest.mark.parametrize("args,N", [((0.9, -1.0, 0.0, 1.0), 100), ((0.2, -1.5, 0.3, 1.0), 120),
                                        ((0.5, 0.3, 0.0, 1.0), 200), ((0.3, 0.5, 0.0, 1.0), 200)])
    def test_other_points_are_solved_directly(self, args, N):
        """a or |d| not a power of two: one level, the direct solve's counts."""
        p = ss.make_params(*args)
        for form in PENCIL_FORMS if args[1] > 0 else PENCIL_FORMS[:1]:
            spec = ss.compute_spectrum(p, N, form)
            want = ss.solve_pencil(_pencil(p, N, form))
            assert spectral._exact_depths(p, form) is None and spec.info.levels == 1
            assert spec.info.passes == want.passes
            np.testing.assert_array_equal(spec.values, want.values)

    def test_result_keeps_the_solver_record(self):
        """SpectrumResult.info is the solver's EigenvalueList for the whole spectrum; count
        selects values from it, and dropped reads it."""
        spec = ss.compute_spectrum(PN, 30, count=5)
        assert len(spec.values) == 5 and len(spec.info.values) == 30
        assert spec.dropped == spec.info.dropped == 0
        green = ss.compute_spectrum(P, 20, "green-kernel").info
        assert green.method == "jacobi" and green.levels == 1
        assert _synthetic(P, [1.0]).dropped == 0
        tiny = ss.compute_spectrum(ss.make_params(0.5, 0.5, 0.0, 1e-250), 150)
        assert tiny.dropped == tiny.info.dropped > 0


class TestCrossValidate:
    """The section is compared with fem only where it has converged: where its orders N and
    N - N//4 agree to 1e-12. At a = d = 1/2 that holds for the smallest magnitudes from
    N = 60 on (none at N = 30, where the smallest still moves by 1e-7)."""

    def test_routes_agree_definite(self):
        cv = ss.cross_validate(P, 60)
        assert cv.max_rel_diff["fem-pencil:green-kernel"] <= 1e-10
        assert cv.converged == 6
        assert cv.max_rel_diff["jacobi-section:fem-pencil"] <= 1e-15

    def test_routes_agree_indefinite(self):
        cv = ss.cross_validate(PN, 60)
        assert cv.max_rel_diff["fem-pencil:green-kernel"] <= 1e-10
        assert cv.converged == 7
        assert cv.max_rel_diff["jacobi-section:fem-pencil"] <= 1e-15

    def test_unconverged_section_is_not_compared(self):
        """At (0.99, 0.5) the section converges slowly (its smallest eigenvalue moves by 2%
        from order 45 to 60): comparing the N//2 smallest read 4.3e-2 while fem and green
        agree to 3e-14. No index has converged, so none is compared."""
        cv = ss.cross_validate(ss.make_params(0.99, 0.5, 0.0, 1.0), 60)
        assert cv.max_rel_diff["fem-pencil:green-kernel"] <= 1e-13
        assert cv.converged == 0
        assert cv.max_rel_diff["jacobi-section:fem-pencil"] == 0.0


class TestEstimateC:
    def test_synthetic_exact_law(self):
        # lambda_k = 7 * 4^k reproduces c = 7 with zero dispersion
        vals = 7.0 * 4.0 ** np.arange(1, 13, dtype=float)
        rep = ss.estimate_c(_synthetic(P, vals), (3, 10))
        assert rep.c_estimate == pytest.approx(7.0, rel=1e-14)
        assert rep.max_rel_dispersion <= 1e-14
        np.testing.assert_allclose(rep.ratios, 4.0, rtol=1e-14)
        assert rep.window == (3, 10)

    def test_negative_spectrum_gets_negative_c(self):
        pneg = ss.make_params(0.5, 0.5, 0.0, -1.0)  # jump = -1, all masses negative
        assert pneg.r < 0
        vals = np.sort(-3.0 * 4.0 ** np.arange(1, 9, dtype=float))
        rep = ss.estimate_c(_synthetic(pneg, vals), None)
        assert rep.c_estimate == pytest.approx(-3.0, rel=1e-14)

    def test_real_spectrum_converges_to_frozen_constant(self):
        spec = ss.compute_spectrum(P, 40, "green-kernel")
        rep = ss.estimate_c(spec, (10, 18))
        assert rep.c_estimate == pytest.approx(1.0, rel=1e-9)
        assert rep.max_rel_dispersion <= 1e-9

    def test_unrepresentable_c_k_refused(self):
        """lambda_1 / q = -2.9e-155 / 7.7e174 underflows to -0.0: log(0) and 0/0 leaked two
        RuntimeWarnings and the fit read c = -0.0 with a NaN dispersion."""
        p = ss.make_params(0.17979529774045622, 7.18043429808337e-175, -4.91478101653579e+42,
                           -2.347860026033957e+155)
        spec = ss.compute_spectrum(p, 1, "green-kernel")
        with pytest.raises(ss.RangeOverflow, match=r"c_k = lambda_k / q\^k = -0.0 at k = 1 "):
            ss.estimate_c(spec)

    def test_window_validation(self):
        spec = _synthetic(P, 4.0 ** np.arange(1, 6, dtype=float))
        with pytest.raises(ss.EmptyWindow):
            ss.estimate_c(spec, (4, 9))
        with pytest.raises(ss.EmptyWindow):
            ss.estimate_c(spec, (0, 3))

    def test_wrong_sign_cases(self):
        with pytest.raises(ss.WrongSign):
            ss.estimate_c(ss.compute_spectrum(PN, 6), None)
        mixed = _synthetic(P, [-1.0, 2.0, 4.0])
        with pytest.raises(ss.WrongSign):
            ss.estimate_c(mixed, None)


class TestIndefiniteReport:
    def test_synthetic_two_branch_law(self):
        # pos_j = 3*16^j, neg_j = -12*16^j: c+ = c- = 3, cross = 4
        j = np.arange(8, dtype=float)
        vals = np.sort(np.concatenate([3.0 * 16.0**j, -12.0 * 16.0**j]))
        rep = ss.indefinite_report(ss.SpectrumResult(PN, 16, "fem-pencil", vals))
        np.testing.assert_allclose(rep.c_plus, 3.0, rtol=1e-13)
        np.testing.assert_allclose(rep.c_minus, 3.0, rtol=1e-13)
        np.testing.assert_allclose(rep.cross_ratios, 4.0, rtol=1e-13)
        np.testing.assert_allclose(rep.ratios_positive, 16.0, rtol=1e-13)
        np.testing.assert_allclose(rep.ratios_negative, 16.0, rtol=1e-13)

    def test_real_spectrum_branches(self):
        spec = ss.compute_spectrum(PN, 30, "fem-pencil")
        rep = ss.indefinite_report(spec, (6, 12))
        np.testing.assert_allclose(rep.cross_ratios, 4.0, rtol=1e-3)
        np.testing.assert_allclose(rep.ratios_positive, 16.0, rtol=1e-3)
        np.testing.assert_allclose(rep.c_plus, rep.c_minus, rtol=1e-3)

    def test_wrong_sign(self):
        with pytest.raises(ss.WrongSign):
            ss.indefinite_report(ss.compute_spectrum(P, 6))

    def test_no_pairs(self):
        allpos = ss.SpectrumResult(PN, 3, "fem-pencil", np.array([1.0, 4.0, 16.0]))
        with pytest.raises(ss.EmptyWindow):
            ss.indefinite_report(allpos)

    @pytest.mark.parametrize("beta2", [1.0, -1.0])
    def test_branch_of_the_sign_of_r_follows_q_squared(self, beta2):
        """For r < 0 the smallest magnitude is negative, so the negative
        branch follows c*q^(2j): both signs of the jump read c = 4 on both
        branches and cross ratios |q| = 4."""
        spec = ss.compute_spectrum(ss.make_params(0.5, -0.5, 0.0, beta2), 40)
        rep = ss.indefinite_report(spec, (3, 5))
        for got in (rep.c_plus, rep.c_minus, rep.cross_ratios):
            np.testing.assert_allclose(got, 4.0, rtol=1e-9)

    def test_window_slices_pairs(self):
        spec = ss.compute_spectrum(PN, 20, "fem-pencil")
        rep = ss.indefinite_report(spec, (3, 5))
        assert len(rep.positive) == 3
        assert rep.window == (3, 5)
        with pytest.raises(ss.EmptyWindow):
            ss.indefinite_report(spec, (9, 30))


class TestVerifySuite:
    def test_all_pass_both_signs(self):
        for p in (P, PN):
            results = ss.verify_suite(p, N=20)
            assert len(results) == 6
            assert all(ok for _, ok, _ in results), results

    def test_symmetry_defect_scaled_by_edge_terms(self):
        """A generic point whose defect is all roundoff in terms of size
        (q/d)^k; it measured 7e5 of ||u||*||v|| under the old scale."""
        code, out, _ = run_cli(
            "verify", "--a", "0.122", "--d", "1.819", "--beta1", "-0.243",
            "--beta2", "-0.052", "--n", "60",
        )
        assert code == 0, out
        assert "FAIL" not in out

    def test_alternating_ladder_point_passes(self):
        """|d| > 1: a twist index chosen by |gamma| alone, not relative to
        the mass, gives eigenvector residuals of 1e62 and fails the form
        identity here."""
        code, out, _ = run_cli(
            "verify", "--a", "0.2", "--d", "-1.5", "--beta1", "0.3", "--n", "120"
        )
        assert code == 0, out
        assert "FAIL" not in out

    def test_form_identity_with_growing_masses(self):
        """d = 1.7: d^k magnifies the roundoff of F_k summed from the first
        slope (max rel 1.0 here); summed from the cheaper end it holds."""
        code, out, _ = run_cli("verify", "--a", "0.3", "--d", "1.7", "--n", "200")
        assert code == 0, out
        assert "FAIL" not in out

    def test_green_line_runs_at_the_largest_order_green_allows(self, monkeypatch):
        monkeypatch.setattr(operators, "_DENSE_BUDGET", 25 * 12**2)
        assert operators._dense_max_order(eigensolve._DENSE_BYTES) == 12
        with pytest.raises(ss.OutOfRange):
            ss.compute_spectrum(P, 13, "green-kernel")
        results = {name: (ok, detail) for name, ok, detail in ss.verify_suite(P, N=20)}
        ok, detail = results["fem vs green spectra"]
        assert ok and detail.endswith("at order 12"), detail
        assert all(ok for ok, _ in results.values()), results

    def test_eigenvector_lines_run_at_the_largest_order_pairs_allow(self, monkeypatch):
        """pencil_eigenpairs holds 25 bytes per entry, as green does: with room for order 10
        it refuses 11, and verify checks the eigenvectors and compares fem with green, on the
        eigenvector solve's own eigenvalues, at order 10 while the inertia line keeps N."""
        monkeypatch.setattr(operators, "_DENSE_BUDGET", 25 * 10**2)
        assert operators._dense_max_order(eigensolve._DENSE_BYTES) == 10
        w = ss.weight_truncation(P, 11)
        with pytest.raises(ss.OutOfRange, match="eigenvector order 11 exceeds 10"):
            ss.pencil_eigenpairs(ss.PencilProblem(ss.stiffness_matrix(w), w.masses, 11))
        results = {name: (ok, detail) for name, ok, detail in ss.verify_suite(P, N=20)}
        for name in ("quadratic form identity", "boundary functional", "fem vs green spectra"):
            ok, detail = results[name]
            assert ok and detail.endswith("at order 10"), detail
        assert results["inertia count"] == (True, "0 negative of 20, weight has 0")

    @pytest.mark.parametrize("d,negative", [(0.5, 0), (-0.5, 33)])
    def test_inertia_counts_eigenvalues_dropped_beyond_the_guard(self, d, negative):
        """beta2 = 1e-250 puts 34 of 100 eigenvalues above 1e290, where solve_pencil drops
        them; the negative masses (50 for d < 0) lie between the kept negative eigenvalues
        and those plus the dropped ones."""
        p = ss.make_params(0.5, d, 0.0, 1e-250)
        results = {name: (ok, detail) for name, ok, detail in ss.verify_suite(p, N=100)}
        assert results["inertia count"] == (
            True,
            f"{negative} negative of 66, weight has {50 if d < 0 else 0}, "
            f"34 dropped beyond the range guard",
        )
        assert all(ok for ok, _ in results.values()), results

    def test_deterministic(self):
        a = ss.verify_suite(P, N=10)
        b = ss.verify_suite(P, N=10)
        assert a == b
