import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsimspec as ss
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

    def test_jacobi_refuses_indefinite(self):
        with pytest.raises(ss.IndefiniteCase):
            ss.compute_spectrum(PN, 4, "jacobi-section")

    def test_unknown_formulation(self):
        with pytest.raises(ss.OutOfRange):
            ss.compute_spectrum(P, 4, "qr")

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

    def test_section_reaches_max_order(self):
        """Sturm counts no longer square the off-diagonal, so the section
        runs at every order the range guard admits."""
        N = P.max_order
        sec = ss.compute_spectrum(P, N, "jacobi-section").values
        fem = ss.compute_spectrum(P, N, "fem-pencil").values
        k = N // 2
        np.testing.assert_allclose(sec[:k], fem[:k], rtol=1e-12)


class TestCrossValidate:
    def test_routes_agree_definite(self):
        cv = ss.cross_validate(P, 30)
        assert cv.max_rel_diff["fem-pencil:green-kernel"] <= 1e-10
        assert cv.max_rel_diff["jacobi-section:fem-pencil"] <= 1e-4

    def test_routes_agree_indefinite(self):
        cv = ss.cross_validate(PN, 20)
        assert cv.max_rel_diff["fem-pencil:green-kernel"] <= 1e-10
        assert "jacobi-section:fem-pencil" not in cv.max_rel_diff


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

    def test_window_slices_pairs(self):
        spec = ss.compute_spectrum(PN, 20, "fem-pencil")
        rep = ss.indefinite_report(spec, (3, 5))
        assert len(rep.positive) == 3
        assert rep.window == (3, 5)
        with pytest.raises(ss.EmptyWindow):
            ss.indefinite_report(spec, (9, 30))


class TestStableWindow:
    def test_canonical_window_contains_the_plateau(self):
        k1, k2 = ss.stable_window(P, 60)
        assert k1 == 8
        assert k2 >= 20

    def test_indefinite_refused(self):
        with pytest.raises(ss.WrongSign):
            ss.stable_window(PN, 40)

    def test_too_small(self):
        with pytest.raises(ss.EmptyWindow):
            ss.stable_window(P, 10)


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

    def test_deterministic(self):
        a = ss.verify_suite(P, N=10, seed=99)
        b = ss.verify_suite(P, N=10, seed=99)
        assert a == b
