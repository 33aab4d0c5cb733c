import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsimspec as ss
from selfsimspec.operators import SECTION_KINDS
from conftest import canonical, contraction_params, valid_params

P = canonical()


class TestSections:
    def test_abinv_canonical_three(self):
        got = ss.section(P, 3, "ABinv")
        np.testing.assert_array_equal(
            got, [[3.0, -4.0, 0.0], [-2.0, 12.0, -16.0], [0.0, -8.0, 48.0]]
        )

    def test_a_two(self):
        np.testing.assert_array_equal(ss.section(P, 2, "A"), [[1.0, -1.0], [0.0, 1.0]])

    def test_b_two(self):
        np.testing.assert_array_equal(ss.section(P, 2, "B"), [[1.0, 0.0], [0.5, 0.25]])

    def test_binv_inverts_b(self):
        B = ss.section(P, 5, "B")
        Binv = ss.section(P, 5, "Binv")
        np.testing.assert_allclose(Binv @ B, np.eye(5), atol=1e-14)

    @given(valid_params(), st.integers(2, 7))
    @settings(deadline=None, max_examples=60)
    def test_a_times_binv_matches_abinv_inside(self, p, n):
        """The composed product equals the direct section everywhere except
        the (N,N) corner, where truncating B^(-1) before multiplying loses
        the d*q^N contribution of row N+1."""
        prod = ss.section(p, n, "A") @ ss.section(p, n, "Binv")
        direct = ss.section(p, n, "ABinv")
        scale = np.abs(direct).max()
        diff = np.abs(prod - direct)
        diff[n - 1, n - 1] = 0.0
        assert diff.max() <= 1e-13 * scale

    def test_corner_defect_is_d_q_to_n(self):
        n = 3
        prod = ss.section(P, n, "A") @ ss.section(P, n, "Binv")
        direct = ss.section(P, n, "ABinv")
        assert direct[n - 1, n - 1] - prod[n - 1, n - 1] == P.d * P.q**n

    def test_unknown_kind(self):
        with pytest.raises(ss.OutOfRange):
            ss.section(P, 3, "Q")

    def test_order_beyond_guard_overflows(self):
        with pytest.raises(ss.RangeOverflow):
            ss.section(P, P.max_order + 1, "ABinv")

    @pytest.mark.parametrize("kind", SECTION_KINDS)
    def test_every_kind_has_the_order_guard(self, kind):
        with pytest.raises(ss.RangeOverflow):
            ss.section(P, P.max_order + 1, kind)

    def test_weight_kinds_are_the_weight_matrices(self):
        w = ss.weight_truncation(P, 4)
        want = {
            "K": ss.stiffness_matrix(w).dense(),
            "M": np.diag(ss.mass_matrix(w)),
            "green": ss.green_kernel_matrix(w),
            "sym": ss.symmetrized_section(P, 4).dense(),
        }
        for kind, m in want.items():
            got = ss.section(P, 4, kind)
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, m)


class TestSymmetrizedSection:
    def test_two_by_two(self):
        T = ss.symmetrized_section(P, 2)
        np.testing.assert_array_equal(T.diag, [3.0, 12.0])
        assert T.offdiag[0] == pytest.approx(math.sqrt(8.0), rel=1e-15)

    def test_same_spectrum_as_unsymmetrized(self):
        # similarity by the diagonal weight keeps eigenvalues
        dense = ss.section(P, 6, "ABinv")
        sym = ss.symmetrized_section(P, 6).dense()
        got = np.sort(np.linalg.eigvals(dense).real)
        want = np.sort(np.linalg.eigvalsh(sym))
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_indefinite_signature(self):
        """For d < 0 the section is equivalent to T y = mu S y with the
        signature S = diag((-1)^k): eigenvalues of ABinv and of S T agree,
        and the sym kind is T for either sign."""
        PN = canonical(-1.0)
        T = ss.symmetrized_section(PN, 6)
        np.testing.assert_array_equal(T.diag, 3.0 * 4.0 ** np.arange(6))
        np.testing.assert_allclose(T.offdiag, math.sqrt(0.5) * 4.0 ** np.arange(1, 6), rtol=1e-15)
        S = (-1.0) ** np.arange(6)
        got = np.sort(np.linalg.eigvals(ss.section(PN, 6, "ABinv")).real)
        want = np.sort(np.linalg.eigvals(S[:, None] * T.dense()).real)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        np.testing.assert_array_equal(ss.section(PN, 6, "sym"), T.dense())

    @given(contraction_params(edge=0.99), st.integers(1, 300))
    @settings(deadline=None, max_examples=40)
    def test_positive_definite_for_either_sign(self, p, N):
        """The LDL^T pivots are |q|^(k-1)*t_k with t_k > 1/a, so T has no
        negative eigenvalue anywhere in the domain, as the inertia core
        needs when S has negative entries."""
        N = min(N, p.max_order)
        assert ss.sturm_count(ss.symmetrized_section(p, N), 0.0) == 0


class TestWeightMatrices:
    def test_stiffness_canonical_two(self):
        K = ss.stiffness_matrix(ss.weight_truncation(P, 2))
        np.testing.assert_array_equal(K.dense(), [[6.0, -4.0], [-4.0, 8.0]])

    def test_stiffness_order_one(self):
        K = ss.stiffness_matrix(ss.weight_truncation(P, 1))
        np.testing.assert_array_equal(K.dense(), [[4.0]])

    def test_stiffness_overflow_raises_without_warning(self):
        """The weight of order 1070 is allowed beyond max_order (481); its last gap 8e-323
        has no finite reciprocal. "overflow encountered in divide" came before the error."""
        w = ss.weight_truncation(P, 1070)
        with pytest.raises(ss.RangeOverflow, match="1/h overflows at order 1070"):
            ss.stiffness_matrix(w)

    def test_mass_is_the_masses(self):
        np.testing.assert_array_equal(ss.mass_matrix(ss.weight_truncation(P, 3)), [1.0, 0.5, 0.25])

    def test_green_kernel_canonical_two(self):
        C = ss.green_kernel_matrix(ss.weight_truncation(P, 2))
        np.testing.assert_array_equal(C, [[0.25, 0.0625], [0.125, 0.09375]])

    def test_green_kernel_matches_index_closed_form(self):
        """G built as the smaller of the two products equals the min/max
        index form bit for bit on a non-dyadic a."""
        N = 300
        w = ss.weight_truncation(ss.make_params(0.37, -0.5, 0.0, 1.0), N)
        i = np.arange(N)
        lo, hi = np.minimum.outer(i, i), np.maximum.outer(i, i)
        want = (1.0 - w.gaps[lo]) * w.gaps[hi] * w.masses[None, :]
        np.testing.assert_array_equal(ss.green_kernel_matrix(w), want)

    def test_green_inverts_pencil(self):
        """C and the pencil are the same operator written both ways round."""
        w = ss.weight_truncation(P, 6)
        C = ss.green_kernel_matrix(w)
        lam = np.sort(1.0 / np.linalg.eigvals(C).real)
        pencil = ss.solve_pencil(ss.PencilProblem(ss.stiffness_matrix(w), ss.mass_matrix(w), 6))
        np.testing.assert_allclose(lam, pencil.values, rtol=1e-9)


class TestQuadraticForm:
    def test_first_basis_slope(self):
        # s = e_1 as 30 compact slopes: lhs = 1 exactly, rhs = lam*(1 - 2^-30) for lam = 1
        s = ss.SlopeSequence([1.0] + [0.0] * 29)
        lhs, rhs = ss.quadratic_form_sides(P, s, 1.0)
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0 - 2.0**-30, rel=1e-15)

    def test_eigenpairs_balance_both_sides(self):
        for sign in (1.0, -1.0):
            p = canonical(sign)
            w = ss.weight_truncation(p, 8)
            pencil = ss.PencilProblem(ss.stiffness_matrix(w), ss.mass_matrix(w), 8)
            lam, Y, _ = ss.pencil_eigenpairs(pencil)
            for k in range(len(lam)):
                s = ss.eigenfunction_slopes(w, Y[:, k])
                lhs, rhs = ss.quadratic_form_sides(p, s, lam[k])
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_bad_tail_name(self):
        with pytest.raises(ss.OutOfRange):
            ss.SlopeSequence([1.0], tail="linear")


class TestBoundaryFunctional:
    def test_compact_examples(self):
        assert ss.boundary_functional(P, ss.SlopeSequence([1.0, -2.0])) == 0.0
        assert ss.boundary_functional(P, ss.SlopeSequence([1.0, 0.0, 0.0])) == 1.0

    def test_constant_tail_sums_geometric_series(self):
        # 1 + a/(1-a) = 2 for a = 1/2
        assert ss.boundary_functional(P, ss.SlopeSequence([1.0], tail="constant")) == 2.0

    def test_vanishes_on_eigenfunctions(self):
        w = ss.weight_truncation(P, 12)
        pencil = ss.PencilProblem(ss.stiffness_matrix(w), ss.mass_matrix(w), 12)
        _, Y, _ = ss.pencil_eigenpairs(pencil)
        for k in range(Y.shape[1]):
            s = ss.eigenfunction_slopes(w, Y[:, k])
            assert abs(ss.boundary_functional(P, s)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_slopes_of_the_wrong_length_rejected(self, n):
        """numpy's broadcast error, or slopes read past the nodal values, before."""
        with pytest.raises(ss.OutOfRange, match="5 nodal values"):
            ss.eigenfunction_slopes(ss.weight_truncation(P, 5), np.ones(n))


class TestSymmetryDefect:
    def test_basis_pair_cancels_exactly(self):
        # the e1/e2 pair probes a single edge: w2*(-d*q) against w1*(-q)
        assert ss.symmetry_defect(P, [1.0], [0.0, 1.0], 10) == 0.0

    def test_overflowing_edge_terms_rejected(self):
        """(1/d)^k overflows below order 200 at d = 0.1, within max_order 222."""
        p = ss.make_params(0.5, 0.1, 0.0, 1.0)
        assert p.max_order == 222
        with pytest.raises(ss.RangeOverflow, match=r"\(q/d\)\^k overflow below order 200"):
            ss.symmetry_defect(p, [1.0], [0.0, 1.0], 200)

    def test_vectors_longer_than_the_order_rejected(self):
        """numpy's broadcast error before."""
        with pytest.raises(ss.OutOfRange, match="at most N = 5"):
            ss.symmetry_defect(P, np.ones(6), np.ones(3), 5)

    def test_canonical_random_pairs_exact_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.standard_normal(20)
            v = rng.standard_normal(20)
            assert ss.symmetry_defect(P, u, v, 20) == 0.0

    def test_matches_weighted_inner_products_small(self):
        # brute force <Mu,v>_w - <u,Mv>_w at small order where no overflow hides
        p = ss.make_params(0.4, 0.8, 0.0, 1.0)
        M = ss.section(p, 5, "ABinv")
        wgt = (1.0 / p.d) ** np.arange(5)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        brute = float(np.sum(wgt * ((M @ u) * v - u * (M @ v))))
        assert ss.symmetry_defect(p, u, v, 5) == pytest.approx(brute, abs=1e-12)

    @given(valid_params())
    @settings(deadline=None, max_examples=50)
    def test_generic_params_stay_tiny(self, p):
        """For non-binary parameters the paired coefficients still round at
        eps relative to the weighted edge magnitudes, so the honest bound is
        conditioned on those magnitudes, not on ||u||*||v||."""
        n = min(16, p.max_order)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        k = np.arange(1, n, dtype=float)
        w = np.abs(1.0 / p.d) ** (k - 1.0) * np.abs(p.q) ** k
        scale = float(np.sum(w * (np.abs(u[:-1] * v[1:]) + np.abs(u[1:] * v[:-1]))))
        assert abs(ss.symmetry_defect(p, u, v, n)) <= 1e-13 * scale


class TestDomainDiagnostics:
    def test_trace_of_pure_geometric_sequence(self):
        # u_n = (d*a)^(n-1) has trace a^(n-1), decaying; u_n = d^(n-1) has
        # constant trace and sits outside the selected domain
        n = np.arange(10, dtype=float)
        tr = (P.d * P.a) ** n / P.d**n
        np.testing.assert_allclose(tr, P.a**n, rtol=1e-14)
        tr = P.d**n / P.d**n
        np.testing.assert_allclose(tr, 1.0, rtol=1e-14)

    def test_ground_mode_trace_decays(self):
        """The lowest eigenvector, mapped back from the symmetrized section,
        satisfies the extension condition; the trace must fall by orders of
        magnitude across the section."""
        N = 30
        T = ss.symmetrized_section(P, N)
        _, Z, _ = ss.pencil_eigenpairs(ss.PencilProblem(T, np.ones(N), N))
        z = Z[:, 0]
        u = P.d ** (np.arange(N) / 2.0) * z
        tr = np.abs(u / P.d ** np.arange(N, dtype=float))
        assert tr[-1] <= 1e-6 * tr[0]
