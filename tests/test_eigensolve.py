import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsimspec as ss
from selfsimspec.eigensolve import _jacobi

from conftest import canonical

P = canonical()


def _tridiag(diag, off):
    return ss.TridiagonalSymmetric(np.asarray(diag, float), np.asarray(off, float), len(diag))


class TestSturmCount:
    def test_diagonal_matrix(self):
        T = _tridiag([1.0, 2.0, 3.0], [0.0, 0.0])
        assert ss.sturm_count(T, 0.0) == 0
        assert ss.sturm_count(T, 1.5) == 1
        assert ss.sturm_count(T, 2.5) == 2
        assert ss.sturm_count(T, 100.0) == 3

    def test_section_counts(self):
        T = ss.symmetrized_section(P, 8)
        assert ss.sturm_count(T, 0.0) == 0
        assert ss.sturm_count(T, 1e300) == 8
        # one eigenvalue per geometric octave, roughly at r*4^k
        assert ss.sturm_count(T, 3.0) == 1

    def test_monotone_in_the_probe(self):
        T = ss.symmetrized_section(P, 10)
        rng = np.random.default_rng(5)
        xs = np.sort(rng.uniform(-1.0, float(T.diag[-1]) * 2.0, size=300))
        counts = [ss.sturm_count(T, x) for x in xs]
        assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))


class TestTridiagEigs:
    def test_two_by_two_closed_form(self):
        got = ss.tridiag_eigs(ss.symmetrized_section(P, 2)).values
        want = [(15.0 - math.sqrt(113.0)) / 2.0, (15.0 + math.sqrt(113.0)) / 2.0]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_index_range_selects(self):
        T = ss.symmetrized_section(P, 6)
        full = ss.tridiag_eigs(T).values
        low = ss.tridiag_eigs(T, index_range=(1, 2)).values
        top = ss.tridiag_eigs(T, index_range=(6, 6)).values
        np.testing.assert_allclose(low, full[:2], rtol=1e-12)
        np.testing.assert_allclose(top, full[-1:], rtol=1e-12)

    def test_bad_index_range(self):
        T = ss.symmetrized_section(P, 4)
        with pytest.raises(ss.OutOfRange):
            ss.tridiag_eigs(T, index_range=(0, 2))
        with pytest.raises(ss.OutOfRange):
            ss.tridiag_eigs(T, index_range=(3, 5))

    def test_tol_floor(self):
        with pytest.raises(ss.OutOfRange):
            ss.tridiag_eigs(ss.symmetrized_section(P, 3), tol=1e-18)

    def test_interlacing(self):
        big = ss.tridiag_eigs(ss.symmetrized_section(P, 12)).values
        small = ss.tridiag_eigs(ss.symmetrized_section(P, 11)).values
        for k in range(11):
            assert big[k] <= small[k] * (1 + 1e-12)
            assert small[k] <= big[k + 1] * (1 + 1e-12)

    def test_huge_dynamic_range_stays_relative(self):
        """Eigenvalues span 36 decades at N = 60; bisection must keep each
        one to relative tolerance, which norm-based solvers cannot. The
        section eigenvalues divided by r converge to the pencil's from the
        bottom of the spectrum."""
        T = ss.symmetrized_section(P, 60)
        vals = ss.tridiag_eigs(T).values
        w = ss.weight_truncation(P, 60)
        pencil = ss.solve_pencil(
            ss.PencilProblem(ss.stiffness_matrix(w), ss.mass_matrix(w), 60)
        ).values
        np.testing.assert_allclose(vals[:10] / P.r, pencil[:10], rtol=1e-12)
        ratios = vals[10:20] / vals[9:19]
        np.testing.assert_allclose(ratios, 4.0, rtol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 9))
    @settings(deadline=None, max_examples=40)
    def test_random_tridiagonals_match_dense_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        T = _tridiag(rng.standard_normal(n), rng.standard_normal(n - 1))
        got = ss.tridiag_eigs(T).values
        want = np.linalg.eigvalsh(T.dense())
        scale = float(np.abs(want).max()) or 1.0
        np.testing.assert_allclose(got, want, atol=1e-10 * scale)


class TestCholesky:
    def test_lower_factor_example(self):
        K = _tridiag([6.0, 8.0], [-4.0])
        ld, ls = ss.tridiag_cholesky(K)
        np.testing.assert_allclose(ld, [2.449489742783178, 2.3094010767585034], rtol=1e-12)
        np.testing.assert_allclose(ls, [-1.6329931618554518], rtol=1e-12)
        L = np.array([[ld[0], 0.0], [ls[0], ld[1]]])
        np.testing.assert_allclose(L @ L.T, K.dense(), rtol=1e-15)

    def test_not_positive_definite(self):
        with pytest.raises(ss.NotPositiveDefinite):
            ss.tridiag_cholesky(_tridiag([1.0, 1.0], [2.0]))
        with pytest.raises(ss.NotPositiveDefinite):
            ss.tridiag_cholesky(_tridiag([-1.0, 1.0], [0.0]))


class TestSolvePencil:
    def test_closed_form_definite(self):
        K = _tridiag([6.0, 8.0], [-4.0])
        lam = ss.solve_pencil(ss.PencilProblem(K, [1.0, 0.5], 2)).values
        want = [11.0 - math.sqrt(57.0), 11.0 + math.sqrt(57.0)]
        np.testing.assert_allclose(lam, want, rtol=1e-13)

    def test_closed_form_indefinite(self):
        K = _tridiag([6.0, 8.0], [-4.0])
        lam = ss.solve_pencil(ss.PencilProblem(K, [1.0, -0.5], 2)).values
        want = [-5.0 - math.sqrt(89.0), -5.0 + math.sqrt(89.0)]
        np.testing.assert_allclose(lam, want, rtol=1e-13)

    def test_zero_mass_rejected(self):
        K = _tridiag([6.0, 8.0], [-4.0])
        with pytest.raises(ss.DegenerateWeight):
            ss.PencilProblem(K, [1.0, 0.0], 2)

    def test_eigenpairs_satisfy_the_pencil(self):
        w = ss.weight_truncation(P, 10)
        K = ss.stiffness_matrix(w)
        pencil = ss.PencilProblem(K, ss.mass_matrix(w), 10)
        lam, Y, info = ss.pencil_eigenpairs(pencil)
        assert info.dropped == 0
        Kd = K.dense()
        for k in range(10):
            r = Kd @ Y[:, k] - lam[k] * pencil.M * Y[:, k]
            assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(Kd @ Y[:, k])

    def test_indefinite_stiffness_rejected(self):
        K = _tridiag([1.0, 1.0], [2.0])
        with pytest.raises(ss.NotPositiveDefinite):
            ss.solve_pencil(ss.PencilProblem(K, [1.0, -1.0], 2))

    def test_twisted_vectors_keep_the_identities_at_large_order(self):
        """Eigenvectors over 90 decades of eigenvalues still satisfy the
        quadratic-form identity and y(1) = 0 to near machine precision."""
        for sign in (1.0, -1.0):
            p = canonical(sign)
            w = ss.weight_truncation(p, 150)
            pencil = ss.PencilProblem(ss.stiffness_matrix(w), ss.mass_matrix(w), 150)
            lam, Y, info = ss.pencil_eigenpairs(pencil)
            assert info.residual_bound <= np.finfo(float).eps
            for k in range(len(lam)):
                s = ss.eigenfunction_slopes(w, Y[:, k])
                lhs, rhs = ss.quadratic_form_sides(p, s, lam[k])
                assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))
                bscale = float(np.sum(p.a ** np.arange(len(s.values)) * np.abs(s.values)))
                assert abs(ss.boundary_functional(p, s)) <= 1e-13 * bscale

    def test_underflowing_masses_are_dropped(self):
        K = _tridiag([1.0, 1.0], [0.0])
        out = ss.solve_pencil(ss.PencilProblem(K, [1.0, 1e-295], 2))
        assert out.dropped == 1
        assert len(out.values) == 1
        with pytest.raises(ss.ZeroEigenvalue):
            ss.solve_pencil(ss.PencilProblem(K, [1e-295, 1e-295], 2))
        # scaled entries ~1e318 overflow the bracket bounds themselves
        coupled = _tridiag([1e10, 1e10], [1e9])
        with pytest.raises(ss.ZeroEigenvalue):
            ss.solve_pencil(ss.PencilProblem(coupled, [1e-309, 1e-309], 2))


class TestDenseJacobi:
    def test_two_by_two(self):
        out = ss.dense_symmetric_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(out.values, [1.0, 3.0], rtol=1e-14)
        assert out.method == "jacobi"

    def test_asymmetric_rejected(self):
        with pytest.raises(ss.OutOfRange):
            ss.dense_symmetric_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_graded_matrix_keeps_small_eigenvalues(self):
        """Reciprocals of the Green kernel eigenvalues must match the pencil
        route to near machine precision across 12 decades."""
        w = ss.weight_truncation(P, 20)
        C = ss.green_kernel_matrix(w)
        m = w.masses
        H = np.sqrt(m)[:, None] * (C / m[None, :]) * np.sqrt(m)[None, :]
        mu = ss.dense_symmetric_eigs(0.5 * (H + H.T)).values
        lam = np.sort(1.0 / mu)
        pencil = ss.solve_pencil(
            ss.PencilProblem(ss.stiffness_matrix(w), ss.mass_matrix(w), 20)
        ).values
        np.testing.assert_allclose(lam, pencil, rtol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(deadline=None, max_examples=40)
    def test_random_symmetric_match_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        S = A + A.T
        got = ss.dense_symmetric_eigs(S).values
        want = np.linalg.eigvalsh(S)
        np.testing.assert_allclose(got, want, atol=1e-12 * np.abs(want).max())

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((8, 8))
        S = A + A.T
        vals, _, _ = _jacobi(S, 1e-13, want_vectors=False)
        assert float(np.sum(vals)) == pytest.approx(float(np.trace(S)), rel=1e-13)

    def test_vectors_diagonalize(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((6, 6))
        S = A + A.T
        vals, V, _ = _jacobi(S, 1e-13, want_vectors=True)
        np.testing.assert_allclose(V.T @ S @ V, np.diag(vals), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-13)


class TestInverseIteration:
    def test_picks_the_right_basis_vector(self):
        v = ss.inverse_iteration(np.diag([1.0, 2.0, 3.0]), 2.0)
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0, 0.0], atol=1e-8)

    def test_eigenvector_of_the_section(self):
        T = ss.symmetrized_section(P, 2)
        lam = (15.0 - math.sqrt(113.0)) / 2.0
        v = ss.inverse_iteration(T, lam)
        res = np.linalg.norm(T.dense() @ v - lam * v)
        assert res <= 1e-10 * np.abs(T.dense()).sum()
        rq = float(v @ T.dense() @ v)
        assert rq == pytest.approx(lam, rel=1e-12)

    def test_deterministic_sign(self):
        T = ss.symmetrized_section(P, 5)
        lam = ss.tridiag_eigs(T, index_range=(1, 1)).values[0]
        v1 = ss.inverse_iteration(T, lam)
        v2 = ss.inverse_iteration(T, lam)
        np.testing.assert_array_equal(v1, v2)
        assert v1[int(np.argmax(np.abs(v1)))] > 0
