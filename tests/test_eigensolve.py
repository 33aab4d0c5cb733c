import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selfsimspec as ss
from selfsimspec import eigensolve
from selfsimspec.eigensolve import _jacobi

from conftest import canonical, contraction_params

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

    @given(contraction_params(edge=0.99).filter(lambda p: p.d > 0), st.integers(3, 80))
    @example(P, 12)
    @settings(deadline=None, max_examples=30)
    def test_interlacing(self, p, N):
        """The order N - 1 section is the leading block of the order N one,
        so their eigenvalues interlace (Cauchy); the sections are positive
        definite for d > 0."""
        N = min(N, p.max_order)
        big = ss.tridiag_eigs(ss.symmetrized_section(p, N)).values
        small = ss.tridiag_eigs(ss.symmetrized_section(p, N - 1)).values
        for k in range(N - 1):
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
        # |d| > 1: the masses grow to 7e45 and 2e20, and the roundoff of gamma with them
        for args, N in (((0.3, 1.7, 0.0, 1.0), 200), ((0.2, -1.5, 0.3, 1.0), 120)):
            w = ss.weight_truncation(ss.make_params(*args), N)
            K = ss.stiffness_matrix(w)
            lam, Y, _ = ss.pencil_eigenpairs(ss.PencilProblem(K, ss.mass_matrix(w), N))
            KY = K.dense() @ Y
            res = np.linalg.norm(KY - lam * (w.masses[:, None] * Y), axis=0)
            assert np.all(res <= 1e-12 * np.linalg.norm(KY, axis=0))

    def test_tiny_mass_gives_finite_eigenvectors(self):
        """At lambda = 1e10 the first pivot of K - lambda*M is zero and the
        next overflows, so the factored step multiplied a zero component by
        an infinite ratio (a NaN column); the pencil row gives (1, 0, -1)."""
        K = _tridiag([1e10] * 3, [1e9] * 2)
        M = np.array([1.0, 1e-300, 1.0])
        lam, Y, info = ss.pencil_eigenpairs(ss.PencilProblem(K, M, 3))
        assert info.dropped == 1 and lam[-1] == 1e10
        assert np.all(np.isfinite(Y))
        KY = K.dense() @ Y
        res = np.linalg.norm(KY - lam * (M[:, None] * Y), axis=0)
        assert np.all(res <= 1e-12 * np.linalg.norm(KY, axis=0))
        np.testing.assert_allclose(Y[:, -1], [math.sqrt(0.5), 0.0, -math.sqrt(0.5)], atol=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_probe_grid_is_counted_once(self, sign, monkeypatch):
        """The kept index range, the brackets and (with negative masses) the
        positive definite test all come from one count of the probe grid;
        only that count probes the Gershgorin ends or zero."""
        calls = []
        counts_below = eigensolve._counts_below

        def spy(diag, off, mass, probes):
            calls.append(np.asarray(probes, dtype=float))
            return counts_below(diag, off, mass, probes)

        monkeypatch.setattr(eigensolve, "_counts_below", spy)
        w = ss.weight_truncation(canonical(sign), 60)
        K, M = ss.stiffness_matrix(w), ss.mass_matrix(w)
        ss.solve_pencil(ss.PencilProblem(K, M, 60))
        glo, ghi = eigensolve._gershgorin(K.diag, K.offdiag, M)
        assert [i for i, xs in enumerate(calls) if np.isin([glo, ghi, 0.0], xs).any()] == [0]

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
        vals, _ = _jacobi(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [1.0, 3.0], rtol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(deadline=None, max_examples=40)
    def test_random_symmetric_match_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        S = A + A.T
        got, _ = _jacobi(S.copy())
        want = np.linalg.eigvalsh(S)
        np.testing.assert_allclose(got, want, atol=1e-12 * np.abs(want).max())

    def test_nan_entry_never_converges(self):
        with pytest.raises(ss.NonConvergence):
            _jacobi(np.array([[1.0, np.nan], [np.nan, 2.0]]))

    def test_green_result_states_method_bound_and_dropped(self):
        """solve_green reports Jacobi's final relative off-diagonal and
        leaves out reciprocals below the guard, like the pencil does."""
        w = ss.weight_truncation(P, 20)
        G = ss.green_kernel_matrix(w) / w.masses  # masses 2^(1-k): exact
        leading = G[:2, :2].copy()  # solve_green overwrites G
        out = ss.solve_green(G, w.masses)
        assert out.method == "jacobi" and out.dropped == 0 and len(out.values) == 20
        assert out.residual_bound <= max(1e-15, 80 * np.finfo(float).eps)
        out = ss.solve_green(leading, np.array([1.0, 1e-300]))
        assert out.dropped == 1 and len(out.values) == 1

    def test_green_nan_is_a_numerical_error(self):
        """LAPACK's Cholesky passes a NaN through; Jacobi then refuses it."""
        G = ss.green_kernel_matrix(ss.weight_truncation(P, 4))
        G[1, 2] = G[2, 1] = np.nan
        with pytest.raises(ss.NumericalError):
            ss.solve_green(G, np.ones(4))

    def test_green_indefinite_rejected(self):
        with pytest.raises(ss.NotPositiveDefinite):
            ss.solve_green(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((8, 8))
        S = A + A.T
        vals, _ = _jacobi(S.copy())
        assert float(np.sum(vals)) == pytest.approx(float(np.trace(S)), rel=1e-13)


class TestInverseIteration:
    """pencil_eigenpairs solves (K - lambda*M) x = gamma_r e_r by a twisted
    factorization: one step of inverse iteration from the unit vector at
    the twist index r. With unit mass it gives eigenvectors of K itself."""

    @staticmethod
    def _unit_mass(T):
        return ss.pencil_eigenpairs(ss.PencilProblem(T, np.ones(T.order), T.order))

    def test_picks_the_right_basis_vector(self):
        _, Y, _ = self._unit_mass(_tridiag([1.0, 2.0, 3.0], [0.0, 0.0]))
        np.testing.assert_allclose(np.abs(Y[:, 1]), [0.0, 1.0, 0.0], atol=1e-8)

    def test_eigenvector_of_the_section(self):
        T = ss.symmetrized_section(P, 2)
        lam = (15.0 - math.sqrt(113.0)) / 2.0
        v = self._unit_mass(T)[1][:, 0]
        res = np.linalg.norm(T.dense() @ v - lam * v)
        assert res <= 1e-10 * np.abs(T.dense()).sum()
        rq = float(v @ T.dense() @ v)
        assert rq == pytest.approx(lam, rel=1e-12)
