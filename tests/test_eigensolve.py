import math
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import selfsimspec as ss
from selfsimspec import eigensolve, spectral
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

    def test_nan_probe_rejected(self):
        """No pivot is negative at a NaN shift, so the count read 0."""
        with pytest.raises(ss.OutOfRange, match="NaN"):
            ss.sturm_count(_tridiag([1.0, 2.0], [0.5]), math.nan)


def _careful_counts(diag, off, mass, xs):
    """The count from _pivots row by row, the clamped recurrence the blocked count must match."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nu = sum((piv < 0.0).astype(np.int64) for piv in eigensolve._pivots(diag, off, mass, xs))
    n_neg = int(np.sum(mass < 0.0))
    return nu if n_neg == 0 else np.where(xs < 0.0, n_neg - nu, n_neg + nu)


class TestBlockedCount:
    """_counts_below runs _BLOCK rows at a time with no clamp and redoes a block
    through _pivots when it holds a tiny pivot or a NaN; every count must equal
    the row-by-row clamped recurrence's exactly."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 100), st.booleans())
    @example(0, 32, False)
    @example(1, 33, True)
    @example(2, 65, True)
    @settings(deadline=None, max_examples=60)
    def test_equals_the_row_by_row_count(self, seed, n, signed):
        rng = np.random.default_rng(seed)
        diag = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        off = rng.standard_normal(n - 1)
        mass = rng.uniform(0.1, 2.0, n)
        if signed:
            mass[rng.random(n) < 0.4] *= -1.0
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        exact = np.linalg.eigvals(T / mass[:, None]).real  # probes where a pivot nears zero
        xs = np.concatenate((exact, rng.standard_normal(40) * 10.0, [0.0, 1e308, -1e308]))
        np.testing.assert_array_equal(
            eigensolve._counts_below(diag, off, mass, xs), _careful_counts(diag, off, mass, xs)
        )

    @staticmethod
    def _check(diag, off, mass, xs, row, want):
        """The blocked count equals the careful one, whose pivot at row is want (NaN is NaN)."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            pivs = list(eigensolve._pivots(diag, off, mass, xs))
        np.testing.assert_array_equal(pivs[row], want)
        np.testing.assert_array_equal(
            eigensolve._counts_below(diag, off, mass, xs), _careful_counts(diag, off, mass, xs)
        )

    def test_zero_pivots_across_a_block_boundary(self):
        """Rows 31 and 32 (the last of a block, the first of the next) are
        decoupled from their predecessors and equal the probe, so both
        pivots are exactly zero and clamp to +_PIVMIN."""
        n, b = 70, eigensolve._BLOCK
        rng = np.random.default_rng(3)
        diag, off, mass = rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n - 1), np.ones(n)
        diag[b - 1] = diag[b] = 3.0
        off[b - 2] = off[b - 1] = 0.0
        xs = np.array([3.0, 0.5, 2.5, -1.0])
        self._check(diag, off, mass, xs, b - 1, [eigensolve._PIVMIN, 2.5, 0.5, 4.0])
        self._check(diag, off, mass, xs, b, [eigensolve._PIVMIN, 2.5, 0.5, 4.0])

    @pytest.mark.parametrize("n", [5, 32, 33, 70])
    @pytest.mark.parametrize("last", [3.0, -1e-305])
    def test_last_pivot_clamped_in_place(self, n, last):
        """A zero or tiny pivot in the last row (decoupled and equal to the probe 3, or
        -1e-305 at the probe 0) is clamped without a redo of its block; the blocked
        pivots are _pivots' bit for bit, as _twist reads them."""
        rng = np.random.default_rng(n)
        diag, off, mass = rng.uniform(5.0, 6.0, n), rng.uniform(-0.5, 0.5, n - 1), np.ones(n)
        diag[-1], off[-1:] = last, 0.0
        xs = np.array([3.0, 0.0])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            want = np.array(list(eigensolve._pivots(diag, off, mass, xs)))
            got = np.concatenate([rows.copy() for rows in
                                  eigensolve._pivot_blocks(diag, off, mass, xs, np.empty((n, 2)))])
        np.testing.assert_array_equal(got, want)
        assert abs(want[-1]).min() == eigensolve._PIVMIN

    @pytest.mark.parametrize("n", [5, 32, 64, 70, 130])
    def test_blocks_are_rows_of_out(self, n):
        """The block from row b is written into out from row b % len(out) on and yielded as
        those rows, for out of n rows (as _twist passes it) and for a ring of two blocks' rows
        (as _counts_below does): no other pivot buffer is formed."""
        rng = np.random.default_rng(n)
        diag, off, mass = rng.standard_normal(n), rng.standard_normal(n - 1), np.ones(n)
        xs, b = np.array([-0.5, 0.0, 0.5]), eigensolve._BLOCK
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            want = np.array(list(eigensolve._pivots(diag, off, mass, xs)))
            for out in (np.empty((n, 3)), np.empty((min(2 * b, n), 3))):
                blocks = eigensolve._pivot_blocks(diag, off, mass, xs, out)
                for start, rows in zip(range(0, n, b), blocks):
                    assert np.shares_memory(rows, out)
                    assert rows.ctypes.data == out[start % len(out)].ctypes.data
                    np.testing.assert_array_equal(rows, want[start : start + b])
                assert start + len(rows) == n

    @pytest.mark.parametrize("zero, redone", [((31, 63), 0), ((31, 40, 63), 1)])
    def test_one_clamp_rule(self, monkeypatch, zero, redone):
        """Zero pivots in the last rows of blocks (31 and 63 of n = 70, decoupled from the row
        before and equal to the probe 3) are clamped in place with no call to _pivots, bit
        for bit as _pivots clamps them; one before a block's last row (40) sends its block,
        and that block only, to _pivots. Counts through the ring match the careful ones."""
        n, xs = 70, np.array([3.0, 0.0])
        rng = np.random.default_rng(n)
        diag, off, mass = rng.uniform(5.0, 6.0, n), rng.uniform(-0.5, 0.5, n - 1), np.ones(n)
        diag[list(zero)], off[[z - 1 for z in zero]] = 3.0, 0.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            want = np.array(list(eigensolve._pivots(diag, off, mass, xs)))
            counts = _careful_counts(diag, off, mass, xs)
            calls, pivots = [], eigensolve._pivots
            monkeypatch.setattr(eigensolve, "_pivots", lambda *a: calls.append(a) or pivots(*a))
            out = np.empty((n, 2))
            for _ in eigensolve._pivot_blocks(diag, off, mass, xs, out):
                pass
        assert len(calls) == redone
        np.testing.assert_array_equal(out, want)
        assert (want[list(zero), 0] == eigensolve._PIVMIN).all()
        np.testing.assert_array_equal(eigensolve._counts_below(diag, off, mass, xs), counts)
        assert len(calls) == 2 * redone

    def test_subnormal_pivot(self):
        """Row 2's pivot 1e-310 clamps to 1e-300, so row 3 reads 3 - 1 > 0;
        unclamped it would read 3 - 1e10 and count one eigenvalue more."""
        diag = np.array([1.0, 2.0, 1e-310, 3.0, 1.0])
        off = np.array([0.5, 0.0, 1e-150, 0.25])
        xs = np.array([0.0, -1e-300])
        self._check(diag, off, np.ones(5), xs, 2, [eigensolve._PIVMIN, 1e-300 + 1e-310])

    def test_overflowing_shift(self):
        """x*m_i overflows to +-inf; the pivot keeps the sign a count needs."""
        diag, off = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0])
        mass = np.array([1.0, 10.0, 1.0])
        self._check(diag, off, mass, np.array([1e308, -1e308]), 1, [-np.inf, np.inf])

    def test_nan_from_inf_minus_inf(self):
        """Row 1's pivot is exactly zero at x = -2^1000 and clamps to 1e-300;
        row 2's shift overflows to +inf and so does off^2/1e-300, giving NaN,
        which the rest of the factorization carries."""
        x = -(2.0**1000)
        diag = np.array([2.0, 1.0, 1.0, 1.0])
        off = np.array([0.0, 1e10, 1.0])
        mass = np.array([1.0, -(2.0**-1000), 2.0**100, 1.0])
        xs = np.array([x, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            pivs = list(eigensolve._pivots(diag, off, mass, xs))
        assert pivs[1][0] == eigensolve._PIVMIN
        self._check(diag, off, mass, xs, 2, [np.nan, pivs[2][1]])


class TestGridCounts:
    """_seed counts every _COARSE-th grid point first and then only the grid points inside
    the brackets still open; the counts are monotone, so its brackets are those of the full
    grid's counts, each between two counted probes, in at most two counts."""

    @staticmethod
    def _check(diag, off, mass):
        guard = 1.0 / eigensolve._MU_GUARD
        glo, ghi = np.clip(eigensolve._gershgorin(diag, off, mass), -guard, guard)
        grid = eigensolve._probe_grid(glo, ghi)
        full = eigensolve._counts_below(diag, off, mass, grid)
        if full[-1] <= full[0]:  # every eigenvalue beyond the range guard
            with pytest.raises(ss.ZeroEigenvalue):
                eigensolve._seed(diag, off, mass, glo, ghi)
            return grid, None, None
        idxs, los, his, taken = eigensolve._seed(diag, off, mass, glo, ghi)
        np.testing.assert_array_equal(idxs, np.arange(full[0] + 1, full[-1] + 1))
        want_lo, want_hi = eigensolve._brackets(grid, full, idxs)
        np.testing.assert_array_equal(los, want_lo)
        np.testing.assert_array_equal(his, want_hi)
        assert taken in (1, 2)
        return grid, los, his

    @given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.booleans(), st.booleans())
    @example(0, 1, False, False)
    @example(1, 40, True, False)
    @example(2, 97, False, True)
    @settings(deadline=None, max_examples=60)
    def test_equals_the_full_grid(self, seed, n, signed, tiny):
        """Graded over hundreds of decades. With masses of both signs K is positive
        definite, as the count needs; with positive masses K is indefinite, so 0.0 is a
        grid point. tiny takes some scales down to 1e-160, where d_i is subnormal and the
        pivots fall below _PIVMIN and clamp."""
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(n - 1)
        k0 = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e)) + rng.uniform(0.1, 1.0, n)
        if not signed:
            k0 *= rng.choice((-1.0, 1.0), n)
        scale = 10.0 ** rng.uniform(-140.0, 140.0, n)
        if tiny:
            scale[rng.random(n) < 0.3] = 1e-160
        diag, off = k0 * scale**2, e * scale[:-1] * scale[1:]
        mass = 10.0 ** rng.uniform(-20.0, 20.0, n)
        if signed:
            mass[rng.random(n) < 0.5] *= -1.0
        self._check(diag, off, mass)

    def test_zero_pivot_at_zero(self):
        """Row 40 is decoupled with d = 0: its pivot at the grid point 0.0 is exactly
        zero and clamps to +_PIVMIN, so its eigenvalue 0 is not counted below 0.0 and
        its bracket starts there."""
        n = 80
        rng = np.random.default_rng(7)
        diag = rng.standard_normal(n) * 10.0 ** rng.uniform(-100.0, 100.0, n)
        off = rng.standard_normal(n - 1)
        diag[40], off[39], off[40] = 0.0, 0.0, 0.0
        grid, los, his = self._check(diag, off, np.ones(n))
        assert 0.0 in grid and len(grid) > 10 * eigensolve._COARSE
        assert 0.0 in los and 0.0 not in his


class TestProbeGrid:
    """Each side of _probe_grid halves strictly inside the other end, so the grid
    ascends strictly and needs no de-duplication (np.unique would import numpy.ma)."""

    GUARD = 1.0 / eigensolve._MU_GUARD
    ENDS = tuple(s * x for s in (1.0, -1.0) for x in (
        0.0, 5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308, 1e-300, 1.0, 1e290))

    @given(st.lists(st.one_of(st.sampled_from(ENDS), st.floats(-GUARD, GUARD)),
                    min_size=2, max_size=2, unique=True))
    @example([-1e290, 1e290])
    @example([0.0, 5e-324])
    @example([-2.2250738585072014e-308, 1.1125369292536007e-308])
    @settings(max_examples=300)
    def test_strictly_increasing(self, ends):
        """Either sign, subnormal ends, ends at the range guard and 0.0."""
        glo, ghi = sorted(ends)
        grid = eigensolve._probe_grid(glo, ghi)
        assert grid[0] == glo and grid[-1] == ghi
        assert np.all(np.diff(grid) > 0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ends_clipped_to_one_guard(self, sign):
        """The one repeat: both Gershgorin ends clip to the same range guard. Every
        count there agrees, and solve_pencil finds no eigenvalue inside the guard."""
        g = sign * self.GUARD
        np.testing.assert_array_equal(eigensolve._probe_grid(g, g), [g, g])
        K = _tridiag([sign * 1e300, sign * 2e300], [0.0])
        with pytest.raises(ss.ZeroEigenvalue):
            ss.solve_pencil(ss.PencilProblem(K, np.ones(2), 2))


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

    @pytest.mark.parametrize(
        "diag,off,needle",
        [
            ([1.0, 2.0], [math.nan], "finite"),  # gave [1.0] with dropped = 1 and no error
            ([1.0, 2.0, 3.0], [0.5], "off-diagonal"),  # an IndexError
            ([], [], ">= 1"),  # numpy's ValueError from a minimum over no entries
        ],
    )
    def test_malformed_tridiagonal_rejected(self, diag, off, needle):
        with pytest.raises(ss.OutOfRange, match=needle):
            ss.tridiag_eigs(_tridiag(diag, off))

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

    def test_dimensions_must_agree(self):
        with pytest.raises(ss.OutOfRange, match="pencil dimensions disagree"):
            ss.PencilProblem(_tridiag([1.0, 2.0], [0.5]), np.ones(3), 2)

    def test_bisection_cap_is_a_numerical_error(self, monkeypatch):
        """A bracket still open after _BISECT_CAP counts raises NonConvergence naming the cap."""
        monkeypatch.setattr(eigensolve, "_BISECT_CAP", 1)
        with pytest.raises(ss.NonConvergence, match=r"^bisection cap 1 reached$"):
            ss.solve_pencil(_route_pencil(P, 20, "fem"))

    def test_zero_mass_rejected(self):
        K = _tridiag([6.0, 8.0], [-4.0])
        with pytest.raises(ss.DegenerateWeight):
            ss.PencilProblem(K, [1.0, 0.0], 2)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, mass):
        """A NaN mass solved to one eigenvalue with dropped = 1, an infinite one to an
        eigenvalue of exactly 0.0, both with residual_bound = eps and no error."""
        with pytest.raises(ss.OutOfRange, match="finite"):
            ss.solve_pencil(ss.PencilProblem(_tridiag([6.0, 8.0], [-4.0]), [1.0, mass], 2))

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

    def test_tiny_mass_in_the_forward_half(self):
        """The same zero times an overflowed ratio with the twist at the last row, r = 2:
        the forward step from x_1 = 0 meets it at row 0, and the pencil row gives
        (-1, 0, 1)/sqrt(2)."""
        K = _tridiag([1e10, 1e10, 2e10], [1e9, 1e9])
        M = np.array([1.0, 1e-300, 2.0])
        assert eigensolve._twist(K.diag, K.offdiag, M, np.array([1e10]))[0][0] == 2
        lam, Y, info = ss.pencil_eigenpairs(ss.PencilProblem(K, M, 3))
        assert info.dropped == 1 and lam[-1] == 1e10
        np.testing.assert_allclose(Y[:, -1], [-math.sqrt(0.5), 0.0, math.sqrt(0.5)], atol=1e-15)
        KY = K.dense() @ Y
        res = np.linalg.norm(KY - lam * (M[:, None] * Y), axis=0)
        assert np.all(res <= 1e-12 * np.linalg.norm(KY, axis=0))

    def test_nan_pivot_next_to_the_end_is_refused(self):
        """x*m overflows at these shifts and the backward pivots of rows 0 and 1 are NaN,
        so gamma_0 is NaN and r = 0. The pencil-row step at row 1 would need x_(-1): the
        backward pass read the last row instead and returned (1, 0, 0), which is no
        eigenvector; the NaN now reaches the norms. solve_pencil returned +-1.8e108 for this
        pencil before it refused it (test_pencil_out_of_range_refused), so the vectors are
        taken at those shifts directly."""
        K = _tridiag([-1e-300, -1e200, 1e10], [-1.0, 1e300])
        pencil = ss.PencilProblem(K, np.array([1e200, 1e200, 1e10]), 3)
        with pytest.raises(ss.NonConvergence, match="overflowed"):
            eigensolve._twisted_vectors(pencil, np.array([-1.8e108, 1.8e108]))
        with pytest.raises(ss.OutOfRange, match="double range"):
            ss.pencil_eigenpairs(pencil)

    def test_pencil_out_of_range_refused(self):
        """K_22 - x*m_2 overflows at x ~ 1e195, where the outer eigenvalues lie (+-1e195 by
        numpy's eigvalsh of M^-1/2 K M^-1/2): the overflowed pivot turned the next row's
        e^2/piv, 1e205, into 0, and the solve returned +-1.8e108 with a residual_bound of
        1.5e-16. With or without a guess it now refuses."""
        K = _tridiag([-1e-300, -1e200, 1e10], [-1.0, 1e300])
        pencil = ss.PencilProblem(K, np.array([1e200, 1e200, 1e10]), 3)
        for guess in (None, [-1e195, 0.5, 1e195]):
            with pytest.raises(ss.OutOfRange, match="double range"):
                ss.solve_pencil(pencil, guess)

    def test_uncoupled_row_beyond_range_solved(self):
        """The range check reads only rows coupled to a neighbour: here x*m_1 overflows at
        the guard, 1e290, but row 1 is its own eigenvalue, 1e-20, and row 0's 1e295 lies
        beyond the guard."""
        K = _tridiag([1e295, 1.0], [0.0])
        for guess in (None, [1e-20]):
            out = ss.solve_pencil(ss.PencilProblem(K, np.array([1.0, 1e20]), 2), guess)
            assert out.values == pytest.approx([1e-20], rel=2 * np.finfo(float).eps)
            assert out.dropped == 1

    @pytest.mark.parametrize("form", ["fem", "section"])
    @pytest.mark.parametrize("args,N,entry", [((0.2, -1.5, 0.3, 1.0), 429, 9e299),
                                              ((0.5, 0.5, 0.0, 1e308), 481, 1e144),
                                              ((0.125, 2.0, 0.5, 1.0), 332, 1e299)])
    def test_pencils_at_max_order_stay_in_range(self, args, N, entry, form):
        """The range check passes the package's pencils at max_order, where fem stiffness
        reaches 9.0e299 at (0.2, -1.5, 0.3, 1) and the masses 1e308 at beta2 = 1e308."""
        p = ss.make_params(*args)
        pencil = _route_pencil(p, N, form)
        out = ss.solve_pencil(pencil)
        assert p.max_order == N and len(out.values) + out.dropped == N
        assert form == "section" or np.max(pencil.K.diag) > entry

    @given(contraction_params(), st.integers(1, 120))
    @settings(deadline=None, max_examples=40)
    def test_eigenpairs_satisfy_the_pencil_over_the_domain(self, p, N):
        """Every column of pencil_eigenpairs, anywhere in the contraction domain. The
        columns are scaled by their largest |K y|, whose square can overflow."""
        N = min(N, p.max_order)
        w = ss.weight_truncation(p, N)
        K = ss.stiffness_matrix(w)
        lam, Y, _ = ss.pencil_eigenpairs(ss.PencilProblem(K, w.masses, N))
        KY = K.dense() @ Y
        scale = np.max(np.abs(KY), axis=0)
        res = np.linalg.norm((KY - lam * (w.masses[:, None] * Y)) / scale, axis=0)
        assert np.all(res <= 1e-12 * np.linalg.norm(KY / scale, axis=0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_probe_grid_is_counted_once(self, sign, monkeypatch):
        """The kept index range, the brackets and (with negative masses) the
        positive definite test all come from _seed's counts, the coarse grid
        then the grid inside the open brackets; only the first probes the
        Gershgorin ends or zero."""
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

    def test_canonical_grid_stage_probes_few_points(self, monkeypatch):
        """The canonical fem grid at N = 300 has 3245 points, ~600 of them where
        eigenvalues lie: _seed's two counts probe at most 1000, its brackets are the
        full grid's, and passes is the number of counts the solve takes, these two
        included."""
        w = ss.weight_truncation(P, 300)
        K, M = ss.stiffness_matrix(w), ss.mass_matrix(w)
        guard = 1.0 / eigensolve._MU_GUARD
        glo, ghi = np.clip(eigensolve._gershgorin(K.diag, K.offdiag, M), -guard, guard)
        grid = eigensolve._probe_grid(glo, ghi)
        calls = []
        counts_below = eigensolve._counts_below
        monkeypatch.setattr(eigensolve, "_counts_below",
                            lambda *a: calls.append(len(a[3])) or counts_below(*a))
        idxs, los, his, taken = eigensolve._seed(K.diag, K.offdiag, M, glo, ghi)
        assert len(grid) == 3245 and taken == len(calls) == 2 and sum(calls) <= 1000
        want = eigensolve._brackets(grid, counts_below(K.diag, K.offdiag, M, grid), idxs)
        np.testing.assert_array_equal(np.stack((los, his)), want)
        calls.clear()
        assert ss.solve_pencil(ss.PencilProblem(K, M, 300)).passes == len(calls)

    @pytest.mark.parametrize("form,most", [("fem", 16), ("section", 10)])
    def test_grid_brackets_stop_short_of_zero(self, form, most):
        """At beta2 = 1e308 the smallest eigenvalue, 3.36e-308, is a normal double: the grid
        halves down to the smallest normal, so no bracket of _seed ends at 0.0 (equal parts
        of a bracket from 0 gain no relative digits until they reach the eigenvalue's binade;
        with the grid ending near 1e-300, 13 brackets started at 0.0 and the solve took
        20 counts)."""
        pencil = _route_pencil(ss.make_params(0.5, 0.5, 0.0, 1e308), 481, form)
        K, M, guard = pencil.K, pencil.M, 1.0 / eigensolve._MU_GUARD
        glo, ghi = np.clip(eigensolve._gershgorin(K.diag, K.offdiag, M), -guard, guard)
        idxs, los, his, _ = eigensolve._seed(K.diag, K.offdiag, M, glo, ghi)
        assert len(idxs) == 481 and 0.0 not in np.r_[los, his]
        got = ss.solve_pencil(pencil)
        assert got.values[0] > np.finfo(float).tiny and got.passes <= most

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

    @pytest.mark.parametrize("mass", [-1e-309, 1e-309])
    def test_every_disc_at_one_infinity_is_a_zero_eigenvalue(self, mass):
        """A lone row with a subnormal mass has its one eigenvalue 1/mass beyond double range.
        Padding the Gershgorin end at -inf gave -inf + inf = NaN and a ValueError from the
        probe grid for the negative mass; both signs lie beyond the range guard."""
        K = _tridiag([1.0], [])
        assert eigensolve._gershgorin(K.diag, K.offdiag, np.array([mass])) == (
            math.copysign(math.inf, mass),) * 2
        with pytest.raises(ss.ZeroEigenvalue):
            ss.solve_pencil(ss.PencilProblem(K, [mass], 1))


class TestGuess:
    """solve_pencil(p, guess) counts once at each candidate and its adjacent doubles, at the
    Gershgorin ends and at 0, closes every bracket those probes certify and counts the probe
    grid only inside the rest. Where the count is monotone the result is the solve without
    a guess, bit for bit, whatever the candidates are."""

    @pytest.mark.parametrize("form", ["fem", "section"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exact_candidates_close_in_one_count(self, form, sign, monkeypatch):
        pencil = _route_pencil(canonical(sign), 120, form)
        want = ss.solve_pencil(pencil)
        calls, counts_below = [], eigensolve._counts_below
        monkeypatch.setattr(eigensolve, "_counts_below",
                            lambda *a: calls.append(len(a[3])) or counts_below(*a))
        got = ss.solve_pencil(pencil, want.values[::-1])  # in any order
        np.testing.assert_array_equal(got.values, want.values)
        assert (got.dropped, got.passes, got.levels) == (want.dropped, 1, 1)
        assert calls == [3 * 120 + 3]

    @pytest.mark.parametrize("guess", [
        lambda v: v * (1.0 + 1e-9),  # every candidate misses: all brackets from the grid
        lambda v: np.where(np.arange(len(v)) % 2, v, -v),  # half of them are right
        lambda v: np.concatenate((v[:10], [np.inf, -np.inf, 1e300, 0.0, 0.0])),
        lambda v: np.array([]),
    ])
    def test_wrong_candidates_cost_counts_not_digits(self, guess):
        pencil = _route_pencil(ss.make_params(0.5, -0.5, 0.0, 1.0), 60, "fem")
        want = ss.solve_pencil(pencil)
        got = ss.solve_pencil(pencil, guess(want.values))
        np.testing.assert_array_equal(got.values, want.values)
        assert got.dropped == want.dropped and got.passes > 1
        assert got.residual_bound <= np.finfo(float).eps

    def test_open_brackets_count_the_grid_inside_them_once(self, monkeypatch):
        """Canonical fem at N = 300 with the upper half of the candidates 37% high: the
        second count probes only grid points and the doubles just inside the ends of the
        brackets the first left open, none counted before, and the solve takes 6 counts (7
        when the whole grid was counted again)."""
        pencil = _route_pencil(P, 300, "fem")
        want = ss.solve_pencil(pencil)
        guess = want.values.copy()
        guess[150:] *= 1.37
        calls, counts_below = [], eigensolve._counts_below
        monkeypatch.setattr(eigensolve, "_counts_below",
                            lambda *a: calls.append(np.asarray(a[3])) or counts_below(*a))
        got = ss.solve_pencil(pencil, guess)
        np.testing.assert_array_equal(got.values, want.values)
        assert got.passes == len(calls) == 6
        K, M, guard = pencil.K, pencil.M, 1.0 / eigensolve._MU_GUARD
        grid = eigensolve._probe_grid(*np.clip(eigensolve._gershgorin(K.diag, K.offdiag, M),
                                               -guard, guard))
        ends = np.concatenate((grid, *(np.nextafter(calls[0], x) for x in (-np.inf, np.inf))))
        assert np.isin(calls[1], ends).all() and not np.isin(calls[1], calls[0]).any()
        assert len(calls[1]) < len(grid) // 4

    @pytest.mark.parametrize("params,N,passes,levels", [
        ((0.5, -0.125, 0.06305480040945466, 0.2179661732686582), 122, 7, 2),
        ((0.125, -0.25, -0.47926269613649675, -0.2916721215459058), 104, 7, 2),
    ])
    def test_continuation_levels_left_open(self, params, N, passes, levels):
        """Dyadic section points where the continued order leaves brackets open, with their
        eigenvalues ulps inside an end: it takes one count of the grid and of the doubles just
        inside the ends of those brackets, and the values are the direct solve's."""
        p = ss.make_params(*params)
        got = ss.compute_spectrum(p, N, "jacobi-section")
        want = ss.solve_pencil(spectral._section_pencil(p, N))
        np.testing.assert_array_equal(got.values, want.values)
        assert (got.info.passes, got.info.levels) == (passes, levels)

    def test_guess_keeps_the_range_guard_and_inertia_checks(self):
        K = _tridiag([1.0, 1.0], [0.0])
        out = ss.solve_pencil(ss.PencilProblem(K, [1.0, 1e-295], 2), [1.0, 1e295])
        assert out.dropped == 1 and out.values.tolist() == [1.0] and out.passes == 1
        with pytest.raises(ss.NotPositiveDefinite):
            ss.solve_pencil(ss.PencilProblem(_tridiag([1.0, 1.0], [2.0]), [1.0, -1.0], 2), [1.0])
        with pytest.raises(ss.OutOfRange, match="NaN"):
            ss.solve_pencil(ss.PencilProblem(K, [1.0, 1.0], 2), [1.0, math.nan])


def _plain_multisection(p):
    """solve_pencil as it was before its Rayleigh-quotient stage, the reference for it:
    every bracket from the probe grid is cut into equal parts, many per vectorised
    count, until no cut moves it. Returns (values, eigenvalues below the first, dropped)."""
    K, M, guard = p.K, p.M, 1.0 / eigensolve._MU_GUARD
    glo, ghi = np.clip(eigensolve._gershgorin(K.diag, K.offdiag, M), -guard, guard)
    probes = eigensolve._probe_grid(glo, ghi)
    counts = eigensolve._counts_below(K.diag, K.offdiag, M, probes)
    k1, k2 = int(counts[0]), int(counts[-1])
    idxs = np.arange(k1 + 1, k2 + 1)
    j = np.clip(np.searchsorted(np.maximum.accumulate(counts), idxs), 1, len(probes) - 1)
    los, his = probes[j - 1], probes[j]
    active = np.ones(len(idxs), dtype=bool)
    for _ in range(eigensolve._BISECT_CAP):
        act = np.flatnonzero(active)
        if not len(act):
            break
        parts = 2 ** min(6, max(1, int(math.log2(eigensolve._PROBE_BUDGET / len(act)))))
        frac = np.arange(1, parts) / parts
        lo, hi = los[act, None], his[act, None]
        pts = np.minimum(np.maximum(lo * (1.0 - frac) + hi * frac, lo), hi)
        cnt = eigensolve._counts_below(K.diag, K.offdiag, M, pts.ravel()).reshape(pts.shape)
        c = np.sum(~np.logical_or.accumulate(cnt >= idxs[act, None], axis=1), axis=1)
        ends = np.hstack((lo, pts, hi))
        rows = np.arange(len(act))
        new_lo, new_hi = ends[rows, c], ends[rows, c + 1]
        stuck = (new_lo == los[act]) & (new_hi == his[act])
        los[act], his[act] = new_lo, new_hi
        active[act[stuck]] = False
    return np.maximum.accumulate(0.5 * (los + his)), k1, p.order - (k2 - k1)


def _route_pencil(p, N, form):
    if form == "fem":
        return spectral._fem_pencil(ss.weight_truncation(p, N))
    return spectral._section_pencil(p, N)


def _row_by_row_twist(d, e, m, xs):
    """The twist of _twist from _pivots' pivots and the sums of z^T M z written out, one
    row at a time in each direction: (r, gamma_r, z^T M z)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fwd = np.array(list(eigensolve._pivots(d, e, m, xs)))
        bwd = np.array(list(eigensolve._pivots(d[::-1], e[::-1], m[::-1], xs)))[::-1]
        fs, bs = np.empty_like(fwd), np.empty_like(bwd)
        fs[0], bs[-1] = m[0], m[-1]
        for i in range(1, len(d)):
            fs[i] = m[i] + (e[i - 1] / fwd[i - 1]) ** 2 * fs[i - 1]
        for i in range(len(d) - 2, -1, -1):
            bs[i] = m[i] + (e[i] / bwd[i + 1]) ** 2 * bs[i + 1]
        gamma = fwd + bwd - (d[:, None] - m[:, None] * xs)
        r = np.argmin(np.abs(gamma) / np.abs(m)[:, None], axis=0)
        k = np.arange(len(xs))
        return r, gamma[r, k], fs[r, k] + bs[r, k] - m[r]


def _twist_case(seed, n, signed):
    """A random T, masses and shifts for the twist: (d, e, m, xs), the shifts the
    eigenvalues, where the pivots near zero, and 20 drawn at random."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    e = rng.standard_normal(n - 1)
    m = rng.uniform(0.1, 2.0, n)
    if signed:
        m[rng.random(n) < 0.4] *= -1.0
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    exact = np.linalg.eigvals(T / m[:, None]).real
    return d, e, m, np.concatenate((exact, rng.standard_normal(20)))


def _nearest_change_cut(lo, pts, hi, up, m):
    """The fan's rule written out, a reference for _cut: the change of count nearest column m
    of the ends [lo, pts, hi], as (new lo, new hi)."""
    up = np.hstack((np.zeros_like(lo, bool), up, np.ones_like(hi, bool)))
    after = m - 1 + np.argmax(up[:, m:], axis=1)  # just before the first >= idx from m
    before = m - 1 - np.argmax(~up[:, m - 1 :: -1], axis=1)  # the last < idx before m
    c = np.where(up[:, m], before, after)
    ends = np.hstack((lo, pts, hi))
    return ends[np.arange(len(pts)), c], ends[np.arange(len(pts)), c + 1]


def _first_change_cut(lo, pts, hi, up):
    """Multisection's rule written out, a reference for _cut: the ends before the first
    count >= idx, as (new lo, new hi); monotone even if roundoff is not."""
    c = np.sum(~np.logical_or.accumulate(up, axis=1), axis=1)
    ends = np.hstack((lo, pts, hi))
    return ends[np.arange(len(pts)), c], ends[np.arange(len(pts)), c + 1]


@st.composite
def _brackets(draw):
    """Finite lo < hi, not adjacent doubles, as the probe grid leaves them: within a factor of
    2 or ending at 0, of either sign, subnormal ends included, below 1/_MU_GUARD."""
    hi = draw(st.floats(np.nextafter(0.0, 1.0), 1.0 / eigensolve._MU_GUARD))
    lo = 0.0 if draw(st.booleans()) else draw(st.floats(hi / 2.0, hi))
    if draw(st.booleans()):
        lo, hi = -hi, -lo
    assume(lo < hi and np.nextafter(lo, hi) != hi)
    return lo, hi


class TestCut:
    """solve_pencil cuts every bracket by one rule, _cut at the change of count nearest
    column m: m = 1 for multisection's equal parts, the middle of the fan for the fan."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 63), st.booleans())
    @example(0, 3, 9, False)
    @settings(deadline=None, max_examples=200)
    def test_equals_the_rules_it_replaces(self, seed, rows, width, monotone):
        """On random rows of ends lo < pts < hi and counts, monotone or not: at m = 1 the
        first change from the left, bit for bit; at the fan's middle column, with its
        points, the change nearest that column."""
        rng = np.random.default_rng(seed)
        for m, n in ((1, width), (1 + len(eigensolve._FAN) // 2, len(eigensolve._FAN))):
            ends = np.sort(rng.uniform(-10.0, 10.0, (rows, n + 2)), axis=1)
            lo, pts, hi = ends[:, :1], ends[:, 1:-1], ends[:, -1:]
            if monotone:
                up = np.arange(n) >= rng.integers(0, n + 1, (rows, 1))
            else:
                up = rng.random((rows, n)) < 0.5
            want = _first_change_cut(lo, pts, hi, up) if m == 1 else \
                _nearest_change_cut(lo, pts, hi, up, m)
            for got, exp in zip(eigensolve._cut(lo, pts, hi, up, m), want):
                np.testing.assert_array_equal(got, exp)

    @given(_brackets())
    @example((0.0, 3 * np.nextafter(0.0, 1.0)))  # (hi - lo)*0.5, 1.5 least steps, rounds to 2
    @example((1.0, 1.0 + 2 * np.finfo(float).eps))  # a 2-ulp bracket
    @example((-2.0 * np.finfo(float).tiny, -np.finfo(float).tiny))  # ends at the least normal
    @example((np.finfo(float).tiny - np.nextafter(0.0, 1.0), 2.0 * np.finfo(float).tiny))
    @example((2.0**-1, 1.0 - np.finfo(float).eps / 2))  # a binade less one ulp
    @settings(deadline=None, max_examples=200)
    def test_every_multisection_cut_shrinks(self, bracket):
        """No bracket sticks, which is why solve_pencil keeps no stuck state: for every
        number of parts a count can take, some point solve_pencil probes lies strictly
        inside a bracket wider than adjacent doubles, so every cut shrinks it."""
        lo, hi = bracket
        for parts in 2 ** np.arange(1, 7):
            frac = np.arange(1, parts) / parts
            pts = np.minimum(np.maximum(lo + (hi - lo) * frac, lo), hi)
            assert np.any((pts > lo) & (pts < hi)), (lo, hi, parts)


class TestRayleighStage:
    """solve_pencil moves isolated brackets by Rayleigh-quotient steps on the twist element
    gamma_r and probes a fan around each estimate; the counts still close every bracket
    to adjacent doubles. Where the count is monotone that closes on the plain
    multisection's value; where roundoff makes it change more than once over a few ulps,
    either change is an answer of the count, and the two can differ."""

    @staticmethod
    def _check(p, N, form):
        """Same index range and dropped count as the reference; every value within 2e-15
        of its value, or else the count changes more than once between the two."""
        pencil = _route_pencil(p, N, form)
        got = ss.solve_pencil(pencil)
        want, below, dropped = _plain_multisection(pencil)
        assert got.dropped == dropped and len(got.values) == len(want)
        assert got.residual_bound <= np.finfo(float).eps
        rel = np.abs(got.values - want) / np.maximum(np.abs(got.values), np.abs(want))
        for i in np.flatnonzero(rel > 2e-15):
            lo, hi = sorted((got.values[i], want[i]))
            ulp = np.spacing(min(abs(lo), abs(hi)))
            xs = lo + ulp * np.arange(-2, (hi - lo) / ulp + 3)
            assert len(xs) < 10**5
            up = eigensolve._counts_below(pencil.K.diag, pencil.K.offdiag, pencil.M, xs) > below + i
            assert not up[np.argmax(up):].all(), (i, rel[i])  # falls back after rising
        return got

    @pytest.mark.parametrize("form", ["fem", "section"])
    @given(contraction_params(edge=0.99), st.integers(1, 320))
    @example(ss.make_params(0.9834355985567105, -0.9954953942401036, -0.4887197112434862,
                            0.20012592946157826), 118)
    @example(P, 1)
    @example(P, 2)
    @example(ss.make_params(0.9, -1.0, 0.0, 1.0), 63)
    @settings(deadline=None, max_examples=10)
    def test_matches_plain_multisection(self, form, p, N):
        """Over the contraction domain, both signs of d, a -> 1 and a*d^2 -> 1, at every
        order the stage serves. At the first example the fem count changes back and forth
        over ~220 ulps near -6.216; the two values there lie 2.9e-14 apart, 1.1e-14 (this)
        and 1.8e-14 (the reference) from the exact eigenvalue of the float64 pencil."""
        self._check(p, min(N, p.max_order), form)

    @pytest.mark.parametrize("form", ["fem", "section"])
    @pytest.mark.parametrize(
        "args,N",
        [
            ((0.9, -1.05, 0.0, 1.0), 300),
            ((0.3, 1.7, 0.0, 1.0), 200),
            ((0.99, 0.99, 0.0, 1.0), 300),
            ((0.5, 0.5, 0.0, 1e308), 481),
        ],
    )
    def test_points_where_fixed_corrections_missed(self, args, N, form, monkeypatch):
        """Quadratic convergence with a constant of 2-10, weak grading and eigenvalues down
        to 1e-308: the stage runs once, in one batch of few sweeps; only the first count
        probes the Gershgorin ends or zero; pytest turns any RuntimeWarning into an error."""
        calls, sweeps = [], []
        counts_below, twist = eigensolve._counts_below, eigensolve._twist
        monkeypatch.setattr(eigensolve, "_counts_below",
                            lambda *a: calls.append(np.asarray(a[3])) or counts_below(*a))
        monkeypatch.setattr(eigensolve, "_twist", lambda *a: sweeps.append(len(a[3])) or twist(*a))
        p = ss.make_params(*args)
        pencil = _route_pencil(p, N, form)
        got = ss.solve_pencil(pencil)
        assert 0 < len(sweeps) <= 5 and got.passes == len(calls) <= 25
        K, M = pencil.K, pencil.M
        guard = 1.0 / eigensolve._MU_GUARD
        glo, ghi = np.clip(eigensolve._gershgorin(K.diag, K.offdiag, M), -guard, guard)
        assert [i for i, xs in enumerate(calls) if np.isin([glo, ghi, 0.0], xs).any()] == [0]
        monkeypatch.undo()
        self._check(p, N, form)

    @pytest.mark.parametrize("form", ["fem", "section"])
    @pytest.mark.parametrize("N", [20, 60])
    def test_small_orders_use_the_stage(self, form, N, monkeypatch):
        """The stage serves small orders too: the canonical brackets close in at most 6
        counts and 3 sweeps; plain multisection took 13 counts at N = 20 and 16 at 60."""
        sweeps, twist = [], eigensolve._twist
        monkeypatch.setattr(eigensolve, "_twist", lambda *a: sweeps.append(len(a[3])) or twist(*a))
        assert ss.solve_pencil(_route_pencil(P, N, form)).passes <= 6 and len(sweeps) == 3

    @pytest.mark.parametrize("form", ["fem", "section"])
    def test_chunked_corrections_equal_one_chunk(self, form, monkeypatch):
        """With the twist budget cut to 7 estimates at a time, the canonical order 60 takes
        its Rayleigh sweeps in several chunks and gives the unchunked values, dropped count
        and passes bit for bit: each estimate's twist is its own column."""
        pencil = _route_pencil(P, 60, form)
        want = ss.solve_pencil(pencil)
        sweeps, twist = [], eigensolve._twist
        monkeypatch.setattr(eigensolve, "_twist", lambda *a: sweeps.append(len(a[3])) or twist(*a))
        monkeypatch.setattr(eigensolve, "_TWIST_BUDGET", eigensolve._TWIST_BYTES * 60 * 7)
        got = ss.solve_pencil(pencil)
        assert max(sweeps) == 7 and len(sweeps) >= 9
        np.testing.assert_array_equal(got.values, want.values)
        assert (got.dropped, got.passes) == (want.dropped, want.passes)

    def test_masses_near_overflow_keep_the_rayleigh_step(self):
        """At beta2 = 1e308 the masses near 1e308 and z^T M z at lambda_1 (3.4e-308, twist
        row 0) exceeds the largest double; summed on the masses scaled by 2^-1024 it stays
        finite, the step toward lambda_1 is not lost, and fem closes its brackets in at most
        9 counts, as the section does (16 when the sum overflowed)."""
        w = ss.weight_truncation(ss.make_params(0.5, 0.5, 0.0, 1e308), 481)
        pencil = spectral._fem_pencil(w)
        got = ss.solve_pencil(pencil)
        assert got.passes <= 9
        x = got.values[:1] * (1.0 + 1e-6)
        r, gamma, buf = eigensolve._twist(pencil.K.diag, pencil.K.offdiag, w.masses, x)
        zmz, scale = eigensolve._zmz(buf, r, pencil.K.offdiag, w.masses)
        assert r[0] == 0 and scale == 1024 and np.isfinite(zmz).all()
        step = np.ldexp(gamma / zmz, -scale)
        assert abs(x[0] + step[0] - got.values[0]) <= 1e-9 * got.values[0]

    @pytest.mark.parametrize("form", ["fem", "section"])
    def test_canonical_order_300_takes_few_passes(self, form):
        """The brackets close in at most 12 counts; plain multisection took 55."""
        assert ss.solve_pencil(_route_pencil(P, 300, form)).passes <= 12

    def test_green_reports_its_sweeps(self):
        w = ss.weight_truncation(P, 300)
        assert ss.solve_green(ss.green_kernel_matrix(w) / w.masses, w.masses).passes == 3

    @given(st.builds(_twist_case, st.integers(0, 2**32 - 1), st.integers(1, 70), st.booleans()))
    @example(_twist_case(0, 1, False))
    @example(_twist_case(1, 33, True))
    @example(_twist_case(2, 64, True))
    # x*m_35 overflows to -inf at x = 1e10, so gamma_35 = inf + inf - inf is NaN: r = 35
    @example((np.ones(40), np.full(39, 0.5), np.where(np.arange(40) == 35, -1e300, 1.0),
              np.array([1e10, 0.3])))
    # no coupling: gamma_i = i - 31.5, the least |gamma| tied on rows 31 and 32: r = 31
    @example((np.arange(64.0), np.zeros(63), np.ones(64), np.array([31.5])))
    @settings(deadline=None, max_examples=40)
    def test_twist_equals_the_row_by_row_twist(self, case):
        """One pass runs both factorizations side by side and keeps every step; the twist
        index, taken block by block and then over the blocks, is np.argmin's over all rows,
        ties and NaN included: r, gamma_r and z^T M z are bit for bit those of the plain
        recurrences, the sums, formed in place over the pivots, undone by their power-of-two
        scale."""
        d, e, m, xs = case
        r, gamma, buf = eigensolve._twist(d, e, m, xs)
        zmz, scale = eigensolve._zmz(buf, r, e, m)
        for got, want in zip((r, gamma, np.ldexp(zmz, scale)), _row_by_row_twist(d, e, m, xs)):
            np.testing.assert_array_equal(got, want)


def _round_pairs(n, s, o):
    """The pairs (i, i + s) of the Jacobi round (s, o): i in the length-s
    blocks starting at o, o + 2s, ..., with i + s < n; shape (pairs, 2)."""
    i = np.arange(o, n - s)
    p = i[(i - o) // s % 2 == 0]
    return np.stack((p, p + s), axis=1)


def _fancy_round(A, pq, rot_tol):
    """The round as fancy-index gathers and scatters, the reference for the strided-view
    round: rotate the rows of the pairs pq whose ratio a_pq (p < q) exceeds rot_tol, then
    the rows of the transpose of the result, with no mean; Rutishauser diagonal updates,
    and the rotated pairs' a_pq and a_qp set to zero. Returns the rotated matrix, or None
    when no pair exceeds rot_tol."""
    p, q = pq.T
    app, aqq, apq = A[p, p], A[q, q], A[p, q]
    big = np.abs(apq) / (np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq))) > rot_tol
    if not big.any():
        return None
    pq, (p, q), app, aqq, apq = pq[big], pq[big].T, app[big], aqq[big], apq[big]
    diff, twice = aqq - app, 2.0 * apq
    t = twice / (diff + np.copysign(np.hypot(diff, twice), diff))
    c = 1.0 / np.hypot(1.0, t)
    rot = np.stack((c, -t * c, t * c, c), axis=1).reshape(-1, 2, 2)
    pairs = pq.ravel()  # p0, q0, p1, q1, ...
    rows = A.copy()
    rows[pairs] = np.matmul(rot, A[pq]).reshape(len(pairs), -1)
    out = rows.T.copy()
    out[pairs] = np.matmul(rot, out[pq]).reshape(len(pairs), -1)
    out[p, p] = app - t * apq
    out[q, q] = aqq + t * apq
    out[p, q] = out[q, p] = 0.0
    return out


def _brute_couplings(A, rot_tol):
    """_couplings over every pair p < q, one at a time: the largest |a_pq| / max(sqrt|a_pp| *
    sqrt|a_qq|, tiny) (NaN if one is, 0.0 if there is no pair), and the widest q - p above
    rot_tol (0 if none)."""
    n, tiny = len(A), np.finfo(float).tiny
    root = np.sqrt(np.abs(np.diagonal(A)))
    rel, band = 0.0, 0
    for p in range(n):
        for q in range(p + 1, n):
            r = abs(A[p, q] / max(root[p] * root[q], tiny))
            if math.isnan(r) or r > rel:  # a NaN stays
                rel = r
            if r > rot_tol:
                band = max(band, q - p)
    return rel, band


def _reference_jacobi(A):
    """_jacobi's solve on _fancy_round: the same stop test (_brute_couplings) and the same
    rounds (s, o), s = 1..w, o = 0 then s, each sweep. Returns (values, rel, sweeps)."""
    n = len(A)
    rot_tol = max(1e-15, 4 * n * np.finfo(float).eps)
    for sweep in range(eigensolve._SWEEP_CAP + 1):
        rel, w = _brute_couplings(A, rot_tol)
        if not rel > rot_tol:
            break
        for s in range(1, min(w, n - 1) + 1):
            for o in (0, s) if 2 * s < n else (0,):
                out = _fancy_round(A, _round_pairs(n, s, o), rot_tol)
                if out is not None:
                    A = out
    return np.sort(np.diagonal(A)), rel, sweep


def _green_input(params, N):
    """The matrix L^T S L that solve_green hands to _jacobi at (params, N)."""
    w = ss.weight_truncation(ss.make_params(*params), N)
    G = ss.green_kernel_matrix(w) / w.masses
    seen = []
    jacobi = eigensolve._jacobi

    def spy(A):
        seen.append(A.copy())
        return jacobi(A)

    eigensolve._jacobi = spy
    try:
        ss.solve_green(G, w.masses)
    finally:
        eigensolve._jacobi = jacobi
    return seen[0]


def _graded_symmetric(rng, n):
    """A random matrix symmetric to roundoff, its rows scaled over e^+-5, some couplings just
    above and some just below rot_tol."""
    rot_tol = max(1e-15, 4 * n * np.finfo(float).eps)
    X = rng.standard_normal((n, n)) * np.exp(rng.uniform(-5.0, 5.0, n))
    A = X + X.T
    A[np.tril_indices(n, -1)] *= 1.0 + rng.integers(-2, 3, n * (n - 1) // 2) * 2.0**-52
    root = np.sqrt(np.abs(np.diagonal(A)))
    p, q = np.triu_indices(n, 1)
    near = rng.random(len(p)) < 0.2
    f = rng.choice([0.5, 0.999, 1.001, 2.0], len(p))
    A[p[near], q[near]] = (f * rot_tol * root[p] * root[q])[near]
    return A


class TestDenseJacobi:
    def test_two_by_two(self):
        vals, _, _ = _jacobi(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [1.0, 3.0], rtol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(deadline=None, max_examples=40)
    def test_random_symmetric_match_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        S = A + A.T
        got, _, _ = _jacobi(S.copy())
        want = np.linalg.eigvalsh(S)
        np.testing.assert_allclose(got, want, atol=1e-12 * np.abs(want).max())

    def test_nan_entry_never_converges(self):
        """A NaN ratio stops the solve at the first stop test, which names it."""
        with pytest.raises(ss.NonConvergence,
                           match=r"coupling of \(0, 1\) is not finite at sweep 0: .*nan"):
            _jacobi(np.array([[1.0, np.nan], [np.nan, 2.0]]))

    def test_infinite_entry_is_named_a_sweep_later(self):
        """An infinite a_pq rotates once (its ratio is inf) into NaN, and the next stop test
        names it."""
        with pytest.raises(ss.NonConvergence, match=r"\(0, 1\) is not finite at sweep 1"):
            _jacobi(np.array([[1.0, np.inf], [np.inf, 2.0]]))

    def test_nan_past_the_first_row_block_is_named_by_its_pair(self):
        """The stop test's scan names the pair in the whole matrix's indices, not in those of
        the row block that holds it (rows 32..63 at n = 70)."""
        A = np.diag(np.arange(1.0, 71.0))
        A[40, 65] = A[65, 40] = np.nan
        with pytest.raises(ss.NonConvergence,
                           match=r"coupling of \(40, 65\) is not finite at sweep 0: .*, nan, 66\.0$"):
            _jacobi(A)

    def test_sweep_cap_is_named(self, monkeypatch):
        """A solve that needs more sweeps than the cap names the cap."""
        monkeypatch.setattr(eigensolve, "_SWEEP_CAP", 1)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 8))
        with pytest.raises(ss.NonConvergence, match=r"^Jacobi sweep cap 1 reached$"):
            _jacobi(X + X.T)

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
        with pytest.raises(ss.NumericalError, match=r"Jacobi coupling of \(\d+, \d+\) is not finite at "
                                                      r"sweep 0"):
            ss.solve_green(G, np.ones(4))

    def test_green_all_reciprocals_below_the_guard(self):
        """Every mass of order 63 is below 7.6e-294 (r = 7.8e-296) and the Green kernel below
        1/4 on the diagonal, so every mu, at most the trace of G M, is below _MU_GUARD."""
        p = ss.make_params(0.9896827233007265, 0.5, -1.5121488115000766e-293, 0.0)
        with pytest.raises(ss.ZeroEigenvalue, match="all reciprocal eigenvalues below the "
                                                    "underflow guard"):
            ss.compute_spectrum(p, 63, "green-kernel")

    def test_green_indefinite_rejected(self):
        with pytest.raises(ss.NotPositiveDefinite):
            ss.solve_green(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((8, 8))
        S = A + A.T
        vals, _, _ = _jacobi(S.copy())
        assert float(np.sum(vals)) == pytest.approx(float(np.trace(S)), rel=1e-13)


    @pytest.mark.parametrize("n", range(1, 41))
    def test_band_rounds_hold_each_band_pair_once(self, n, monkeypatch):
        """A sweep over a matrix whose widest coupling is |p - q| = w visits
        rounds (s, o) whose pairs are disjoint and hold every pair with
        1 <= q - p <= w once."""
        rounds, held = [], []
        monkeypatch.setattr(eigensolve, "_band_round", lambda X, cur, plan, tol: rounds.append(
            (plan.s, plan.o)) or held.append(bool(plan.views)))
        for w in range(1, n):
            A = np.diag(np.arange(1.0, n + 1.0))
            A[0, w] = A[w, 0] = 0.5
            rounds.clear()
            with pytest.raises(ss.NonConvergence):  # the recorder rotates nothing
                _jacobi(A)
            sweep = rounds[: len(rounds) // eigensolve._SWEEP_CAP]
            assert rounds == sweep * eigensolve._SWEEP_CAP
            pairs = []
            for s, o in sweep:
                pq = _round_pairs(n, s, o)
                assert len(np.unique(pq)) == pq.size > 0  # disjoint, not empty
                pairs += [tuple(x) for x in pq.tolist()]
            band = [(p, q) for p in range(n) for q in range(p + 1, min(n, p + w + 1))]
            assert sorted(pairs) == band
            assert all(held)  # every round _jacobi plans holds a pair

    @pytest.mark.parametrize("n", range(1, 41))
    def test_view_round_equals_the_fancy_index_round(self, n):
        """Every round (s, o) of a random matrix symmetric to roundoff, some of
        its pairs below rot_tol, partial blocks and s > n/2 included: the
        planned strided-view round gives exactly the fancy-index round's matrix,
        and leaves A as it was when no pair is above rot_tol."""
        rng = np.random.default_rng(n)
        rot_tol = max(1e-15, 4 * n * np.finfo(float).eps)
        for s in range(1, n):
            for o in (0, s):
                X = rng.standard_normal((n, n)) * np.exp(rng.uniform(-5.0, 5.0, n))
                A = X + X.T
                A[np.tril_indices(n, -1)] *= 1.0 + rng.integers(-2, 3, n * (n - 1) // 2) * 2.0**-52
                pq = _round_pairs(n, s, o)
                p, q = pq.T
                low = rng.random(len(p)) < 0.3
                tiny = 0.5 * rot_tol * np.sqrt(np.abs(A[p, p])) * np.sqrt(np.abs(A[q, q]))
                A[p[low], q[low]] = A[q[low], p[low]] = tiny[low]
                want, got, out = _fancy_round(A, pq, rot_tol), A.copy(), np.empty_like(A)
                plan = eigensolve._plan_round(got, out, s, o)
                if eigensolve._band_round((got, out), 0, plan, rot_tol):
                    np.testing.assert_array_equal(out, want)
                else:
                    assert want is None
                    np.testing.assert_array_equal(got, A)

    @pytest.mark.parametrize("above", ["a_pq", "a_qp"])
    def test_pair_straddling_rot_tol_at_roundoff(self, above):
        """A rotated matrix is symmetric to roundoff only, so a_pq and a_qp can lie an ulp
        apart on either side of rot_tol. The stop test and the rotation test both read
        a_pq: the solve rotates the pair or stops, and never sweeps to the cap over a pair
        that its round declines."""
        rot_tol = max(1e-15, 8 * np.finfo(float).eps)
        up = np.nextafter(rot_tol, 1.0)  # ratio |a_01| / (sqrt(1) * sqrt(1)) just above rot_tol
        A = np.eye(2)
        A[0, 1], A[1, 0] = (up, rot_tol) if above == "a_pq" else (rot_tol, up)
        vals, rel, sweeps = _jacobi(A)
        rotated = above == "a_pq"
        assert rel <= rot_tol and sweeps == int(rotated)
        np.testing.assert_allclose(vals, [1.0 - up, 1.0 + up] if rotated else [1.0, 1.0],
                                   rtol=1e-15)

    def test_green_peak_memory_is_within_its_budget(self):
        """Under tracemalloc a Green solve at N = 300, its input buffer G included, holds at
        most _DENSE_BYTES per entry at once: no n x n transient beyond three arrays, and the
        table of planned Jacobi rounds holds views and ints, no array data. (LAPACK's working
        copy in the Cholesky is not traced; the budget counts it beside G and L.)"""
        N = 300
        w = ss.weight_truncation(P, N)
        G = ss.green_kernel_matrix(w) / w.masses
        tracemalloc.start()
        try:
            ss.solve_green(G, w.masses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.nbytes + peak <= eigensolve._DENSE_BYTES * N * N

    def test_canonical_green_rotates_in_few_rounds(self, monkeypatch):
        """At the canonical N = 300 every rotated pair has |p - q| <= 26, so
        band sweeps need 130 rounds where a round-robin order took 1196."""
        calls = []
        band_round = eigensolve._band_round

        def spy(X, cur, plan, rot_tol):
            calls.append((plan.s, plan.o))
            return band_round(X, cur, plan, rot_tol)

        monkeypatch.setattr(eigensolve, "_band_round", spy)
        w = ss.weight_truncation(P, 300)
        ss.solve_green(ss.green_kernel_matrix(w) / w.masses, w.masses)
        assert len(calls) <= 200

    @pytest.mark.parametrize("case", ["(0.9, -1) N=60", "(0.5, -0.5) N=37", "graded n=37",
                                      "a_pq above", "a_qp above"])
    def test_solve_equals_the_fancy_index_solve(self, case):
        """The planned rounds change no bit of a solve: values, the ratio left and the
        sweeps equal a reference loop of fancy-index rounds with the same stop test and
        rounds, where the band w passes n/2 (the (0.9, -1) Green matrix, negative masses),
        with partial blocks (odd n), with couplings near rot_tol, and where a pair
        straddles it at roundoff."""
        if case.startswith("("):
            params = (0.9, -1.0, 0.0, 1.0) if case.startswith("(0.9") else (0.5, -0.5, 0.0, 1.0)
            A = _green_input(params, int(case.split("=")[1]))
        elif case.startswith("graded"):
            A = _graded_symmetric(np.random.default_rng(37), 37)
        else:
            rot_tol = max(1e-15, 8 * np.finfo(float).eps)
            up = np.nextafter(rot_tol, 1.0)
            A = np.eye(2)
            A[0, 1], A[1, 0] = (up, rot_tol) if case == "a_pq above" else (rot_tol, up)
        want_vals, want_rel, want_sweeps = _reference_jacobi(A.copy())
        vals, rel, sweeps = _jacobi(A.copy())
        assert vals.tobytes() == want_vals.tobytes()
        assert (rel, sweeps) == (want_rel, want_sweeps)
        if case.startswith("(0.9"):
            assert _brute_couplings(A, max(1e-15, 4 * 60 * np.finfo(float).eps))[1] > 30

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 70])
    def test_couplings_equal_a_scan_of_every_pair(self, n):
        """The stop test's ratio and band, taken a row block at a time, equal a scan of
        every pair p < q: on graded matrices with couplings near rot_tol, with a NaN entry,
        and with no coupling above rot_tol."""
        rng = np.random.default_rng(n)
        rot_tol = max(1e-15, 4 * n * np.finfo(float).eps)
        A = _graded_symmetric(rng, n)
        nan = A.copy()
        nan[n // 2, n - 1] = np.nan
        quiet = np.diag(np.exp(rng.uniform(-5.0, 5.0, n)))
        if n > 1:
            quiet[0, n - 1] = 0.5 * rot_tol * np.sqrt(quiet[0, 0] * quiet[n - 1, n - 1])
        for M in (A, nan, quiet):
            rel, w, _ = eigensolve._couplings(M, rot_tol)
            want_rel, want_w = _brute_couplings(M, rot_tol)
            assert w == want_w
            assert np.float64(rel).tobytes() == np.float64(want_rel).tobytes()
        assert eigensolve._couplings(quiet, rot_tol)[1] == 0

    def test_round_table_holds_views_only_and_dies_with_the_solve(self, monkeypatch):
        """Every planned view is a view of one of the two buffers, owning no data, and none
        outlives _jacobi."""
        plan_round = eigensolve._plan_round
        refs = []

        def spy(X0, X1, s, o):
            plan = plan_round(X0, X1, s, o)
            for v in plan.views:
                assert not v.flags.owndata and (v.base is X0 or v.base is X1)
            refs.extend(weakref.ref(v) for v in plan.views)
            return plan

        monkeypatch.setattr(eigensolve, "_plan_round", spy)
        _jacobi(_green_input((0.9, -1.0, 0.0, 1.0), 40))
        assert refs and all(r() is None for r in refs)


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

    def test_eigenpairs_peak_memory_is_within_its_budget(self):
        """Under tracemalloc pencil_eigenpairs at (0.9, 0.9), N = 1000, holds at most
        _DENSE_BYTES per entry at once: the twist's one buffer of pivots, 16 bytes, and the
        vectors, 8, with no sums, no n x n square and no mask in the normalisation; the O(n)
        state and the row blocks fit in the 25th byte at this order (24.1 measured)."""
        N = 1000
        pencil = spectral._fem_pencil(ss.weight_truncation(ss.make_params(0.9, 0.9, 0.0, 1.0), N))
        self._unit_mass(_tridiag([1.0, 2.0], [0.5]))  # the first call's one-time allocations
        tracemalloc.start()
        try:
            ss.pencil_eigenpairs(pencil)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= eigensolve._DENSE_BYTES * N * N


# One warm-up fem solve at (a, d, 0, 1) and order N, then the given number more: prints the
# process's minor page faults after the warm-up. Arguments: a d N solves.
_FAULTS_CHILD = """
import resource, sys
import selfsimspec as ss
from selfsimspec import spectral
a, d, n, solves = float(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
pencil = spectral._fem_pencil(ss.weight_truncation(ss.make_params(a, d, 0.0, 1.0), n))
ss.solve_pencil(pencil)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt, flush=True)
for _ in range(solves):
    ss.solve_pencil(pencil)
"""


class TestTwistMemory:
    """A twist keeps one buffer, its pivots, which _zmz turns into the sums in place."""

    def test_solve_peak_memory(self):
        """Under tracemalloc fem at (0.9, 0.9), N = 1000, peaks at most at 20 MB: the first
        Rayleigh sweep's twist, 16 bytes per (row, shift) with one shift per eigenvalue
        (18.3 MB measured; a second array for the sums made it 32.4 MB)."""
        N = 1000
        pencil = spectral._fem_pencil(ss.weight_truncation(ss.make_params(0.9, 0.9, 0.0, 1.0), N))
        ss.solve_pencil(_route_pencil(P, 20, "fem"))  # the first call's one-time allocations
        tracemalloc.start()
        try:
            ss.solve_pencil(pencil)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

    @pytest.mark.skipif(not hasattr(os, "wait4") or platform.libc_ver()[0] != "glibc",
                        reason="needs os.wait4 and glibc malloc")
    @pytest.mark.parametrize("args", [("0.5", "0.5", "300", "5"), ("0.99", "0.99", "1500", "1")],
                             ids=["canonical-300", "weak-1500"])
    def test_repeated_solves_fault_in_no_pages(self, args):
        """In a fresh interpreter, after one warm-up, five canonical fem solves at N = 300
        take under 100 minor page faults in all, process exit included (about a dozen
        measured). Pivots and sums freed together, 2.9 MB, crossed glibc's trim threshold,
        so the heap was trimmed after each twist and the next one faulted its pages in
        again: some 14500 faults. At (0.99, 0.99), N = 1500, where the twist budget
        splits a sweep, one solve read 25000 faults that way, and 3700 with a 64 MiB budget,
        whose 36 MB buffer glibc maps afresh each time."""
        proc = subprocess.Popen([sys.executable, "-c", _FAULTS_CHILD, *args],
                                stdout=subprocess.PIPE, text=True)
        after_warm_up = int(proc.stdout.read())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        assert proc.returncode == 0
        assert usage.ru_minflt - after_warm_up < 100
