"""Fine-grid reference: truncation, Richardson, matching, rate fits."""

import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse
from scipy.sparse.linalg import splu
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homspec.reference as reference
from homspec.errors import (ConfigError, ConvergenceFailure, DegenerateFit,
                            GridTooCoarse)
from homspec.classical import build_suite
from homspec.expansion import simple_recursion
from homspec.hermite import MacroBasis, default_sigma, solve_spectrum
from homspec.reference import (
    FDOperator,
    FineGrid,
    _assemble_2d,
    _fd_operator,
    _separable_parts,
    _solve_1d,
    fit_rate,
    match_and_compare,
    solve_Leps,
    truncation_radius,
)
from homspec.slowpoly import SlowPolynomial
from homspec.torus import CoefficientField, TorusGrid

TWO_PI = 2.0 * np.pi


def w1():
    return SlowPolynomial(1, {(2,): 1.0})


def coeff_identity_1d():
    return CoefficientField.from_isotropic(
        TorusGrid(1, 16), lambda y: np.ones_like(y)
    )


def multiple_2d():
    """configs/multiple-2d.ini's problem: a laminate along y1 normalized to
    abar = I, and W = x1^2 + x2^2."""
    c = CoefficientField.from_matrix(TorusGrid(2, 32), [
        [lambda y1, y2: (2.0 + np.cos(TWO_PI * y1)) / np.sqrt(3.0), None],
        [None, lambda y1, y2: np.ones_like(y1)],
    ])
    return c, SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})


class TestTruncationRadius:
    def test_values(self):
        assert truncation_radius(1.0, 1.0) == pytest.approx(3.0)
        assert truncation_radius(4.0, 1.0) == pytest.approx(6.0)
        assert truncation_radius(4.0, 4.0) == pytest.approx(3.0)

    @staticmethod
    def _floor_and_shift(c, W, eps, grid, count, decay):
        """The box floor of the reference on grid, its wall terms over
        2 R decay per axis, and the oracle it estimates: the shift of the
        Richardson eigenvalues when the box is doubled at the same h."""
        wide = FineGrid(grid.dim, 2.0 * grid.radius, grid.h)
        ref, big = (solve_Leps(c, W, eps, g, count, keep_vectors=False)
                    for g in (grid, wide))
        floor = ref.wall_terms @ (1.0 / (2.0 * grid.radius
                                         * np.asarray(decay)))
        return floor, ref.eigenvalues - big.eigenvalues

    def test_radius_validation_converged(self):
        # R = 6 for the unit oscillator: the floor, and doubling the box,
        # move lambda_1 and lambda_2 by far less than 1e-9
        floor, shift = self._floor_and_shift(
            coeff_identity_1d(), w1(), 0.25, FineGrid(1, 6.0, 1.0 / 128), 2,
            [1.0])
        assert np.all(np.abs(shift) < 1e-9) and np.all(floor < 1e-9)

    def test_small_radius_detected(self):
        # R = 3 is NOT converged for the oscillator: the Dirichlet shift is
        # around 1e-4, which the floor must expose
        floor, shift = self._floor_and_shift(
            coeff_identity_1d(), w1(), 0.25, FineGrid(1, 3.0, 1.0 / 128), 1,
            [1.0])
        assert shift[0] > 1e-7 and floor[0] > 1e-7

    @pytest.mark.parametrize("radius", [3.5, 4.2, 5.0, 6.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_floor_tracks_the_doubled_box(self, dim, radius):
        # simple-1d's and multiple-2d's problems, whose Gaussian exponents
        # sqrt(q / abar) are 3^(-1/4) and 1 per axis: over shifts from
        # 6e-15 (2D, R = 6, lambda_1) to 9e-2 (1D, R = 3.5, lambda_3), the
        # floor lies within 3x of the doubled box's shift of every
        # eigenvalue (shift / floor from 0.70 to 2.53)
        if dim == 1:
            c = CoefficientField.from_isotropic(
                TorusGrid(1, 64), lambda y: 2.0 + np.cos(TWO_PI * y))
            W, eps, count, decay = w1(), 0.1, 3, [3.0 ** -0.25]
        else:
            c, W = multiple_2d()
            eps, count, decay = 0.125, 4, [1.0, 1.0]
        floor, shift = self._floor_and_shift(
            c, W, eps, FineGrid(dim, radius, eps / (16 if dim == 1 else 8)),
            count, decay)
        assert np.all(shift / 3 <= floor) and np.all(floor <= 3 * shift), (
            floor, shift)


class TestSolve1D:
    def test_oscillator_richardson(self):
        c = coeff_identity_1d()
        grid = FineGrid(1, 7.0, 1.0 / 64)
        ref = solve_Leps(c, w1(), 0.5, grid, 3, keep_vectors=True)
        assert abs(ref.eigenvalues[0] - 1.0) < 1e-7
        assert np.allclose(ref.eigenvalues, [1.0, 3.0, 5.0], atol=1e-6)
        # Richardson beats both raw grids
        assert abs(ref.eigenvalues[0] - 1.0) < abs(ref.eigenvalues_h[0] - 1.0)
        assert ref.error_estimates[0] > 0

    def test_discretization_control(self):
        # halving h shrinks the raw eigenvalue error by about 4 (second order)
        c = coeff_identity_1d()
        e1 = abs(solve_Leps(c, w1(), 0.5, FineGrid(1, 7.0, 1 / 32), 1,
                            keep_vectors=False).eigenvalues_h[0] - 1.0)
        e2 = abs(solve_Leps(c, w1(), 0.5, FineGrid(1, 7.0, 1 / 64), 1,
                            keep_vectors=False).eigenvalues_h[0] - 1.0)
        assert e1 / e2 == pytest.approx(4.0, rel=0.05)

    def test_grid_too_coarse(self):
        c = coeff_identity_1d()
        with pytest.raises(GridTooCoarse):
            solve_Leps(c, w1(), 0.01, FineGrid(1, 6.0, 1.0 / 128), 1,
                       keep_vectors=True)

    def test_box_too_small(self):
        # one interior node, two (fewer than gttrf takes), and fewer nodes
        # than eigenpairs: all are refused before any eigensolve
        c = coeff_identity_1d()
        for radius in (1.0 / 16, 1.5 / 16):
            with pytest.raises(GridTooCoarse, match="at least 3"):
                solve_Leps(c, w1(), 0.5, FineGrid(1, radius, 1.0 / 16), 1,
                           keep_vectors=True)
        with pytest.raises(GridTooCoarse, match="at least 4"):
            solve_Leps(c, w1(), 0.5, FineGrid(1, 2.0 / 16, 1.0 / 16), 4,
                       keep_vectors=True)
        ref = solve_Leps(c, w1(), 0.5, FineGrid(1, 2.0 / 16, 1.0 / 16), 3,
                         keep_vectors=True)
        assert ref.eigenvalues.shape == (3,)

    def test_oscillating_coefficient_floor(self):
        # with exact harmonic cell averages the Richardson floor for the
        # oscillating 1D problem sits far below the eps^2 signal
        grid1 = TorusGrid(1, 128)
        c = CoefficientField.from_isotropic(
            grid1, lambda y: 2.0 + np.cos(TWO_PI * y)
        )
        eps = 1.0 / 16
        fg = FineGrid(1, 7.0, eps / 16)
        ref = solve_Leps(c, w1(), eps, fg, 1, keep_vectors=True)
        lam0 = 3.0 ** 0.25
        # zeroth-order envelope: |lam_eps - lam0| <= C eps lam0^{3/2}
        assert abs(ref.eigenvalues[0] - lam0) < 0.5 * eps * lam0 ** 1.5
        # the h^2 term removed by Richardson is small and the eps^2 signal
        # (about 3.6e-6 here) sits well above what remains
        assert ref.error_estimates[0] < 1e-5
        assert abs(ref.eigenvalues[0] - lam0) > 10 * ref.error_estimates[0]


class TestSolve2D:
    def test_separable_matches_sparse(self):
        # the Kronecker-sum fast path and the generic shift-invert path
        # solve the same discrete operator, and read the same wall terms
        # off its eigenvectors
        c, W = multiple_2d()
        eps = 1.0 / 4
        fg = FineGrid(2, 4.0, eps / 8)
        sep = solve_Leps(c, W, eps, fg, 4, keep_vectors=False)
        from homspec.reference import _solve_2d_sparse
        vals, walls = _solve_2d_sparse(c, W, eps, fg, 4)
        assert sep.path == "separable"
        assert np.max(np.abs(sep.eigenvalues_h - vals)) < 1e-9
        # the sparse terms are read on the h grid and the separable ones on
        # h/2, and the end node's difference quotient is first order in h
        assert np.allclose(walls, sep.wall_terms, rtol=0.05, atol=0)

    @staticmethod
    def _non_separable():
        """A non-separable diagonal coefficient (the sparse path), as an
        expression and as grid samples, with W and the fine grid."""
        grid2 = TorusGrid(2, 16)
        expr = CoefficientField.from_matrix(grid2, [
            [lambda y1, y2: 2.0 + np.cos(TWO_PI * y1) * np.cos(TWO_PI * y2),
             None],
            [None, lambda y1, y2: 1.5 + 0.5 * np.sin(TWO_PI * (y1 + y2))],
        ])
        sampled = CoefficientField.from_samples(grid2, expr.a.values)
        W = SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        return expr, sampled, W, FineGrid(2, 2.0, 0.5 / 8)

    def test_sampled_coefficient_matches_expression(self):
        # given as grid samples the coefficient is evaluated through its
        # interpolant, which reproduces these low modes to rounding, not bit
        # for bit: the eigenvalues differ by 3.9e-15 relative
        expr, sampled, W, fg = self._non_separable()
        want = solve_Leps(expr, W, 0.5, fg, 3, keep_vectors=False)
        got = solve_Leps(sampled, W, 0.5, fg, 3, keep_vectors=False)
        assert want.path == got.path == "sparse"
        for a, b in ((want.eigenvalues_h, got.eigenvalues_h),
                     (want.eigenvalues_h2, got.eigenvalues_h2)):
            assert np.max(np.abs(a - b) / a) < 1e-13

    def test_sampled_assembly_builds_two_samplers(self, monkeypatch):
        # the coefficient is called once per axis on one period of phases,
        # so a sampled one builds one Fourier sampler per axis (one per grid
        # row and axis would be 2n = 126 here)
        import homspec.torus as torus
        _, sampled, W, fg = self._non_separable()
        built = []

        class CountingSampler(torus.FourierSampler):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(torus, "FourierSampler", CountingSampler)
        A, _ = _assemble_2d(sampled, W, 0.5, fg)
        assert A.shape == (fg.n_interior ** 2,) * 2 == (63 ** 2,) * 2
        assert len(built) <= 2

    def test_sparse_path_is_reproducible(self):
        # the shift-invert start vector is seeded, so two solves of one
        # problem agree bit for bit
        _, sampled, W, fg = self._non_separable()
        first, second = (solve_Leps(sampled, W, 0.5, fg, 3, keep_vectors=False)
                         for _ in range(2))
        assert first.path == "sparse"
        assert first.eigenvalues_h.tobytes() == second.eigenvalues_h.tobytes()
        assert first.eigenvalues_h2.tobytes() == second.eigenvalues_h2.tobytes()

    def test_cross_term_in_w_takes_the_sparse_path(self):
        # an x1*x2 term in W does not separate: the sparse path solves it,
        # and the Sylvester inertia of A - s*I, factored without pivoting,
        # puts exactly k eigenvalues of the assembled matrix below the k-th
        # one found, less 1e-10 relative, and k + 1 below it, plus as much
        c = CoefficientField.from_matrix(TorusGrid(2, 16), [
            [lambda y1, y2: 2.0 + np.cos(TWO_PI * y1), None],
            [None, lambda y1, y2: np.ones_like(y1)],
        ])
        W = SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5})
        fg = FineGrid(2, 3.0, 0.5 / 8)
        ref = solve_Leps(c, W, 0.5, fg, 3, keep_vectors=False)
        assert ref.path == "sparse"
        A = _assemble_2d(c, W, 0.5, fg)[0].tocsc()
        order = np.arange(A.shape[0])

        def below(s):
            lu = splu(A - s * sparse.identity(A.shape[0], format="csc"),
                      permc_spec="NATURAL", diag_pivot_thresh=0.0)
            assert (lu.perm_r == order).all() and (lu.perm_c == order).all()
            return np.sum(lu.U.diagonal() < 0)

        for k, lam in enumerate(ref.eigenvalues_h):
            assert below(lam * (1 - 1e-10)) == k
            assert below(lam * (1 + 1e-10)) == k + 1

    @staticmethod
    def _refused(off):
        c = CoefficientField.from_matrix(TorusGrid(2, 16), [
            [lambda y1, y2: 2.0 + np.cos(TWO_PI * y1), off],
            [off, lambda y1, y2: np.ones_like(y1)],
        ])
        W = SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        with pytest.raises(ConfigError, match="problem.a12"):
            solve_Leps(c, W, 0.5, FineGrid(2, 2.0, 0.5 / 8), 3,
                       keep_vectors=False)
        return c

    def test_off_diagonal_coefficient_refused(self):
        # the five-point stencil reads a11 and a22 only: solve_Leps refuses
        # a nonzero a12 rather than drop it
        self._refused(lambda y1, y2: 0.2 * np.sin(TWO_PI * (y1 + y2)))

    def test_off_grid_coefficient_refused(self):
        # an a12 that is zero on every torus node, and not between them, is
        # refused too, though its samples pass for a diagonal coefficient
        c = self._refused(lambda y1, y2: np.cos(16 * np.pi * y1) ** 2 - 1)
        assert not c.a.values[0, 1].any()

    @pytest.mark.parametrize("first", ["homspec.reference",
                                       "scipy.linalg.lapack"])
    def test_lapack_loader_beside_scipy_linalg(self, first):
        # the reference loads scipy's _flapack extension from its file, and
        # scipy.linalg imports it by name: in either order both hold the
        # same routines, and a tridiagonal solve and a sparse one (which
        # imports scipy.sparse.linalg, and with it scipy.linalg) run in one
        # process
        script = textwrap.dedent(f"""
            import importlib
            import numpy as np
            importlib.import_module({first!r})
            import scipy.linalg.lapack as lapack
            from homspec import reference
            from homspec.slowpoly import SlowPolynomial
            from homspec.torus import CoefficientField, TorusGrid
            assert lapack.dgttrf is reference.dgttrf
            c = CoefficientField.from_isotropic(
                TorusGrid(1, 16), lambda y: 2.0 + np.cos(2 * np.pi * y))
            ref = reference.solve_Leps(
                c, SlowPolynomial(1, {{(2,): 1.0}}), 0.5,
                reference.FineGrid(1, 4.0, 1.0 / 16), 3, keep_vectors=True)
            assert ref.path == "tridiagonal"
            c = CoefficientField.from_matrix(TorusGrid(2, 16), [
                [lambda y1, y2: 2.0 + np.cos(2 * np.pi * y1)
                 * np.cos(2 * np.pi * y2), None],
                [None, lambda y1, y2: np.ones_like(y1)],
            ])
            ref = reference.solve_Leps(
                c, SlowPolynomial(2, {{(2, 0): 1.0, (0, 2): 1.0}}), 0.5,
                reference.FineGrid(2, 2.0, 0.5 / 8), 3, keep_vectors=False)
            assert ref.path == "sparse"
        """)
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "src"))
        r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr

    def test_oscillator_2d(self):
        grid2 = TorusGrid(2, 16)
        c = CoefficientField.from_matrix(grid2, [
            [lambda y1, y2: np.ones_like(y1), None],
            [None, lambda y1, y2: np.ones_like(y1)],
        ])
        W = SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        fg = FineGrid(2, 6.0, 1.0 / 24)
        ref = solve_Leps(c, W, 0.5, fg, 3, keep_vectors=False)
        assert np.allclose(ref.eigenvalues, [2.0, 4.0, 4.0], atol=1e-6)


class TestFdOperator:
    @staticmethod
    def _direct(fn, eps, grid, ax):
        """Harmonic averages of fn over the cell edges along ax and fn at the
        nodes, evaluated at the unreduced arguments x/eps."""
        gl, glw = np.polynomial.legendre.leggauss(12)
        left = -grid.radius + grid.h * np.arange(grid.n_cells)
        gauss = (left[:, None] + 0.5 * grid.h * (1.0 + gl)) / eps
        x = (-grid.radius + grid.h * np.arange(1, grid.n_cells)) / eps
        if grid.dim == 1:
            vals, nodes = fn(gauss), fn(x)
        else:
            args = ((gauss[:, None, :], x[None, :, None]) if ax == 0
                    else (x[:, None, None], gauss[None, :, :]))
            vals = fn(*np.broadcast_arrays(*args))
            nodes = fn(*np.meshgrid(x, x, indexing="ij"))
        return 1.0 / (0.5 * ((1.0 / vals) @ glw)), nodes

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]), sampled=st.booleans(),
           eps=st.floats(0.01, 0.5), ratio=st.integers(8, 24),
           frac=st.sampled_from([0.0, 0.3, 0.71]), cells=st.integers(4, 60),
           spill=st.floats(-0.4, 0.4), phase=st.floats(0.0, 1.0),
           amp=st.floats(0.0, 0.9))
    def test_phase_table_matches_direct_evaluation(
            self, dim, sampled, eps, ratio, frac, cells, spill, phase, amp):
        # with eps/h an integer or not, the edge averages, node values and
        # diagonal read off one period of phases agree with a direct
        # evaluation at x/eps to 1e-12 relative, for a coefficient given as
        # an expression or as samples; 1D boxes span up to 20 times more
        # cells
        h = eps / (ratio + frac)
        cells *= 20 if dim == 1 else 1
        grid = FineGrid(dim, 0.5 * (cells + spill) * h, h)
        assert grid.n_cells == cells

        def fn(*ys):
            y2 = ys[-1]
            return (2.0 + amp * np.cos(TWO_PI * (ys[0] + phase))
                    * np.cos(TWO_PI * (y2 - phase)) + 0.3 * np.sin(TWO_PI * y2))

        coeff = CoefficientField.from_isotropic(TorusGrid(dim, 16), fn)
        if sampled:
            coeff = CoefficientField.from_samples(coeff.grid, coeff.a.values)
        W = SlowPolynomial(dim, {(2,) + (0,) * (dim - 1): 1.0})
        op = _fd_operator(
            [coeff.entry(ax, ax) for ax in range(dim)], W, eps, grid)
        n = grid.n_interior
        want_diag = W(grid.points()).reshape((n,) * dim)
        assert np.array_equal(op.wdiag, want_diag)
        for ax in range(dim):
            want_edges, want_nodes = self._direct(fn, eps, grid, ax)
            assert op.edges[ax].shape == want_edges.shape
            assert np.max(np.abs(op.edges[ax] / want_edges - 1.0)) <= 1e-12
            assert np.max(np.abs(op.anodes[ax] / want_nodes - 1.0)) <= 1e-12
            want_diag = want_diag + (
                np.take(want_edges, range(n), axis=ax)
                + np.take(want_edges, range(1, n + 1), axis=ax)) / h ** 2
        assert np.max(np.abs(op.diag / want_diag - 1.0)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]),
           amps=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
           phase=st.floats(0.0, 1.0), eps=st.floats(0.05, 0.5),
           cells=st.integers(8, 40), shift=st.floats(-1e3, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_operator_behind_every_product(self, dim, amps, phase, eps,
                                               cells, shift, seed):
        # for a random smooth a, (T - s) v from the band of T - s, from
        # diag and off, and in 2D from the assembled CSR matrix agree to
        # rounding, and in 1D the energy quotient is v.Tv / v.v to within
        # eps_mach |T|
        def fn(*ys):
            return (2.0 + 0.1 * np.sin(TWO_PI * ys[-1])
                    + sum(c * np.cos(TWO_PI * (k + 1) * (ys[0] + phase))
                          for k, c in enumerate(amps)))

        coeff = CoefficientField.from_isotropic(TorusGrid(dim, 16), fn)
        W = SlowPolynomial(dim, {(2,) + (0,) * (dim - 1): 1.0})
        h = eps / 8
        grid = FineGrid(dim, 0.5 * cells * h, h)
        op = _fd_operator([coeff.entry(ax, ax) for ax in range(dim)], W,
                          eps, grid)
        v = np.random.default_rng(seed).standard_normal(op.wdiag.shape)
        # T v from diag and off, in long double
        vl = v.astype(np.longdouble)
        Tv = op.diag * vl
        for ax, c in enumerate(op.off):
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            Tv[lo] += c * vl[hi]
            Tv[hi] += c * vl[lo]
        norm = np.max(op.diag) + 2 * sum(np.max(-c) for c in op.off)
        tol = 4 * np.finfo(float).eps * (norm + abs(shift)) * np.max(abs(v))
        if dim == 1:
            dl, d, du = op.tridiagonal(shift)
            got = d * v
            got[:-1] += du * v[1:]
            got[1:] += dl * v[:-1]
            assert abs(float(op.quotient(v)) - float(vl @ Tv / (vl @ vl))) \
                <= np.finfo(float).eps * norm
        else:
            A, _ = _assemble_2d(coeff, W, eps, grid)
            got = (A @ v.ravel()).reshape(v.shape) - shift * v
        assert np.max(np.abs(got - (Tv - shift * v))) <= tol


def separable_2d(phase1=0.0, phase2=0.0):
    """Laminate-like diagonal coefficient with a phase per axis."""
    grid2 = TorusGrid(2, 32)
    c = CoefficientField.from_matrix(grid2, [
        [lambda y1, y2: 2.0 + np.cos(TWO_PI * (y1 + phase1)) + 0.0 * y2, None],
        [None,
         lambda y1, y2: 1.5 + 0.5 * np.sin(TWO_PI * (y2 + phase2)) + 0.0 * y1],
    ])
    return c, SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})


# (phase2, count, rule, k): mode k of the second axis of separable_2d(0,
# phase2) on the h grid (eps = 0.5, h = eps / rule) lies at a rounding
# midpoint, and the count- and (count + 4)-pair solves round it to either
# side; both failed the bit-for-bit comparison of count-pair with wider sums
MODE_COUNT_MIDPOINTS = [(0.6327393334570294, 5, 16, 2),
                        (0.7129680542099873, 3, 8, 0)]


class TestSeparableFastPath:
    @settings(max_examples=15, deadline=None)
    @given(phase1=st.floats(0.0, 1.0), phase2=st.floats(0.0, 1.0),
           count=st.integers(1, 8), rule=st.sampled_from([8, 16]))
    @example(phase1=0.0, phase2=MODE_COUNT_MIDPOINTS[0][0], count=5, rule=16)
    @example(phase1=0.0, phase2=MODE_COUNT_MIDPOINTS[1][0], count=3, rule=8)
    def test_count_modes_per_axis(self, phase1, phase2, count, rule):
        # count 1D modes per axis give the count lowest sums of spectra
        # computed with count + 4 modes, on h and on h/2: bit for bit those
        # of the count-pair values plus the wider solve's extra modes.  The
        # count-pair values are within 1 ulp of the wider solve's: each is
        # the energy quotient of a vector from bisection's shifts, and the
        # bisection depends on how many pairs are asked for
        coeff, W2 = separable_2d(phase1, phase2)
        axes = _separable_parts(coeff, W2)
        eps = 0.5
        grid = FineGrid(2, 3.0, eps / rule)
        ref = solve_Leps(coeff, W2, eps, grid, count, keep_vectors=False)
        assert ref.path == "separable"
        g1 = FineGrid(1, grid.radius, grid.h)
        narrow = [_solve_1d(a, W, eps, g1, count) for a, W in axes]
        wide = [_solve_1d(a, W, eps, g1, count + 4) for a, W in axes]
        for vals, g in ((ref.eigenvalues_h, 0), (ref.eigenvalues_h2, 1)):
            spectra = []
            for few, many in zip(narrow, wide):
                assert np.all(np.abs(few[g] - many[g][:count])
                              <= np.spacing(many[g][:count]))
                spectra.append(np.concatenate([few[g], many[g][count:]]))
            sums = np.sort(np.add.outer(*spectra).ravel())
            assert np.array_equal(vals, sums[:count])

    @pytest.mark.parametrize("phase2, count, rule, k", MODE_COUNT_MIDPOINTS)
    def test_mode_count_midpoints_against_mpmath(self, phase2, count, rule,
                                                 k):
        # the two values of each midpoint case are at most 1 ulp apart, and
        # both lie within 2 ulp of the eigenvalue that 40-digit bisection
        # finds; the wider solve's is the correctly rounded one (-0.49996 and
        # -0.49912 ulp from it, against +0.50004 and +0.50088)
        _, (a, W) = _separable_parts(*separable_2d(0.0, phase2))
        g1 = FineGrid(1, 3.0, 0.5 / rule)
        few, many = (_solve_1d(a, W, 0.5, g1, c)[0][k]
                     for c in (count, count + 4))
        assert abs(few - many) <= np.spacing(many)
        with mpmath.workdps(40):
            exact = _sturm_eigenvalue(_fd_operator([a], W, 0.5, g1), k, many)
            for lam in (few, many):
                rel = float((mpmath.mpf(lam) - exact) / exact)
                assert abs(rel) <= 2 * 2.0 ** -52

    def test_off_grid_dependence_does_not_separate(self):
        # an a11 constant in y2 on every node of the 16-mode torus, and not
        # between them, does not separate: the axis solve would take its
        # values at y2 = 0 for all y2
        c = CoefficientField.from_matrix(TorusGrid(2, 16), [
            [lambda y1, y2: 2.0 + np.cos(TWO_PI * y1)
             + 0.5 * np.sin(16 * np.pi * y2) ** 2, None],
            [None, lambda y1, y2: np.ones_like(y1)],
        ])
        a11 = c.a.values[0, 0]
        assert np.max(np.abs(a11 - a11[:, :1])) <= 1e-14
        W = SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        assert _separable_parts(c, W) is None

    def test_no_vectors_unless_kept(self):
        # the coarse and the fine grid both stop at eigenvalues: nothing of
        # the size of one n^2 eigenvector is allocated
        c, W = separable_2d()
        grid = FineGrid(2, 4.0, 1.0 / 64)
        n_fine = FineGrid(2, 4.0, 1.0 / 128).n_interior
        tracemalloc.start()
        try:
            ref = solve_Leps(c, W, 0.5, grid, 4, keep_vectors=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ref.eigenvectors is None
        assert ref.path == "separable"
        assert peak < 8 * n_fine ** 2

    def test_2d_keeps_no_vectors(self):
        # only a 1D reference keeps its h/2 vectors and operator: a 2D one
        # asked for them stops at eigenvalues
        c, W = separable_2d()
        sep = solve_Leps(c, W, 0.5, FineGrid(2, 3.0, 1.0 / 16), 2,
                         keep_vectors=True)
        assert sep.path == "separable"
        assert sep.eigenvectors is None and sep.operator is None


def _lapack_route(a, W, eps, grid, count, dtype=float):
    """The count lowest eigenvalues on grid as LAPACK vectors, from
    bisection to full precision, and their energy quotients give them,
    sorted, rounded to dtype."""
    op = _fd_operator([a], W, eps, grid)
    _, vecs = sla.eigh_tridiagonal(op.diag, op.off[0], select="i",
                                   select_range=(0, count - 1))
    return np.sort([op.quotient(v) for v in vecs.T]).astype(dtype)


def _well(c, count):
    """W = c x^2 and a box radius that holds its count lowest
    eigenfunctions: lambda_count of the well is about sqrt(2 c) (2 count - 1)
    for an abar between sqrt(3) and 2."""
    lam = np.sqrt(2.0 * c) * (2 * count - 1)
    return SlowPolynomial(1, {(2,): c}), 2.0 * float(np.sqrt(lam / c))


def _banded_oracle(mp):
    """Route _solve_1d's inverse iteration through one solve_banded call
    per step on a copy of the unfactored band, as it ran before each shift
    was factored once."""
    def keep(dl, d, du, **_):
        band = np.zeros((3, d.size))
        band[0, 1:], band[1], band[2, :-1] = du, d, dl
        return band, 0

    def solve(band, b, **_):
        return sla.solve_banded((1, 1), band, b, check_finite=False), 0

    mp.setattr(reference, "dgttrf", keep)
    mp.setattr(reference, "dgttrs", solve)


def _cosine_entry(phase, amp):
    """a(y) = 2 + amp cos(2 pi (y + phase)) as CoefficientField.entry."""
    return CoefficientField.from_isotropic(
        TorusGrid(1, 64),
        lambda y: 2.0 + amp * np.cos(TWO_PI * (y + phase))).entry(0, 0)


# the exact h/2 eigenvalue of this case lies 2e-4 ulp from a rounding
# midpoint, and the two routes round to either side of it
MIDPOINT = 0.45061675642819243


class TestShallowBisection:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="midpoint distance in x87 80-bit long double")
    @settings(max_examples=20, deadline=None)
    @given(phase=st.floats(0.0, 1.0), amp=st.floats(0.1, 1.0),
           c=st.floats(0.01, 100.0), rule=st.sampled_from([8, 16]),
           eps=st.sampled_from([0.5, 0.25]), count=st.integers(1, 8))
    # the lowest quotient sits at a rounding midpoint and lands 1 ulp off
    @example(phase=0.301, amp=0.265, c=1.358, rule=16, eps=0.25, count=8)
    # at a width of 1e-3 the lowest quotient lands 116 ulp off
    @example(phase=0.754, amp=0.215, c=0.021, rule=16, eps=0.25, count=2)
    def test_quotients_equal_full_bisection(self, phase, amp, c, rule, eps,
                                            count):
        # inverse iteration from the shifts of bisection stopped at
        # BISECT_WIDTH gives vectors within rounding of LAPACK's from
        # full-precision bisection: the h-grid quotients are bit for bit
        # theirs, but where a long-double quotient lies within 2^-8 ulp of a
        # float64 rounding midpoint, where the two vectors' quotients may
        # round either way
        a, (W, radius) = _cosine_entry(phase, amp), _well(c, count)
        grid = FineGrid(1, radius, eps / rule)
        got = _solve_1d(a, W, eps, grid, count)[0]
        exact = _lapack_route(a, W, eps, grid, count, np.longdouble)
        want = exact.astype(float)
        off = got != want
        ulp = np.spacing(want[off])
        assert np.all(np.abs(got[off] - want[off]) == ulp)
        midpoint = (got[off].astype(np.longdouble) + want[off]) / 2
        assert np.all(np.abs(exact[off] - midpoint) <= ulp / 256)


class TestInverseIteration:
    @settings(max_examples=20, deadline=None)
    @given(phase=st.floats(0.0, 1.0), amp=st.floats(0.1, 1.0),
           rule=st.sampled_from([8, 16, 32]),
           eps=st.sampled_from([0.5, 0.25]), count=st.integers(1, 8),
           per_pair=st.one_of(st.none(), st.floats(4.0, 12.0)))
    # on this coarse grid two inverse iterations leave the top pair 12 ulp
    # off (the LAPACK route is within 0.4 ulp of the exact eigenvalue)
    @example(phase=0.8559122943833432, amp=0.27677533101189356, rule=8,
             eps=0.5, count=8, per_pair=None)
    @example(phase=MIDPOINT, amp=MIDPOINT, rule=16, eps=0.5, count=1,
             per_pair=None)
    # a box of 26 h-grid nodes for 4 pairs: a fixed three inverse
    # iterations from the h grid left an h/2 eigenvalue 5.6e7 ulp off
    @example(phase=0.3840154184913098, amp=0.9886954084446584, rule=16,
             eps=0.25, count=4, per_pair=6.398524339502504)
    # a box of 5 h-grid nodes for 1 pair: the Sturm count at the bare top
    # of the h pair's residual interval, off by a rounding of eps_mach |T|,
    # missed the eigenvalue it holds, and the certificate refused the pair
    @example(phase=0.3658435291805171, amp=0.15258020466142147, rule=8,
             eps=0.25, count=1, per_pair=4.547277084333778)
    def test_equals_lapack_route(self, phase, amp, rule, eps, count,
                                 per_pair):
        # the h/2 eigenvalues that inverse iteration finds from the h grid
        # are within 1 ulp of those of the LAPACK vectors on h/2: the two
        # are energy quotients of different vectors, so an eigenvalue at a
        # rounding midpoint may round either way.  The box is [-3, 3], or
        # one that holds per_pair h-grid nodes per pair, where the h pairs
        # are far from the h/2 ones
        a = _cosine_entry(phase, amp)
        h = eps / rule
        radius = 3.0 if per_pair is None else (per_pair * count + 1) * h / 2
        grid = FineGrid(1, radius, h)
        got = _solve_1d(a, w1(), eps, grid, count)[1]
        fine = FineGrid(1, grid.radius, grid.h / 2)
        want = _lapack_route(a, w1(), eps, fine, count)
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_midpoint_against_mpmath(self):
        # the MIDPOINT case: both routes are within 2 ulp of the eigenvalue
        # that 40-digit bisection finds
        a, eps = _cosine_entry(MIDPOINT, MIDPOINT), 0.5
        grid = FineGrid(1, 3.0, eps / 16)
        _, got, _, op, _ = _solve_1d(a, w1(), eps, grid, 1)
        want = _lapack_route(a, w1(), eps, FineGrid(1, 3.0, op.h), 1)
        with mpmath.workdps(40):
            for lam in (got[0], want[0]):
                exact = _sturm_eigenvalue(op, 0, lam)
                rel = float((mpmath.mpf(lam) - exact) / exact)
                assert abs(rel) <= 2 * 2.0 ** -52

    @settings(max_examples=20, deadline=None)
    @given(phase=st.floats(0.0, 1.0), amp=st.floats(0.1, 1.0),
           c=st.floats(0.01, 100.0), rule=st.sampled_from([8, 16]),
           eps=st.sampled_from([0.5, 0.25]), count=st.integers(1, 8))
    def test_one_factorization_equals_solve_banded(self, phase, amp, c, rule,
                                                   eps, count):
        # each shift factored once (gttrf) and solved once per inverse
        # iteration (gttrs) gives the iterates of one solve_banded (gtsv)
        # call per step, which repeats the same elimination: bit for bit
        a, (W, radius) = _cosine_entry(phase, amp), _well(c, count)
        grid = FineGrid(1, radius, eps / rule)
        got = _solve_1d(a, W, eps, grid, count)
        with pytest.MonkeyPatch.context() as mp:
            _banded_oracle(mp)
            want = _solve_1d(a, W, eps, grid, count)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    def test_corrupted_coarse_pair_falls_back(self, monkeypatch):
        # pair 1 of the h grid handed pair 0 past the certificate: both of
        # its h/2 shifts and starts land on the lowest h/2 vector, the pairs
        # fail the certificate, and the h/2 grid is solved from bisection's
        # shifts, to the bits of an h/2 solve without shifts
        a = _cosine_entry(0.0, 1.0)
        eps, grid, count = 0.5, FineGrid(1, 4.0, 1.0 / 16), 3
        fop = _fd_operator([a], w1(), eps, FineGrid(1, 4.0, grid.h / 2))
        want = reference._h_pairs(fop, count, None)
        h_pairs, calls = reference._h_pairs, []

        def corrupted(op, count, shifts, *args):
            calls.append(shifts)
            vals, vecs, route = h_pairs(op, count, shifts, *args)
            if len(calls) == 1:           # the h grid
                vals[1], vecs[1] = vals[0], vecs[0]
            return vals, vecs, route

        monkeypatch.setattr(reference, "_h_pairs", corrupted)
        _, got, vecs, _, _ = _solve_1d(a, w1(), eps, grid, count)
        assert calls[1][0] == calls[1][1]
        assert want[2] == "bisection"
        assert np.array_equal(got, want[0])
        assert np.array_equal(vecs, want[1])


class TestWarmStart:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="midpoint distance in x87 80-bit long double")
    @settings(max_examples=20, deadline=None)
    # eps at most 0.22 of the well's width c^(-1/4): at eps = 0.5 and
    # c = 1 the top h/2 eigenvalues of 2 eps lie 30% of a gap from those of
    # eps, too far for WARM_STEPS iterations, and the solve falls back
    @given(phase=st.floats(0.0, 1.0), amp=st.floats(0.1, 1.0),
           c=st.floats(0.01, 10.0), rule=st.sampled_from([8, 16]),
           eps=st.sampled_from([0.125, 0.0625]), count=st.integers(1, 8),
           scales=st.one_of(st.none(), st.lists(
               st.floats(-1e-3, 1e-3), min_size=8, max_size=8)))
    def test_warm_equals_cold(self, phase, amp, c, rule, eps, count, scales):
        # from shifts within 1e-3 relative of the h eigenvalues, or from the
        # h/2 eigenvalues of twice eps, whose h/2 grid is this h grid, the
        # h grid is solved warm: its quotients are bit for bit the cold
        # route's but where the long-double quotient lies within 2^-8 ulp
        # of a float64 rounding midpoint, where either may round up
        a, (W, radius) = _cosine_entry(phase, amp), _well(c, count)
        grid = FineGrid(1, radius, eps / rule)
        *cold, cold_route = _solve_1d(a, W, eps, grid, count)
        if scales is None:
            shifts = _solve_1d(a, W, 2 * eps, FineGrid(1, radius, 2 * grid.h),
                               count)[1]
        else:
            shifts = cold[0] * (1.0 + np.array(scales[:count]))
        got, *_, route = _solve_1d(a, W, eps, grid, count, shifts)
        assert (cold_route, route) == ("bisection", "warm")
        want = cold[0]
        off = got != want
        ulp = np.spacing(want[off])
        assert np.all(np.abs(got[off] - want[off]) == ulp)
        exact = _lapack_route(a, W, eps, grid, count, np.longdouble)[off]
        midpoint = (got[off].astype(np.longdouble) + want[off]) / 2
        assert np.all(np.abs(exact - midpoint) <= ulp / 256)

    @settings(max_examples=20, deadline=None)
    @given(phase=st.floats(0.0, 1.0), amp=st.floats(0.1, 1.0),
           c=st.floats(0.01, 100.0), rule=st.sampled_from([8, 16]),
           eps=st.sampled_from([0.5, 0.25]), count=st.integers(1, 8))
    # one shift: its pair is lambda_2's, and only the Sturm count, which
    # finds two eigenvalues below its interval's top, refuses it
    @example(phase=0.0, amp=0.5, c=1.0, rule=8, eps=0.5, count=1)
    def test_shifts_near_one_eigenvalue_fall_back(self, phase, amp, c, rule,
                                                  eps, count):
        # shifts that all lie near lambda_2 all converge to its vector: the
        # pairs fail the certificate, and the h grid is solved from
        # bisection's shifts, to the bits of a solve without shifts
        a, (W, radius) = _cosine_entry(phase, amp), _well(c, count)
        grid = FineGrid(1, radius, eps / rule)
        want = _solve_1d(a, W, eps, grid, count)
        lam2 = _lapack_route(a, W, eps, grid, 2)[1]
        got = _solve_1d(a, W, eps, grid, count,
                        lam2 * (1.0 + 1e-6 * np.arange(count)))
        assert got[4] == want[4] == "bisection"
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)

    def test_uncertified_lapack_pairs_raise(self, merged_bisection):
        # bisection's shift of pair 1 of the h grid handed that of pair 0:
        # the two residual intervals coincide, and the h grid raises before
        # the h/2 pass
        c = CoefficientField.from_isotropic(
            TorusGrid(1, 64), lambda y: 2.0 + np.cos(TWO_PI * y))
        with pytest.raises(ConvergenceFailure, match="not certified"):
            solve_Leps(c, w1(), 0.5, FineGrid(1, 4.0, 1.0 / 16), 3,
                       keep_vectors=False)

    def test_separable_axes_warm(self):
        # a separable reference hands each axis's h/2 eigenvalues to the
        # next eps, whose axes are then solved warm, to the same sums
        c, W = separable_2d()
        count, grid = 3, FineGrid(2, 3.0, 1.0 / 32)
        first = solve_Leps(c, W, 0.5, FineGrid(2, 3.0, 1.0 / 16), count,
                           keep_vectors=False)
        assert first.h_routes == ("bisection", "bisection")
        cold = solve_Leps(c, W, 0.25, grid, count, keep_vectors=False)
        warm = solve_Leps(c, W, 0.25, grid, count, keep_vectors=False,
                          shifts=first.axis_eigenvalues_h2)
        assert warm.h_routes == ("warm", "warm")
        assert np.array_equal(warm.eigenvalues_h, cold.eigenvalues_h)
        assert np.array_equal(warm.eigenvalues_h2, cold.eigenvalues_h2)


def _pin_problem():
    """1D operator of 2047 nodes and its node coordinates, built with exact
    binary arithmetic so that its bits do not depend on any library."""
    R, h = 4.0, 1.0 / 256
    n_cells = int(2 * R / h)
    ah = 1.0 + (np.arange(n_cells) % 4) / 8.0
    x = -R + h * np.arange(1, n_cells)
    return FDOperator((ah,), anodes=(), wdiag=x * x, h=h), x


def _sturm_eigenvalue(op, k, guess):
    """k-th eigenvalue (from 0) of the energy form of the 1D operator op,
    bisected in mpmath arithmetic within 1e-8 relative of guess."""
    h2 = mpmath.mpf(op.h) ** 2
    a = [mpmath.mpf(float(v)) for v in op.edges[0]]
    d = [(a[i] + a[i + 1]) / h2 + mpmath.mpf(float(w))
         for i, w in enumerate(op.wdiag)]
    e2 = [(a[i] / h2) ** 2 for i in range(1, len(a) - 1)]

    def below(x):
        count, q = 0, d[0] - x
        for di, ei2 in zip(d[1:], e2):
            count += q < 0
            q = di - x - ei2 / q
        return count + (q < 0)

    lo = mpmath.mpf(guess) * (1 - mpmath.mpf("1e-8"))
    hi = mpmath.mpf(guess) * (1 + mpmath.mpf("1e-8"))
    assert below(lo) == k and below(hi) == k + 1
    for _ in range(110):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if below(mid) > k else (mid, hi)
    return (lo + hi) / 2


def _thomas_polish(op, lam, vec, sweeps=2):
    """The long-double inverse-iteration polish that the Newton polish
    replaced, kept verbatim as an oracle for it."""
    d = op.diag.astype(np.longdouble)
    v = vec.astype(np.longdouble)
    v /= np.sqrt(np.dot(v, v))
    lam = np.longdouble(lam)
    zero = np.longdouble(0)
    tiny = np.longdouble(1e-30)
    e = list(op.off[0].astype(np.longdouble))
    lower, upper = [zero] + e, e + [zero]
    for _ in range(sweeps):
        # Thomas solve of (T - lam) w = v: forward elimination with the
        # multipliers c_i = e_i / m_i, then back substitution
        cs, ws = [], []
        c = w = zero
        for a, below, above, r in zip(list(d - lam), lower, upper, list(v)):
            m = a - below * c
            if m == 0:
                m = tiny
            c = above / m
            w = (r - below * w) / m
            cs.append(c)
            ws.append(w)
        back = [w]
        for c, w_i in zip(cs[-2::-1], ws[-2::-1]):
            w = w_i - c * w
            back.append(w)
        w = np.array(back[::-1], dtype=np.longdouble)
        nrm = np.sqrt(np.dot(w, w))
        if not np.isfinite(nrm) or nrm == 0:
            break
        v = w / nrm
        lam = op.quotient(v)
    return float(lam), v.astype(float)


class TestPolish:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="bits pinned for x87 80-bit long double")
    def test_polish_bits_pinned(self):
        # eigenvalue bits recorded from the Thomas loop above, which the
        # Newton polish reproduces; the vectors agree with that loop's (whose
        # own bits stay pinned) to a few ulp, up to sign
        op, x = _pin_problem()
        g = 1.0 - x * x / (2 * 1.082 * 64)
        for _ in range(6):
            g = g * g                      # (1 - t/64)^64 ~ exp(-t)
        starts = [g, x * g, (x * x / 1.082 - 0.5) * g]
        pinned = [
            ("0x1.1503973383488p+0", "59da3d3669c8f969"),
            ("0x1.9f880a447fec4p+1", "0bd0e4712d7b1d56"),
            ("0x1.5a5746156e81ep+2", "5dc855fadddc2f02"),
        ]
        for start, shift, (lam_hex, oracle_sha) in zip(
                starts, (1.08, 3.25, 5.41), pinned):
            v, _ = op.polish(start)
            assert float.hex(float(op.quotient(v))) == lam_hex
            lam_t, v_t = _thomas_polish(op, shift, start)
            assert float.hex(lam_t) == lam_hex
            assert hashlib.sha256(v_t.tobytes()).hexdigest()[:16] == oracle_sha
            gap = min(np.linalg.norm(v - v_t), np.linalg.norm(v + v_t))
            assert gap <= 4e-15 * np.linalg.norm(v_t)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="bound measured with x87 80-bit long double")
    def test_polish_matches_thomas_on_fine_grid(self):
        # n = 71 679, where |T| ~ 1e9: a residual formed with the energy
        # quotient in place of v.Tv stalls 2e-11 away from the Thomas fixed
        # point; the Newton polish lands within 1.3e-14
        eps = 1.0 / 160
        grid = FineGrid(1, 7.0, eps / 32)
        c = CoefficientField.from_isotropic(
            TorusGrid(1, 64), lambda y: 2.0 + np.cos(TWO_PI * y))
        a = c.entry(0, 0)
        op = _fd_operator([a], w1(), eps, grid)
        vals, vecs = sla.eigh_tridiagonal(op.diag, op.off[0], select="i",
                                          select_range=(0, 0))
        v, _ = op.polish(vecs[:, 0])
        lam_t, v_t = _thomas_polish(op, vals[0], vecs[:, 0])
        assert float(op.quotient(v)) == lam_t
        gap = min(np.linalg.norm(v - v_t), np.linalg.norm(v + v_t))
        assert gap <= 1e-13 * np.linalg.norm(v_t)

    @pytest.mark.parametrize("aharm,start,lam", [
        ((1.0, 1.0, 1.0, 1.0), (1.0, 0.0, -1.0), 2.0),
        ((1.0, 0.0, 1.0, 1.0), (1.0, 0.0, 0.0), 1.0),
    ])
    def test_exact_eigenvector_polishes(self, aharm, start, lam):
        # 3 x 3 tridiagonals (h = 1, W = 0) started from an exact eigenvector:
        # tridiag(-1, 2, -1) with (1, 0, -1), and a matrix whose first node
        # is decoupled, where T - mu is exactly singular in float64; the
        # start is kept in both
        op = FDOperator((np.array(aharm),), anodes=(), wdiag=np.zeros(3),
                        h=1.0)
        start = np.array(start)
        v, _ = op.polish(start)
        assert float(op.quotient(v)) == pytest.approx(lam, rel=1e-15)
        assert np.allclose(v, start / np.linalg.norm(start), rtol=0,
                           atol=1e-15)

    @pytest.mark.parametrize("radius,eps,rule", [
        (3.0, 0.5, 8), (2.0, 0.5, 16), (3.0, 0.25, 8)])
    def test_polish_against_mpmath(self, radius, eps, rule):
        # 40-digit bisection of the same discrete operator: the energy
        # quotients of the LAPACK vectors, of the vectors that inverse
        # iteration finds from the 2h grid, and of those vectors polished,
        # are within 2 ulp
        grid1 = TorusGrid(1, 64)
        c = CoefficientField.from_isotropic(
            grid1, lambda y: 2.0 + np.cos(TWO_PI * y))
        a = c.entry(0, 0)
        grid = FineGrid(1, radius, eps / rule)
        assert 90 <= grid.n_interior <= 200
        _, inverse, vecs, op, _ = _solve_1d(
            a, w1(), eps, FineGrid(1, radius, 2 * grid.h), 3)
        assert vecs.shape == (3, grid.n_interior)
        polished = [float(op.quotient(op.polish(v)[0])) for v in vecs]
        for vals in (_lapack_route(a, w1(), eps, grid, 3), inverse, polished):
            with mpmath.workdps(40):
                for k, lam in enumerate(vals):
                    exact = _sturm_eigenvalue(op, k, lam)
                    rel = float((mpmath.mpf(lam) - exact) / exact)
                    assert abs(rel) <= 2 * 2.0 ** -52

    def test_polish_exits_at_one_peak(self, branch_1d, monkeypatch):
        # the last step's work arrays go before the float64 copy on every
        # exit: the polish peaks alike when the plateau rule stops it and
        # when a step fails to cut |r|, whose vector and products would
        # otherwise outlive the loop (about 6 bytes a node more).  At
        # eps = 1/64 the second step's |r| does not decrease; at other eps
        # the step counts of the cold vector differ (at 1/128 the third
        # step's |r| is the first that does not decrease)
        coeff, W, _ = branch_1d
        eps = 1 / 64
        ref = solve_Leps(coeff, W, eps, FineGrid(1, 7.0, eps / 16), 1,
                         keep_vectors=True)
        m = ref.fine_grid.n_interior
        peaks = {}
        for plateau in (np.inf, 0.0):
            monkeypatch.setattr(reference, "POLISH_PLATEAU", plateau)
            tracemalloc.start()
            try:
                _, steps = ref.operator.polish(ref.eigenvectors[0])
                _, peaks[steps] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # the plateau stops the step after the first solve; without it the
        # next step's |r| does not decrease
        assert sorted(peaks) == [1, 2]
        assert abs(peaks[1] - peaks[2]) < m

    def test_polish_stops_on_the_plateau(self, branch_1d, monkeypatch):
        # from the inverse-iteration vector one Newton step reaches the
        # rounding floor of |r|^2; the second cuts it by less than
        # POLISH_PLATEAU, so the polish stops there.  Without the plateau
        # rule it takes further steps at eps = 1/20, which leave the
        # quotient as it is (at other eps, 1/16 among them, the second
        # step's |r| stops decreasing, and that rule stops the polish)
        coeff, W, br = branch_1d
        eps = 1 / 20
        ref = solve_Leps(coeff, W, eps, FineGrid(1, 7.0, eps / 16), 1,
                         keep_vectors=True)
        op = ref.operator
        solves = []
        solve = reference.dgtsv

        def counting(*args, **kwargs):
            solves.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(reference, "dgtsv", counting)
        v, steps = op.polish(ref.eigenvectors[0])
        assert steps == len(solves) == 2
        monkeypatch.setattr(reference, "POLISH_PLATEAU", 0.0)
        w, more = op.polish(ref.eigenvectors[0])
        assert more > steps
        assert op.quotient(w) == pytest.approx(op.quotient(v), rel=1e-15)


@pytest.fixture(scope="module")
def branch_1d():
    grid = TorusGrid(1, 128)
    coeff = CoefficientField.from_isotropic(
        grid, lambda y: 2.0 + np.cos(TWO_PI * y)
    )
    W = w1()
    abar = np.array([[np.sqrt(3.0)]])
    basis = MacroBasis(1, 48, default_sigma(abar, W))
    spec = solve_spectrum(abar, W, basis, 5)
    store, _, _ = build_suite(coeff, W, tol=1e-13)
    return coeff, W, simple_recursion(store, spec, 1, 3)


class TestMatching:

    def test_identity_coefficient_floor(self):
        c = coeff_identity_1d()
        W = w1()
        basis = MacroBasis(1, 40, 1.0)
        spec = solve_spectrum(np.array([[1.0]]), W, basis, 4)
        br = simple_recursion(build_suite(c, W)[0], spec, 1, 2)
        fg = FineGrid(1, 7.0, 1.0 / 128)
        ref = solve_Leps(c, W, 0.5, fg, 2, keep_vectors=True)
        rows = match_and_compare(ref, [br], 0.5, P=2)
        assert rows[0].eig_err < 1e-9            # discretization floor only
        assert rows[0].l2_err < 1e-5
        assert rows[0].h1_err < 1e-3             # O(h^2) flux-gradient floor

    def test_eigenvalue_error_second_order(self, branch_1d):
        coeff, W, br = branch_1d
        errs = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            fg = FineGrid(1, 7.0, eps / 16)
            ref = solve_Leps(coeff, W, eps, fg, 1, keep_vectors=True)
            rows = match_and_compare(ref, [br], eps, P=0)
            errs.append((eps, rows[0].eig_err))
        slope, _, r2 = fit_rate(errs)
        assert 1.9 < slope < 2.2
        assert r2 > 0.99

    def test_l2_error_second_order(self, branch_1d):
        coeff, W, br = branch_1d
        errs = []
        for eps in (1 / 8, 1 / 16, 1 / 32):
            fg = FineGrid(1, 7.0, eps / 16)
            ref = solve_Leps(coeff, W, eps, fg, 1, keep_vectors=True)
            rows = match_and_compare(ref, [br], eps, P=1)
            errs.append((eps, rows[0].l2_err))
        slope, _, _ = fit_rate(errs)
        assert slope > 1.7

    def test_h1_error_first_order(self, branch_1d):
        # grad(psi - w1) keeps eps chi2'(x/eps) phi0'', so P=1 is O(eps) in
        # H1 while P=3 is well past second order; a reference gradient with
        # an eps-independent floor (h = eps/32 on the fine grid) flattens
        # both
        coeff, W, br = branch_1d
        errs = {1: [], 3: []}
        for eps in (1 / 8, 1 / 16, 1 / 32):
            fg = FineGrid(1, 7.0, eps / 16)
            ref = solve_Leps(coeff, W, eps, fg, 1, keep_vectors=True)
            for P in errs:
                rows = match_and_compare(ref, [br], eps, P=P)
                errs[P].append((eps, rows[0].h1_err))
        slope1, _, _ = fit_rate(errs[1])
        slope3, _, _ = fit_rate(errs[3])
        assert 0.9 <= slope1 <= 1.1
        assert slope3 >= 2.5

    def test_one_recurrence_pass_per_branch(self, branch_1d, monkeypatch):
        # one pass of the Hermite recurrence over the node coordinates serves
        # the overlap with U_0 and the assembly; no table is built, since
        # a table is filled by the same recurrence
        import homspec.hermite as hermite
        coeff, W, br = branch_1d
        eps = 1 / 8
        ref = solve_Leps(coeff, W, eps, FineGrid(1, 7.0, eps / 16), 1,
                         keep_vectors=True)
        calls = []
        recurrence = hermite._hermite_rows

        def counting_rows(x, nmax, sigma):
            calls.append((np.size(x), nmax))
            return recurrence(x, nmax, sigma)

        monkeypatch.setattr(hermite, "_hermite_rows", counting_rows)
        rows = match_and_compare(ref, [br], eps, P=2)
        assert np.isfinite(rows[0].h1_err)
        assert calls == [(ref.fine_grid.n_interior,
                          br.spectrum.basis.size + 3)]

    def test_compare_peaks_below_half_a_table(self, branch_1d):
        # the comparison builds no m x (N + P + 1) Hermite table: on 57 343
        # h/2 nodes its allocations peak below half of one.  The batch holds
        # one row per envelope derivative (8 here), and the polish runs once
        # the batch is gone
        coeff, W, br = branch_1d
        eps, P = 1 / 128, 3
        ref = solve_Leps(coeff, W, eps, FineGrid(1, 7.0, eps / 16), 1,
                         keep_vectors=True)
        m = ref.fine_grid.n_interior
        assert m >= 35_000
        tracemalloc.start()
        try:
            rows = match_and_compare(ref, [br], eps, P=P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(rows[0].h1_err)
        assert peak < 0.5 * m * (br.spectrum.basis.size + P + 1) * 8

    def test_corrector_bases_span_one_period(self, branch_1d, monkeypatch):
        # the fine-grid nodes repeat p = eps/h = 32 fast phases, so no
        # Fourier basis built while comparing has more than 32 rows (the
        # per-node basis would have one row per node, 3 583 here)
        import homspec.torus as torus
        coeff, W, br = branch_1d
        eps = 1 / 8
        ref = solve_Leps(coeff, W, eps, FineGrid(1, 7.0, eps / 16), 1,
                         keep_vectors=True)
        rows = []
        axis_basis = torus._axis_basis

        def counting_basis(x, n):
            rows.append(x.size)
            return axis_basis(x, n)

        monkeypatch.setattr(torus, "_axis_basis", counting_basis)
        out = match_and_compare(ref, [br], eps, P=2)
        assert np.isfinite(out[0].h1_err)
        assert rows and max(rows) <= 32

    def test_compare_polishes_the_picked_vector(self, branch_1d, monkeypatch):
        # solve_Leps keeps its h/2 vectors unpolished, with the h/2
        # operator; the comparison polishes the one it picks, on it
        coeff, W, br = branch_1d
        eps = 1 / 8
        ref = solve_Leps(coeff, W, eps, FineGrid(1, 7.0, eps / 16), 3,
                         keep_vectors=True)
        calls = []
        polish = FDOperator.polish

        def recording(op, vec):
            calls.append((op, vec))
            return polish(op, vec)

        monkeypatch.setattr(FDOperator, "polish", recording)
        rows = match_and_compare(ref, [br], eps, P=1)
        assert len(calls) == 1
        op, vec = calls[0]
        assert op is ref.operator
        assert np.array_equal(vec, ref.eigenvectors[0])
        assert rows[0].lambda_ref == ref.eigenvalues_h2[0]
        assert 0.0 < rows[0].l2_err < 1e-3

    def test_lattice_matches_per_node_sampling(self, branch_1d, monkeypatch):
        # sampling the correctors at one period of phases moves the errors
        # only by the rounding of the unreduced per-node phases
        coeff, W, br = branch_1d
        eps = 1 / 32
        ref = solve_Leps(coeff, W, eps, FineGrid(1, 7.0, eps / 16), 1,
                         keep_vectors=True)
        lattice = match_and_compare(ref, [br], eps, P=3)[0]
        monkeypatch.setattr(FineGrid, "phases",
                            lambda grid, e: (grid.points() / e, None))
        per_node = match_and_compare(ref, [br], eps, P=3)[0]
        assert lattice.eig_err == per_node.eig_err
        assert lattice.l2_err == pytest.approx(per_node.l2_err, rel=1e-8)
        assert lattice.h1_err == pytest.approx(per_node.h1_err, rel=1e-7)


class TestFitRate:
    def test_exact_square(self):
        pts = [(e, e ** 2) for e in (0.1, 0.05, 0.025, 0.0125)]
        slope, _, r2 = fit_rate(pts)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        pts = [(e, 3 * e) for e in (0.1, 0.05, 0.025)]
        slope, intercept, _ = fit_rate(pts)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_too_few(self):
        with pytest.raises(DegenerateFit):
            fit_rate([(0.1, 1e-3), (0.05, 2.5e-4)])
