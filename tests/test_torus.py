"""Torus field algebra and the two elementary solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec.errors import (
    GridMismatch,
    NonZeroMean,
    NotDivergenceFree,
    NotElliptic,
    SingularSystem,
)
from homspec.reference import FineGrid
from homspec.torus import (
    SAMPLE_BLOCK,
    _apply_operator,
    _copy_modes,
    _irfft,
    _pad_shape,
    _resample,
    _rfft,
    CoefficientField,
    FourierSampler,
    PeriodicField,
    TorusGrid,
    cell_residual,
    div_y,
    grad_y,
    hminus1_norm,
    l2_inner,
    solve_cell,
    solve_flux_corrector,
    tensor_contract,
    tensor_rows,
)

TWO_PI = 2.0 * np.pi


def grid1(n=64):
    return TorusGrid(1, n)


def grid2(n=32):
    return TorusGrid(2, n)


def field1(fn, n=64):
    return PeriodicField.from_function(grid1(n), fn)


class TestMeans:
    def test_constant(self):
        f = PeriodicField.constant(grid1(), 3.0)
        assert f.mean() == pytest.approx(3.0, abs=0)

    def test_pure_mode(self):
        f = field1(lambda y: np.sin(TWO_PI * y))
        assert abs(f.mean()) < 1e-15

    def test_shifted_cosine(self):
        # zeroth Fourier coefficient of 2 + cos(2 pi y) is exactly 2
        f = field1(lambda y: 2.0 + np.cos(TWO_PI * y))
        assert f.mean() == pytest.approx(2.0, abs=1e-14)

    def test_mean_zero_part_has_zero_mean(self):
        rng = np.random.default_rng(7)
        g = grid2()
        vals = rng.standard_normal(g.shape)
        f = PeriodicField(g, vals)
        assert abs(f.mean_zero().mean()) < 1e-15

    def test_sin_squared_mean(self):
        # (2 + sin) sin = 2 sin + sin^2 has mean 1/2
        c = CoefficientField.from_isotropic(
            grid1(), lambda y: 2.0 + np.sin(TWO_PI * y))
        f = field1(lambda y: np.sin(TWO_PI * y))
        p = c.multiply(PeriodicField(f.grid, f.values[np.newaxis]))
        assert p.mean()[0] == pytest.approx(0.5, abs=1e-14)


class TestRoundTripAndDerivatives:
    def test_grad_of_constant(self):
        f = PeriodicField.constant(grid2(), 1.5)
        assert grad_y(f).l2_norm() < 1e-14

    def test_div_grad_single_mode(self):
        f = field1(lambda y: np.sin(TWO_PI * y))
        lap = div_y(grad_y(f))
        expect = -(TWO_PI ** 2)
        assert np.allclose(lap.values, expect * f.values, atol=1e-10)

    def test_evaluate_matches_grid(self):
        g = grid1(32)
        f = PeriodicField.from_function(g, lambda y: np.cos(TWO_PI * y) + 0.3)
        pts = g.axis.reshape(-1, 1)
        assert np.max(np.abs(f.evaluate(pts) - f.values)) < 1e-12

    def test_evaluate_offgrid_2d(self):
        g = grid2(16)
        f = PeriodicField.from_function(
            g, lambda y1, y2: np.sin(TWO_PI * y1) * np.cos(2 * TWO_PI * y2)
        )
        pts = np.array([[0.123, 0.456], [0.9, 0.1], [1.75, -0.3]])
        exact = np.sin(TWO_PI * pts[:, 0]) * np.cos(2 * TWO_PI * pts[:, 1])
        assert np.max(np.abs(f.evaluate(pts) - exact)) < 1e-12

    def test_grid_mismatch_raises(self):
        c = CoefficientField.identity(grid1(32))
        with pytest.raises(GridMismatch):
            c.multiply(PeriodicField.zeros(grid1(64), rank=1))
        with pytest.raises(GridMismatch):
            c.multiply(PeriodicField.constant(grid1(32), 1.0))


class TestCoefficientField:
    def test_identity_bounds(self):
        c = CoefficientField.identity(grid2())
        assert c.lam_min == pytest.approx(1.0)
        assert c.theta == pytest.approx(1.0)
        assert c.check_ellipticity()

    def test_laminate_bounds(self):
        c = CoefficientField.from_isotropic(
            grid2(), lambda y1, y2: 2.0 + np.cos(TWO_PI * y1)
        )
        assert c.lam_min == pytest.approx(1.0, abs=1e-12)
        assert c.lam_max == pytest.approx(3.0, abs=1e-12)
        assert c.theta == pytest.approx(3.0, abs=1e-12)

    def test_not_elliptic_rejected(self):
        with pytest.raises(NotElliptic):
            CoefficientField.from_isotropic(
                grid1(), lambda y: np.cos(TWO_PI * y)
            )

    def test_non_finite_rejected(self):
        vals = np.ones((1, 1) + grid1().shape)
        vals[0, 0, 3] = np.inf
        with pytest.raises(NotElliptic, match="non-finite"):
            CoefficientField(PeriodicField(grid1(), vals))

    def test_asymmetric_rejected(self):
        g = grid2(16)
        vals = np.zeros((2, 2) + g.shape)
        vals[0, 0] = vals[1, 1] = 2.0
        vals[0, 1] = 0.5
        vals[1, 0] = -0.5
        with pytest.raises(NotElliptic):
            CoefficientField(PeriodicField(g, vals))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_entry_returns_expression(self, dim):
        # off the grid an expression-built entry is the expression itself,
        # and an entry with no expression is the interpolant of its samples
        g = TorusGrid(dim, 16)
        fns = [
            lambda *ys: 2.0 + np.cos(TWO_PI * ys[0]) * np.cos(TWO_PI * ys[-1]),
            lambda *ys: 1.5 + 0.5 * np.sin(TWO_PI * sum(ys)),
        ][:dim]
        c = CoefficientField.from_diagonal(g, fns)
        sampled = CoefficientField.from_samples(g, c.a.values)
        pts = random_points(3, 200, dim)
        cols = [pts[:, ax] for ax in range(dim)]
        for i in range(dim):
            for j in range(dim):
                want = (np.asarray(fns[i](*cols), dtype=float) if i == j
                        else c.a.component(i, j).evaluate(pts))
                assert np.array_equal(c.entry(i, j)(pts, None), want)
                assert np.array_equal(sampled.entry(i, j)(pts, None),
                                      c.a.component(i, j).evaluate(pts))


class TestSolveCell:
    def test_all_zero(self):
        c = CoefficientField.identity(grid1())
        u = solve_cell(c)
        assert u.l2_norm() == 0.0

    def test_single_mode_laplace(self):
        # a = I, G = sin(2 pi y) -> u = sin(2 pi y) / (4 pi^2)
        g = grid1()
        c = CoefficientField.identity(g)
        G = PeriodicField.from_function(g, lambda y: np.sin(TWO_PI * y))
        u = solve_cell(c, G=G)
        exact = G.values / (TWO_PI ** 2)
        assert np.max(np.abs(u.values - exact)) < 1e-12

    def test_1d_corrector_closed_form(self):
        # a = 2 + cos(2 pi y), F = a e1: solution has u' = sqrt(3)/a - 1
        g = grid1(128)
        c = CoefficientField.from_isotropic(g, lambda y: 2.0 + np.cos(TWO_PI * y))
        F = PeriodicField(g, c.a.values[0])
        u = solve_cell(c, F=F, tol=1e-13)
        du = grad_y(u).component(0)
        exact = np.sqrt(3.0) / c.a.values[0, 0] - 1.0
        assert np.max(np.abs(du.values - exact)) < 1e-11
        assert abs(u.mean()) < 1e-13

    def test_nonconvergent_cg_raises(self):
        # one CG step cannot reach 1e-12 on an oscillating coefficient
        g = grid1(64)
        c = CoefficientField.from_isotropic(g, lambda y: 2.0 + np.cos(TWO_PI * y))
        G = PeriodicField.from_function(g, lambda y: np.sin(3 * TWO_PI * y))
        with pytest.raises(SingularSystem, match="in 1 iterations"):
            solve_cell(c, G=G, maxiter=1)
        assert solve_cell(c, G=G, maxiter=200).l2_norm() > 0.0

    def test_nonzero_mean_rejected(self):
        g = grid1()
        c = CoefficientField.identity(g)
        G = PeriodicField.constant(g, 1.0)
        with pytest.raises(NonZeroMean):
            solve_cell(c, G=G)

    def test_mean_zero_and_energy_identity(self):
        # energy identity: int a grad u . grad u = -int F . grad u + int G u
        rng = np.random.default_rng(11)
        g = grid2(32)
        c = CoefficientField.from_matrix(g, [
            [lambda y1, y2: 2.0 + 0.5 * np.cos(TWO_PI * y1),
             lambda y1, y2: 0.2 * np.sin(TWO_PI * (y1 + y2))],
            [lambda y1, y2: 0.2 * np.sin(TWO_PI * (y1 + y2)),
             lambda y1, y2: 2.0 + 0.5 * np.sin(TWO_PI * y2)],
        ])
        Fv = np.stack([
            np.cos(TWO_PI * g.coords()[0]),
            np.sin(TWO_PI * (g.coords()[0] + g.coords()[1])),
        ])
        F = PeriodicField(g, Fv)
        G = PeriodicField(g, np.sin(TWO_PI * g.coords()[1])).mean_zero()
        u = solve_cell(c, F=F, G=G, tol=1e-13)
        assert abs(u.mean()) < 1e-13
        gu = grad_y(u)
        lhs = l2_inner(c.multiply(gu), gu)
        rhs = -l2_inner(F, gu) + l2_inner(G, u)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert cell_residual(c, u, F=F, G=G) < 1e-10 * max(F.l2_norm(), 1.0)

    def test_linearity(self):
        g = grid1(64)
        c = CoefficientField.from_isotropic(g, lambda y: 2.0 + np.cos(TWO_PI * y))
        F1 = PeriodicField(g, np.sin(TWO_PI * g.axis)[np.newaxis])
        F2 = PeriodicField(g, np.cos(2 * TWO_PI * g.axis)[np.newaxis])
        G1 = PeriodicField.from_function(g, lambda y: np.sin(2 * TWO_PI * y))
        G2 = PeriodicField.from_function(g, lambda y: np.cos(TWO_PI * y))
        u12 = solve_cell(c, F=F1 + F2, G=G1 + G2, tol=1e-13)
        u1 = solve_cell(c, F=F1, G=G1, tol=1e-13)
        u2 = solve_cell(c, F=F2, G=G2, tol=1e-13)
        diff = u12 - (u1 + u2)
        assert diff.l2_norm() < 1e-11

    def test_self_convergence_spectral(self):
        # doubling modes changes the solution by < 1e-10 for smooth a
        sol = {}
        for n in (32, 64):
            g = grid1(n)
            c = CoefficientField.from_isotropic(
                g, lambda y: 2.0 + np.cos(TWO_PI * y)
            )
            F = PeriodicField(g, c.a.values[0])
            sol[n] = solve_cell(c, F=F, tol=1e-13)
        pts = np.linspace(0.0, 1.0, 17)[:-1].reshape(-1, 1)
        v32 = sol[32].evaluate(pts)
        v64 = sol[64].evaluate(pts)
        assert np.max(np.abs(v32 - v64)) < 1e-10

    def test_deterministic(self):
        g = grid2(16)
        c = CoefficientField.from_isotropic(
            g, lambda y1, y2: 1.5 + 0.4 * np.cos(TWO_PI * y1)
        )
        G = PeriodicField.from_function(
            g, lambda y1, y2: np.sin(TWO_PI * y2)
        ).mean_zero()
        u1 = solve_cell(c, G=G)
        u2 = solve_cell(c, G=G)
        assert np.array_equal(u1.values, u2.values)


def random_smooth_source(rng, grid, rank):
    """Random trigonometric field of modes |k_i| <= 3: a scalar (mean zero)
    for rank 0, a vector for rank 1."""
    ys = grid.coords()
    comps = []
    for _ in range(grid.dim if rank else 1):
        k = rng.integers(-3, 4, (4, grid.dim))
        amp = rng.uniform(-1.0, 1.0, (4, 2))
        comps.append(sum(
            amp[r, 0] * np.cos(TWO_PI * sum(k[r, ax] * ys[ax]
                                            for ax in range(grid.dim)))
            + amp[r, 1] * np.sin(TWO_PI * sum(k[r, ax] * ys[ax]
                                              for ax in range(grid.dim)))
            for r in range(4)))
    if rank:
        return PeriodicField(grid, np.stack(comps))
    return PeriodicField(grid, comps[0]).mean_zero()


class TestSolveCellProperties:
    # over random smooth SPD coefficients and sources, 1D and 2D; over 200
    # draws the energy gap was at most 5.6e-16 and the linearity gap at
    # most 7.4e-14, relative

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 24, 32]),
           dim=st.sampled_from([1, 2]))
    def test_energy_identity(self, seed, n, dim):
        # int a grad u . grad u = -int F . grad u + int G u
        rng = np.random.default_rng(seed)
        g = TorusGrid(dim, n)
        c = random_smooth_coefficient(rng, g)
        F = random_smooth_source(rng, g, 1)
        G = random_smooth_source(rng, g, 0)
        u = solve_cell(c, F=F, G=G, tol=1e-13)
        gu = grad_y(u)
        lhs = l2_inner(c.multiply(gu), gu)
        rhs = -l2_inner(F, gu) + l2_inner(G, u)
        assert abs(u.mean()) < 1e-13
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([16, 24, 32]),
           dim=st.sampled_from([1, 2]), scale=st.floats(-3.0, 3.0))
    def test_linearity(self, seed, n, dim, scale):
        # u(F1 + s F2, G1 + s G2) = u(F1, G1) + s u(F2, G2)
        rng = np.random.default_rng(seed)
        g = TorusGrid(dim, n)
        c = random_smooth_coefficient(rng, g)
        F1, F2 = (random_smooth_source(rng, g, 1) for _ in range(2))
        G1, G2 = (random_smooth_source(rng, g, 0) for _ in range(2))
        u = solve_cell(c, F=F1 + F2 * scale, G=G1 + G2 * scale, tol=1e-13)
        u1 = solve_cell(c, F=F1, G=G1, tol=1e-13)
        u2 = solve_cell(c, F=F2, G=G2, tol=1e-13)
        assert (u - (u1 + u2 * scale)).l2_norm() <= 1e-10 * u.l2_norm()


class TestFluxCorrector:
    def test_zero(self):
        s = solve_flux_corrector(PeriodicField.zeros(grid2(), rank=1))
        assert s.l2_norm() == 0.0

    def test_single_mode(self):
        # g = (d2 h, -d1 h) with h = sin sin  ->  s12 = -h
        g = grid2()
        y1, y2 = g.coords()
        h = np.sin(TWO_PI * y1) * np.sin(TWO_PI * y2)
        gv = np.stack([
            TWO_PI * np.sin(TWO_PI * y1) * np.cos(TWO_PI * y2),
            -TWO_PI * np.cos(TWO_PI * y1) * np.sin(TWO_PI * y2),
        ])
        s = solve_flux_corrector(PeriodicField(g, gv))
        assert np.max(np.abs(s.values[0, 1] + h)) < 1e-12
        assert np.max(np.abs(s.values + np.swapaxes(s.values, 0, 1))) == 0.0

    def test_divergence_identity(self):
        # div s reproduces g for a generic divergence-free mean-zero g
        g = grid2()
        y1, y2 = g.coords()
        h = np.sin(TWO_PI * y1) * np.cos(TWO_PI * y2) \
            + 0.3 * np.cos(2 * TWO_PI * (y1 + y2))
        hf = PeriodicField(g, h)
        gh = grad_y(hf)
        gv = PeriodicField(g, np.stack([gh.values[1], -gh.values[0]]))
        s = solve_flux_corrector(gv)
        err = div_y(s) - gv
        assert err.l2_norm() < 1e-10 * gv.l2_norm()

    def test_not_divergence_free_rejected(self):
        g = grid2()
        y1, _ = g.coords()
        gv = np.stack([np.sin(TWO_PI * y1), np.zeros(g.shape)])
        with pytest.raises(NotDivergenceFree):
            solve_flux_corrector(PeriodicField(g, gv))

    def test_nonzero_mean_rejected(self):
        g = grid2()
        gv = np.stack([np.ones(g.shape), np.zeros(g.shape)])
        with pytest.raises(NonZeroMean):
            solve_flux_corrector(PeriodicField(g, gv))


class TestNorms:
    def test_hminus1_single_mode(self):
        f = field1(lambda y: np.sin(TWO_PI * y))
        # |sin|_{H^-1}^2 = (1/2) / (2 pi)^2
        assert hminus1_norm(f) == pytest.approx(np.sqrt(0.5) / TWO_PI, rel=1e-12)

    def test_dealiasing_exact_quadratic(self):
        # product of two resolved modes is exact after 3/2 padding
        g = grid1(16)
        c = CoefficientField.from_isotropic(
            g, lambda y: 2.0 + np.cos(7 * TWO_PI * y))
        f = PeriodicField.from_function(g, lambda y: np.cos(7 * TWO_PI * y))
        p = c.multiply(PeriodicField(g, f.values[np.newaxis]))
        # (2 + cos) cos = 2 cos + 1/2 + cos(14 y)/2; mode 14 overflows n=16
        # only via aliasing (onto mode 2), and the padded product must keep
        # the resolvable part exact
        assert p.mean()[0] == pytest.approx(0.5, abs=1e-14)
        assert np.max(np.abs(p.values[0] - 2.0 * f.values - 0.5)) < 1e-14


def random_trig_field(grid, seed):
    """Random band-limited real trigonometric polynomial on grid and its
    closed form as a callable of (m, d) points.

    Besides the modes below the Nyquist index it carries the Nyquist
    cosines cos(pi n y_i) and their product, the Nyquist content a grid
    sample can represent.
    """
    rng = np.random.default_rng(seed)
    n = grid.modes_per_axis
    K = n // 2 - 1
    ks = np.array(np.meshgrid(*[np.arange(-K, K + 1)] * grid.dim,
                              indexing="ij")).reshape(grid.dim, -1).T
    a, b = rng.uniform(-1.0, 1.0, (2, len(ks)))
    nyq = rng.uniform(-1.0, 1.0, grid.dim + 1)

    def exact(pts):
        phase = TWO_PI * pts @ ks.T
        cosn = np.cos(np.pi * n * pts)
        return (np.cos(phase) @ a + np.sin(phase) @ b + cosn @ nyq[:-1]
                + nyq[-1] * np.prod(cosn, axis=1))

    coords = np.stack([c.ravel() for c in grid.coords()], axis=1)
    return PeriodicField(grid, exact(coords).reshape(grid.shape)), exact


def lattice_phases(grid, eps, p):
    """Phases -R/eps + i/p mod 1 of the interior nodes i = 1..n_cells-1,
    formed in long double."""
    i = np.arange(1, grid.n_cells).astype(np.longdouble)
    y = (np.longdouble(-grid.radius) / np.longdouble(eps) + i / p) % 1
    return y.astype(float)


class TestFineGridPhases:
    """The fine-grid nodes sit on a lattice of fast phases x/eps mod 1."""

    @settings(max_examples=20, deadline=None)
    @given(rule=st.sampled_from([8, 12, 16, 10.5]),
           radius=st.floats(0.5, 8.0),
           eps=st.floats(0.01, 0.5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_1d_lattice_matches_closed_form(self, rule, radius, eps, seed):
        # h = eps / (2 rule), as solve_Leps's fine grid: one period of
        # p = 2 rule phases, and the sampler on them reproduces the field at
        # the exact node phases
        grid = FineGrid(1, radius, eps / rule / 2.0)
        p = round(2 * rule)
        coords, index = grid.phases(eps)
        assert coords.shape == (p, 1)
        assert np.all((coords >= 0.0) & (coords < 1.0))
        f, exact = random_trig_field(grid1(16), seed)
        got = FourierSampler(f.grid, coords, index)(f)
        want = exact(lattice_phases(grid, eps, p).reshape(-1, 1))
        assert got.shape == (grid.n_interior,)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(f.values))

    @settings(max_examples=8, deadline=None)
    @given(rule=st.sampled_from([8, 10.5]),
           radius=st.floats(0.2, 0.5),
           eps=st.floats(0.1, 0.3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_2d_lattice_follows_points_order(self, rule, radius, eps, seed):
        grid = FineGrid(2, radius, eps / rule / 2.0)
        p = round(2 * rule)
        coords, index = grid.phases(eps)
        assert coords.shape == (p, 2)
        f, exact = random_trig_field(grid2(8), seed)
        got = FourierSampler(f.grid, coords, index)(f)
        y = lattice_phases(grid, eps, p)
        n = y.size
        want = exact(np.stack([np.repeat(y, n), np.tile(y, n)], axis=1))
        assert got.shape == (grid.points().shape[0],)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(f.values))

    @settings(max_examples=10, deadline=None)
    @given(ratio=st.floats(17.0, 40.0).filter(
               lambda r: abs(r - round(r)) > 1e-6),
           radius=st.floats(0.5, 4.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_no_lattice_gives_every_node_a_phase(self, ratio, radius, seed):
        eps = 0.1
        grid = FineGrid(1, radius, eps / ratio)
        coords, index = grid.phases(eps)
        assert coords.shape == (grid.n_cells, 1)
        assert np.array_equal(index[0], np.arange(1, grid.n_cells))
        f, _ = random_trig_field(grid1(16), seed)
        got = FourierSampler(f.grid, coords, index)(f)
        dense = FourierSampler(f.grid, grid.points() / eps)(f)
        assert np.max(np.abs(got - dense)) < 1e-10 * np.max(np.abs(f.values))


def random_points(seed, m, d):
    """m points in [-3, 4)^d: outside the unit cell on both sides."""
    return np.random.default_rng(seed).uniform(-3.0, 4.0, (m, d))


class TestFourierSampler:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([4, 8, 16, 32]),
           tail=st.integers(1, SAMPLE_BLOCK - 1))
    def test_1d_bit_identical_to_dense_basis(self, seed, n, tail):
        # several row blocks plus a ragged tail; the sampler must reproduce
        # the dense one-shot basis bit for bit
        f, _ = random_trig_field(grid1(n), seed)
        pts = random_points(seed, 3 * SAMPLE_BLOCK + tail, 1)
        freqs = np.fft.fftfreq(n, d=1.0 / n)
        fh = np.fft.fftn(f.values) / n
        e = np.exp(TWO_PI * 1j * np.outer(pts[:, 0], freqs))
        e[:, n // 2] = np.cos(TWO_PI * freqs[n // 2] * pts[:, 0])
        dense = np.real(e @ fh)
        assert np.array_equal(FourierSampler(f.grid, pts)(f), dense)
        assert np.array_equal(f.evaluate(pts), dense)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([4, 8, 16]),
           tail=st.integers(1, SAMPLE_BLOCK - 1))
    def test_2d_bit_identical_to_dense_basis(self, seed, n, tail):
        # an arbitrary point set is its own index: the sampler must give the
        # dense per-point bases contracted in row blocks, bit for bit
        f, _ = random_trig_field(grid2(n), seed)
        pts = random_points(seed, 2 * SAMPLE_BLOCK + tail, 2)
        freqs = np.fft.fftfreq(n, d=1.0 / n)
        fh = np.fft.fftn(f.values) / n ** 2
        e = []
        for ax in range(2):
            b = np.exp(TWO_PI * 1j * np.outer(pts[:, ax], freqs))
            b[:, n // 2] = np.cos(TWO_PI * freqs[n // 2] * pts[:, ax])
            e.append(b)
        dense = np.concatenate([
            np.einsum("pb,pb->p", e[0][s:s + SAMPLE_BLOCK] @ fh,
                      e[1][s:s + SAMPLE_BLOCK]).real
            for s in range(0, len(pts), SAMPLE_BLOCK)])
        assert np.array_equal(FourierSampler(f.grid, pts)(f), dense)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim=st.sampled_from([1, 2]),
           rows=st.integers(1, 40),
           m=st.integers(1, 2 * SAMPLE_BLOCK + 7))
    def test_index_gathers_distinct_rows(self, seed, dim, rows, m):
        # point p of an indexed sampler is (coords[index[0][p], 0], ...):
        # each axis picks its own row among the distinct coordinates
        rng = np.random.default_rng(seed)
        f, exact = random_trig_field(TorusGrid(dim, 8), seed)
        coords = random_points(seed, rows, dim)
        index = [rng.integers(0, rows, m) for _ in range(dim)]
        pts = np.stack([coords[ix, ax] for ax, ix in enumerate(index)], axis=1)
        got = FourierSampler(f.grid, coords, index)(f)
        assert got.shape == (m,)
        assert np.max(np.abs(got - exact(pts))) < 1e-12

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([4, 8, 16]),
           m=st.one_of(st.integers(1, SAMPLE_BLOCK - 1),
                       st.integers(SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK - 1)))
    def test_2d_matches_closed_form(self, seed, n, m):
        f, exact = random_trig_field(grid2(n), seed)
        pts = random_points(seed, m, 2)
        assert np.max(np.abs(FourierSampler(f.grid, pts)(f) - exact(pts))) \
            < 1e-12

    def test_one_sampler_many_fields(self):
        g = grid2(8)
        pts = random_points(0, 50, 2)
        sample = FourierSampler(g, pts)
        for seed in range(3):
            f, exact = random_trig_field(g, seed)
            assert np.max(np.abs(sample(f) - exact(pts))) < 1e-12

    def test_rejects_other_grid_rank_and_points(self):
        pts = random_points(0, 10, 1)
        sample = FourierSampler(grid1(16), pts)
        with pytest.raises(GridMismatch):
            sample(PeriodicField.constant(grid1(32), 1.0))
        with pytest.raises(GridMismatch):
            sample(PeriodicField.zeros(grid1(16), rank=1))
        with pytest.raises(GridMismatch):
            FourierSampler(grid2(8), pts)


def even_n():
    return st.integers(2, 12).map(lambda k: 2 * k)


def off_nyquist(n, dim):
    """True at the modes of an n^dim half spectrum with no Nyquist index."""
    keep = np.fft.fftfreq(n, d=1.0 / n) != -(n // 2)
    last = np.arange(n // 2 + 1) != n // 2
    return np.all(np.meshgrid(*[keep] * (dim - 1), last, indexing="ij"),
                  axis=0)


def half_spectrum(rng, n, dim):
    """Random complex array of the half-spectrum shape of an n^dim grid."""
    shape = TorusGrid(dim, n).half_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_smooth_coefficient(rng, grid, full=True):
    """Symmetric positive definite trigonometric coefficient with random
    low-mode phases; full (off-diagonal) in 2D unless ``full`` is false."""
    ys = grid.coords()
    k = rng.integers(1, 3, (3, grid.dim))
    ph = rng.uniform(0.0, 1.0, (3, grid.dim))

    def wave(r):
        return np.prod([np.cos(TWO_PI * (k[r, ax] * ys[ax] + ph[r, ax]))
                        for ax in range(grid.dim)], axis=0)

    vals = np.zeros((grid.dim, grid.dim) + grid.shape)
    for i in range(grid.dim):
        vals[i, i] = 2.0 + 0.5 * wave(i)
    if grid.dim == 2 and full:
        vals[0, 1] = vals[1, 0] = 0.4 * wave(2)
    return CoefficientField.from_samples(grid, vals)


class TestSpectralAdjoints:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=even_n(),
           dim=st.sampled_from([1, 2]))
    def test_truncate_undoes_pad(self, seed, n, dim):
        # every mode below the Nyquist index comes back bit for bit; the
        # Nyquist modes are dropped
        rng = np.random.default_rng(seed)
        fh = half_spectrum(rng, n, dim)
        back = _copy_modes(_copy_modes(fh, n, _pad_shape(n)), n, n)
        assert np.array_equal(back, np.where(off_nyquist(n, dim), fh, 0))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=even_n(),
           extra=st.integers(0, 24), dim=st.sampled_from([1, 2]))
    def test_resample_drops_only_the_nyquist_modes(self, seed, n, extra, dim):
        # n -> n zeroes exactly the modes with a Nyquist index, bit for bit;
        # n -> m -> n gives the same field to rounding, for any m >= n
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n,) * dim)
        axes = tuple(range(dim))
        want = np.fft.irfftn(
            np.where(off_nyquist(n, dim), np.fft.rfftn(v, axes=axes), 0),
            s=v.shape, axes=axes)
        assert np.array_equal(_resample(v, n, n), want)
        back = _resample(_resample(v, n, n + extra), n, n)
        assert np.max(np.abs(back - want)) <= 1e-13 * np.max(np.abs(v))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=even_n(),
           dim=st.sampled_from([1, 2]))
    def test_pad_and_truncate_are_adjoint(self, seed, n, dim):
        # <pad x, y> = <x, truncate y>, relative to |x| |y|
        rng = np.random.default_rng(seed)
        m = _pad_shape(n)
        x, y = (half_spectrum(rng, s, dim) for s in (n, m))
        lhs = np.vdot(_copy_modes(x, n, m), y)
        rhs = np.vdot(x, _copy_modes(y, n, n))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=even_n(),
           dim=st.sampled_from([1, 2]))
    def test_grad_and_div_are_adjoint(self, seed, n, dim):
        # <grad u, F> = -<u, div F>, relative to |grad u| |F|
        rng = np.random.default_rng(seed)
        g = TorusGrid(dim, n)
        u = PeriodicField(g, rng.standard_normal(g.shape))
        F = PeriodicField(g, rng.standard_normal((dim,) + g.shape))
        lhs = l2_inner(grad_y(u), F)
        rhs = -l2_inner(u, div_y(F))
        assert abs(lhs - rhs) <= 1e-12 * grad_y(u).l2_norm() * F.l2_norm()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=even_n(),
           dim=st.sampled_from([1, 2]))
    def test_operator_is_symmetric(self, seed, n, dim):
        # <A u, v> = <u, A v> for -div(a grad), relative to |A u| |v|
        rng = np.random.default_rng(seed)
        g = TorusGrid(dim, n)
        a = random_smooth_coefficient(rng, g)
        u, v = rng.standard_normal((2,) + g.shape)
        Au, Av = _apply_operator(a, u), _apply_operator(a, v)
        assert abs(np.sum(Au * v) - np.sum(u * Av)) \
            <= 1e-12 * np.linalg.norm(Au) * np.linalg.norm(v)


def band_limited(rng, dim, n):
    """Random real trigonometric polynomial whose every mode lies below the
    Nyquist index of an n-grid, as a callable of (m, d) points; its
    amplitudes sum to 1, so it is bounded by 1 everywhere."""
    K = n // 2 - 1
    ks = np.array(np.meshgrid(*[np.arange(-K, K + 1)] * dim,
                              indexing="ij")).reshape(dim, -1).T
    c, s = rng.uniform(-1.0, 1.0, (2, len(ks)))
    total = np.sum(np.abs(c)) + np.sum(np.abs(s))
    return lambda pts: (np.cos(TWO_PI * pts @ ks.T) @ c
                        + np.sin(TWO_PI * pts @ ks.T) @ s) / total


def sampled(fn, grid):
    pts = np.stack([c.ravel() for c in grid.coords()], axis=1)
    return fn(pts).reshape(grid.shape)


class TestMultiply:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 12, 16]),
           dim=st.sampled_from([1, 2]))
    def test_equals_projected_exact_product(self, seed, n, dim):
        # a full SPD coefficient and a vector field, both band-limited below
        # the Nyquist index: a g has modes |k| <= n - 2, so the 2n grid
        # samples it exactly, and multiply must return its modes |k| < n/2
        rng = np.random.default_rng(seed)
        grid, fine = TorusGrid(dim, n), TorusGrid(dim, 2 * n)
        rs = {(i, j): band_limited(rng, dim, n)
              for i in range(dim) for j in range(i, dim)}
        gs = [band_limited(rng, dim, n) for _ in range(dim)]

        def on(gr):
            a = np.array([[3.0 * (i == j)
                           + 0.5 * sampled(rs[min(i, j), max(i, j)], gr)
                           for j in range(dim)] for i in range(dim)])
            return a, np.array([sampled(f, gr) for f in gs])

        a, g = on(grid)
        got = CoefficientField.from_samples(grid, a).multiply(
            PeriodicField(grid, g))
        a2, g2 = on(fine)
        K = n // 2 - 1
        src = np.r_[0:K + 1, 2 * n - K:2 * n]
        dst = np.r_[0:K + 1, n - K:n]
        for i in range(dim):
            ph = np.fft.fftn(sum(a2[i, j] * g2[j] for j in range(dim)))
            kept = np.zeros(grid.shape, dtype=complex)
            kept[np.ix_(*[dst] * dim)] = ph[np.ix_(*[src] * dim)]
            want = np.real(np.fft.ifftn(kept)) / 2 ** dim
            assert np.max(np.abs(got.values[i] - want)) \
                <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=even_n(),
           dim=st.sampled_from([1, 2]))
    def test_operator_is_minus_div_of_multiply_of_grad(self, seed, n, dim):
        # the spectral operator equals its definition through the grid,
        # relative to the largest value of A u
        rng = np.random.default_rng(seed)
        g = TorusGrid(dim, n)
        a = random_smooth_coefficient(rng, g)
        u = rng.standard_normal(g.shape)
        want = -div_y(a.multiply(grad_y(PeriodicField(g, u)))).values
        assert np.max(np.abs(_apply_operator(a, u) - want)) \
            <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=even_n(),
           dim=st.sampled_from([1, 2]), zeros=st.integers(0, 3),
           full=st.booleans())
    def test_zero_slots_are_skipped_exactly(self, seed, n, dim, zeros, full):
        # components of g that are exactly zero: a diagonal coefficient gives
        # exact zeros in those outputs, and with any coefficient the result
        # is bit for bit the product that pads and sums every slot
        rng = np.random.default_rng(seed)
        grid = TorusGrid(dim, n)
        a = random_smooth_coefficient(rng, grid, full)
        zero = [bool(zeros >> j & 1) for j in range(dim)]
        g = rng.standard_normal((dim,) + grid.shape)
        g[zero] = 0.0
        got = a.multiply(PeriodicField(grid, g)).values
        if not full:
            assert np.all(got[zero] == 0.0)
        m = _pad_shape(n)
        scale = (m / n) ** dim
        pads = [_irfft(_copy_modes(_rfft(gj), n, m), m) * scale for gj in g]
        ap = a.padded_values()
        want = np.stack([
            _irfft(_copy_modes(_rfft(sum(ap[i, j] * pads[j]
                                         for j in range(dim))), n, n) / scale,
                   n)
            for i in range(dim)])
        assert np.array_equal(got, want)


def random_index(rng, rows, dim, tensor, m):
    """A tensor grid over ``rows`` coordinates per axis, or m random rows."""
    if tensor:
        return tensor_rows(rows, dim)
    return [rng.integers(0, rows, m) for _ in range(dim)]


class TestIndexedSampling:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_tensor_rows_in_meshgrid_order(self, dim):
        grids = np.meshgrid(*[np.arange(7)] * dim, indexing="ij")
        rows = tensor_rows(7, dim)
        assert len(rows) == dim
        for r, mesh in zip(rows, grids):
            assert np.array_equal(r, mesh.ravel())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim=st.sampled_from([1, 2]),
           n=st.sampled_from([4, 8, 16]),
           rows=st.integers(1, 40),
           tensor=st.booleans(),
           m=st.integers(1, 300))
    def test_fourier_equals_per_point(self, seed, dim, n, rows, tensor, m):
        # the sampler on the distinct coordinates plus an index gives the
        # per-point sampler's values
        rng = np.random.default_rng(seed)
        f, _ = random_trig_field(TorusGrid(dim, n), seed)
        coords = random_points(seed, rows, dim)
        index = random_index(rng, rows, dim, tensor, m)
        pts = np.stack([coords[ix, ax] for ax, ix in enumerate(index)], axis=1)
        want = FourierSampler(f.grid, pts)(f)
        got = FourierSampler(f.grid, coords, index)(f)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           a=st.integers(1, 16),
           b=st.integers(1, 16),
           rows=st.integers(1, 40),
           tensor=st.booleans(),
           m=st.integers(1, 300))
    def test_tensor_contract_rows_equal_per_point(self, seed, a, b, rows,
                                                  tensor, m):
        # the table gather equals the per-point contraction of the gathered
        # rows, for complex and for real factors, with two tables and with
        # one
        rng = np.random.default_rng(seed)
        index = random_index(rng, rows, 2, tensor, m)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        factors = (draw(rows, a), draw(a, b), draw(rows, b))
        for left, core, right in (factors, [f.real for f in factors]):
            cases = [
                (np.einsum("pa,ab,pb->p", left[index[0]], core,
                           right[index[1]]).real,
                 tensor_contract([left, right], core, index)),
                (np.einsum("pa,a->p", left[index[0]], core[:, 0]).real,
                 tensor_contract([left], core[:, 0], index[:1])),
            ]
            for want, got in cases:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))
