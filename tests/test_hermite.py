"""Macroscopic Hermite space: oscillator oracles, resolvent, clustering."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec import hermite
from homspec.errors import (
    GapUnresolved,
    NonConfining,
    NotOrthogonal,
    TruncationUnsafe,
)
from homspec.hermite import (
    HermiteSampler,
    MacroBasis,
    MacroFunction,
    _lift,
    assemble_L0,
    default_sigma,
    eigensolve,
    extended_coefficients,
    hermite_function_values,
    poly_multiply_op,
    quadrature_for,
    resolvent_solve,
    solve_spectrum,
    spectral_gap,
)
from homspec.slowpoly import SlowPolynomial
from homspec.torus import SAMPLE_BLOCK, tensor_contract, tensor_grid


def w_iso(dim):
    if dim == 1:
        return SlowPolynomial(1, {(2,): 1.0})
    return SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})


class TestAssembly:
    def test_oscillator_diagonal(self):
        # a = I, W = x^2, sigma = 1: matrix is exactly diag(2n+1)
        basis = MacroBasis(1, 16, 1.0)
        L = assemble_L0(np.array([[1.0]]), w_iso(1), basis)
        expect = np.diag(2.0 * np.arange(16) + 1.0)
        assert np.max(np.abs(L - expect)) < 1e-13

    def test_scaled_oscillator_diagonal(self):
        # abar = sqrt(3), sigma = 3^{1/8}: eigenvalues (2n+1) 3^{1/4}, exactly
        basis = MacroBasis(1, 16, 3.0 ** 0.125)
        L = assemble_L0(np.array([[np.sqrt(3.0)]]), w_iso(1), basis)
        expect = np.diag((2.0 * np.arange(16) + 1.0) * 3.0 ** 0.25)
        assert np.max(np.abs(L - expect)) < 1e-12

    def test_bandedness(self):
        # quadratic W: bandwidth 2 per axis
        basis = MacroBasis(1, 24, 0.9)
        W = SlowPolynomial(1, {(2,): 1.3, (1,): 0.2, (0,): 0.1})
        L = assemble_L0(np.array([[2.0]]), W, basis)
        for k in range(3, 24):
            assert np.max(np.abs(np.diag(L, k))) < 1e-14

    def test_symmetric(self):
        basis = MacroBasis(2, 10, 1.1)
        W = SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 2.0, (1, 1): 0.3})
        L = assemble_L0(np.array([[1.5, 0.2], [0.2, 1.0]]), W, basis)
        assert np.max(np.abs(L - L.T)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           N=st.integers(8, 14), sigma=st.floats(0.3, 3.0))
    def test_in_place_equals_out_of_place(self, seed, dim, N, sigma):
        # L0 accumulates its Kronecker terms and symmetrizes in place: the
        # same products and sums as the out-of-place formula, bit for bit
        rng = np.random.default_rng(seed)
        diag = rng.uniform(0.5, 3.0, dim)
        abar = np.diag(diag)
        W = {(2,) + (0,) * (dim - 1): rng.uniform(0.5, 2.0),
             (0,) * dim: rng.uniform(-1.0, 1.0),
             (1,) + (0,) * (dim - 1): rng.uniform(-1.0, 1.0)}
        if dim == 2:
            # SPD with a nonzero coupling, and a cross term in W
            abar[0, 1] = abar[1, 0] = (rng.choice([-1.0, 1.0])
                                       * rng.uniform(0.1, 0.9)
                                       * np.sqrt(diag[0] * diag[1]))
            W[(0, 2)] = rng.uniform(0.5, 2.0)
            W[(1, 1)] = (rng.uniform(-0.9, 0.9)
                         * 2.0 * np.sqrt(W[(2, 0)] * W[(0, 2)]))
        W = SlowPolynomial(dim, W)
        basis = MacroBasis(dim, N, sigma)

        def oracle():
            L = np.zeros((basis.total, basis.total))
            for alpha, c in W.coeffs.items():
                L += c * reduce(np.kron,
                                [hermite._axis_x_power(N, alpha[ax], sigma)
                                 for ax in range(dim)])
            for i in range(dim):
                for j in range(dim):
                    blocks = [np.eye(N)] * dim
                    if i == j:
                        blocks[i] = hermite._axis_kinetic(N, sigma)
                    else:
                        blocks[i] = _lift(N, N, 1, sigma).T
                        blocks[j] = _lift(N, N, 1, sigma)
                    L += abar[i, j] * reduce(np.kron, blocks)
            return 0.5 * (L + L.T)

        L = assemble_L0(abar, W, basis)
        assert np.array_equal(L, oracle())
        assert np.array_equal(L, L.T)

    def test_nonconfining_rejected(self):
        basis = MacroBasis(1, 8, 1.0)
        with pytest.raises(NonConfining):
            assemble_L0(np.array([[1.0]]), SlowPolynomial(1, {(4,): 1.0}), basis)
        with pytest.raises(NonConfining):
            assemble_L0(np.array([[1.0]]),
                        SlowPolynomial(1, {(2,): -1.0}), basis)

    def test_default_sigma(self):
        assert default_sigma(np.array([[np.sqrt(3.0)]]), w_iso(1)) \
            == pytest.approx(3.0 ** 0.125, rel=1e-14)
        assert default_sigma(np.eye(2), w_iso(2)) == pytest.approx(1.0)


class TestEigensolve:
    def test_oscillator_1d(self):
        basis = MacroBasis(1, 64, 1.0)
        spec = solve_spectrum(np.array([[1.0]]), w_iso(1), basis, 6)
        assert np.allclose(spec.eigenvalues, [1, 3, 5, 7, 9, 11], rtol=1e-12)

    def test_oscillator_2d_degeneracies(self):
        basis = MacroBasis(2, 16, 1.0)
        spec = solve_spectrum(np.eye(2), w_iso(2), basis, 6)
        assert np.allclose(spec.eigenvalues, [2, 4, 4, 6, 6, 6], rtol=1e-11)
        assert spec.clusters == [(0, 1), (1, 3), (3, 6)]

    def test_scaling_covariance(self):
        # eigensolve with (c I, |x|^2) returns sqrt(c) times the oscillator
        for c in (1.0, np.sqrt(3.0), 2.0):
            abar = np.array([[c]])
            basis = MacroBasis(1, 48, default_sigma(abar, w_iso(1)))
            spec = solve_spectrum(abar, w_iso(1), basis, 5)
            expect = np.sqrt(c) * (2.0 * np.arange(5) + 1.0)
            assert np.allclose(spec.eigenvalues, expect, rtol=1e-9)

    def test_orthonormality(self):
        basis = MacroBasis(2, 12, 1.0)
        spec = solve_spectrum(np.eye(2), w_iso(2), basis, 8)
        G = np.array([[spec.eigenfunctions[i].inner(spec.eigenfunctions[j])
                       for j in range(8)] for i in range(8)])
        assert np.max(np.abs(G - np.eye(8))) < 1e-10

    def test_residual(self):
        basis = MacroBasis(1, 40, 1.0)
        L = assemble_L0(np.array([[1.0]]), w_iso(1), basis)
        spec = eigensolve(L, 5, basis)
        for j in range(1, 6):
            phi = spec.eigenfunctions[j - 1]
            r = L @ phi.coeffs - spec.eigenvalue(j) * phi.coeffs
            assert np.linalg.norm(r) < 1e-8 * spec.eigenvalue(j)

    def test_count_guard(self):
        basis = MacroBasis(1, 16, 1.0)
        L = assemble_L0(np.array([[1.0]]), w_iso(1), basis)
        with pytest.raises(TruncationUnsafe):
            eigensolve(L, 8, basis)


class TestGapAndResolvent:
    def setup_method(self):
        self.basis = MacroBasis(1, 48, 1.0)
        L = assemble_L0(np.array([[1.0]]), w_iso(1), self.basis)
        self.spec = eigensolve(L, 8, self.basis)

    def test_gap_simple(self):
        assert spectral_gap(self.spec, 1) == pytest.approx(2.0, rel=1e-12)
        assert spectral_gap(self.spec, 3) == pytest.approx(2.0, rel=1e-12)

    def test_gap_degenerate_cluster(self):
        basis = MacroBasis(2, 14, 1.0)
        spec = solve_spectrum(np.eye(2), w_iso(2), basis, 6)
        # the double eigenvalue 4: its own copies do not count as gap 0
        assert spectral_gap(spec, 2) == pytest.approx(2.0, rel=1e-9)

    def test_gap_unresolved(self):
        with pytest.raises(GapUnresolved):
            spectral_gap(self.spec, 8)

    def test_gap_scaled_oscillator(self):
        # abar = sqrt(3): gaps scale by 3^{1/4}
        abar = np.array([[np.sqrt(3.0)]])
        basis = MacroBasis(1, 48, default_sigma(abar, w_iso(1)))
        spec = solve_spectrum(abar, w_iso(1), basis, 5)
        assert spectral_gap(spec, 1) == pytest.approx(2 * 3 ** 0.25, rel=1e-9)

    def test_resolvent_zero(self):
        u = resolvent_solve(self.spec, 1, MacroFunction.zero(self.basis))
        assert u.norm() == 0.0

    def test_resolvent_single_mode(self):
        # f = phi_2, lambda = lambda_1: u = phi_2 / (lambda_2 - lambda_1)
        f = self.spec.eigenfunctions[1]
        u = resolvent_solve(self.spec, 1, f)
        diff = u - 0.5 * f
        assert diff.norm() < 1e-12

    def test_resolvent_contract(self):
        # random f orthogonal to the eigenspace: residual and norm bound
        rng = np.random.default_rng(5)
        f = MacroFunction(self.basis, rng.standard_normal(self.basis.total))
        phi = self.spec.eigenfunctions[0]
        f = f - phi.inner(f) * phi
        u = resolvent_solve(self.spec, 1, f)
        lam = self.spec.eigenvalue(1)
        r = self.spec.matrix @ u.coeffs - lam * u.coeffs - f.coeffs
        r -= phi.coeffs * np.dot(phi.coeffs, r)
        assert np.linalg.norm(r) < 1e-8 * f.norm()
        gamma = spectral_gap(self.spec, 1)
        assert u.norm() <= (1 + 1e-6) * f.norm() / gamma
        assert abs(u.inner(phi)) < 1e-12 * f.norm()

    def test_resolvent_rejects_nonorthogonal(self):
        with pytest.raises(NotOrthogonal):
            resolvent_solve(self.spec, 1, self.spec.eigenfunctions[0])


class TestOperatorsAndQuadrature:
    def test_multiply_by_one(self):
        basis = MacroBasis(1, 12, 1.3)
        M = poly_multiply_op(SlowPolynomial.constant(1, 1.0), basis)
        assert np.array_equal(M, np.eye(12))

    def test_derivative_twice_matches_second_derivative(self):
        # the d/dx Galerkin block that assemble_L0 uses, applied twice, vs
        # the exact kinetic block, away from the top rows
        basis = MacroBasis(1, 30, 1.0)
        D = _lift(30, 30, 1, 1.0)
        L = assemble_L0(np.array([[1.0]]), w_iso(1), basis)
        X2 = poly_multiply_op(SlowPolynomial(1, {(2,): 1.0}), basis)
        K = L - X2                      # exact <psi', psi'> block
        DtD = D.T @ D
        assert np.max(np.abs((K - DtD)[:28, :28])) < 1e-13

    def test_ground_state_second_moment(self):
        # <phi_0, x^2 phi_0> = 1/2 for the unit oscillator ground state
        basis = MacroBasis(1, 32, 1.0)
        spec = solve_spectrum(np.array([[1.0]]), w_iso(1), basis, 1)
        phi = spec.eigenfunctions[0]
        quad = quadrature_for(basis, 6)
        v = quad.values(phi, (0,))
        x2 = quad.points[:, 0] ** 2
        assert quad.integrate(v, v, x2) == pytest.approx(0.5, rel=1e-12)

    def test_quadrature_orthonormality(self):
        basis = MacroBasis(2, 10, 0.8)
        quad = quadrature_for(basis, 6)
        f = MacroFunction(basis, np.eye(basis.total)[7])
        g = MacroFunction(basis, np.eye(basis.total)[7])
        assert quad.integrate(quad.values(f, (0, 0)), quad.values(g, (0, 0))) \
            == pytest.approx(1.0, rel=1e-12)

    def test_derivative_values_exact(self):
        # evaluate() with alpha uses extended coefficients: exact for psi_n'
        basis = MacroBasis(1, 10, 1.0)
        c = np.zeros(10)
        c[9] = 1.0                      # top retained mode
        f = MacroFunction(basis, c)
        pts = np.linspace(-3, 3, 7).reshape(-1, 1)
        B = hermite_function_values(pts[:, 0], 11, 1.0)
        exact = np.sqrt(9 / 2) * B[:, 8] - np.sqrt(10 / 2) * B[:, 10]
        assert np.max(np.abs(f.evaluate(pts, alpha=(1,)) - exact)) < 1e-12

    def test_gaussian_integral_of_w(self):
        # int (x^2) phi_0^2 = 1/2 again but through a SlowPolynomial eval
        basis = MacroBasis(1, 16, 1.0)
        quad = quadrature_for(basis, 6)
        phi = MacroFunction(basis, np.eye(16)[0])
        w = SlowPolynomial(1, {(2,): 1.0})
        val = quad.integrate(quad.values(phi, (0,)), quad.values(phi, (0,)),
                             w(quad.points))
        assert val == pytest.approx(0.5, rel=1e-13)


class TestQuadratureRule:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_nodes_and_weights_in_meshgrid_order(self, dim):
        quad = quadrature_for(MacroBasis(dim, 10, 0.8), 4)
        X = np.meshgrid(*[quad.x1] * dim, indexing="ij")
        assert np.array_equal(quad.points,
                              np.stack([x.ravel() for x in X], axis=1))
        want = quad.w1 if dim == 1 else np.outer(quad.w1, quad.w1).ravel()
        assert np.array_equal(quad.weights, want)

    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(8, 14),
           sigma=st.floats(0.3, 3.0), K=st.integers(0, 4))
    def test_project_is_the_quadrature_of_values(self, dim, seed, size,
                                                 sigma, K):
        # project(g, alpha) . c = int g d^alpha f for f with coefficients
        # c, for every alpha the rule covers: the ladder lift read as a
        # derivative of the basis and as one of the function agree
        rng = np.random.default_rng(seed)
        basis = MacroBasis(dim, size, sigma)
        quad = quadrature_for(basis, K)
        f = MacroFunction(basis, rng.standard_normal(basis.total))
        g = rng.standard_normal(quad.x1.size ** dim)
        for alpha in itertools.product(range(K + 1), repeat=dim):
            if sum(alpha) > K:
                continue
            values = quad.values(f, alpha)
            want = quad.integrate(g, values)
            scale = np.sum(np.abs(quad.weights * g * values))
            assert abs(quad.project(g, alpha) @ f.coeffs - want) \
                <= 1e-12 * scale
        with pytest.raises(ValueError, match="max_order"):
            quad.values(f, (K + 1,) + (0,) * (dim - 1))


def within_4d_ulp(got, want, tables, core, index):
    """got equals want within 4 ulp per axis of sum |c_n psi_n| at each
    point, the size of the terms the contraction of core with the tables
    sums, gathered by index."""
    terms = np.abs(core)
    for t in tables:
        terms = np.moveaxis(np.tensordot(np.abs(t), terms, axes=(1, 0)), 0, -1)
    return np.all(np.abs(got - want)
                  <= 4 * len(tables) * np.finfo(float).eps
                  * terms[tuple(index)])


class TestHermiteSampler:
    @pytest.mark.parametrize("order", [0, 1])
    def test_subnormal_coefficients_reach_no_contraction(self, monkeypatch,
                                                         order):
        # rounding residue below the smallest normal double is dropped before
        # the product over the points, where it would only cost time; the
        # values are those of the function without it, bit for bit
        basis = MacroBasis(1, 16, 0.8)
        c = np.random.default_rng(order).standard_normal(basis.total)
        clean = c.copy()
        c[1::2], clean[1::2] = 1e-317, 0.0
        cores = []
        contract = hermite.tensor_contract

        def spy(tables, core, index=None):
            cores.append(core.copy())
            return contract(tables, core, index)

        monkeypatch.setattr(hermite, "tensor_contract", spy)
        pts = np.linspace(-3.0, 3.0, 50)[:, None]
        sample = HermiteSampler(basis, pts, order, [np.arange(50)])
        got = sample([(MacroFunction(basis, c), (order,))])
        assert np.array_equal(got, sample([(MacroFunction(basis, clean),
                                            (order,))]))
        tiny = np.finfo(float).tiny
        assert all(np.all((k == 0) | (np.abs(k) >= tiny)) for k in cores)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(-3, 3),
           blocks=st.integers(1, 2), nmax=st.integers(1, 24),
           sigma=st.floats(0.3, 3.0))
    def test_blocks_equal_one_recurrence(self, seed, extra, blocks, nmax,
                                         sigma):
        # the table filled per block of points is bit for bit the one
        # recurrence over every point at once
        x = np.random.default_rng(seed).uniform(
            -8.0, 8.0, blocks * SAMPLE_BLOCK + extra)
        z = x / sigma
        want = np.zeros((x.size, nmax))
        want[:, 0] = np.pi ** -0.25 * np.exp(-0.5 * z ** 2) / np.sqrt(sigma)
        if nmax > 1:
            want[:, 1] = np.sqrt(2.0) * z * want[:, 0]
        for n in range(1, nmax - 1):
            want[:, n + 1] = (np.sqrt(2.0 / (n + 1)) * z * want[:, n]
                              - np.sqrt(n / (n + 1.0)) * want[:, n - 1])
        assert np.array_equal(hermite_function_values(x, nmax, sigma), want)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sigma=st.floats(0.3, 3.0))
    def test_columns_prefix_stable(self, seed, sigma):
        x = np.random.default_rng(seed).uniform(-8.0, 8.0, 301)
        full = hermite_function_values(x, 60, sigma)
        for k in range(1, 61):
            assert np.array_equal(full[:, :k],
                                  hermite_function_values(x, k, sigma))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           size=st.integers(8, 40),
           sigma=st.floats(0.3, 3.0),
           K=st.integers(0, 6))
    def test_1d_bit_identical_to_per_call_table(self, seed, size, sigma, K):
        # the index route reads the per-call table's values bit for bit;
        # evaluate, one request of the point-list route, stays within 4 ulp
        # of sum |c_n psi_n|
        rng = np.random.default_rng(seed)
        basis = MacroBasis(1, size, sigma)
        f = MacroFunction(basis, rng.standard_normal(size))
        pts = rng.uniform(-6.0, 6.0, (257, 1))
        sample = HermiteSampler(basis, pts, K, [np.arange(257)])
        for order in range(K + 1):
            Ne = size + order
            c = extended_coefficients(f, (order,), Ne).reshape(-1)
            table = hermite_function_values(pts[:, 0], Ne, sigma)
            per_call = table @ c
            assert np.array_equal(sample([(f, (order,))])[0], per_call)
            assert within_4d_ulp(f.evaluate(pts, (order,)), per_call,
                                 [table], c, [np.arange(257)])

    def test_2d_matches_naive_contraction(self):
        rng = np.random.default_rng(5)
        basis = MacroBasis(2, 9, 0.8)
        f = MacroFunction(basis, rng.standard_normal(basis.total))
        pts = rng.uniform(-3.0, 3.0, (40, 2))
        sample = HermiteSampler(basis, pts, 2)
        for alpha in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
            Ne = basis.size + sum(alpha)
            c = extended_coefficients(f, alpha, Ne)
            B0, B1 = (hermite_function_values(pts[:, ax], Ne, basis.sigma)
                      for ax in range(2))
            naive = np.einsum("pa,ab,pb->p", B0, c, B1)
            assert np.max(np.abs(sample([(f, alpha)])[0] - naive)) \
                < 1e-13 * max(1.0, np.max(np.abs(naive)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim=st.sampled_from([1, 2]),
           size=st.integers(8, 16),
           sigma=st.floats(0.3, 3.0),
           K=st.integers(0, 3),
           rows=st.integers(1, 40),
           tensor=st.booleans(),
           m=st.integers(1, 300))
    def test_indexed_equals_per_point(self, seed, dim, size, sigma, K, rows,
                                      tensor, m):
        # the tables on the distinct coordinates plus an index give the
        # per-point sampler's values, for every derivative up to K
        rng = np.random.default_rng(seed)
        basis = MacroBasis(dim, size, sigma)
        f = MacroFunction(basis, rng.standard_normal(basis.total))
        coords = rng.uniform(-3.0 * sigma, 3.0 * sigma, (rows, dim))
        index = (tensor_grid(np.arange(rows), dim)[1] if tensor
                 else [rng.integers(0, rows, m) for _ in range(dim)])
        pts = np.stack([coords[ix, ax] for ax, ix in enumerate(index)], axis=1)
        per_point = HermiteSampler(basis, pts, K)
        indexed = HermiteSampler(basis, coords, K, index)
        alphas = [(k,) for k in range(K + 1)] if dim == 1 else [
            (i, k - i) for k in range(K + 1) for i in range(k + 1)]
        for alpha in alphas:
            want = per_point([(f, alpha)])[0]
            got = indexed([(f, alpha)])[0]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim=st.sampled_from([1, 2]),
           size=st.integers(8, 20),
           sigma=st.floats(0.3, 3.0),
           P=st.integers(0, 3),
           count=st.integers(1, 8),
           m=st.integers(1, SAMPLE_BLOCK + 300))
    def test_batch_equals_per_request(self, seed, dim, size, sigma, P, count,
                                      m):
        # the point-list route gives every request's value of the index
        # route within 4 ulp per axis of sum |c_n psi_n|, the size of the
        # terms it sums, out to the Gaussian tails; in 2D on the points of a
        # tensor grid.  The largest seen over 1 500 random cases was 2.7 ulp
        # in 1D, 6.1 in 2D
        rng = np.random.default_rng(seed)
        basis = MacroBasis(dim, size, sigma)
        reach = 1.5 * sigma * np.sqrt(2.0 * (size + P + 1) + 1.0)
        rows = m if dim == 1 else 1 + m % 70
        coords = rng.uniform(-reach, reach, (rows, dim))
        index = ([np.arange(m)] if dim == 1
                 else tensor_grid(np.arange(rows), 2)[1])
        pts = np.stack([coords[ix, ax] for ax, ix in enumerate(index)], axis=1)
        table = HermiteSampler(basis, coords, P + 1, index)
        requests = [(MacroFunction(basis, rng.standard_normal(basis.total)
                                   * 10.0 ** rng.uniform(-3, 3)),
                     tuple(int(a) for a in rng.multinomial(
                         rng.integers(0, P + 2), [1 / dim] * dim)))
                    for _ in range(count)]
        got = HermiteSampler(basis, pts, P + 1)(requests)
        assert got.shape == (count, pts.shape[0])
        for (f, alpha), values, want in zip(requests, got, table(requests)):
            Ne = size + sum(alpha)
            assert within_4d_ulp(values, want,
                                 [t[:, :Ne] for t in table.tables],
                                 extended_coefficients(f, alpha, Ne), index)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           dim=st.sampled_from([1, 2]),
           size=st.integers(8, 20),
           sigma=st.floats(0.3, 3.0),
           orders=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           rows=st.integers(1, 40),
           tensor=st.booleans(),
           m=st.integers(1, 300))
    def test_route_follows_the_point_set(self, seed, dim, size, sigma,
                                         orders, rows, tensor, m):
        # with an index every request equals, bit for bit, the per-call
        # hermite_function_values tables on its own size + |alpha| columns
        # gathered by the index; the same requests at the gathered points,
        # without an index, stay within 4 ulp per axis of sum |c_n psi_n|
        rng = np.random.default_rng(seed)
        basis = MacroBasis(dim, size, sigma)
        K = max(orders)
        coords = rng.uniform(-3.0 * sigma, 3.0 * sigma, (rows, dim))
        index = (tensor_grid(np.arange(rows), dim)[1] if tensor
                 else [rng.integers(0, rows, m) for _ in range(dim)])
        pts = np.stack([coords[ix, ax] for ax, ix in enumerate(index)], axis=1)
        requests = [(MacroFunction(basis, rng.standard_normal(basis.total)),
                     tuple(int(a)
                           for a in rng.multinomial(k, [1 / dim] * dim)))
                    for k in orders]
        indexed = HermiteSampler(basis, coords, K, index)(requests)
        listed = HermiteSampler(basis, pts, K)(requests)
        assert indexed.shape == listed.shape == (len(orders), pts.shape[0])
        for (f, alpha), got, near in zip(requests, indexed, listed):
            Ne = size + sum(alpha)
            tables = [hermite_function_values(coords[:, ax], Ne, sigma)
                      for ax in range(dim)]
            c = extended_coefficients(f, alpha, Ne)
            assert np.array_equal(got, tensor_contract(tables, c, index))
            assert within_4d_ulp(near, got, tables, c, index)

    def test_order_above_max_rejected(self):
        basis = MacroBasis(1, 10, 1.0)
        f = MacroFunction(basis, np.ones(10))
        sample = HermiteSampler(basis, np.zeros((3, 1)), 1)
        with pytest.raises(ValueError, match="max_order"):
            sample([(f, (2,))])
        with pytest.raises(ValueError):
            sample([(MacroFunction(MacroBasis(1, 12, 1.0), np.ones(12)),
                     (0,))])
