"""Ring laws of SeparableField: the fluctuating part ``ring`` against the
slow and fast derivatives, slow polynomials and the torus mean."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec.separable import SeparableField
from homspec.slowpoly import SlowPolynomial
from homspec.torus import PeriodicField, TorusGrid

TOL = 1e-13


def random_monomials(rng, dim, count):
    return {tuple(int(b) for b in rng.integers(0, 4, dim))
            for _ in range(count)}


def random_separable(rng, grid, count):
    """Random shapes, not mean-free, under up to ``count`` slow monomials."""
    return SeparableField(grid, {
        beta: PeriodicField(grid, 1.5 + rng.standard_normal(grid.shape))
        for beta in random_monomials(rng, grid.dim, count)})


def random_poly(rng, dim):
    return SlowPolynomial(dim, {beta: rng.uniform(-2.0, 2.0)
                                for beta in random_monomials(rng, dim, 3)})


def assert_close(f, g):
    assert f.terms.keys() == g.terms.keys()
    scale = max(1.0, max((np.max(np.abs(s.values)) for s in f.terms.values()),
                         default=0.0))
    for beta, shape in f.terms.items():
        assert np.max(np.abs(shape.values - g.terms[beta].values)) \
            <= TOL * scale


cases = dict(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
             n=st.sampled_from([4, 8]), count=st.integers(1, 5))


class TestRingLaws:
    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(-3.0, 3.0), **cases)
    def test_linear_and_idempotent(self, seed, dim, n, count, scale):
        rng = np.random.default_rng(seed)
        grid = TorusGrid(dim, n)
        f, g = (random_separable(rng, grid, count) for _ in range(2))
        assert_close((f * scale + g).ring(), f.ring() * scale + g.ring())
        assert_close(f.ring().ring(), f.ring())

    @settings(max_examples=25, deadline=None)
    @given(**cases)
    def test_commutes_with_derivatives_and_polynomials(self, seed, dim, n,
                                                       count):
        rng = np.random.default_rng(seed)
        f = random_separable(rng, TorusGrid(dim, n), count)
        for ax in range(dim):
            assert_close(f.ring().dx(ax), f.dx(ax).ring())
            assert_close(f.ring().dy(ax), f.dy(ax).ring())
        p = random_poly(rng, dim)
        assert_close(f.ring().mul_poly(p), f.mul_poly(p).ring())

    @settings(max_examples=25, deadline=None)
    @given(**cases)
    def test_ring_and_dy_have_zero_mean(self, seed, dim, n, count):
        rng = np.random.default_rng(seed)
        f = random_separable(rng, TorusGrid(dim, n), count)
        means = [f.ring().y_mean()] + [f.dy(ax).y_mean() for ax in range(dim)]
        for poly in means:
            assert all(abs(c) <= TOL for c in poly.coeffs.values())
