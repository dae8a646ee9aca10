"""Ring laws of SlowPolynomial over random polynomials.  The coefficients
are small multiples of 1/4, so every sum and product below is exact in
floating point and the laws hold as equalities of the coefficient tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec.slowpoly import SlowPolynomial


@st.composite
def polynomials(draw, dim):
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    quarters = st.integers(-8, 8).map(lambda k: k / 4)
    return SlowPolynomial(dim, draw(st.dictionaries(exponents, quarters,
                                                     max_size=5)))


def triples():
    return st.integers(1, 2).flatmap(
        lambda dim: st.tuples(*[polynomials(dim)] * 3))


def same(f, g):
    return f.dim == g.dim and f.coeffs == g.coeffs


@settings(max_examples=60, deadline=None)
@given(pqr=triples())
def test_commutative(pqr):
    p, q, _ = pqr
    assert same(p + q, q + p)
    assert same(p * q, q * p)


@settings(max_examples=60, deadline=None)
@given(pqr=triples())
def test_associative(pqr):
    p, q, r = pqr
    assert same((p + q) + r, p + (q + r))
    assert same((p * q) * r, p * (q * r))


@settings(max_examples=60, deadline=None)
@given(pqr=triples())
def test_distributive(pqr):
    p, q, r = pqr
    assert same(p * (q + r), p * q + p * r)
    assert same((p - q) * r, p * r - q * r)


@settings(max_examples=60, deadline=None)
@given(pqr=triples(), seed=st.integers(0, 2 ** 32 - 1))
def test_evaluation_respects_sum_and_product(pqr, seed):
    # evaluation at random points is a ring homomorphism, up to the
    # rounding of the monomial values (tolerance relative to sum |c| 2^deg)
    p, q, _ = pqr
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (7, p.dim))

    def size(f):
        return sum(abs(c) * 2.0 ** sum(a) for a, c in f.coeffs.items())

    tol = 1e-14 * (1.0 + size(p)) * (1.0 + size(q))
    assert np.max(np.abs((p + q)(pts) - (p(pts) + q(pts)))) <= tol
    assert np.max(np.abs((p * q)(pts) - p(pts) * q(pts))) <= tol
