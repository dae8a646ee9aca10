"""Classical correctors read off the corrector store: laminate oracles,
cyclic identity, bracketing, and the ordered-pair cell solves as an oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec.classical import build_suite, cyclic_check
from homspec.slowpoly import SlowPolynomial
from homspec.torus import (
    CoefficientField,
    TorusGrid,
    div_y,
    grad_y,
    solve_flux_corrector,
)
from homspec.verify import _flux, _flux2, suite_diagnostics

TWO_PI = 2.0 * np.pi


def w_iso(dim):
    if dim == 1:
        return SlowPolynomial(1, {(2,): 1.0})
    return SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})


def coeff_1d(n=256):
    return CoefficientField.from_isotropic(
        TorusGrid(1, n), lambda y: 2.0 + np.cos(TWO_PI * y)
    )


def suite(coeff, tol=1e-12):
    """(store, abar, abar3_sym) of coeff with W = |x|^2."""
    return build_suite(coeff, w_iso(coeff.grid.dim), tol=tol)


def chi1(store, k):
    alpha = tuple(int(ax == k) for ax in range(store.d))
    return store.chi(1, alpha).terms[(0,) * store.d]


def random_trig_coeff(rng, grid, amp=0.3):
    """Smooth SPD coefficient: base + a few low trigonometric modes."""
    d = grid.dim

    def entry(seed_shift, base):
        c = rng.uniform(-amp, amp, size=(2, 2))
        s = rng.uniform(-amp, amp, size=(2, 2))

        def fn(*ys):
            out = np.full_like(ys[0], base)
            for p in range(1, 3):
                for q in range(1, 3):
                    phase = TWO_PI * (p * ys[0] + (q * ys[1] if d == 2 else 0))
                    out = out + c[p - 1, q - 1] * np.cos(phase) \
                        + s[p - 1, q - 1] * np.sin(phase)
            return out
        return fn

    if d == 1:
        return CoefficientField.from_isotropic(grid, entry(0, 2.0))
    off = entry(1, 0.0)
    return CoefficientField.from_matrix(grid, [
        [entry(0, 2.5), off],
        [off, entry(2, 2.5)],
    ])


class TestFirstOrder:
    def test_identity_coefficient(self):
        c = CoefficientField.identity(TorusGrid(2, 16))
        store, abar, _ = suite(c)
        assert np.allclose(abar, np.eye(2), atol=1e-13)
        assert max(chi1(store, k).l2_norm() for k in range(2)) < 1e-13
        g = [_flux(store, k).mean_zero() for k in range(2)]
        assert max(f.l2_norm() for f in g) < 1e-12
        assert max(solve_flux_corrector(f).l2_norm() for f in g) < 1e-12

    def test_1d_harmonic_mean(self):
        _, abar, _ = suite(coeff_1d(), tol=1e-13)
        assert abs(abar[0, 0] - np.sqrt(3.0)) < 1e-12

    def test_1d_corrector_closed_form(self):
        store, _, _ = suite(coeff_1d(), tol=1e-13)
        du = grad_y(chi1(store, 0)).component(0)
        a = store.coeff.a.values[0, 0]
        err = du - type(du)(du.grid, np.sqrt(3.0) / a - 1.0)
        assert err.l2_norm() < 1e-10

    def test_2d_laminate_closed_form(self):
        # a = (1.5 + 0.4 cos 2 pi y1) I: abar diagonal, harmonic/arithmetic means
        grid = TorusGrid(2, 64)
        c = CoefficientField.from_isotropic(
            grid, lambda y1, y2: 1.5 + 0.4 * np.cos(TWO_PI * y1)
        )
        _, abar, _ = suite(c, tol=1e-13)
        assert abs(abar[0, 0] - np.sqrt(1.5 ** 2 - 0.4 ** 2)) < 1e-11
        assert abs(abar[1, 1] - 1.5) < 1e-12
        assert abs(abar[0, 1]) < 1e-12

    def test_ellipticity_bracketing(self):
        rng = np.random.default_rng(21)
        c = random_trig_coeff(rng, TorusGrid(2, 48))
        _, abar, _ = suite(c)
        ev = np.linalg.eigvalsh(abar)
        assert ev.min() >= c.lam_min - 1e-10
        assert ev.max() <= c.lam_max + 1e-10


class TestSecondOrder:
    def test_identity_coefficient(self):
        c = CoefficientField.identity(TorusGrid(2, 16))
        store, _, abar3_sym = suite(c)
        for alpha in [(2, 0), (1, 1), (0, 2)]:
            assert store.chi(2, alpha).max_norm() <= 1e-12
        assert np.max(np.abs(abar3_sym)) < 1e-12

    def test_1d_third_order_vanishes(self):
        # cyclic identity with one index forces 3 abar3s = 0; in fact the
        # whole second-order flux vanishes identically in d = 1
        _, _, abar3_sym = suite(coeff_1d(), tol=1e-13)
        assert cyclic_check(abar3_sym) < 1e-10
        assert np.max(np.abs(abar3_sym)) < 1e-11

    def test_2d_cyclic_identity(self):
        rng = np.random.default_rng(3)
        c = random_trig_coeff(rng, TorusGrid(2, 48))
        _, _, abar3_sym = suite(c, tol=1e-13)
        assert cyclic_check(abar3_sym) < 1e-10

    def test_flux2_consistency(self):
        rng = np.random.default_rng(5)
        c = random_trig_coeff(rng, TorusGrid(2, 48))
        store, _, _ = suite(c, tol=1e-13)
        diag = suite_diagnostics(store)
        assert diag["flux2_consistency"] < 1e-10
        assert diag["cyclic"] < 1e-10
        assert diag["chi2_mean"] < 1e-13

    def test_stream2_divergence(self):
        # the centered second-order flux of alpha = e_1 + e_2 has a skew
        # stream matrix whose divergence gives the flux back
        rng = np.random.default_rng(9)
        c = random_trig_coeff(rng, TorusGrid(2, 48))
        store, _, _ = suite(c, tol=1e-13)
        s1 = [solve_flux_corrector(_flux(store, k).mean_zero())
              for k in range(2)]
        centered = _flux2(store, s1, 0, 1).mean_zero()
        s2 = solve_flux_corrector(centered)
        assert np.max(np.abs(s2.values + np.swapaxes(s2.values, 0, 1))) == 0.0
        assert (div_y(s2) - centered).l2_norm() < 1e-10 * centered.l2_norm()


class TestOrderedPairOracle:
    def test_2d_store_matches_ordered_pairs(self, ordered_pairs):
        # chi_{1,e_k} is chi1_k bit for bit, and abar3_sym is the symmetric
        # part of the ordered-pair tensor (apart by at most 3.4e-17 over 30
        # random coefficients)
        rng = np.random.default_rng(13)
        c = random_trig_coeff(rng, TorusGrid(2, 32))
        store, _, abar3_sym = suite(c, tol=1e-13)
        chi1_o, chi2_o, abar3_o = ordered_pairs(c, 1e-13)
        for k in range(2):
            assert np.array_equal(chi1(store, k).values, chi1_o[k].values)
        assert np.max(np.abs(
            abar3_sym - 0.5 * (abar3_o + np.swapaxes(abar3_o, 1, 2)))) < 1e-15

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), amp=st.floats(0.05, 0.4))
    def test_random_2d_chi2_and_cyclic(self, ordered_pairs, seed, amp):
        # over random smooth SPD coefficients the store's second-order
        # correctors are the ordered-pair sums (apart by at most 1.3e-17
        # relative over 30 draws; both are CG solves to 1e-13), abar3_sym
        # cancels cyclically, and the centered second-order fluxes are
        # divergence-free
        c = random_trig_coeff(np.random.default_rng(seed), TorusGrid(2, 24),
                              amp=amp)
        store, _, abar3_sym = suite(c, tol=1e-13)
        assert cyclic_check(abar3_sym) < 1e-10
        assert suite_diagnostics(store)["flux2_consistency"] < 1e-10
        _, chi2_o, _ = ordered_pairs(c, 1e-13)
        for j in range(2):
            for k in range(j, 2):
                alpha = tuple(int(j == ax) + int(k == ax) for ax in range(2))
                want = chi2_o[(j, k)] + chi2_o[(k, j)] if j != k \
                    else chi2_o[(j, j)]
                got = store.chi(2, alpha).terms[(0, 0)]
                assert (got - want).l2_norm() \
                    <= 1e-12 * max(want.l2_norm(), 1.0)


class TestDiagnostics:
    def test_full_suite_diagnostics(self):
        rng = np.random.default_rng(13)
        c = random_trig_coeff(rng, TorusGrid(2, 48))
        store, _, _ = suite(c, tol=1e-13)
        diag = suite_diagnostics(store)
        assert diag["abar_asymmetry"] < 1e-12
        assert diag["chi1_mean"] < 1e-13
        assert diag["chi1_residual"] < 1e-10
        assert diag["g_mean"] < 1e-12
        assert diag["s1_skew_gap"] == 0.0
        assert diag["s1_div_error"] < 1e-10

    def test_cyclic_check_detects_tampering(self):
        rng = np.random.default_rng(13)
        c = random_trig_coeff(rng, TorusGrid(2, 32))
        _, _, abar3_sym = suite(c)
        tampered = abar3_sym.copy()
        tampered[0, 0, 0] += 1e-3
        assert cyclic_check(tampered) > 1e-4
