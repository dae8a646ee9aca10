"""Executable invariant suite.

Every check measures one of the library's stated invariants on a small,
fixed problem and compares against its threshold.  Thresholds scale with
`tolerance_scale`; passing a value < 1 tightens them uniformly, which is
how the expected-failure demonstration is produced (e.g. scale 1e-4 turns a
1e-10 identity into an unattainable 1e-14 demand).

The checks are pure and fast (a few seconds in total); heavy sweep-based
acceptance runs live in the test suite, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import build_suite, cyclic_check, symmetrized_abar3
from .expansion import CorrectorTable, build_D_matrix, simple_recursion
from .hermite import (
    MacroBasis,
    MacroFunction,
    default_sigma,
    quadrature_for,
    resolvent_solve,
    solve_spectrum,
    spectral_gap,
)
from .slowpoly import SlowPolynomial, unit_index
from .torus import (
    CoefficientField,
    PeriodicField,
    TorusGrid,
    div_y,
    grad_y,
    hminus1_norm,
    l2_inner,
    solve_cell,
    solve_flux_corrector,
)

TWO_PI = 2.0 * np.pi


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: measured {self.measured:.3e} "
                f"(threshold {self.threshold:.1e})")


def _coeff_1d(n=128):
    return CoefficientField.from_isotropic(
        TorusGrid(1, n), lambda y: 2.0 + np.cos(TWO_PI * y)
    )


def _coeff_2d():
    off = lambda y1, y2: 0.2 * np.sin(TWO_PI * (y1 + y2))
    return CoefficientField.from_matrix(TorusGrid(2, 48), [
        [lambda y1, y2: 2.5 + 0.4 * np.cos(TWO_PI * y1)
         + 0.2 * np.cos(TWO_PI * y2), off],
        [off, lambda y1, y2: 2.5 + 0.3 * np.sin(TWO_PI * y2)],
    ])


# --- the q = 1, 2 corrector invariants -------------------------------------


def _flux(table: CorrectorTable, *axes: int) -> PeriodicField:
    """The flux of alpha = e_axes[0] + e_axes[1] + ..., q = len(axes), as a
    vector field: its one slow monomial at q <= 2 is 1."""
    zero = PeriodicField.zeros(table.grid)
    return PeriodicField(table.grid, np.stack([
        comp.terms.get((0,) * table.d, zero).values
        for comp in table.flux(len(axes), unit_index(table.d, *axes))]))


def _flux2(table: CorrectorTable, s1: list, j: int, k: int) -> PeriodicField:
    """Second-order flux of alpha = e_j + e_k with its stream columns,
    f_{2,alpha} + s1_k[:, j] + s1_j[:, k] (one column when j = k): mean
    <f_{2,alpha}> and divergence-free."""
    f = _flux(table, j, k) + PeriodicField(table.grid, s1[k].values[:, j])
    if j != k:
        f = f + PeriodicField(table.grid, s1[j].values[:, k])
    return f


def suite_diagnostics(table: CorrectorTable) -> dict:
    """Measured invariants of the q = 1, 2 entries of a corrector store.

    Returns a dict of named magnitudes; thresholds live with the caller.
    """
    d = table.d
    flux1 = [_flux(table, k) for k in range(d)]
    chi1 = [table.chi(1, unit_index(d, k)).terms[(0,) * d] for k in range(d)]
    abar = np.stack([np.asarray(f.mean()) for f in flux1], axis=1)
    g = [f.mean_zero() for f in flux1]
    s1 = [solve_flux_corrector(gk) for gk in g]
    out = {}
    out["abar_asymmetry"] = float(np.max(np.abs(abar - abar.T)))
    ev = np.linalg.eigvalsh(0.5 * (abar + abar.T))
    out["abar_eig_min"] = float(ev.min())
    out["abar_eig_max"] = float(ev.max())
    out["chi1_mean"] = max(abs(c.mean()) for c in chi1)
    out["chi1_residual"] = max(res for (q, _, _), res
                               in table.residuals.items() if q == 1)
    out["g_mean"] = max(float(np.max(np.abs(np.asarray(f.mean())))) for f in g)
    out["s1_skew_gap"] = max(
        float(np.max(np.abs(s.values + np.swapaxes(s.values, 0, 1))))
        for s in s1
    )
    out["s1_div_error"] = max(
        (div_y(s1[k]) - g[k]).l2_norm() / max(g[k].l2_norm(), 1e-30)
        for k in range(d)
    ) if d > 1 else 0.0
    out["chi2_mean"] = max(
        table.chi(2, unit_index(d, j, k)).max_shape_mean()
        for j in range(d) for k in range(j, d))
    out["cyclic"] = cyclic_check(symmetrized_abar3(table))
    # the centered second-order flux must be divergence-free
    out["flux2_consistency"] = max(
        hminus1_norm(div_y(flux.mean_zero())) / max(flux.l2_norm(), 1e-30)
        for flux in (_flux2(table, s1, j, k)
                     for j in range(d) for k in range(j, d)))
    return out


def run_invariants(tolerance_scale: float = 1.0) -> list:
    """Run every invariant; returns a list of CheckResult."""
    ts = tolerance_scale
    out = []

    def check(name, measured, threshold):
        out.append(CheckResult(name, float(measured), threshold * ts,
                               float(measured) <= threshold * ts))

    # --- torus fields ---
    c2 = _coeff_2d()
    g2 = c2.grid
    y1, y2 = g2.coords()
    F = PeriodicField(g2, np.stack([np.cos(TWO_PI * y1),
                                    np.sin(TWO_PI * (y1 + y2))]))
    G = PeriodicField(g2, np.sin(TWO_PI * y2)).mean_zero()
    u = solve_cell(c2, F=F, G=G, tol=1e-13)
    check("cell_mean_zero", abs(u.mean()), 1e-13)
    gu = grad_y(u)
    lhs = l2_inner(c2.multiply(gu), gu)
    rhs = -l2_inner(F, gu) + l2_inner(G, u)
    check("cell_energy_identity", abs(lhs - rhs) / max(abs(lhs), 1e-30), 1e-10)

    u1 = solve_cell(c2, F=F, tol=1e-13)
    u2 = solve_cell(c2, G=G, tol=1e-13)
    check("cell_linearity", (u - (u1 + u2)).l2_norm()
          / max(u.l2_norm(), 1e-30), 1e-10)

    c1a = _coeff_1d(64)
    c1b = _coeff_1d(128)
    s_a = solve_cell(c1a, F=PeriodicField(c1a.grid, c1a.a.values[0]),
                     tol=1e-13)
    s_b = solve_cell(c1b, F=PeriodicField(c1b.grid, c1b.a.values[0]),
                     tol=1e-13)
    pts = np.linspace(0, 1, 33)[:-1].reshape(-1, 1)
    check("cell_self_convergence",
          np.max(np.abs(s_a.evaluate(pts) - s_b.evaluate(pts))), 1e-10)

    # --- classical correctors ---
    W1 = SlowPolynomial(1, {(2,): 1.0})
    _, abar_1d, _ = build_suite(_coeff_1d(256), W1, tol=1e-13)
    check("abar_1d_harmonic_mean", abs(abar_1d[0, 0] - np.sqrt(3.0)), 1e-12)
    store2, _, abar3s = build_suite(
        c2, SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0}), tol=1e-13)
    diag = suite_diagnostics(store2)
    check("cyclic_identity", cyclic_check(abar3s), 1e-10)
    check("abar_symmetry", diag["abar_asymmetry"], 1e-12)
    bracket = max(c2.lam_min - diag["abar_eig_min"],
                  diag["abar_eig_max"] - c2.lam_max, 0.0)
    check("abar_ellipticity_bracket", bracket, 1e-10)
    check("stream_divergence", diag["s1_div_error"], 1e-10)
    check("flux2_consistency", diag["flux2_consistency"], 1e-10)

    # --- macroscopic space ---
    basis = MacroBasis(1, 64, 1.0)
    spec = solve_spectrum(np.array([[1.0]]), W1, basis, 6)
    check("oscillator_exactness",
          np.max(np.abs(spec.eigenvalues - (2 * np.arange(6) + 1))
                 / (2 * np.arange(6) + 1)), 1e-10)
    worst = 0.0
    for cc in (1.0, np.sqrt(3.0), 2.0):
        ab = np.array([[cc]])
        bb = MacroBasis(1, 48, default_sigma(ab, W1))
        sp = solve_spectrum(ab, W1, bb, 5)
        expect = np.sqrt(cc) * (2 * np.arange(5) + 1)
        worst = max(worst, float(np.max(np.abs(sp.eigenvalues - expect)
                                        / expect)))
    check("scaling_covariance", worst, 1e-9)

    rng = np.random.default_rng(17)
    f = MacroFunction(basis, rng.standard_normal(basis.total))
    phi = spec.eigenfunctions[0]
    f = f - phi.inner(f) * phi
    uu = resolvent_solve(spec, 1, f)
    r = spec.matrix @ uu.coeffs - spec.eigenvalue(1) * uu.coeffs - f.coeffs
    r -= phi.coeffs * float(phi.coeffs @ r)
    check("resolvent_residual", np.linalg.norm(r) / f.norm(), 1e-8)
    gam = spectral_gap(spec, 1)
    check("resolvent_bound", max(uu.norm() - (1 + 1e-6) * f.norm() / gam, 0.0),
          1e-12)

    # --- expansion engine ---
    cI = CoefficientField.identity(TorusGrid(1, 16))
    specI = solve_spectrum(np.array([[1.0]]), W1, MacroBasis(1, 32, 1.0), 4)
    brI = simple_recursion(build_suite(cI, W1)[0], specI, 1, 3)
    check("constant_coefficient_degeneracy",
          max(max(abs(m) for m in brI.mu[1:]),
              max(u.norm() for u in brI.U[1:])), 1e-12)

    abar = np.array([[np.sqrt(3.0)]])
    basis1 = MacroBasis(1, 48, default_sigma(abar, W1))
    spec1 = solve_spectrum(abar, W1, basis1, 5)
    store1, _, _ = build_suite(_coeff_1d(), W1, tol=1e-13)
    br = simple_recursion(store1, spec1, 1, 3)
    check("mu1_vanishes", abs(br.mu1_computed) / spec1.eigenvalue(1) ** 1.5,
          1e-8)
    check("corrector_rhs_means", br.table.max_rhs_mean(), 1e-10)
    check("corrector_cell_residuals", br.table.max_cell_residual(), 1e-10)
    check("corrector_mean_convention", br.table.max_chi_mean(), 1e-12)
    check("hierarchy_residuals", max(br.hierarchy_residuals.values()), 1e-8)

    D, E, mu2, info = build_D_matrix(spec1, 1, store1.fork(spec1.eigenvalue(1)),
                                     quadrature_for(basis1, 4))
    check("D_dual_agreement", info["dual_gap"], 1e-8)
    check("D_symmetry", info["sym_gap"], 1e-12)
    check("E_orthogonality", np.max(np.abs(E @ E.T - np.eye(E.shape[0]))),
          1e-12)

    eps = 0.05
    # lambda_tilde - lambda_0 at P = 2, summed without mu_0
    shift = [e * br.mu[1] + e ** 2 * br.mu[2] for e in (eps, eps / 2)]
    check("assembly_eps_ratio", abs(shift[0] / shift[1] - 4.0), 1e-10)

    return out


def report(results: list) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} invariants passed")
    return "\n".join(lines)
