"""The homogenized tensors of the first two corrector orders.

For each direction e_k the first-order corrector chi1_k is the mean-zero
periodic solution of -div(a(e_k + grad chi1_k)) = 0; the homogenized matrix
is abar e_k = <a(e_k + grad chi1_k)>, and the flux difference
g_k = a(e_k + grad chi1_k) - abar e_k is mean-zero and divergence-free, so
it admits a skew stream matrix s_k with div s_k = g_k.  The second-order
corrector of alpha = e_j + e_k sums the ordered pairs (j, k) and (k, j),
each solving -div(a grad chi2_jk) = div(a e_j chi1_k) + (g_k)_j, and its
flux mean is the symmetrized third-order tensor abar3s[:, j, k] (twice it
when j != k).  The cyclic cancellation
abar3s[i,j,k] + abar3s[j,k,i] + abar3s[k,i,j] = 0 is the reason the
first-order eigenvalue correction vanishes.

These are the q = 1, 2 levels of the corrector recursion, so they are read
off the corrector store that the expansion forks later: this module solves
no cell problem of its own.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .expansion import CorrectorTable
from .slowpoly import SlowPolynomial
from .torus import (
    CoefficientField,
    PeriodicField,
    div_y,
    hminus1_norm,
    solve_flux_corrector,
)


def _unit(d: int, *axes: int) -> tuple:
    """The multi-index e_axes[0] + e_axes[1] + ... in d dimensions."""
    return tuple(axes.count(ax) for ax in range(d))


def _abar(table: CorrectorTable, *axes: int) -> np.ndarray:
    """The flux mean abar_{q, alpha} of alpha = e_axes[0] + e_axes[1] + ...,
    q = len(axes), as a vector."""
    return np.array([p.constant_term()
                     for p in table.abar(len(axes), _unit(table.d, *axes))])


def _flux(table: CorrectorTable, *axes: int) -> PeriodicField:
    """The flux of alpha = e_axes[0] + e_axes[1] + ..., q = len(axes), as a
    vector field: its one slow monomial at q <= 2 is 1."""
    zero = PeriodicField.zeros(table.grid)
    return PeriodicField(table.grid, np.stack([
        comp.terms.get((0,) * table.d, zero).values
        for comp in table.flux(len(axes), _unit(table.d, *axes))]))


def _abar3_sym(table: CorrectorTable) -> np.ndarray:
    """abar3s[:, j, k] = abar_{2, e_j + e_k}, halved when j != k."""
    d = table.d
    out = np.zeros((d, d, d))
    for j in range(d):
        for k in range(j, d):
            out[:, j, k] = out[:, k, j] = \
                _abar(table, j, k) * (1.0 if j == k else 0.5)
    return out


def build_suite(coeff: CoefficientField, W: SlowPolynomial,
                tol: float = 1e-12) -> tuple:
    """The corrector store of (coeff, W) with mu = [], and the homogenized
    matrix abar and symmetrized third-order tensor read off its q = 1, 2
    entries: (store, abar, abar3_sym)."""
    table = CorrectorTable(coeff, W, [], tol=tol)
    abar = np.stack([_abar(table, k) for k in range(table.d)], axis=1)
    abar = 0.5 * (abar + abar.T)
    # a flux whose norm overflows is pruned whole and leaves abar = 0
    if not (np.all(np.isfinite(abar)) and np.linalg.eigvalsh(abar)[0] > 0):
        raise NumericalError(f"homogenized matrix {abar.tolist()} is not "
                             "finite and positive definite")
    return table, abar, _abar3_sym(table)


def cyclic_check(abar3_sym: np.ndarray) -> float:
    """max |abar3s[i,j,k] + abar3s[j,k,i] + abar3s[k,i,j]| over all triples."""
    s = abar3_sym
    return float(np.max(np.abs(
        s + np.transpose(s, (1, 2, 0)) + np.transpose(s, (2, 0, 1))
    )))


def _flux2(table: CorrectorTable, s1: list, j: int, k: int) -> PeriodicField:
    """Second-order flux of alpha = e_j + e_k with its stream columns,
    f_{2,alpha} + s1_k[:, j] + s1_j[:, k] (one column when j = k): mean
    <f_{2,alpha}> and divergence-free."""
    f = _flux(table, j, k) + PeriodicField(table.grid, s1[k].values[:, j])
    if j != k:
        f = f + PeriodicField(table.grid, s1[j].values[:, k])
    return f


def suite_diagnostics(table: CorrectorTable) -> dict:
    """Measured invariants of the q = 1, 2 entries of a corrector store
    (used by verify and tests).

    Returns a dict of named magnitudes; thresholds live with the caller.
    """
    d = table.d
    flux1 = [_flux(table, k) for k in range(d)]
    chi1 = [table.chi(1, _unit(d, k)).terms[(0,) * d] for k in range(d)]
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
        table.chi(2, _unit(d, j, k)).max_shape_mean()
        for j in range(d) for k in range(j, d))
    out["cyclic"] = cyclic_check(_abar3_sym(table))
    # the centered second-order flux must be divergence-free
    out["flux2_consistency"] = max(
        hminus1_norm(div_y(flux.mean_zero())) / max(flux.l2_norm(), 1e-30)
        for flux in (_flux2(table, s1, j, k)
                     for j in range(d) for k in range(j, d)))
    return out
