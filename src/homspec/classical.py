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
no cell problem of its own.  verify.suite_diagnostics measures their
invariants.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .expansion import CorrectorTable
from .slowpoly import SlowPolynomial, unit_index
from .torus import CoefficientField


def _abar(table: CorrectorTable, *axes: int) -> np.ndarray:
    """The flux mean abar_{q, alpha} of alpha = e_axes[0] + e_axes[1] + ...,
    q = len(axes), as a vector."""
    alpha = unit_index(table.d, *axes)
    return np.array([p.constant_term() for p in table.abar(len(axes), alpha)])


def symmetrized_abar3(table: CorrectorTable) -> np.ndarray:
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
    table = CorrectorTable(coeff, W, tol=tol)
    abar = np.stack([_abar(table, k) for k in range(table.d)], axis=1)
    abar = 0.5 * (abar + abar.T)
    # a flux whose norm overflows is pruned whole and leaves abar = 0
    if not (np.all(np.isfinite(abar)) and np.linalg.eigvalsh(abar)[0] > 0):
        raise NumericalError(f"homogenized matrix {abar.tolist()} is not "
                             "finite and positive definite")
    return table, abar, symmetrized_abar3(table)


def cyclic_check(abar3_sym: np.ndarray) -> float:
    """max |abar3s[i,j,k] + abar3s[j,k,i] + abar3s[k,i,j]| over all triples."""
    s = abar3_sym
    return float(np.max(np.abs(
        s + np.transpose(s, (1, 2, 0)) + np.transpose(s, (2, 0, 1))
    )))
