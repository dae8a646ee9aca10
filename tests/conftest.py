import numpy as np
import pytest

from homspec.torus import PeriodicField, grad_y, solve_cell


def pytest_addoption(parser):
    parser.addoption(
        "--heavy", action="store_true", default=False,
        help="run the long acceptance sweeps (2D multiplicity splitting)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--heavy"):
        return
    skip = pytest.mark.skip(reason="needs --heavy")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)


def _ordered_pair_correctors(coeff, tol):
    """The classical cell solves that the corrector store replaced, kept as
    an oracle for it: chi1[k], chi2[(j, k)] for every ordered pair, and the
    ordered third-order tensor
    abar3[i, j, k] = <(a grad chi2_jk + a e_j chi1_k)_i>.  Every product
    with a is coeff.multiply; a e_j chi1_k multiplies the vector field that
    holds chi1_k in slot j."""
    grid = coeff.grid
    d = grid.dim
    cols = [PeriodicField(grid, coeff.a.values[:, k]) for k in range(d)]
    chi1, g = [], []
    for col in cols:
        chi = solve_cell(coeff, F=col, tol=tol)
        chi1.append(chi)
        g.append((coeff.multiply(grad_y(chi)) + col).mean_zero())
    chi2 = {}
    abar3 = np.zeros((d, d, d))
    for j in range(d):
        for k in range(d):
            slot = np.zeros((d,) + grid.shape)
            slot[j] = chi1[k].values
            F = coeff.multiply(PeriodicField(grid, slot))
            G = PeriodicField(grid, g[k].values[j]).mean_zero()
            chi2[(j, k)] = solve_cell(coeff, F=F, G=G, tol=tol)
            flux = coeff.multiply(grad_y(chi2[(j, k)])) + F
            abar3[:, j, k] = np.asarray(flux.mean())
    return chi1, chi2, abar3


@pytest.fixture(scope="session")
def ordered_pairs():
    """ordered_pairs(coeff, tol) -> (chi1, chi2, abar3), the oracle."""
    return _ordered_pair_correctors
