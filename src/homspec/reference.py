"""Fine-grid reference eigensolves and convergence-rate measurement.

The oscillating operator -div(a(x/eps) grad) + W is discretized on a
truncated box with homogeneous Dirichlet data by symmetric second-order
finite differences with harmonic cell averaging of the coefficient, solved
for its lowest eigenpairs, and Richardson extrapolated over the (h, h/2)
pair.  One routine builds the operator in 1D and 2D as one record,
FDOperator, with the harmonic averages as 12-point Gauss-Legendre cell
integrals of 1/a (which keeps the discretization error smooth in h though
the coefficient oscillates) taken on one period of fast phases; its
diagonal and couplings are the one copy of the stencil that the
tridiagonal, banded and sparse solves read.  A 1D problem is solved as
one axis of a separable one.  Both grids of an axis are solved by one
routine, shifted inverse iteration, one shift per pair, accepted only
under a certificate, disjoint residual intervals and a Sturm count, that
the pairs are the lowest ones.  The h grid starts from a fixed vector and
the caller's shifts when it has them (the previous eps's h/2
eigenvalues, in a sweep); the h/2 grid from the h grid's eigenpairs,
which are already O(h^2) accurate, as shifts and starts.  Shifts that
fail fall back to LAPACK's bisection, stopped at a stated width
(BISECT_WIDTH) since only the vectors it leads to are kept.  Each shifted
band is factored once; each vector is a unit row, and each eigenvalue the
record's energy quotient in extended precision, so that the floor sits
orders of magnitude below the smallest expansion residuals being
measured.  The eigenvector that a comparison uses is polished on the
record by bordered Newton steps with extended-precision residuals when it
is compared, each step one solve of its own shift.  Sums over the fine
grid are numpy's, which do not depend on the BLAS thread count.

Separable two-dimensional problems (diagonal a with axis-aligned
oscillation and an additively separable potential) factor exactly: the
five-point operator is a Kronecker sum, so its eigenvalues are sums of 1D
spectra.  The generic sparse shift-invert path remains for everything else
and for cross-validation.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateFit,
    GridTooCoarse,
    MatchingAmbiguous,
    NotElliptic,
)
from .slowpoly import SlowPolynomial
from .torus import CoefficientField, FourierSampler, tensor_grid

MAX_UNKNOWNS_2D = 1_200_000
MAX_NODES_PER_AXIS = 1 << 22   # h/2 grid nodes per axis: 32 MB a float64 axis
MAX_OVERLAP_CONDITION = 10.0   # picked overlap / runner-up within a cluster
POLISH_STEPS = 4               # cap on Newton steps per eigenpair
POLISH_PLATEAU = 4.0           # least cut of |r|^2 per Newton step
BISECT_WIDTH = 1e-4            # interval at which 1D bisection stops
WARM_STEPS = 8                 # cap on inverse iterations per shifted pair
# sign-aligned change of unit iterates at which a shifted pair has
# converged: the energy quotient, second order in the vector's error, no
# longer moves; the iterates' rounding floor lies near 1e-11 at 35 839 nodes
WARM_TOL = 2.0 ** -30
# 12-point Gauss-Legendre nodes and weights on [-1, 1] of the cell averages
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# off-grid points at which a coefficient expression is checked, since one
# can vanish, or be constant along an axis, on every torus grid node only
PROBE = np.linspace(0.05, 0.95, 7)


def _lapack(*routines) -> list:
    """The named routines of scipy's LAPACK wrappers, its
    scipy.linalg._flapack extension, loaded from its file: importing any
    scipy.linalg name runs the package init, about 0.1 s that clones the
    numpy namespace, while the extension alone takes about 2 ms (find_spec
    of a top-level name does not import it).  The module is registered
    under its own name, so that a later scipy.linalg import uses it, and
    one that is already loaded is used as it is."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        path = os.path.join(find_spec("scipy").submodule_search_locations[0],
                            "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
        spec = spec_from_file_location(name, path)
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return [getattr(sys.modules[name], r) for r in routines]


# the tridiagonal LU (gttrf, gttrs), bisection and Sturm counts (stebz) and
# the one-shot tridiagonal solve of the polish (gtsv); tests patch them here
dgttrf, dgttrs, dstebz, dgtsv = _lapack("dgttrf", "dgttrs", "dstebz", "dgtsv")


# the box radius in units of the classical turning point sqrt(lam/Lambda_-)
RADIUS_SAFETY = 3.0


def truncation_radius(lam: float, lambda_minus: float) -> float:
    """Box radius RADIUS_SAFETY * sqrt(lam / Lambda_-) for the Dirichlet
    truncation.

    The eigenfunctions decay like a Gaussian past sqrt(lam/Lambda_-); every
    reference reports the floor that the truncation leaves in its
    eigenvalues (ReferenceSpectrum.wall_terms), whatever the radius.
    """
    return RADIUS_SAFETY * float(np.sqrt(lam / lambda_minus))


@dataclass(frozen=True)
class FineGrid:
    """Dirichlet box [-R, R]^d with uniform spacing h."""

    dim: int
    radius: float
    h: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.h <= 0 or self.radius <= 0:
            raise ValueError("h and radius must be positive")

    @property
    def n_cells(self) -> int:
        # 2^62 stands in for a count that no int holds, far past any cap
        return int(round(min(2.0 * self.radius / self.h, 2.0 ** 62)))

    @property
    def n_interior(self) -> int:
        # a box narrower than one cell has none
        return max(self.n_cells - 1, 0)

    def points(self) -> np.ndarray:
        """All interior nodes, (m, d)."""
        x = -self.radius + self.h * np.arange(1, self.n_cells)
        return tensor_grid(x, self.dim)[2]

    def cell_phases(self, eps: float, offsets) -> tuple:
        """Fast phases (x_c + t h)/eps mod 1 of the points at ``offsets`` t
        (in cells) from the left edge x_c = -R + c h of every cell c: one
        period of r rows, (r, len(offsets)), and each cell's row among them.

        With eps/h = p an integer (to 1e-9), cell c sits at phase
        -R/eps + c/p: one period of p rows, formed in [0, 1) from the
        remainder of -R by eps, so the rounding of a large quotient R/eps
        does not enter.  Otherwise every cell is its own row.
        """
        ratio = eps / self.h
        p = round(ratio)
        if abs(ratio - p) <= 1e-9 * ratio:
            ratio = p
        else:
            p = self.n_cells
        t = np.arange(p)[:, None] + np.asarray(offsets, dtype=float)
        return ((np.mod(-self.radius, eps) / eps + t / ratio) % 1.0,
                np.arange(self.n_cells) % p)

    def phases(self, eps: float) -> tuple:
        """Distinct fast phases x/eps mod 1 of the interior nodes of a 1D
        grid as an (r, 1) column, and each node's row among them as a
        one-axis index: node i is the left edge of cell i in cell_phases."""
        y, cell = self.cell_phases(eps, [0.0])
        return y, [cell[1:]]

    def check_resolves(self, eps: float):
        if self.h > eps / 8.0 + 1e-15:
            raise GridTooCoarse(
                f"h = {self.h:.3g} exceeds eps/8 = {eps / 8:.3g}"
            )


@dataclass
class ReferenceSpectrum:
    """Eigenvalues at (h, h/2) with Richardson extrapolation.

    A 1D reference may keep the eigenvectors of the fine member of the pair
    (interior node values as unit rows), unpolished, with the operator on
    that grid, on which match_and_compare polishes the one it compares and
    takes its gradient; otherwise both are None.  ``path`` names the
    eigensolve route: tridiagonal, separable or sparse.  A tridiagonal or
    separable reference is solved as 1D factors, the one axis or each axis:
    per factor, ``axis_eigenvalues_h2`` holds its h/2 eigenvalues, the
    shifts that solve_Leps takes at the next eps, and ``h_routes`` where
    its h grid's shifts came from, "warm" (the caller's) or "bisection"
    (LAPACK's); both are empty on the sparse path.

    ``wall_terms`` holds, per eigenvalue and axis, the sum over the two
    walls normal to the axis of a (du/dn)^2 for the unit h/2 eigenfunction
    u (_wall_terms): summed over the axes, -dlambda/dR by Hadamard's domain
    variation.  Past the box u decays like exp(-c x^2 / 2), c the Gaussian
    exponent of the axis, so the truncation raises lambda by about the
    axis's term / (2 c R): the box floor, which the caller forms.
    """

    eps: float
    grid: FineGrid
    eigenvalues_h: np.ndarray
    eigenvalues_h2: np.ndarray
    eigenvalues: np.ndarray          # Richardson extrapolated
    error_estimates: np.ndarray      # |lam_h - lam_h2| / 3
    eigenvectors: np.ndarray | None  # (count, m) on the h/2 grid
    fine_grid: FineGrid
    path: str
    wall_terms: np.ndarray           # (count, d)
    operator: FDOperator | None = None  # with the eigenvectors
    axis_eigenvalues_h2: tuple = ()
    h_routes: tuple = ()


# --- the fine-grid operator ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FDOperator:
    """The symmetric finite-difference operator T of -div(a(./eps) grad) + W
    on the interior nodes of a FineGrid, for a diagonal a.

    edges[ax] is the harmonic average of a_ax,ax(./eps) over every cell edge
    along ax (n_cells along ax, n along the others), anodes[ax] is
    a_ax,ax(x/eps) at the nodes, wdiag is W there and h the spacing.  diag
    and off are the stencil, written once; the 1D methods tridiagonal, apply,
    quotient, polish and flux_gradient act on a tridiagonal T.
    """

    edges: tuple
    anodes: tuple
    wdiag: np.ndarray
    h: float

    @cached_property
    def diag(self) -> np.ndarray:
        """sum_ax (a_left + a_right) / h^2 + W at every node."""
        return sum((a[(slice(None),) * ax + (slice(-1),)]
                    + a[(slice(None),) * ax + (slice(1, None),)]) / self.h ** 2
                   for ax, a in enumerate(self.edges)) + self.wdiag

    @cached_property
    def off(self) -> tuple:
        """Per axis ax, -a / h^2 on every interior edge along ax: the
        coupling of each node with its next neighbour along ax."""
        return tuple(-a[(slice(None),) * ax + (slice(1, -1),)] / self.h ** 2
                     for ax, a in enumerate(self.edges))

    def tridiagonal(self, shift) -> tuple:
        """T - shift as its sub-, main and superdiagonal (dl, d, du), the
        arguments of LAPACK's gttrf and gtsv, each its own contiguous array.
        d = diag - shift is formed in the precision of shift and rounded
        into d, one buffered chunk at a time.  _factor factors them in place
        (gttrf) once per shift, and the polish hands them to one gtsv solve
        that overwrites them.  Three arrays, not one block of 3n: the
        polish's solve on the finest 1D grid sets a sweep's peak memory, and
        there rows of 0.57 MB fit into heap memory the process already
        holds, where one 1.7 MB block was mapped afresh (simple-1d's peak
        RSS fell by 1.4 MB, on a 2-core x86-64 host with glibc)."""
        e = self.off[0]
        d = np.subtract(self.diag, shift, out=np.empty(self.wdiag.size),
                        casting="unsafe")
        return e.copy(), d, e.copy()

    def apply(self, v) -> np.ndarray:
        """T v in the precision of v, in one work buffer; the float64
        stencil is promoted as it is read, which rounds nothing."""
        e = self.off[0]
        Tv, tmp = self.diag * v, np.empty_like(v)
        Tv[:-1] += np.multiply(e, v[1:], out=tmp[:-1])
        Tv[1:] += np.multiply(e, v[:-1], out=tmp[1:])
        return Tv

    def quotient(self, v) -> np.longdouble:
        """Rayleigh quotient of v through the factored energy form, in long
        double.

        sum_cells a_c (dv)^2 / h^2 + sum_i W_i v_i^2, all terms positive, so
        the quotient carries no 1/h^2 cancellation and is accurate to a few
        ulp of lambda regardless of the grid (the assembled matrix form loses
        eps_mach * |T| ~ eps_mach / h^2, which dominates fine grids).
        """
        ld = np.longdouble
        v = np.asarray(v, dtype=ld)
        # dv, the differences with the Dirichlet zeros at both ends, and
        # one buffer for the products; the float64 stencil is promoted as
        # it is read, which rounds nothing
        dv = np.empty(v.size + 1, dtype=ld)
        dv[0], dv[-1] = v[0], -v[-1]
        np.subtract(v[1:], v[:-1], out=dv[1:-1])
        prod = np.multiply(self.edges[0], dv, dtype=ld)
        prod *= dv
        kinetic = np.sum(prod) / ld(self.h) ** 2
        prod = prod[:-1]
        np.multiply(self.wdiag, v, out=prod, dtype=ld)
        prod *= v
        potential = np.sum(prod)
        np.multiply(v, v, out=prod)
        return (kinetic + potential) / np.sum(prod)

    def polish(self, vec: np.ndarray) -> tuple:
        """The eigenvector near vec, by bordered Newton steps in extended
        precision (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20,
        1983), and the number of steps taken.

        Each step forms Tv, mu = v.Tv and r = Tv - mu v in long double,
        solves (T - mu) [y, z] = [r, v] once in float64, and moves v to
        v - y + (v.y / v.z) z, the Newton step that keeps the correction
        orthogonal to v.  It stops at the rounding plateau: when a step cuts
        |r|^2 by less than POLISH_PLATEAU (keeping the step's vector if it
        is lower), when |r| no longer decreases, when T - mu is exactly
        singular (the pair has converged), or after POLISH_STEPS steps.
        """
        w = vec.astype(np.longdouble)
        best = np.inf
        # the accepted vector in float64, the one returned, is kept apart
        # only while w moves past it, from the Newton update to the next
        # residual, in place of a long-double copy held through every step
        kept = None
        for step in range(POLISH_STEPS + 1):
            w /= np.sqrt(np.dot(w, w))
            Tw = self.apply(w)            # in long double
            mu = np.dot(w, Tw)
            r = Tw                        # Tw - mu w, formed in place
            r -= mu * w
            rr = np.dot(r, r)
            if not rr < best:
                break
            plateau = POLISH_PLATEAU * rr > best
            best, kept = rr, None
            if plateau or step == POLISH_STEPS:
                break
            # each step's work arrays are dropped as soon as they are read,
            # and the solve overwrites its inputs, the right-hand sides in
            # LAPACK's column order: on the finest 1D grids the polish sets
            # the comparison's peak memory
            rhs = np.empty((w.size, 2), order="F")
            rhs[:, 0], rhs[:, 1] = r, w
            del Tw, r
            x, info = dgtsv(*self.tridiagonal(mu), rhs,
                            True, True, True, True)[3:]
            if info:
                break                     # mu is an eigenvalue of T in float64
            y, z = x.T
            # y and z enter in long double, as w does, through the work buffer
            tmp = y.astype(np.longdouble)
            vy = np.dot(w, tmp)
            tmp[:] = z
            vz = np.dot(w, tmp)
            kept = w.astype(float)
            w -= y                        # the Newton step, in place
            w += np.multiply(vy / vz, z, out=tmp)
            del rhs, x, y, z, tmp
        # the last step's work arrays go before the float64 copy, whichever
        # rule stopped the polish, so that the exit does not set the peak
        Tw = r = tmp = rhs = x = None
        return (w.astype(float) if kept is None else kept), step

    def flux_gradient(self, v: np.ndarray) -> np.ndarray:
        """Gradient of node values v (Dirichlet) through the flux, (1, n).

        psi'(x_i) = (F_{i-1/2} + F_{i+1/2}) / (2 a(x_i/eps)) with the
        discrete flux F = a_c dpsi / h.  F' = (W - lambda) psi is bounded
        independently of eps, so the error is O(h^2) uniformly in eps, while
        central differences of psi carry h^2 psi''' ~ (h/eps)^2: a floor
        that does not decay on grids with h proportional to eps.  For a = 1
        the two coincide.
        """
        dv = np.diff(v, prepend=0.0, append=0.0)
        flux = self.edges[0] * dv / self.h
        return (0.5 * (flux[:-1] + flux[1:]) / self.anodes[0]).reshape(1, -1)


def _fd_operator(fns, W: SlowPolynomial, eps: float, grid: FineGrid):
    """The FDOperator of -div(a(./eps) grad) + W on grid for a diagonal a,
    fns[ax] = a_ax,ax as CoefficientField.entry gives it.

    Each fns[ax] is called once, on one period of phases (cell_phases) as a
    tensor grid: the 12 Gauss-Legendre points and the node of every cell
    along ax, the node along every other axis.
    """
    y, cell = grid.cell_phases(eps, np.append(0.5 * (1.0 + GL_NODES), 0.0))
    d, node = grid.dim, cell[1:]
    rows = np.arange(y.size).reshape(y.shape)
    node_rows = np.arange(len(y))[:, None]
    edges, anodes = [], []
    for ax, fn in enumerate(fns):
        # column ax holds every offset of every row, the others the node of
        # every row; the table has one axis per grid axis, the offsets last
        coords = np.zeros((y.size, d))
        coords[:, ax] = y.ravel()
        coords[:len(y), np.arange(d) != ax] = y[:, -1:]
        index = [np.expand_dims(rows if k == ax else node_rows,
                                [j for j in range(d) if j != k])
                 for k in range(d)]
        vals = np.broadcast_to(fn(coords, index), (len(y),) * d + y.shape[1:])
        # the torus grid can miss where a coefficient touches 0 between its
        # nodes; the harmonic averages and the flux gradient divide by it
        if not np.min(vals) > 0:
            raise NotElliptic(f"a{ax + 1}{ax + 1} reaches {np.min(vals):.3g} "
                              "between the torus grid's nodes")
        harm = 1.0 / (0.5 * ((1.0 / vals[..., :-1]) @ GL_WEIGHTS))
        edges.append(harm[np.ix_(*(cell if k == ax else node
                                   for k in range(d)))])
        anodes.append(vals[..., -1][np.ix_(*(node,) * d)])
    return FDOperator(tuple(edges), tuple(anodes),
                      W(grid.points()).reshape((node.size,) * d), grid.h)


# --- 1D axes -------------------------------------------------------------------


def _factor(op, shift) -> tuple:
    """The LU factors of T - shift for gttrs, formed in place on
    op.tridiagonal(shift) by gttrf, and its info: k > 0 when the k-th pivot
    is zero."""
    *lu, info = dgttrf(*op.tridiagonal(shift), overwrite_dl=True,
                       overwrite_d=True, overwrite_du=True)
    return lu, info


def _normalized(v: np.ndarray) -> np.ndarray:
    """v scaled to unit 2-norm in place; returns it."""
    # a serial sum: a BLAS norm splits long vectors over threads, and its
    # bits with them; iterates near the float range overflow it to inf, and
    # the NaNs that follow fail the caller's convergence check
    with np.errstate(over="ignore", invalid="ignore"):
        v /= np.sqrt(np.sum(v * v))
    return v


def _ramps(vecs: np.ndarray) -> np.ndarray:
    """Every row of vecs set to one unit ramp in place; returns vecs.  A
    ramp's even and odd parts are both nonzero, so no mirror symmetry of
    the problem leaves it orthogonal to a low mode."""
    vecs[:] = _normalized(np.linspace(1.0, 2.0, vecs.shape[1]))
    return vecs


def _shifted_pairs(op, shifts, vecs, name) -> tuple:
    """One eigenpair of op's tridiagonal per shift, by shifted inverse
    iteration from the unit rows of vecs, which it iterates in place: the
    energy quotients and vecs, certified (_certified) as the len(shifts)
    lowest.

    Each shift is factored once (_factor) and iterated until the
    sign-aligned change of the unit iterates is at most WARM_TOL; its
    factors are dropped before the next shift's, and the last before the
    quotients and the certificate.  Raises ConvergenceFailure, naming the
    check that failed and the grid (name), when a shifted band has a zero
    pivot, when a shift's iterates have not converged after WARM_STEPS
    steps, or when the pairs fail the certificate.
    """
    # each step solves in place on one work vector and forms the change in
    # v: fewer grid-sized temporaries pass through the heap, whose layout
    # on the finest grids sets a 1D sweep's peak resident memory
    w = np.empty(vecs.shape[1])
    for k, shift in enumerate(shifts):
        lu, info = _factor(op, shift)
        if info > 0:
            raise ConvergenceFailure(
                f"the {name} band shifted by {float(shift)!r} has a zero "
                f"pivot at row {info}"
            )
        v = vecs[k]
        for _ in range(WARM_STEPS):
            w[:] = v
            w = _normalized(dgttrs(*lu, w, overwrite_b=True)[0])
            v *= np.copysign(1.0, np.sum(v * w))
            v -= w
            change = np.sqrt(np.sum(v * v))
            v[:] = w
            if change <= WARM_TOL:
                break
        else:
            raise ConvergenceFailure(
                f"inverse iteration from the {name} shift {float(shift)!r} "
                f"did not converge within WARM_STEPS = {WARM_STEPS} steps"
            )
        lu = None
    del w
    vals = np.array([op.quotient(v) for v in vecs], dtype=float)
    if not _certified(op, vals, vecs):
        raise ConvergenceFailure(
            f"the {name} grid eigenpairs {vals} are not certified as the "
            f"{len(vals)} lowest: their residual intervals overlap or a "
            f"Sturm count disagrees"
        )
    return vals, vecs


def _certified(op, vals, vecs) -> bool:
    """Whether vals, the energy quotients of the unit rows of vecs, are the
    len(vals) lowest eigenvalues of op's tridiagonal T, one per row.

    Each interval vals[k] -+ |T v_k - vals[k] v_k| holds an eigenvalue of
    T.  When the intervals are disjoint and increasing and a Sturm count
    finds len(vals) eigenvalues up to the top of the last, each holds
    exactly one and they are the lowest (Parlett, The Symmetric Eigenvalue
    Problem, 1998, ch. 3 and 10).  The residuals are formed in float64 and
    the count is stebz's in value mode, with a tolerance so wide that it
    does not bisect.  Both are exact only up to rounding of the size of
    eps_mach |T|, so each interval is widened by 4 eps_mach |T| and the
    count is taken that far above the top: a converged residual is of that
    size, and on a grid of a few nodes the count at the bare top may miss
    the eigenvalue that the interval holds.
    """
    # |T| bounded by Gershgorin's discs
    slack = 4 * np.finfo(float).eps * (np.abs(op.diag).max()
                                       + 2 * np.abs(op.off[0]).max())
    res = np.empty(len(vals))
    for k, v in enumerate(vecs):
        r = op.apply(v)
        r -= vals[k] * v
        res[k] = np.sqrt(np.sum(r * r)) + slack
    top = vals + res
    if not np.all(top[:-1] < (vals - res)[1:]):
        return False
    m, *_, info = dstebz(op.diag, op.off[0], 1, -np.inf, top[-1] + slack, 0,
                         0, np.inf, b"E")
    return info == 0 and m == len(vals)


def _h_pairs(op, count, shifts, starts=None, name="h") -> tuple:
    """The count lowest eigenvalues of op's tridiagonal, increasing, their
    unit vectors as rows, and where the shifts of _shifted_pairs came from.

    With shifts the route is "warm": the caller's, iterated from starts,
    count unit rows that are overwritten, or else from a ramp.  Without, or
    when they fail, it is "bisection": LAPACK's bisection (stebz) in index
    mode stops once each eigenvalue lies in an interval of width
    BISECT_WIDTH, and those approximate eigenvalues are the shifts, iterated
    from the ramp.  Each eigenvalue is the energy quotient of its vector,
    which is second order in the vector's error, so the two routes agree
    bit for bit but at float64 rounding midpoints, where either may round
    up.  Raises ConvergenceFailure, naming the grid (name), when the
    bisection fails or its shifts give no certified pairs.
    """
    vecs = np.empty((count, op.wdiag.size)) if starts is None else starts
    if shifts is not None:
        try:
            return (*_shifted_pairs(op, shifts, _ramps(vecs) if starts is None
                                    else vecs, name), "warm")
        except ConvergenceFailure:
            pass
    m, w, *_, info = dstebz(op.diag, op.off[0], 2, 0.0, 0.0, 1, count,
                            BISECT_WIDTH, b"E")
    if info or m != count:
        raise ConvergenceFailure(
            f"{name} grid bisection (stebz) found {m} of {count} "
            f"eigenvalues, info {info}"
        )
    try:
        return (*_shifted_pairs(op, w[:m], _ramps(vecs), name), "bisection")
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(
            f"{name} grid bisection's shifts failed: {exc}") from exc


def _solve_1d(coeff_at, W, eps, grid, count, shifts=None):
    """The count lowest eigenvalues on grid and on its h/2 refinement, the
    h/2 eigenvectors as unit rows, the h/2 FDOperator with the stencil that
    inverse iteration cached, which the polish reads again, and the h
    grid's route.

    Both grids are solved by _h_pairs, under its certificate.  The h grid
    is solved from shifts, count increasing values near its eigenvalues
    (the previous eps's h/2 eigenvalues, in a sweep), or from those of a
    bisection.  The h/2 grid is solved from the h grid's eigenpairs as
    shifts and starts (Ipsen, SIAM Rev. 39, 1997): each h vector,
    interpolated linearly onto the h/2 nodes with 0 at the Dirichlet ends,
    is already O(h^2) from the h/2 one; when those pairs fail the
    certificate, the h/2 grid falls back to bisection's shifts, as the h
    grid does.  Raises ConvergenceFailure when either grid cannot be
    solved, naming it.
    """
    if shifts is not None and len(shifts) != count:
        raise ValueError(f"{len(shifts)} shifts for {count} eigenpairs")
    op = _fd_operator([coeff_at], W, eps, grid)
    vals, vecs, route = _h_pairs(op, count, shifts)
    del op
    fine = FineGrid(1, grid.radius, grid.h / 2.0)
    fop = _fd_operator([coeff_at], W, eps, fine)
    x = -grid.radius + grid.h * np.arange(grid.n_cells + 1)
    fine_x = -fine.radius + fine.h * np.arange(1, fine.n_cells)
    # the starts are formed in the rows that the h/2 solve iterates in
    # place and returns, and the h vectors go before it
    starts = np.empty((count, fine_x.size))
    for k in range(count):
        starts[k] = np.interp(fine_x, x, np.pad(vecs[k], 1))
        _normalized(starts[k])
    del vecs, x, fine_x
    fine_vals, fine_vecs, _ = _h_pairs(fop, count, vals, starts, "h/2")
    return vals, fine_vals, fine_vecs, fop, route


def _wall_terms(edges, h: float, vecs) -> np.ndarray:
    """(count, d): per unit row of vecs (interior node values, each shaped
    as the grid) and per axis ax, the sum over the two walls normal to ax
    of a (u_end / h)^2 over the wall's nodes, for u = v / h^(d/2) in L2
    and a the harmonic average edges[ax] over the wall's cells, the
    coefficient of the discrete flux through the wall: the wall integral
    of a (du/dn)^2.  Reads the first and last entries along each axis
    only."""
    return np.array([[sum(np.sum(np.take(a, i, ax) * np.take(v, i, ax) ** 2)
                          for i in (0, -1)) for ax, a in enumerate(edges)]
                     for v in vecs]) / h ** 3


def _separable_parts(coeff: CoefficientField, W: SlowPolynomial):
    """The 1D axes of a problem, (a_k, W_k) per axis with a_k a callable
    of a 1D point set and its index, as _fd_operator calls it, or None when
    it does not separate.

    A 1D problem is its one axis.  A 2D one, whose a is diagonal
    (check_diagonal), separates when a = diag(a1(y1), a2(y2)), on the
    torus grid and at PROBE, and W = W1(x1) + W2(x2).
    """
    if coeff.grid.dim == 1:
        return [(coeff.entry(0, 0), W)]
    fns = coeff.entry_fns
    if fns is None or fns[0][0] is None or fns[1][1] is None:
        return None
    v, p, q = coeff.a.values, PROBE, PROBE[::-1]
    # each diagonal entry must depend only on its own axis: on the grid, and
    # at PROBE equal its value on the other axis's 0, which the axis solves
    for own, fixed in ((v[0, 0], v[0, 0][:, :1]), (v[1, 1], v[1, 1][:1, :]),
                       (fns[0][0](p, q), fns[0][0](p, 0 * p)),
                       (fns[1][1](q, p), fns[1][1](0 * p, p))):
        if np.max(np.abs(own - fixed)) > 1e-14 * max(1, np.max(own)):
            return None
    parts = W.axis_parts()
    if parts is None:
        return None
    f1, f2 = fns[0][0], fns[1][1]
    # each axis's entry is its expression with the other coordinate 0, at
    # the points of a 1D point set
    return [
        (lambda c, ix: f1(c[ix[0], 0], 0 * c[ix[0], 0]), parts[0]),
        (lambda c, ix: f2(0 * c[ix[0], 0], c[ix[0], 0]), parts[1]),
    ]


# --- 2D path --------------------------------------------------------------------


def _assemble_2d(coeff: CoefficientField, W: SlowPolynomial, eps: float,
                 grid: FineGrid):
    """Five-point symmetric FD matrix of _fd_operator, in CSR form, for a
    diagonal a (check_diagonal), and per axis the edge averages of the
    first and last cells along it, those on the walls, as _wall_terms
    reads them."""
    import scipy.sparse as sp
    n = grid.n_interior
    if n * n > MAX_UNKNOWNS_2D:
        raise ConvergenceFailure(
            f"2D grid of {n * n} unknowns exceeds the cap {MAX_UNKNOWNS_2D}"
        )
    op = _fd_operator([coeff.entry(0, 0), coeff.entry(1, 1)], W, eps, grid)
    bands, offsets = [op.diag.ravel()], [0]
    for ax, c in enumerate(op.off):
        # the coupling of each node with its neighbour along ax, stride
        # n^(d-1-ax) apart in C order; the last node along ax has none
        off = np.pad(c, [(0, int(k == ax)) for k in range(c.ndim)]).ravel()
        stride = n ** (c.ndim - 1 - ax)
        bands += [off[:-stride]] * 2
        offsets += [stride, -stride]
    walls = tuple(np.take(a, [0, -1], axis=ax) for ax, a in enumerate(op.edges))
    return sp.diags(bands, offsets, format="csr"), walls


def _solve_2d_sparse(coeff, W, eps, grid, count):
    """The count lowest eigenvalues, ascending, and their _wall_terms."""
    import scipy.sparse.linalg as spla
    A, walls = _assemble_2d(coeff, W, eps, grid)
    # a seeded start keeps runs bit-reproducible (ARPACK draws a random one);
    # a constant one would miss the odd eigenvectors of a symmetric problem
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        vals, vecs = spla.eigsh(A, k=count, sigma=0.0, which="LM", v0=v0)
    except Exception as exc:          # noqa: BLE001 - surfaced as library error
        raise ConvergenceFailure(f"sparse eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    # each column as an (n, n) view of the grid, in eigenvalue order
    return vals[order], _wall_terms(walls, grid.h, [
        vecs[:, k].reshape(grid.n_interior, -1) for k in order])


# --- public entry points ----------------------------------------------------------


def check_diagonal(coeff: CoefficientField) -> None:
    """Raise ConfigError when a 2D coefficient has a nonzero a12, on the
    torus grid or, for an a12 given as an expression, at probe points off
    it: the fine-grid stencil takes a diagonal a only (the pseudo-spectral
    side handles full matrices; fine-grid acceptance runs use diagonal
    coefficients).  solve_Leps calls it first, and the reference and sweep
    commands as soon as the coefficient is built, before the spectrum and
    the expansion run."""
    if coeff.grid.dim == 1:
        return
    fns = coeff.entry_fns or [[None, None], [None, None]]
    off = [coeff.a.values[0, 1]] + [fn(PROBE, PROBE[::-1]) for fn in
                                    (fns[0][1], fns[1][0]) if fn is not None]
    if any(np.max(np.abs(np.asarray(v, dtype=float))) > 0 for v in off):
        raise ConfigError(
            "problem.a12 (or the a12 samples of problem.a_samples) is "
            "nonzero: the 2D fine-grid reference (reference, sweep) takes "
            "diagonal coefficients only"
        )


def solve_Leps(coeff: CoefficientField, W: SlowPolynomial, eps: float,
               grid: FineGrid, count: int, keep_vectors: bool,
               shifts: tuple | None = None) -> ReferenceSpectrum:
    """Lowest eigenpairs of -div(a(./eps) grad) + W on the truncated box.

    Solves at h and h/2 and Richardson-extrapolates the eigenvalues.  A
    1D problem, and a separable 2D one, is solved per 1D axis
    (_separable_parts, _solve_1d), its eigenvalues the count lowest sums
    of one per axis; any other 2D problem by sparse shift-invert.  With
    keep_vectors a 1D reference keeps its h/2 eigenvectors, unit rows
    unpolished, and the h/2 operator; a 2D reference keeps neither.  The
    wall terms are read off the h/2 vectors, which each path forms anyway:
    a separable eigenvalue's are those of its modes on their axes.
    shifts, when given, are another reference's axis_eigenvalues_h2, count
    increasing values per 1D axis (in a sweep, the previous eps's): each
    axis's h grid is then solved by inverse iteration from them, under
    _h_pairs's certificate, and from a bisection's shifts where that
    fails; the sparse path takes none.  Raises GridTooCoarse when h does
    not resolve eps, or when the box holds fewer than max(count, 3)
    interior nodes per axis (scipy's gttrf wrapper refuses 2), ConfigError
    when a 2D coefficient has a nonzero a12, and ConvergenceFailure, before
    any array is built, when the h/2 grid holds more than
    MAX_NODES_PER_AXIS.
    """
    check_diagonal(coeff)
    grid.check_resolves(eps)
    if grid.n_interior < max(count, 3):
        raise GridTooCoarse(
            f"{grid.n_interior} interior nodes per axis on [-{grid.radius:.3g}, "
            f"{grid.radius:.3g}] with h = {grid.h:.3g}; {count} eigenpairs "
            f"need at least {max(count, 3)}"
        )
    fine = FineGrid(grid.dim, grid.radius, grid.h / 2.0)
    if fine.n_interior > MAX_NODES_PER_AXIS:
        raise ConvergenceFailure(
            f"{fine.n_interior:.3g} nodes per axis on [-{grid.radius:.3g}, "
            f"{grid.radius:.3g}] with h/2 = {fine.h:.3g} exceed the cap "
            f"{MAX_NODES_PER_AXIS}"
        )
    axes = _separable_parts(coeff, W)
    vecs = op = None
    if axes is None:
        # shift-invert about 0, below the positive definite spectrum
        vals_h, _ = _solve_2d_sparse(coeff, W, eps, grid, count)
        vals_h2, walls = _solve_2d_sparse(coeff, W, eps, fine, count)
        path, axes_h2, routes = "sparse", (), ()
    else:
        g1 = FineGrid(1, grid.radius, grid.h)
        axes_h, axes_h2, axis_vecs, axis_ops, routes = zip(*(
            _solve_1d(a, Wa, eps, g1, count, s)
            for (a, Wa), s in zip(axes, shifts or [None] * len(axes))))
        # the count lowest sums of one eigenvalue per axis: count modes per
        # axis suffice, since the 1D eigenvalues are simple and increasing,
        # so a sum with mode i >= count on one axis lies above the count
        # sums with modes c < count there; an h/2 sum keeps the wall
        # terms of its modes on their axes
        vals_h = np.array(sorted(map(sum, itertools.product(*axes_h)))[:count])
        axis_walls = [_wall_terms(o.edges, o.h, v)[:, 0]
                      for v, o in zip(axis_vecs, axis_ops)]
        vals_h2, walls = map(np.array, zip(*sorted(zip(
            map(sum, itertools.product(*axes_h2)),
            itertools.product(*axis_walls)))[:count]))
        if keep_vectors and grid.dim == 1:
            (vecs,), (op,) = axis_vecs, axis_ops
        path = "tridiagonal" if grid.dim == 1 else "separable"
    return ReferenceSpectrum(
        eps=eps, grid=grid,
        eigenvalues_h=vals_h, eigenvalues_h2=vals_h2,
        eigenvalues=(4.0 * vals_h2 - vals_h) / 3.0,
        error_estimates=np.abs(vals_h2 - vals_h) / 3.0,
        eigenvectors=vecs, fine_grid=fine, path=path, wall_terms=walls,
        operator=op, axis_eigenvalues_h2=axes_h2, h_routes=routes,
    )


# --- matching and rates -------------------------------------------------------------


@dataclass
class ComparisonRow:
    eps: float
    j: int
    branch: int
    lambda_ref: float
    lambda_ref_richardson: float
    lambda_tilde: float
    eig_err: float
    l2_err: float
    h1_err: float
    h: float
    radius: float
    # diagnostics that sweep.csv does not carry, so rows equal without
    # them, and None in a row read back from it: the index of the
    # reference eigenpair matched, and the Newton steps of the polish (None
    # without one)
    index: int | None = field(compare=False)
    polish_steps: int | None = field(compare=False)
    runtime_s: float = 0.0


def match_and_compare(ref: ReferenceSpectrum, branches: list, eps: float,
                      P: int) -> list:
    """Per-branch eigenvalue / L2 / H1 errors against the expansion.

    A reference with an operator (1D, from solve_Leps with keep_vectors)
    is matched by overlap: the eigenvector for branch r is the one with the
    dominant overlap against the rotated envelope U_{0,r}.  It is polished
    on the operator (FDOperator.polish) and rescaled so that
    int psi U_{0,r} dx = 1, matching the normalization in which the
    expansion is stated, and the H1 error is formed from its eps-uniform
    flux gradient.  Raises MatchingAmbiguous when no assignment dominates
    by MAX_OVERLAP_CONDITION.  Any other reference is matched by index,
    cluster[0] + r, and its rows carry NaN L2 and H1 errors.  The row
    eigenvalues are always those of the reference.
    """
    from .expansion import assemble, lambda_tilde
    from .hermite import HermiteSampler

    op, grid = ref.operator, ref.fine_grid
    rows = []
    used = set()
    for br in branches:
        l2 = h1 = float("nan")
        steps = None
        if op is None:
            pick = min(br.cluster[0] + br.label, len(ref.eigenvalues) - 1)
        else:
            # one blocked pass at the nodes samples U_0 for the overlap and
            # every envelope derivative of the assembly, and the corrector
            # shapes at one period of node phases, a block of nodes at a
            # time: of the samples only w, its gradient and U_0's are held
            # for every node, and the nodes and their phase index are
            # dropped with the samplers, before the polish
            pts = grid.points()
            asm = assemble(br, eps, pts, P=P, gradient=True,
                           sample_x=HermiteSampler(br.spectrum.basis, pts,
                                                   P + 1),
                           sample_y=FourierSampler(br.table.grid,
                                                   *grid.phases(eps)))
            del pts
            # serial sums of products, as in _solve_1d: a BLAS product
            # splits m-long rows over threads
            overlaps = np.array([np.sum(v * asm.u0)
                                 for v in ref.eigenvectors]) * grid.h
            order = [i for i in np.argsort(-np.abs(overlaps)) if i not in used]
            pick = order[0]
            if len(branches) > 1 and len(order) > 1:
                runner_up = abs(overlaps[order[1]])
                cond = abs(overlaps[pick]) / max(runner_up, 1e-300)
                if cond < MAX_OVERLAP_CONDITION:
                    raise MatchingAmbiguous(
                        f"overlap condition {cond:.2f} below "
                        f"{MAX_OVERLAP_CONDITION} for branch {br.label}"
                    )
            used.add(pick)
            # polish the picked vector, then scale it in place so that its
            # overlap, formed as above, is 1
            psi, steps = op.polish(ref.eigenvectors[pick])
            psi /= np.sum(psi * asm.u0) * grid.h
            diff = psi - asm.w
            gd = op.flux_gradient(psi) - asm.grad_w
            l2 = float(np.sqrt(np.sum(diff ** 2) * grid.h))
            h1 = float(np.sqrt(np.sum(diff ** 2) * grid.h
                               + np.sum(gd ** 2) * grid.h))
        lam_ref = float(ref.eigenvalues[pick])
        lam_tilde = lambda_tilde(br, eps, P)
        rows.append(ComparisonRow(
            eps=eps, j=br.j, branch=br.label,
            lambda_ref=float(ref.eigenvalues_h2[pick]),
            lambda_ref_richardson=lam_ref,
            lambda_tilde=lam_tilde,
            eig_err=abs(lam_ref - lam_tilde),
            l2_err=l2, h1_err=h1,
            h=ref.grid.h, radius=ref.grid.radius, index=int(pick),
            polish_steps=steps,
        ))
    return rows


def fit_rate(points) -> tuple:
    """Least squares slope of log err vs log eps; returns (slope, intercept, r2).

    points: iterable of (eps, err) with err > 0, at least three entries.
    """
    pts = [tuple(p) for p in points]
    if len(pts) < 3:
        raise DegenerateFit("need at least three sweep points")
    if any(p[1] <= 0 for p in pts):
        raise DegenerateFit("nonpositive error in rate fit")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
