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
tridiagonal, banded and sparse solves read.  In 1D the h grid is solved by
LAPACK, and the h/2 grid by shifted inverse iteration from the h grid's
eigenpairs, which are already O(h^2) accurate; each eigenvalue is the
record's energy quotient in extended precision, so that the floor sits
orders of magnitude below the smallest expansion residuals being measured.
The eigenvector that a comparison uses is polished on the record by
bordered Newton steps with extended-precision residuals when it is
compared.

Separable two-dimensional problems (diagonal a with axis-aligned
oscillation and an additively separable potential) factor exactly: the
five-point operator is a Kronecker sum, so its eigenvalues are sums of 1D
spectra.  The generic sparse shift-invert path remains for everything else
and for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConvergenceFailure,
    DegenerateFit,
    GridTooCoarse,
    MatchingAmbiguous,
)
from .slowpoly import SlowPolynomial
from .torus import CoefficientField, FourierSampler, tensor_rows

MAX_UNKNOWNS_2D = 1_200_000
MAX_OVERLAP_CONDITION = 10.0   # picked overlap / runner-up within a cluster
POLISH_STEPS = 4               # cap on Newton steps per eigenpair
INVERSE_STEPS = 3              # inverse iterations per h/2 eigenpair


def truncation_radius(lam: float, lambda_minus: float, safety: float) -> float:
    """Box radius safety * sqrt(lam / Lambda_-) for the Dirichlet truncation.

    The eigenfunctions decay like a Gaussian past sqrt(lam/Lambda_-); the
    run configuration validates the chosen radius once by doubling it and
    checking the target eigenvalues move by less than 1e-9 relative.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return float(safety) * float(np.sqrt(lam / lambda_minus))


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
        return int(round(2.0 * self.radius / self.h))

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    def nodes(self) -> tuple:
        """Interior node coordinates of one axis as (n, d) columns, and each
        of points()'s rows among them, one index per axis."""
        x = -self.radius + self.h * np.arange(1, self.n_cells)
        return (np.repeat(x[:, None], self.dim, axis=1),
                tensor_rows(x.size, self.dim))

    def points(self) -> np.ndarray:
        """All interior nodes, (m, d)."""
        coords, index = self.nodes()
        return np.stack([coords[ix, ax] for ax, ix in enumerate(index)], axis=1)

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
        """Distinct fast phases x/eps mod 1 of the interior nodes as (r, d)
        columns, and each of points()'s rows among them, one index per axis:
        node i is the left edge of cell i in cell_phases."""
        y, cell = self.cell_phases(eps, [0.0])
        node = cell[1:]
        return (np.repeat(y, self.dim, axis=1),
                [node[r] for r in tensor_rows(node.size, self.dim)])

    def check_resolves(self, eps: float):
        if self.h > eps / 8.0 + 1e-15:
            raise GridTooCoarse(
                f"h = {self.h:.3g} exceeds eps/8 = {eps / 8:.3g}"
            )

    def normalize(self, vecs: np.ndarray) -> np.ndarray:
        """Rows of node values, L2-normalized with the grid measure."""
        return vecs / (np.linalg.norm(vecs, axis=1, keepdims=True)
                       * self.h ** (self.dim / 2.0))


@dataclass
class ReferenceSpectrum:
    """Eigenvalues at (h, h/2) with Richardson extrapolation.

    Eigenvectors (interior node values, L2-normalized with the grid measure)
    are kept from the fine member of the pair, unpolished; in 1D they come
    with the operator on that grid, on which match_and_compare polishes the
    one it compares and takes its gradient.
    ``path`` names the eigensolve route: tridiagonal, separable or sparse.
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
    operator: FDOperator | None = None  # 1D, with the eigenvectors


# --- the fine-grid operator ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FDOperator:
    """The symmetric finite-difference operator T of -div(a(./eps) grad) + W
    on the interior nodes of a FineGrid, for a diagonal a.

    edges[ax] is the harmonic average of a_ax,ax(./eps) over every cell edge
    along ax (n_cells along ax, n along the others), anodes[ax] is
    a_ax,ax(x/eps) at the nodes, wdiag is W there and h the spacing.  diag
    and off are the stencil, written once; the 1D methods band, quotient,
    polish and flux_gradient act on a tridiagonal T.
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

    def band(self, shift) -> np.ndarray:
        """T - shift in the (1, 1) layout of solve_banded.  diag - shift is
        formed in the precision of shift and rounded into the band."""
        band = np.zeros((3, self.wdiag.size))
        band[0, 1:] = band[2, :-1] = self.off[0]
        band[1] = self.diag.astype(np.asarray(shift).dtype, copy=False) - shift
        return band

    def quotient(self, v) -> np.longdouble:
        """Rayleigh quotient of v through the factored energy form, in long
        double.

        sum_cells a_c (dv)^2 / h^2 + sum_i W_i v_i^2, all terms positive, so
        the quotient carries no 1/h^2 cancellation and is accurate to a few
        ulp of lambda regardless of the grid (the assembled matrix form loses
        eps_mach * |T| ~ eps_mach / h^2, which dominates fine grids).
        """
        v = np.asarray(v, dtype=np.longdouble)
        dv = np.diff(v, prepend=np.longdouble(0), append=np.longdouble(0))
        kinetic = np.sum(self.edges[0] * dv * dv) / np.longdouble(self.h) ** 2
        potential = np.sum(self.wdiag * v * v)
        return (kinetic + potential) / np.sum(v * v)

    def polish(self, vec: np.ndarray) -> np.ndarray:
        """The eigenvector near vec, by bordered Newton steps in extended
        precision (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20,
        1983).

        Each step forms Tv, mu = v.Tv and r = Tv - mu v in long double,
        solves (T - mu) [y, z] = [r, v] once in float64, and moves v to
        v - y + (v.y / v.z) z, the Newton step that keeps the correction
        orthogonal to v.  It stops when |r| no longer decreases (or T - mu is
        exactly singular, i.e. the pair has converged), after at most
        POLISH_STEPS steps.
        """
        d = self.diag.astype(np.longdouble)
        e = self.off[0].astype(np.longdouble)
        v = w = vec.astype(np.longdouble)
        best = np.inf
        for step in range(POLISH_STEPS + 1):
            w /= np.sqrt(np.dot(w, w))
            Tw = d * w
            Tw[:-1] += e * w[1:]
            Tw[1:] += e * w[:-1]
            mu = np.dot(w, Tw)
            r = Tw - mu * w
            rr = np.dot(r, r)
            if not rr < best:
                break
            v, best = w, rr
            if step == POLISH_STEPS:
                break
            rhs = np.stack([r, v], axis=1).astype(float)
            try:
                y, z = sla.solve_banded((1, 1), self.band(mu), rhs,
                                        check_finite=False).T
            except np.linalg.LinAlgError:
                break                     # mu is an eigenvalue of T in float64
            # y and z enter in long double, as v does
            w = v - y + (np.dot(v, y) / np.dot(v, z)) * z
        return v.astype(float)

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
    gl, glw = np.polynomial.legendre.leggauss(12)
    y, cell = grid.cell_phases(eps, np.append(0.5 * (1.0 + gl), 0.0))
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
        harm = 1.0 / (0.5 * ((1.0 / vals[..., :-1]) @ glw))
        edges.append(harm[np.ix_(*(cell if k == ax else node
                                   for k in range(d)))])
        anodes.append(vals[..., -1][np.ix_(*(node,) * d)])
    return FDOperator(tuple(edges), tuple(anodes),
                      W(grid.points()).reshape((node.size,) * d), grid.h)


# --- 1D path -------------------------------------------------------------------


def _solve_1d(coeff_at, W, eps, grid, count):
    """The count lowest eigenvalues on grid and on its h/2 refinement, the
    h/2 eigenvectors, and the h/2 FDOperator.

    The h grid is solved by LAPACK (bisection and inverse iteration).  On
    h/2 each h pair k is the shift and the start of INVERSE_STEPS shifted
    inverse iterations in float64 (Ipsen, SIAM Rev. 39, 1997): its vector,
    interpolated linearly onto the h/2 nodes with 0 at the Dirichlet ends,
    is already O(h^2) from the h/2 one.  Every eigenvalue is the energy
    quotient of its vector, whose error is second order in the vector's.
    Raises ConvergenceFailure when the h/2 eigenvalues are not increasing,
    or one lies nearer another pair's h eigenvalue than its own.
    """
    op = _fd_operator([coeff_at], W, eps, grid)
    _, vecs = sla.eigh_tridiagonal(
        op.diag, op.off[0], select="i", select_range=(0, count - 1)
    )
    vals = np.array([op.quotient(v) for v in vecs.T], dtype=float)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    fine = FineGrid(1, grid.radius, grid.h / 2.0)
    fop = _fd_operator([coeff_at], W, eps, fine)
    x = -grid.radius + grid.h * np.arange(grid.n_cells + 1)
    fine_x = -fine.radius + fine.h * np.arange(1, fine.n_cells)
    fine_vals = np.empty(count)
    fine_vecs = np.empty((count, fine_x.size))
    for k in range(count):
        v = np.interp(fine_x, x, np.pad(vecs[:, k], 1))
        band = fop.band(vals[k])
        for _ in range(INVERSE_STEPS):
            v = sla.solve_banded((1, 1), band, v, check_finite=False)
            v /= np.linalg.norm(v)
        fine_vals[k] = fop.quotient(v)
        fine_vecs[k] = v
    gap = np.abs(fine_vals[:, None] - vals)
    if not (np.all(np.diff(fine_vals) > 0)
            and np.all(gap.diagonal() <= gap.min(axis=1))):
        raise ConvergenceFailure(
            f"inverse iteration on the h/2 grid lost the order of the h "
            f"grid's eigenvalues: {fine_vals} from {vals}"
        )
    # the record without the stencil that inverse iteration cached: a 1D
    # sweep holds every eps's reference, and only the polish reads it again
    return vals, fine_vals, fine_vecs, replace(fop)


# --- 2D paths -------------------------------------------------------------------


def _separable_parts(coeff: CoefficientField, W: SlowPolynomial):
    """Split a diagonal axis-aligned problem into two 1D problems, or None.

    Requires a = diag(a1(y1), a2(y2)) and W = W1(x1) + W2(x2).
    """
    if coeff.grid.dim != 2 or coeff.entry_fns is None:
        return None
    fns = coeff.entry_fns
    if fns[0][0] is None or fns[1][1] is None:
        return None
    v = coeff.a.values
    if np.max(np.abs(v[0, 1])) > 0 or np.max(np.abs(v[1, 0])) > 0:
        return None
    # off-diagonal entries must vanish identically, not just on the grid
    probe = np.linspace(0.05, 0.95, 7)
    for fn in (fns[0][1], fns[1][0]):
        if fn is not None and np.max(np.abs(np.asarray(
                fn(probe, probe[::-1]), dtype=float))) > 0:
            return None
    # each diagonal entry must depend only on its own axis
    if np.max(np.abs(v[0, 0] - v[0, 0][:, :1])) > 1e-14 * max(1, v[0, 0].max()):
        return None
    if np.max(np.abs(v[1, 1] - v[1, 1][:1, :])) > 1e-14 * max(1, v[1, 1].max()):
        return None
    W1 = {}
    W2 = {}
    for alpha, c in W.coeffs.items():
        if alpha[1] == 0:
            W1[(alpha[0],)] = W1.get((alpha[0],), 0.0) + c
        elif alpha[0] == 0:
            W2[(alpha[1],)] = W2.get((alpha[1],), 0.0) + c
        else:
            return None
    f1, f2 = coeff.entry(0, 0), coeff.entry(1, 1)
    # a 1D point set is a 2D one with the other coordinate 0
    return (
        (lambda c, ix: f1(np.hstack([c, 0 * c]), [ix[0], ix[0]])),
        (lambda c, ix: f2(np.hstack([0 * c, c]), [ix[0], ix[0]])),
        SlowPolynomial(1, W1), SlowPolynomial(1, W2),
    )


def _solve_2d_separable(parts, eps, grid, count, vectors):
    """The count lowest sums of the two 1D spectra on grid and on its h/2
    refinement, and the h/2 Kronecker eigenvectors (n^2 values each) only
    when ``vectors`` asks for them.

    count modes per axis suffice: the 1D eigenvalues are simple and
    increasing, so a pair (i, j) with i >= count lies above the count sums
    (c, j), c < count, and cannot be among the count lowest (the same holds
    for j).
    """
    a1, a2, W1, W2 = parts
    g1 = FineGrid(1, grid.radius, grid.h)
    one, two = (_solve_1d(a, Wa, eps, g1, count)
                for a, Wa in ((a1, W1), (a2, W2)))

    def lowest(vals1, vals2):
        return sorted((vals1[i] + vals2[j], i, j)
                      for i in range(count) for j in range(count))[:count]

    fine = lowest(one[1], two[1])
    vals_h = np.array([p[0] for p in lowest(one[0], two[0])])
    vals_h2 = np.array([p[0] for p in fine])
    if not vectors:
        return vals_h, vals_h2, None
    return vals_h, vals_h2, np.stack([np.outer(one[2][i], two[2][j]).ravel()
                                      for (_, i, j) in fine])


def _assemble_2d(coeff: CoefficientField, W: SlowPolynomial, eps: float,
                 grid: FineGrid):
    """Five-point symmetric FD matrix of _fd_operator, in CSR form;
    off-diagonal entries of a are not supported on this path (the
    pseudo-spectral side handles full matrices; fine-grid acceptance runs
    use diagonal coefficients)."""
    import scipy.sparse as sp
    v = coeff.a.values
    if np.max(np.abs(v[0, 1])) > 0:
        raise NotImplementedError(
            "2D fine-grid path supports diagonal coefficients only"
        )
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
    return sp.diags(bands, offsets, format="csr")


def _solve_2d_sparse(coeff, W, eps, grid, count, sigma_shift):
    import scipy.sparse.linalg as spla
    A = _assemble_2d(coeff, W, eps, grid)
    # a seeded start keeps runs bit-reproducible (ARPACK draws a random one);
    # a constant one would miss the odd eigenvectors of a symmetric problem
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        vals, vecs = spla.eigsh(A, k=count, sigma=sigma_shift, which="LM", v0=v0)
    except Exception as exc:          # noqa: BLE001 - surfaced as library error
        raise ConvergenceFailure(f"sparse eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order].T


# --- public entry points ----------------------------------------------------------


def solve_Leps(coeff: CoefficientField, W: SlowPolynomial, eps: float,
               grid: FineGrid, count: int,
               keep_vectors: bool) -> ReferenceSpectrum:
    """Lowest eigenpairs of -div(a(./eps) grad) + W on the truncated box.

    Solves at h and h/2 and Richardson-extrapolates the eigenvalues;
    eigenvectors are returned on the h/2 grid, unpolished, only with
    keep_vectors, and in 1D with the h/2 operator.  Raises
    GridTooCoarse when h does not resolve eps, or when the box holds fewer
    than max(count, 2) interior nodes per axis.
    """
    grid.check_resolves(eps)
    if grid.n_interior < max(count, 2):
        raise GridTooCoarse(
            f"{grid.n_interior} interior nodes per axis on [-{grid.radius:.3g}, "
            f"{grid.radius:.3g}] with h = {grid.h:.3g}; {count} eigenpairs "
            f"need at least {max(count, 2)}"
        )
    fine = FineGrid(grid.dim, grid.radius, grid.h / 2.0)
    op = None
    if grid.dim == 1:
        vals_h, vals_h2, vecs, op = _solve_1d(
            coeff.entry(0, 0), W, eps, grid, count)
        path = "tridiagonal"
    else:
        parts = _separable_parts(coeff, W)
        if parts is not None:
            vals_h, vals_h2, vecs = _solve_2d_separable(
                parts, eps, grid, count, keep_vectors)
            path = "separable"
        else:
            # shift-invert about 0, below the positive definite spectrum
            vals_h, _ = _solve_2d_sparse(coeff, W, eps, grid, count, 0.0)
            vals_h2, vecs = _solve_2d_sparse(coeff, W, eps, fine, count, 0.0)
            path = "sparse"
    return ReferenceSpectrum(
        eps=eps, grid=grid,
        eigenvalues_h=vals_h, eigenvalues_h2=vals_h2,
        eigenvalues=(4.0 * vals_h2 - vals_h) / 3.0,
        error_estimates=np.abs(vals_h2 - vals_h) / 3.0,
        eigenvectors=fine.normalize(vecs) if keep_vectors else None,
        fine_grid=fine, path=path,
        operator=op if keep_vectors else None,
    )


def validate_radius(coeff, W, ref: ReferenceSpectrum) -> float:
    """Relative eigenvalue shift of the reference ref when its box radius
    is doubled; only the doubled box is solved."""
    grid = ref.grid
    big = FineGrid(grid.dim, 2.0 * grid.radius, grid.h)
    wide = solve_Leps(coeff, W, ref.eps, big, len(ref.eigenvalues),
                      keep_vectors=False)
    shift = np.max(np.abs(ref.eigenvalues - wide.eigenvalues)
                   / np.maximum(np.abs(wide.eigenvalues), 1.0))
    return float(shift)


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
    runtime_s: float = 0.0


def match_and_compare(ref: ReferenceSpectrum, branches, eps: float,
                      P: int) -> list:
    """Per-branch eigenvalue / L2 / H1 errors against the expansion.

    The reference eigenvector for branch r is the one with the dominant
    overlap against the rotated envelope U_{0,r}; it is rescaled so that
    int psi U_{0,r} dx = 1, matching the normalization in which the
    expansion is stated.  A 1D reference from solve_Leps keeps its
    operator: the picked vector is polished on it (FDOperator.polish)
    before it is compared, and the H1 error is formed from its
    eps-uniform flux gradient.  Any other reference's vector is used as
    given and its H1 error is NaN (2D, or built by hand), since central
    differences on a grid with h ~ eps leave an eps-independent floor in
    the gradient.  The row eigenvalues are always those of the reference.
    A reference without eigenvectors is matched by index, cluster[0] + r,
    and its rows carry NaN L2 and H1 errors.  Raises
    MatchingAmbiguous when no assignment dominates by the requested ratio.
    """
    from .expansion import assemble, lambda_tilde
    from .hermite import HermiteSampler

    if not isinstance(branches, (list, tuple)):
        branches = [branches]
    vectors = ref.eigenvectors is not None
    op = ref.operator
    if vectors:
        grid = ref.fine_grid
        pts = grid.points()
        coords, index = grid.nodes()
        phases = grid.phases(eps)
        measure = grid.h ** grid.dim

    def predicted(br):
        # one Hermite table on the node coordinates serves the overlap with
        # U_0 and the assembly, and the corrector shapes are sampled at one
        # period of node phases; both tables are gone before the polish
        sample_x = HermiteSampler(br.spectrum.basis, coords, P + 1, index)
        u0 = sample_x(br.U[0])
        return u0, assemble(br, eps, pts, P=P, gradient=op is not None,
                            sample_x=sample_x,
                            sample_y=FourierSampler(br.table.grid, *phases))

    rows = []
    used = set()
    for br in branches:
        l2 = h1 = float("nan")
        if not vectors:
            pick = min(br.cluster[0] + br.label, len(ref.eigenvalues) - 1)
        else:
            u0, asm = predicted(br)
            overlaps = ref.eigenvectors @ u0 * measure
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
            vec, overlap = ref.eigenvectors[pick], overlaps[pick]
            if op is not None:
                # polish the picked vector, then normalize it as solve_Leps
                # does and overlap it as above, as a one-row array
                row = grid.normalize(op.polish(vec)[None])
                vec, overlap = row[0], (row @ u0 * measure)[0]
            psi = vec / overlap
            diff = psi - asm.w
            l2 = float(np.sqrt(np.sum(diff ** 2) * measure))
            if op is not None:
                gd = op.flux_gradient(psi) - asm.grad_w
                h1 = float(np.sqrt(np.sum(diff ** 2) * measure
                                   + np.sum(gd ** 2) * measure))
        lam_ref = float(ref.eigenvalues[pick])
        lam_tilde = lambda_tilde(br, eps, P)
        rows.append(ComparisonRow(
            eps=eps, j=br.j, branch=br.label,
            lambda_ref=float(ref.eigenvalues_h2[pick]),
            lambda_ref_richardson=lam_ref,
            lambda_tilde=lam_tilde,
            eig_err=abs(lam_ref - lam_tilde),
            l2_err=l2, h1_err=h1,
            h=ref.grid.h, radius=ref.grid.radius,
        ))
    return rows


def fit_rate(points) -> tuple:
    """Least squares slope of log err vs log eps; returns (slope, intercept, r2).

    points: iterable of (eps, err) with err > 0, at least three entries.
    Raises DegenerateFit when an error sits at/below its floor estimate if
    floors are supplied as (eps, err, floor) triples.
    """
    pts = [tuple(p) for p in points]
    if len(pts) < 3:
        raise DegenerateFit("need at least three sweep points")
    for p in pts:
        if p[1] <= 0:
            raise DegenerateFit("nonpositive error in rate fit")
        if len(p) > 2 and p[1] <= p[2]:
            raise DegenerateFit(
                f"error {p[1]:.3e} at eps={p[0]:.3g} is at the "
                f"discretization floor {p[2]:.3e}"
            )
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
