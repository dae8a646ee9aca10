"""Periodic field algebra on the unit torus T^d and the two elementary solvers.

Fields are sampled on a uniform n^d grid and manipulated pseudo-spectrally:
derivatives are exact on resolved modes (multiplication by 2*pi*i*k in Fourier
space).  Every field is real, so its spectrum is kept as the real-transform
half spectrum, of shape (n,)*(d-1) + (n/2+1,): rfftn/irfftn through _rfft and
_irfft, whose last axis holds the non-negative wavenumbers only.

The one product with the coefficient, CoefficientField._product, takes and
returns n-grid half spectra and forms a g on the grid padded by the 3/2 rule,
which removes quadratic aliasing.  An exactly-zero input or output component
costs it no transform.  The cell operator is built on it directly, as a
map of half spectra (_operator_half), and the corrector sources and the
fluxes through CoefficientField.multiply, grad_y and div_y.  One
application of the cell operator costs 2d real transforms: d inverse
transforms onto the padded grid and d forward transforms back.  The two
solvers everything else reduces to are

    solve_cell:            -div(a grad u) = div F + G   on T^d,  <u> = 0
    solve_flux_corrector:  -lap s_ij = d_j g_i - d_i g_j, so that div s = g

The cell solve runs conjugate gradients on the half spectrum of the source,
preconditioned by the constant coefficient Laplacian, a diagonal scaling
there (Moulinec & Suquet 1998); it converges in O(sqrt(theta)) iterations
for the smooth coefficients this library targets, and costs one forward
transform of the source and one inverse transform of the solution besides
the operator's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatch,
    NonZeroMean,
    NotDivergenceFree,
    NotElliptic,
    SingularSystem,
)

TWO_PI = 2.0 * np.pi
CG_MAXITER = 2000       # solve_cell's iteration cap before SingularSystem


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0,1)^d with an even number of points per axis."""

    dim: int
    modes_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridMismatch(f"dim must be 1 or 2, got {self.dim}")
        n = self.modes_per_axis
        if n < 4 or n % 2 != 0:
            raise GridMismatch(f"modes_per_axis must be even and >= 4, got {n}")

    @property
    def shape(self) -> tuple:
        return (self.modes_per_axis,) * self.dim

    @property
    def half_shape(self) -> tuple:
        """Shape of a half spectrum: the last axis holds modes 0..n/2."""
        return self.shape[:-1] + (self.modes_per_axis // 2 + 1,)

    @property
    def npoints(self) -> int:
        return self.modes_per_axis ** self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        n = self.modes_per_axis
        return np.arange(n) / n

    def coords(self) -> list:
        """Meshgrid coordinate arrays, ij indexing."""
        return list(np.meshgrid(*([self.axis] * self.dim), indexing="ij"))

    def _half_axes(self) -> list:
        """2*pi*k per axis of the half spectrum, broadcast-shaped: every
        wavenumber on the leading axes, the non-negative ones 0..n/2 on the
        last."""
        n = self.modes_per_axis
        full = TWO_PI * np.fft.fftfreq(n, d=1.0 / n)
        axes = [full] * (self.dim - 1) + [TWO_PI * np.arange(n // 2 + 1.0)]
        return [k.reshape([k.size if a == ax else 1 for a in range(self.dim)])
                for ax, k in enumerate(axes)]

    @cached_property
    def wavenumbers(self) -> list:
        """Derivative wavenumbers 2*pi*k per axis, broadcast-shaped on the
        half spectrum.

        The Nyquist entry is zeroed: on an even grid that mode is a pure
        cosine whose sine derivative is not representable, and zeroing it
        keeps gradient and divergence exact adjoints of each other.
        """
        n = self.modes_per_axis
        ks = self._half_axes()
        for k in ks:
            k.flat[n // 2] = 0.0
        return ks

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Weight of each last-axis mode of a half spectrum in a Parseval
        sum: the modes 1..n/2-1 stand for their conjugates too, so they
        count twice."""
        n = self.modes_per_axis
        w = np.ones(n // 2 + 1)
        w[1:n // 2] = 2.0
        return w

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|2 pi k|^2 on the half spectrum including the Nyquist mode, for
        inversions.  The zero mode holds 1, so dividing by it is safe; each
        inversion then zeroes that mode itself."""
        k2 = sum(k ** 2 for k in self._half_axes())
        k2.flat[0] = 1.0
        return k2


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatch("fields live on different grids")
    return g


class PeriodicField:
    """Real field on a TorusGrid; rank 0, 1 or 2 (scalar, vector, matrix).

    values has shape comp_shape + grid.shape with comp_shape () / (d,) / (d,d).
    The grid mean of each component equals its zeroth Fourier coefficient.
    """

    __slots__ = ("grid", "values", "rank")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        ncomp = values.ndim - grid.dim
        if ncomp not in (0, 1, 2) or values.shape[ncomp:] != grid.shape:
            raise GridMismatch(
                f"values shape {values.shape} incompatible with grid {grid.shape}"
            )
        if ncomp >= 1 and values.shape[0] != grid.dim:
            raise GridMismatch("component axes must have length d")
        if ncomp == 2 and values.shape[1] != grid.dim:
            raise GridMismatch("component axes must have length d")
        self.grid = grid
        self.values = values
        self.rank = ncomp

    # --- constructors ---

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "PeriodicField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "PeriodicField":
        return cls(grid, np.zeros(grid.shape))

    # --- basic queries ---

    @property
    def grid_axes(self) -> tuple:
        return tuple(range(self.rank, self.rank + self.grid.dim))

    def mean(self):
        """Torus mean; scalar for rank 0, d-vector / dxd matrix otherwise."""
        m = self.values.mean(axis=self.grid_axes)
        return float(m) if self.rank == 0 else m

    def mean_zero(self) -> "PeriodicField":
        m = np.asarray(self.mean())
        return PeriodicField(
            self.grid, self.values - m.reshape(m.shape + (1,) * self.grid.dim)
        )

    def component(self, *idx) -> "PeriodicField":
        return PeriodicField(self.grid, self.values[idx])

    def l2_norm(self) -> float:
        """L2(T^d) norm; components of vector/matrix fields are summed."""
        return float(np.sqrt(np.sum(self.values ** 2) / self.grid.npoints))

    # --- algebra ---

    def __add__(self, other):
        _check_same_grid(self, other)
        return PeriodicField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return PeriodicField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float):
        return PeriodicField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return PeriodicField(self.grid, -self.values)

    # --- evaluation ---

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Trigonometric interpolation of a scalar field at arbitrary points.

        points: (m, d) array in R^d; periodicity wraps automatically.  To
        evaluate many fields at one point set, build a FourierSampler once.
        """
        return FourierSampler(self.grid, points)(self)


# --- evaluation at fixed point sets ------------------------------------------

# Rows per block when filling a basis or contracting a 2D spectrum; bounds the
# transient arrays at a few MB whatever the number of points.
SAMPLE_BLOCK = 4096


def tensor_contract(tables: list, core: np.ndarray,
                    index: tuple | None = None) -> np.ndarray:
    """Real part of ``core`` contracted with one table per axis, per point.

    With ``index`` point p takes row index[ax][p] of tables[ax], gathered
    from the table tables[0] @ core @ tables[1].T, which is formed once: a
    tensor grid then costs its distinct coordinates per axis, not its
    points.  Without it point p takes row p of every table; in 2D that is
    contracted per point, in blocks.
    """
    if index is None and len(tables) == 2:
        left, right = tables
        out = np.empty(left.shape[0])
        for start in range(0, left.shape[0], SAMPLE_BLOCK):
            blk = slice(start, start + SAMPLE_BLOCK)
            out[blk] = np.einsum("pb,pb->p", left[blk] @ core, right[blk]).real
        return out
    table = tables[0] @ core
    for t in tables[1:]:
        table = table @ t.T
    table = np.real(table)
    return table if index is None else table[tuple(index)]


def tensor_rows(n: int, dim: int) -> tuple:
    """Row per axis of each point of a tensor grid with n coordinates per
    axis, the points in C order (last axis fastest): the ``index`` of a
    sampler built on the n axis coordinates."""
    return np.unravel_index(np.arange(n ** dim), (n,) * dim)


def _axis_basis(x: np.ndarray, n: int) -> np.ndarray:
    """exp(2 pi i k x) for k = fftfreq(n), shape (len(x), n).

    Real field with even n: the Nyquist mode is split so that the
    interpolant is real (cos(pi n x) rather than exp(-i pi n x)).
    """
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    out = np.empty((x.size, n), dtype=complex)
    for start in range(0, x.size, SAMPLE_BLOCK):
        xb = x[start:start + SAMPLE_BLOCK]
        blk = out[start:start + SAMPLE_BLOCK]
        np.exp(TWO_PI * 1j * np.outer(xb, freqs), out=blk)
        blk[:, n // 2] = np.cos(TWO_PI * freqs[n // 2] * xb)
    return out


class FourierSampler:
    """Trigonometric interpolation on one grid at one fixed point set.

    Point p has coordinate ``points[index[ax][p], ax]`` on axis ax; without
    ``index`` it is row p of ``points``.  The per-axis Fourier basis is built
    once on the rows of ``points`` up to the last one ``index`` reads, so a
    point set with few distinct coordinates per axis, such as the fine-grid
    phases of FineGrid.phases, costs few rows on each.  Each call is one
    FFT, one product with the spectrum and one gather.
    """

    __slots__ = ("grid", "bases", "index")

    def __init__(self, grid: TorusGrid, points: np.ndarray,
                 index: list | None = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != grid.dim:
            raise GridMismatch("points must have d columns")
        self.grid = grid
        self.bases = [_axis_basis(pts[:, ax] if index is None else
                                  pts[:np.max(index[ax]) + 1, ax],
                                  grid.modes_per_axis)
                      for ax in range(grid.dim)]
        self.index = index

    def __call__(self, field: PeriodicField) -> np.ndarray:
        """Values of a scalar field on this grid at the sampler's points."""
        if field.rank != 0:
            raise GridMismatch("evaluate is defined for scalar fields")
        if field.grid != self.grid:
            raise GridMismatch("field lives on a different grid")
        fh = np.fft.fftn(field.values) / self.grid.npoints
        return tensor_contract(self.bases, fh, self.index)


def _rfft(values: np.ndarray) -> np.ndarray:
    """Unnormalized half spectrum of a real array on a grid."""
    return np.fft.rfftn(values, axes=tuple(range(values.ndim)))


def _irfft(vh: np.ndarray, n: int) -> np.ndarray:
    """The real n-grid array whose half spectrum is vh; n must be given,
    because a half spectrum's last axis does not determine it."""
    return np.fft.irfftn(vh, s=(n,) * vh.ndim, axes=tuple(range(vh.ndim)))


def _deriv(fh: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """Grid values of the derivative whose wavenumbers are k, from the
    unnormalized half spectrum fh of an n-grid field."""
    return _irfft(1j * k * fh, n)


def grad_y(f: PeriodicField) -> PeriodicField:
    """Spectral gradient of a scalar field, rank 0 -> rank 1."""
    if f.rank != 0:
        raise GridMismatch("grad_y expects a scalar field")
    fh = _rfft(f.values)
    n = f.grid.modes_per_axis
    return PeriodicField(f.grid, np.stack([_deriv(fh, k, n)
                                           for k in f.grid.wavenumbers]))


def deriv_y(f: PeriodicField, axis: int) -> PeriodicField:
    """Single spectral partial derivative of a scalar field."""
    if f.rank != 0:
        raise GridMismatch("deriv_y expects a scalar field")
    return PeriodicField(f.grid, _deriv(_rfft(f.values),
                                        f.grid.wavenumbers[axis],
                                        f.grid.modes_per_axis))


def div_y(f: PeriodicField) -> PeriodicField:
    """Spectral divergence; rank 1 -> rank 0, rank 2 -> rank 1 (column-wise).

    For a matrix field the j-th output component is d_i s_ij, so that the
    stream matrix identity div s = g holds componentwise.  The d derivatives
    of an output are summed in Fourier space before one inverse transform.
    """
    if f.rank not in (1, 2):
        raise GridMismatch("div_y expects a vector or matrix field")
    d = f.grid.dim
    n = f.grid.modes_per_axis
    columns = [f.values] if f.rank == 1 else [f.values[:, j] for j in range(d)]
    ks = f.grid.wavenumbers
    comps = [_irfft(sum(1j * k * _rfft(c) for k, c in zip(ks, col)), n)
             for col in columns]
    return PeriodicField(f.grid, comps[0] if f.rank == 1 else np.stack(comps))


# --- dealiased products -----------------------------------------------------

def _pad_shape(n: int) -> int:
    m = (3 * n) // 2
    return m + (m % 2)


def _copy_modes(fh: np.ndarray, n: int, size: int) -> np.ndarray:
    """The modes of the half spectrum fh that an n-grid resolves, placed in
    the zero half spectrum of a size^d grid: the 2^(d-1) blocks of
    nonnegative and negative indices per leading axis, and the nonnegative
    block [0, n/2) of the last axis.  size > n pads an n-grid spectrum,
    size = n truncates a larger one.

    The ambiguous Nyquist mode is dropped so that padding and truncation
    are exact adjoints; smooth fields carry only exponentially small
    content there.
    """
    h = n // 2
    out = np.zeros((size,) * (fh.ndim - 1) + (size // 2 + 1,), dtype=complex)
    pairs = ((slice(0, h), slice(0, h)),
             (slice(size - (h - 1), size),
              slice(fh.shape[0] - (h - 1), fh.shape[0])))
    for block in itertools.product(pairs, repeat=fh.ndim - 1):
        dst = tuple(p[0] for p in block) + (slice(0, h),)
        src = tuple(p[1] for p in block) + (slice(0, h),)
        out[dst] = fh[src]
    return out


def _resample(values: np.ndarray, n: int, size: int) -> np.ndarray:
    """The modes of an n-grid spectrum of ``values`` on a size^d grid,
    unscaled: size > n pads an n-grid array, size = n truncates a larger
    one, or drops the Nyquist modes of an n-grid array."""
    return _irfft(_copy_modes(_rfft(values), n, size), size)


def l2_inner(f: PeriodicField, g: PeriodicField) -> float:
    _check_same_grid(f, g)
    if f.rank != g.rank:
        raise GridMismatch("inner product needs equal ranks")
    return float(np.sum(f.values * g.values) / f.grid.npoints)


def hminus1_norm(f: PeriodicField) -> float:
    """Fourier H^-1 seminorm of a scalar field (zero mode dropped), summed
    over the half spectrum with TorusGrid.parseval_weights."""
    if f.rank != 0:
        raise GridMismatch("hminus1_norm expects a scalar field")
    fh = _rfft(f.values) / f.grid.npoints
    w = np.abs(fh) ** 2 / f.grid.k_squared * f.grid.parseval_weights
    w.flat[0] = 0.0
    return float(np.sqrt(w.sum()))


def _parseval_dot(grid: TorusGrid, ah: np.ndarray, bh: np.ndarray) -> float:
    """sum(a * b) over the grid of two real n-grid arrays, from their
    unnormalized half spectra ah and bh (Parseval)."""
    return np.vdot(ah * grid.parseval_weights, bh).real / grid.npoints


# --- coefficient fields ------------------------------------------------------

def _eig_bounds(v: np.ndarray) -> tuple:
    """Least and greatest pointwise eigenvalue of the symmetric d x d
    coefficient values v, d = 1 or 2."""
    if v.shape[0] == 1:
        w = v[0, 0]
        return float(w.min()), float(w.max())
    tr = v[0, 0] + v[1, 1]
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    disc = np.sqrt(np.maximum((tr / 2) ** 2 - det, 0.0))
    return float((tr / 2 - disc).min()), float((tr / 2 + disc).max())


class CoefficientField:
    """Symmetric uniformly elliptic d x d coefficient a(y) on the torus.

    Carries pointwise eigenvalue bounds lam_min <= a <= lam_max and the
    ellipticity ratio theta = lam_max / lam_min.  When built from closed-form
    expressions the callables are kept so that the fine-grid oracle can
    evaluate a(x/eps) exactly; coefficients given only as samples fall back
    to trigonometric interpolation (accurate for smooth fields only, and a
    warning flag is set for the caller to surface).
    """

    def __init__(self, a: PeriodicField, entry_fns=None, from_samples=False):
        if a.rank != 2:
            raise NotElliptic("coefficient must be a rank-2 field")
        if not np.all(np.isfinite(a.values)):
            raise NotElliptic("coefficient has non-finite values")
        sym_gap = np.max(np.abs(a.values - np.swapaxes(a.values, 0, 1)))
        if sym_gap > 1e-12 * max(1.0, np.max(np.abs(a.values))):
            raise NotElliptic(f"coefficient not symmetric, gap {sym_gap:.3e}")
        a = PeriodicField(a.grid, 0.5 * (a.values + np.swapaxes(a.values, 0, 1)))
        self.grid = a.grid
        self.a = a
        self.entry_fns = entry_fns
        self.from_samples = from_samples
        lo, hi = _eig_bounds(a.values)
        if lo <= 0.0:
            raise NotElliptic(f"coefficient not positive definite, min eig {lo:.3e}")
        self.lam_min = lo
        self.lam_max = hi
        self.theta = hi / lo
        self._padded = None

    @classmethod
    def from_isotropic(cls, grid: TorusGrid, fn) -> "CoefficientField":
        d = grid.dim
        return cls.from_matrix(grid, [[fn if i == j else None
                                       for j in range(d)] for i in range(d)])

    @classmethod
    def from_matrix(cls, grid: TorusGrid, fns) -> "CoefficientField":
        """Entry (i, j) sampled from the callable fns[i][j] of the grid
        coordinates; None stands for an entry that is identically zero."""
        d = grid.dim
        vals = np.zeros((d, d) + grid.shape)
        for i in range(d):
            for j in range(d):
                if fns[i][j] is not None:
                    vals[i, j] = np.asarray(fns[i][j](*grid.coords()),
                                            dtype=float)
        return cls(PeriodicField(grid, vals), entry_fns=fns)

    @classmethod
    def from_samples(cls, grid: TorusGrid, values: np.ndarray) -> "CoefficientField":
        return cls(PeriodicField(grid, values), from_samples=True)

    @classmethod
    def identity(cls, grid: TorusGrid) -> "CoefficientField":
        return cls.from_isotropic(grid, lambda *ys: np.ones(grid.shape))

    def padded_values(self) -> np.ndarray:
        """Coefficient resampled on the 3/2 grid, cached for _product."""
        if self._padded is None:
            n = self.grid.modes_per_axis
            d = self.grid.dim
            m = _pad_shape(n)
            out = np.zeros((d, d) + (m,) * d)
            for i in range(d):
                for j in range(d):
                    out[i, j] = _resample(self.a.values[i, j], n, m) \
                        * (m / n) ** d
            self._padded = out
        return self._padded

    def _product(self, gh: list) -> list:
        """Half spectra of a g from the n-grid half spectra gh of a vector
        field g, formed on the 3/2-padded grid.

        Each g_j is padded and transformed once, a_ij g_j is summed over j on
        the padded grid and each component is transformed back and truncated
        once.  A slot where g_j or a_ij is exactly zero is left out of the
        sum, and an output with no term left is exact zeros: neither costs a
        transform, and the result is the one that padding them would give.
        This is the one product with the coefficient: multiply, the cell
        operator, the corrector sources and the fluxes all go through it.
        """
        n = self.grid.modes_per_axis
        m = _pad_shape(n)
        scale = (m / n) ** self.grid.dim
        pads = [_irfft(_copy_modes(gj, n, m), m) * scale if gj.any() else None
                for gj in gh]
        out = []
        for i, row in enumerate(self.padded_values()):
            terms = [a * p for a, p in zip(row, pads)
                     if p is not None and a.any()]
            out.append(_copy_modes(_rfft(sum(terms)), n, n) / scale if terms
                       else np.zeros_like(gh[i]))
        return out

    def multiply(self, g: PeriodicField) -> PeriodicField:
        """The vector field a g: the transforms of g around _product."""
        if g.grid != self.grid or g.rank != 1:
            raise GridMismatch("multiply expects a vector field on the "
                               "coefficient's grid")
        n = self.grid.modes_per_axis
        zero = np.zeros(self.grid.half_shape, dtype=complex)
        fh = self._product([_rfft(gj) if gj.any() else zero
                            for gj in g.values])
        return PeriodicField(self.grid, np.stack([
            _irfft(f, n) if f.any() else np.zeros(self.grid.shape)
            for f in fh]))

    def entry(self, i: int, j: int):
        """a_ij as a callable of a point set given as to FourierSampler,
        (points, index or None); index arrays that broadcast give values of
        their broadcast shape, or of length 1 on an axis an expression
        ignores.  The closed-form expression when one is known, else the
        trigonometric interpolant of the samples."""
        fn = self.entry_fns[i][j] if self.entry_fns else None
        if fn is None:
            comp = self.a.component(i, j)
            return lambda coords, index: FourierSampler(
                self.grid, coords, index)(comp)
        return lambda coords, index: np.asarray(fn(*(
            coords[:, k] if index is None else coords[index[k], k]
            for k in range(self.grid.dim))), dtype=float)


# --- the two solvers --------------------------------------------------------

def _operator_half(coeff: CoefficientField, uh: np.ndarray) -> np.ndarray:
    """Half spectrum of -div(a grad u) from the n-grid half spectrum uh of
    u, in 2d real transforms: gradient and divergence act on the half
    spectrum, the coefficient product is CoefficientField._product on the
    3/2 grid.

    Padding and truncation are exact adjoints and the derivative matrix is
    antisymmetric, so the composite is exactly symmetric.  The fluxes are
    built from the same _product, grad_y and div_y, which is what makes them
    divergence-free to solver precision.
    """
    ks = coeff.grid.wavenumbers
    fh = coeff._product([1j * k * uh for k in ks])
    return -sum(1j * k * f for k, f in zip(ks, fh))


def _apply_operator(coeff: CoefficientField, u: np.ndarray) -> np.ndarray:
    """-div(a grad u) on the grid: _operator_half between one forward and
    one inverse transform, 2 + 2d real transforms."""
    return _irfft(_operator_half(coeff, _rfft(u)), coeff.grid.modes_per_axis)


def solve_cell(coeff: CoefficientField,
               F: PeriodicField | None = None,
               G: PeriodicField | None = None,
               tol: float = 1e-12) -> PeriodicField:
    """Unique mean-zero periodic solution of -div(a grad u) = div F + G.

    G must be mean-free (tolerance 1e-12 relative); the tiny residual mean is
    subtracted before the solve.  Raises SingularSystem when preconditioned
    CG fails to reach the relative residual tol in CG_MAXITER iterations,
    or breaks down before: r.z not positive and finite, or p.Ap / r.z not
    positive and finite or below lo / (2 cbar), lo the least eigenvalue of
    the coefficient that the operator multiplies by, its interpolant on the
    3/2 grid (padded_values).  In exact arithmetic p.Ap / r.z = 1/alpha
    lies in the spectrum of the preconditioned operator (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 2003, 6.7), which is bounded
    below by lo / cbar; once conjugacy is lost at rounding level it falls
    far below that.  Where the interpolant of rough samples undershoots to
    lo <= 0, only the sign is checked.

    The source is formed on the grid; CG then runs on its half spectrum,
    where the preconditioner is a diagonal scaling and the inner products
    are Parseval sums (_parseval_dot), and the solution takes one inverse
    transform at the end.
    """
    grid = coeff.grid
    n = grid.modes_per_axis
    b = np.zeros(grid.shape)
    if F is not None:
        _check_same_grid(coeff.a, F)
        if F.rank != 1:
            raise GridMismatch("F must be a vector field")
        b += div_y(F).values
    if G is not None:
        _check_same_grid(coeff.a, G)
        if G.rank != 0:
            raise GridMismatch("G must be a scalar field")
        gmean = G.mean()
        scale = max(G.l2_norm(), 1.0)
        if abs(gmean) > 1e-12 * scale:
            raise NonZeroMean("G", abs(gmean))
        # Nyquist content of the source is outside the operator range on an
        # even grid; it is projected out as part of the discretization
        b += _resample(G.values - gmean, n, n)
    b -= b.mean()

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return PeriodicField.zeros(grid)

    # the constant-coefficient Laplacian's inverse, zero on the mean
    inv = 1.0 / (0.5 * (coeff.lam_min + coeff.lam_max) * grid.k_squared)
    inv.flat[0] = 0.0
    # lo / (2 cbar): half the least 1/alpha of CG in exact arithmetic
    lo = _eig_bounds(coeff.padded_values())[0]
    floor = max(lo, 0.0) / (coeff.lam_min + coeff.lam_max)

    uh = np.zeros(grid.half_shape, dtype=complex)
    r = _rfft(b)
    p = z = inv * r
    rz = _parseval_dot(grid, r, z)
    # past a breakdown the iterates may grow until they overflow, or r.z may
    # reach 0: the check below catches both, so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(CG_MAXITER):
            Ap = _operator_half(coeff, p)
            pAp = _parseval_dot(grid, p, Ap)
            if not (0.0 < rz < np.inf and 0.0 < pAp / rz < np.inf
                    and pAp / rz >= floor):
                raise SingularSystem(
                    f"cell solve broke down at CG iteration {it}: p.Ap / r.z "
                    f"= {pAp / rz:.3e}, bound lo / (2 cbar) = {floor:.3e}"
                )
            alpha = rz / pAp
            uh += alpha * p
            r -= alpha * Ap
            if np.sqrt(_parseval_dot(grid, r, r)) <= tol * bnorm:
                u = _irfft(uh, n)
                u -= u.mean()
                return PeriodicField(grid, u)
            z = inv * r
            rz_new = _parseval_dot(grid, r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
    raise SingularSystem(
        f"cell solve did not reach tol {tol:.1e} in {CG_MAXITER} iterations"
    )


def cell_residual(coeff: CoefficientField, u: PeriodicField,
                  F: PeriodicField | None = None,
                  G: PeriodicField | None = None) -> float:
    """H^-1 norm of div(a grad u + F) + G, the weak residual of solve_cell."""
    r = -_apply_operator(coeff, u.values)
    if F is not None:
        r = r + div_y(F).values
    if G is not None:
        n = coeff.grid.modes_per_axis
        r = r + _resample(G.values - G.mean(), n, n)
    return hminus1_norm(PeriodicField(coeff.grid, r - r.mean()))


def solve_flux_corrector(g: PeriodicField) -> PeriodicField:
    """Skew stream matrix s with -lap s_ij = d_j g_i - d_i g_j and div s = g.

    Requires <g> = 0 and div g = 0 (weakly, H^-1 norm within 1e-10 of |g|).
    In d=1 the only skew matrix is zero, consistent with the flux difference
    vanishing identically there.
    """
    tol = 1e-10
    if g.rank != 1:
        raise GridMismatch("flux corrector source must be a vector field")
    grid = g.grid
    d = grid.dim
    gnorm = max(g.l2_norm(), 1e-300)
    gm = np.asarray(g.mean())
    if np.max(np.abs(gm)) > 1e-10 * max(gnorm, 1.0):
        raise NonZeroMean("g", float(np.max(np.abs(gm))))
    divnorm = hminus1_norm(div_y(g))
    if divnorm > tol * max(gnorm, 1.0):
        raise NotDivergenceFree(
            f"div g has H^-1 norm {divnorm:.3e} (limit {tol:.1e} * |g|)"
        )
    out = np.zeros((d, d) + grid.shape)
    if d == 1:
        return PeriodicField(grid, out)
    ks = grid.wavenumbers
    gh = [_rfft(g.values[i]) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            sh = (1j * ks[j] * gh[i] - 1j * ks[i] * gh[j]) / grid.k_squared
            sh.flat[0] = 0.0
            s = _irfft(sh, grid.modes_per_axis)
            out[i, j] = s
            out[j, i] = -s
    return PeriodicField(grid, out)
