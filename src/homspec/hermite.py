"""The macroscopic function space on R^d.

Functions are expanded in tensorized Hermite functions psi_n(x/sigma)/sqrt(sigma)
(orthonormal in L2).  Position and derivative act through the ladder
recurrences

    x   psi_n = sigma  (sqrt((n+1)/2) psi_{n+1} + sqrt(n/2) psi_{n-1})
    d/dx psi_n = (1/sigma)(sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1})

so multiplication by a polynomial and -div(abar grad) + W are banded.  All
operator blocks are exact Galerkin matrices: products of ladder matrices are
formed on an extended index range and then truncated, so for the matched
oscillator the assembled matrix is exactly diagonal.

Integrals of (polynomial) x (basis function products) are evaluated with
Gauss-Hermite quadrature, which is exact for such integrands; this is what
the correction hierarchy's solvability integrals use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    GapUnresolved,
    NonConfining,
    NotOrthogonal,
    NumericalError,
    TruncationUnsafe,
)
from .slowpoly import SlowPolynomial
from .torus import SAMPLE_BLOCK, tensor_contract, tensor_rows

CLUSTER_TOL = 1e-6      # relative gap below which eigenvalues form one cluster
POLY_DEGREE_CAP = 8     # highest potential degree poly_multiply_op accepts
ORTHO_TOL = 1e-10       # resolvent_solve: allowed relative cluster projection
QUAD_EXTRA_NODES = 16   # Gauss-Hermite nodes per axis past the extended basis


@dataclass(frozen=True)
class MacroBasis:
    """Tensorized Hermite-function basis: size^dim functions of scale sigma."""

    dim: int
    size: int
    sigma: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.size < 8:
            raise ValueError("basis size must be >= 8 per axis")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @property
    def total(self) -> int:
        return self.size ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.size,) * self.dim


def default_sigma(abar: np.ndarray, W: SlowPolynomial) -> float:
    """Scale matching the ground-state width of the quadratic part of W.

    sigma = (det abar / det Q)^(1/(4d)); for -c u'' + w x^2 u this is
    (c/w)^(1/4), the exact oscillator width.
    """
    abar = np.atleast_2d(np.asarray(abar, dtype=float))
    d = abar.shape[0]
    Q = W.quadratic_form()
    det_q = float(np.linalg.det(Q))
    det_a = float(np.linalg.det(abar))
    if det_q <= 0:
        raise NonConfining("potential has no positive quadratic part")
    return float((det_a / det_q) ** (1.0 / (4 * d)))


# --- per-axis ladder matrices -------------------------------------------------


@lru_cache(maxsize=None)
def _xop(n: int) -> np.ndarray:
    m = np.arange(1, n)
    X = np.zeros((n, n))
    X[m - 1, m] = X[m, m - 1] = np.sqrt(m / 2.0)
    return X


@lru_cache(maxsize=None)
def _dop(n: int) -> np.ndarray:
    m = np.arange(1, n)
    D = np.zeros((n, n))
    D[m - 1, m] = np.sqrt(m / 2.0)
    D[m, m - 1] = -np.sqrt(m / 2.0)
    return D


def _axis_x_power(N: int, p: int, sigma: float) -> np.ndarray:
    """Exact Galerkin matrix of multiplication by x^p, N x N."""
    if p == 0:
        return np.eye(N)
    X = _xop(N + p)
    M = np.linalg.matrix_power(X, p)[:N, :N]
    # a float64 power overflows to inf where a Python float power raises
    return (np.float64(sigma) ** p) * M


def _axis_kinetic(N: int, sigma: float) -> np.ndarray:
    """Exact <psi_m', psi_n'>, N x N."""
    D = _dop(N + 2)
    return (D.T @ D)[:N, :N] / np.float64(sigma) ** 2


@lru_cache(maxsize=None)
def _lift(N: int, Ne: int, order: int, sigma: float) -> np.ndarray:
    """Ne x N matrix taking the coefficients of f on N modes to those of
    its order-th derivative on Ne modes; exact when Ne >= N + order.  Ne = N
    gives the Galerkin block <psi_m, d^order psi_n>.  Cached, so read-only."""
    lift = np.linalg.matrix_power(_dop(Ne), order)[:, :N] / sigma ** order
    lift.flags.writeable = False
    return lift


def _kron_chain(blocks: list) -> np.ndarray:
    out = blocks[0]
    for b in blocks[1:]:
        out = np.kron(out, b)
    return out


def poly_multiply_op(W: SlowPolynomial, basis: MacroBasis) -> np.ndarray:
    """Galerkin matrix of multiplication by a polynomial, exact on the basis."""
    from .errors import DegreeCapExceeded
    if W.degree() > POLY_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"polynomial degree {W.degree()} exceeds cap {POLY_DEGREE_CAP}"
        )
    N, d = basis.size, basis.dim
    out = np.zeros((basis.total, basis.total))
    for alpha, c in W.coeffs.items():
        blocks = [_axis_x_power(N, alpha[ax], basis.sigma) for ax in range(d)]
        out += c * _kron_chain(blocks)
    return out


def assemble_L0(abar: np.ndarray, W: SlowPolynomial,
                basis: MacroBasis) -> np.ndarray:
    """Symmetric Galerkin matrix of -div(abar grad) + W.

    Requires W of degree exactly 2 with positive definite quadratic part
    (the confining hypothesis); raises NonConfining otherwise.
    """
    abar = np.atleast_2d(np.asarray(abar, dtype=float))
    d = basis.dim
    if abar.shape != (d, d):
        raise ValueError(f"abar must be {d}x{d}")
    if W.dim != d:
        raise ValueError("potential dimension mismatch")
    if W.degree() != 2:
        raise NonConfining(f"potential degree {W.degree()}, need exactly 2")
    Q = W.quadratic_form()
    if np.any(np.linalg.eigvalsh(Q) <= 0):
        raise NonConfining("quadratic part of the potential is not positive definite")

    N = basis.size
    L = poly_multiply_op(W, basis)
    for i in range(d):
        for j in range(d):
            if abar[i, j] == 0.0:
                continue
            if i == j:
                blocks = [np.eye(N)] * d
                blocks[i] = _axis_kinetic(N, basis.sigma)
            else:
                blocks = [np.eye(N)] * d
                blocks[i] = _lift(N, N, 1, basis.sigma).T
                blocks[j] = _lift(N, N, 1, basis.sigma)
            L += abar[i, j] * _kron_chain(blocks)
    return 0.5 * (L + L.T)


# --- functions -----------------------------------------------------------------


def hermite_function_values(x: np.ndarray, nmax: int, sigma: float) -> np.ndarray:
    """Matrix of psi_n(x/sigma)/sqrt(sigma) for n < nmax, shape (len(x), nmax).

    Stable recurrence with the Gaussian folded in; values underflow to zero
    gracefully far in the tails.  The recurrence runs along the contiguous
    rows of a transposed block of SAMPLE_BLOCK points, which is then copied
    into the table.
    """
    z = np.ravel(np.asarray(x, dtype=float)) / sigma
    out = np.empty((z.size, nmax))
    for start in range(0, z.size, SAMPLE_BLOCK):
        zb = z[start:start + SAMPLE_BLOCK]
        rows = np.empty((nmax, zb.size))
        rows[0] = np.pi ** -0.25 * np.exp(-0.5 * zb ** 2) / np.sqrt(sigma)
        if nmax > 1:
            rows[1] = np.sqrt(2.0) * zb * rows[0]
        for n in range(1, nmax - 1):
            rows[n + 1] = (np.sqrt(2.0 / (n + 1)) * zb * rows[n]
                           - np.sqrt(n / (n + 1.0)) * rows[n - 1])
        out[start:start + SAMPLE_BLOCK] = rows.T
    return out


class MacroFunction:
    """Element of the macroscopic space: coefficient vector over a MacroBasis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: MacroBasis, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if coeffs.size != basis.total:
            raise ValueError("coefficient length does not match basis")
        self.basis = basis
        self.coeffs = coeffs

    @classmethod
    def zero(cls, basis: MacroBasis) -> "MacroFunction":
        return cls(basis, np.zeros(basis.total))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "MacroFunction") -> float:
        return float(np.dot(self.coeffs, other.coeffs))

    def __add__(self, other):
        return MacroFunction(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return MacroFunction(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, s: float):
        return MacroFunction(self.basis, self.coeffs * float(s))

    __rmul__ = __mul__

    def __neg__(self):
        return MacroFunction(self.basis, -self.coeffs)

    def evaluate(self, points: np.ndarray,
                 alpha: tuple | None = None) -> np.ndarray:
        """Values of d^alpha(self) at points (m, d); exact derivative route.

        To evaluate many functions or derivatives at one point set, build a
        HermiteSampler once.
        """
        alpha = tuple(alpha) if alpha is not None else (0,) * self.basis.dim
        return HermiteSampler(self.basis, points, sum(alpha))(self, alpha)


class HermiteSampler:
    """Derivatives of functions on one MacroBasis at one fixed point set.

    Point p has coordinate ``points[index[ax][p], ax]`` on axis ax; without
    ``index`` it is row p of ``points``.  Holds one hermite_function_values
    table per axis, built on the rows of ``points``, with basis.size +
    max_order columns.  The recurrence fills columns left to right, so the
    first Ne columns equal the table built for Ne alone, bit for bit.
    """

    __slots__ = ("basis", "max_order", "tables", "index")

    def __init__(self, basis: MacroBasis, points: np.ndarray, max_order: int,
                 index: list | None = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != basis.dim:
            raise ValueError("points must have d columns")
        self.basis = basis
        self.max_order = max_order
        self.tables = [hermite_function_values(pts[:, ax],
                                               basis.size + max_order,
                                               basis.sigma)
                       for ax in range(basis.dim)]
        self.index = index

    def __call__(self, f: MacroFunction,
                 alpha: tuple | None = None) -> np.ndarray:
        """Values of d^alpha f at the sampler's points.

        The coefficients are lifted to an extended basis before applying the
        ladder derivative, so no derivative content is lost to truncation.
        """
        d = self.basis.dim
        alpha = tuple(alpha) if alpha is not None else (0,) * d
        order = sum(alpha)
        if order > self.max_order:
            raise ValueError(f"derivative order {order} exceeds the sampler's "
                             f"max_order {self.max_order}")
        if f.basis != self.basis:
            raise ValueError("function lives on a different basis")
        Ne = self.basis.size + order
        core = extended_coefficients(f, alpha, Ne)
        # subnormal coefficients (rounding residue of exact zeros, such as
        # the off-parity modes of an oscillator eigenvector) add nothing a
        # double can hold to the normal terms, but slow the BLAS product
        # over every point several times over
        core[np.abs(core) < np.finfo(float).tiny] = 0.0
        return tensor_contract([t[:, :Ne] for t in self.tables], core,
                               self.index)


def extended_coefficients(f: MacroFunction, alpha: tuple, Ne: int) -> np.ndarray:
    """Coefficients of d^alpha f in the basis extended to Ne modes per axis."""
    c = f.coeffs.reshape(f.basis.shape)
    for ax in range(f.basis.dim):
        lift = _lift(f.basis.size, Ne, alpha[ax], f.basis.sigma)
        c = np.moveaxis(np.tensordot(lift, c, axes=(1, ax)), 0, ax)
    return c


# --- quadrature ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _gh_nodes(Q: int):
    z, w = np.polynomial.hermite.hermgauss(Q)
    logw = np.log(w)
    return z, np.exp(logw + z ** 2)


class QuadratureRule:
    """Gauss-Hermite rule exact for polynomial x (Gaussian-type) integrands.

    Handles integrals int p(x) f(x) g(x) dx with f, g in the (extended)
    basis and p polynomial: total polynomial degree up to 2Q-1 is exact.
    ``values(f, alpha)`` is d^alpha f at the nodes, flattened: a
    HermiteSampler on the nodes of derivatives up to n_ext - basis.size.
    """

    def __init__(self, basis: MacroBasis, n_ext: int):
        z, wmod = _gh_nodes(n_ext + QUAD_EXTRA_NODES)
        self.basis = basis
        self.x1 = basis.sigma * z
        self.w1 = basis.sigma * wmod
        self.index = tensor_rows(z.size, basis.dim)
        self.values = HermiteSampler(
            basis, np.repeat(self.x1[:, None], basis.dim, axis=1),
            n_ext - basis.size, self.index)

    def points(self) -> np.ndarray:
        """Physical quadrature nodes, (M, d)."""
        return np.stack([self.x1[r] for r in self.index], axis=1)

    def weights(self) -> np.ndarray:
        return np.prod([self.w1[r] for r in self.index], axis=0)

    def integrate(self, *factors) -> float:
        """Integral over R^d of a product of node-value arrays."""
        acc = self.weights()
        for v in factors:
            acc = acc * v
        return float(acc.sum())

    def project(self, values: np.ndarray, alpha: tuple | None = None) -> np.ndarray:
        """Coefficients <d^alpha psi_n, f> from node values of f.

        Used to Galerkin-project divergence-form right-hand sides by parts.
        The node values of d^alpha psi_n are the sampler's tables times the
        ladder lift, exact on the extended range.
        """
        b = self.basis
        alpha = tuple(alpha) if alpha is not None else (0,) * b.dim
        blocks = [t @ _lift(b.size, t.shape[1], k, b.sigma) * self.w1[:, None]
                  for t, k in zip(self.values.tables, alpha)]
        out = blocks[0].T @ values.reshape((self.x1.size,) * b.dim)
        for blk in blocks[1:]:
            out = out @ blk
        return out.ravel()


@lru_cache(maxsize=None)
def quadrature_for(basis: MacroBasis, max_derivative: int) -> QuadratureRule:
    return QuadratureRule(basis, basis.size + max_derivative)


# --- spectrum -------------------------------------------------------------------


@dataclass
class SpectrumResult:
    """Eigensolve output: leading eigenpairs plus the full decomposition.

    Eigenvalue indices in the public API are 1-based, matching the usual
    enumeration lambda_1 <= lambda_2 <= ... of the discrete spectrum.
    """

    basis: MacroBasis
    count: int
    eigenvalues: np.ndarray          # first `count`
    eigenfunctions: list             # MacroFunctions, orthonormal
    clusters: list                   # list of (start, stop) 0-based, half-open
    all_eigenvalues: np.ndarray = field(repr=False)
    all_vectors: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    def cluster_of(self, j: int) -> tuple:
        """Half-open 0-based index range of the cluster containing lambda_j."""
        i = j - 1
        if i < 0 or i >= self.count:
            raise IndexError(f"eigenvalue index {j} out of computed range")
        for (a, b) in self.clusters:
            if a <= i < b:
                return (a, b)
        raise IndexError("cluster table inconsistent")

    def eigenvalue(self, j: int) -> float:
        return float(self.eigenvalues[j - 1])

    def eigenfunction(self, j: int) -> MacroFunction:
        return self.eigenfunctions[j - 1]


def _cluster_indices(vals: np.ndarray, tol: float) -> list:
    clusters = []
    start = 0
    for i in range(1, len(vals)):
        scale = max(abs(vals[i]), abs(vals[start]), 1.0)
        if vals[i] - vals[i - 1] > tol * scale:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(vals)))
    return clusters


def eigensolve(L0: np.ndarray, count: int, basis: MacroBasis) -> SpectrumResult:
    """Dense symmetric eigensolve of the assembled operator.

    count is capped at total/4 so the reported part of the spectrum stays
    well inside the basis trust region.
    """
    if count < 1 or count > basis.total // 4:
        raise TruncationUnsafe(
            f"count {count} outside the safe range [1, {basis.total // 4}]"
        )
    vals, vecs = np.linalg.eigh(L0)
    # deterministic sign convention: largest-magnitude coefficient positive
    for k in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[i, k] < 0:
            vecs[:, k] = -vecs[:, k]
    funcs = [MacroFunction(basis, vecs[:, k]) for k in range(count)]
    clusters = _cluster_indices(vals[:count], CLUSTER_TOL)
    return SpectrumResult(
        basis=basis, count=count,
        eigenvalues=vals[:count].copy(), eigenfunctions=funcs,
        clusters=clusters,
        all_eigenvalues=vals, all_vectors=vecs, matrix=L0,
    )


def solve_spectrum(abar: np.ndarray, W: SlowPolynomial, basis: MacroBasis,
                   count: int) -> SpectrumResult:
    """Assemble L0 and eigensolve.

    Raises NumericalError when L0 has a non-finite entry, as a sigma that
    is infinite or far from the oscillator width gives (MacroBasis refuses
    a sigma that is not positive).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        L0 = assemble_L0(abar, W, basis)
    if not np.all(np.isfinite(L0)):
        raise NumericalError(f"L0 has non-finite entries at Hermite scale "
                             f"sigma = {basis.sigma!r}")
    return eigensolve(L0, count, basis)


def spectral_gap(spec: SpectrumResult, j: int) -> float:
    """Distance from lambda_j to the nearest distinct eigenvalue.

    Numerically coincident copies inside lambda_j's cluster do not count.
    Raises GapUnresolved when lambda_j's cluster touches the end of the
    computed range, because the upper neighbor is then unknown.
    """
    a, b = spec.cluster_of(j)
    lam = spec.eigenvalue(j)
    if b >= spec.count:
        raise GapUnresolved(
            f"cluster of eigenvalue {j} reaches the last computed index"
        )
    gap = spec.eigenvalues[b] - lam
    if a > 0:
        gap = min(gap, lam - spec.eigenvalues[a - 1])
    return float(gap)


def resolvent_solve(spec: SpectrumResult, j: int,
                    f: MacroFunction) -> MacroFunction:
    """Solve (L0 - lambda_j) u = f through the spectral sum, u: cluster-orthogonal.

    f must be orthogonal to the whole lambda_j eigenspace (cluster); raises
    NotOrthogonal with the offending projection magnitude otherwise.
    """
    a, b = spec.cluster_of(j)
    lam = spec.eigenvalue(j)
    fn = np.linalg.norm(f.coeffs)
    if fn == 0.0:
        return MacroFunction.zero(spec.basis)
    proj = spec.all_vectors[:, a:b].T @ f.coeffs
    pmag = float(np.linalg.norm(proj))
    if pmag > ORTHO_TOL * fn:
        raise NotOrthogonal(pmag / fn)
    comps = spec.all_vectors.T @ f.coeffs
    denom = spec.all_eigenvalues - lam
    comps[a:b] = 0.0
    denom[a:b] = 1.0
    u = spec.all_vectors @ (comps / denom)
    return MacroFunction(spec.basis, u)
