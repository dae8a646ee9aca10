"""Slow-fast separable fields chi(x, y) = sum_beta x^beta * S_beta(y).

The higher-order correctors depend on the slow variable only through the
potential and its derivatives, so with a polynomial potential every entry of
the corrector table is a finite sum of (monomial in x) times (periodic field
in y).  Terms are stored keyed by the x-monomial, which canonicalizes sums
for free: adding fields merges coefficients, and independence of distinct
monomials lets the cell solver treat each periodic shape separately.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .slowpoly import SlowPolynomial
from .torus import FourierSampler, PeriodicField, TorusGrid, deriv_y

PRUNE_TOL = 1e-13       # relative norm below which shapes are dropped


class SeparableField:
    """Finite sum of x-monomial times periodic-in-y scalar shapes."""

    __slots__ = ("grid", "terms")

    def __init__(self, grid: TorusGrid, terms: dict | None = None):
        self.grid = grid
        self.terms = {}
        if terms:
            for beta, field in terms.items():
                beta = tuple(int(b) for b in beta)
                if len(beta) != grid.dim or any(b < 0 for b in beta):
                    raise ValueError(f"bad monomial {beta}")
                if field.rank != 0 or field.grid != grid:
                    raise GridMismatch("term shapes must be scalars on the grid")
                self._accumulate(beta, field)

    def _accumulate(self, beta: tuple, field: PeriodicField):
        if beta in self.terms:
            self.terms[beta] = self.terms[beta] + field
        else:
            self.terms[beta] = field

    # --- constructors ---

    @classmethod
    def one(cls, grid: TorusGrid) -> "SeparableField":
        return cls(grid, {(0,) * grid.dim: PeriodicField.constant(grid, 1.0)})

    @classmethod
    def from_periodic(cls, field: PeriodicField) -> "SeparableField":
        return cls(field.grid, {(0,) * field.grid.dim: field})

    # --- queries ---

    def is_zero(self) -> bool:
        return all(f.l2_norm() == 0.0 for f in self.terms.values())

    def degree(self) -> int:
        return max((sum(b) for b in self.terms), default=0)

    def max_norm(self) -> float:
        return max((f.l2_norm() for f in self.terms.values()), default=0.0)

    def purge(self) -> "SeparableField":
        """Drop shapes with norm below PRUNE_TOL relative to the largest."""
        scale = max(self.max_norm(), 1.0)
        kept = {b: f for b, f in self.terms.items()
                if f.l2_norm() > PRUNE_TOL * scale}
        return SeparableField(self.grid, kept)

    # --- algebra ---

    def __add__(self, other: "SeparableField") -> "SeparableField":
        if other.grid != self.grid:
            raise GridMismatch("separable fields on different grids")
        out = SeparableField(self.grid, dict(self.terms))
        for b, f in other.terms.items():
            out._accumulate(b, f)
        return out

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, s: float):
        return SeparableField(
            self.grid, {b: f * float(s) for b, f in self.terms.items()}
        )

    __rmul__ = __mul__

    def mul_poly(self, p: SlowPolynomial) -> "SeparableField":
        """Multiply by a slow polynomial."""
        out = SeparableField(self.grid)
        for bp, c in p.coeffs.items():
            for bt, f in self.terms.items():
                key = tuple(x + y for x, y in zip(bp, bt))
                out._accumulate(key, f * c)
        return out

    def dx(self, axis: int) -> "SeparableField":
        out = SeparableField(self.grid)
        for b, f in self.terms.items():
            if b[axis] == 0:
                continue
            nb = list(b)
            nb[axis] -= 1
            out._accumulate(tuple(nb), f * float(b[axis]))
        return out

    def dy(self, axis: int) -> "SeparableField":
        return SeparableField(
            self.grid, {b: deriv_y(f, axis) for b, f in self.terms.items()}
        )

    def y_mean(self) -> SlowPolynomial:
        """Mean over the torus as a polynomial in x."""
        return SlowPolynomial(
            self.grid.dim, {b: f.mean() for b, f in self.terms.items()}
        )

    def ring(self) -> "SeparableField":
        """Fluctuating part: subtract the y-mean of every shape."""
        return SeparableField(
            self.grid, {b: f.mean_zero() for b, f in self.terms.items()}
        )

    def max_shape_mean(self) -> float:
        """Largest |<S_beta>| over the stored monomials."""
        return max((abs(f.mean()) for f in self.terms.values()), default=0.0)

    # --- evaluation ---

    def sampler(self, sample: FourierSampler):
        """The field at points of ``sample``, a FourierSampler on this
        field's grid, as a function of (x_pts, blk): chi(x_i, y_i) for the
        points y_i at the slice blk of the sampler's points, x_pts their
        slow coordinates, (len, d).  Each shape's phase table is formed
        here, once, and read at every slice."""
        tables = [(b, sample.table(f)) for b, f in self.terms.items()]

        def at(x_pts: np.ndarray, blk: slice) -> np.ndarray:
            out = np.zeros(x_pts.shape[0])
            for b, table in tables:
                # the gather is a fresh array; no term's arrays outlive
                # its addition
                out += _times_monomial(sample.gather(table, blk), x_pts, b)
            return out

        return at


def _times_monomial(values: np.ndarray, x_pts: np.ndarray,
                    beta: tuple) -> np.ndarray:
    """values times the monomial x^beta at x_pts, in place: the x-powers are
    multiplied left to right and then into values, so each product rounds
    as in (x_1^beta_1 * x_2^beta_2) * values; the constant monomial leaves
    values as they are."""
    mono = None
    for ax, p in enumerate(beta):
        if p:
            power = x_pts[:, ax] ** p
            if mono is None:
                mono = power
            else:
                mono *= power
    if mono is not None:
        values *= mono
    return values
