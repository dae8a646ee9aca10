"""Polynomials in the slow variable x, stored as exponent -> coefficient maps.

These carry the potential W(x) and the x-dependence of the homogenized
coefficient tables.  Keeping them exact (no grid) is what makes the
high-order identity tests possible at the 1e-10 level.
"""

from __future__ import annotations

import numpy as np

# highest degree of a power that SlowPolynomial.__pow__ forms
POLY_DEGREE_CAP = 8


class SlowPolynomial:
    """Real polynomial on R^d with a finite monomial table."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict | None = None):
        self.dim = dim
        self.coeffs = {}
        if coeffs:
            for alpha, c in coeffs.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != dim or any(a < 0 for a in alpha):
                    raise ValueError(f"bad exponent {alpha} for dim {dim}")
                if c != 0.0:
                    self.coeffs[alpha] = self.coeffs.get(alpha, 0.0) + float(c)

    # --- constructors ---

    @classmethod
    def constant(cls, dim: int, value: float) -> "SlowPolynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "SlowPolynomial":
        return cls(dim, {unit_index(dim, axis): 1.0})

    # --- queries ---

    def degree(self) -> int:
        return max((sum(a) for a in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs.values())

    def constant_term(self) -> float:
        return self.coeffs.get((0,) * self.dim, 0.0)

    def quadratic_form(self) -> np.ndarray:
        """Matrix Q of the degree-2 homogeneous part, x.Qx convention."""
        Q = np.zeros((self.dim, self.dim))
        for alpha, c in self.coeffs.items():
            if sum(alpha) != 2:
                continue
            idx = [i for i, a in enumerate(alpha) for _ in range(a)]
            i, j = idx
            if i == j:
                Q[i, i] += c
            else:
                Q[i, j] += c / 2.0
                Q[j, i] += c / 2.0
        return Q

    def axis_parts(self) -> list | None:
        """The 1D polynomials W_k(x_k), one per axis, that sum to W, the
        constant term on axis 0; None when a monomial mixes axes."""
        parts = [{} for _ in range(self.dim)]
        for alpha, c in self.coeffs.items():
            axes = [ax for ax, p in enumerate(alpha) if p] or [0]
            if len(axes) > 1:
                return None
            parts[axes[0]][(alpha[axes[0]],)] = c
        return [SlowPolynomial(1, part) for part in parts]

    # --- algebra ---

    def __add__(self, other) -> "SlowPolynomial":
        if isinstance(other, (int, float)):
            other = SlowPolynomial.constant(self.dim, float(other))
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return SlowPolynomial(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other) -> "SlowPolynomial":
        return self + (other * -1.0)

    def __rsub__(self, other):
        return (self * -1.0) + other

    def __mul__(self, other):
        if isinstance(other, SlowPolynomial):
            out = {}
            for a, ca in self.coeffs.items():
                for b, cb in other.coeffs.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    out[key] = out.get(key, 0.0) + ca * cb
            return SlowPolynomial(self.dim, out)
        return SlowPolynomial(
            self.dim, {a: c * float(other) for a, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __pos__(self):
        return self * 1.0

    def __neg__(self):
        return self * -1.0

    def __pow__(self, p: int):
        if not isinstance(p, int) or p < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        # refused before any product: x**1000000 would take seconds to form
        if self.degree() * p > POLY_DEGREE_CAP:
            raise ArithmeticError(f"degree {self.degree() * p} of the power "
                                  f"exceeds cap {POLY_DEGREE_CAP}")
        out = SlowPolynomial.constant(self.dim, 1.0)
        for _ in range(p):
            out = out * self
        return out

    def prune(self) -> "SlowPolynomial":
        """The polynomial without its coefficients of magnitude 1e-16 or
        less."""
        return SlowPolynomial(
            self.dim, {a: c for a, c in self.coeffs.items() if abs(c) > 1e-16}
        )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (m, d)."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[0])
        for alpha, c in self.coeffs.items():
            term = np.full(pts.shape[0], c)
            for ax, p in enumerate(alpha):
                if p:
                    term = term * pts[:, ax] ** p
            out += term
        return out


def unit_index(d: int, *axes: int) -> tuple:
    """The multi-index e_axes[0] + e_axes[1] + ... in d dimensions."""
    return tuple(axes.count(ax) for ax in range(d))


def monomials_of_degree(dim: int, m: int) -> list:
    """All exponent tuples alpha with |alpha| = m, lexicographic order."""
    if dim == 1:
        return [(m,)]
    return [(m - j, j) for j in range(m + 1)]

