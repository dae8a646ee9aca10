"""The recursive eigenvalue/eigenfunction correction hierarchy.

Starting from an eigenpair (lambda_0, U_0) of the homogenized operator, the
engine builds, level by level,

  * a table of correctors chi_{q,alpha,k}(x, y), fluxes f_{q,alpha,k} and
    homogenized coefficient vectors abar_{q,alpha,k}(x), indexed by order q,
    slow multi-index alpha, and envelope order k;
  * eigenvalue corrections mu_p and macroscopic envelopes U_p, obtained from
    the solvability of the macroscopic hierarchy

        (L0 - lambda_0) U_p = sum_k mu_{p-k} U_k
                              + div sum_{k,alpha} abar_{p+1-k,alpha,k} d^alpha U_k .

The corrector cell problem at (q, alpha, k) reads

    -div_y a grad_y chi_{q,alpha,k}
        = div_y(a grad_x chi_{q-1,alpha,k})
        + sum_j div_y(a e_j chi_{q-1,alpha-e_j,k})
        + grad_x . ring(f_{q-1,alpha,k}) + sum_i ring(f_{q-1,alpha-e_i,k})_i
        - W(x) ring(chi_{q-2,alpha,k})
        + sum_{r=|alpha|}^{q-2} mu_{q-2-r} ring(chi_{r,alpha,k}),

with f_{q,alpha,k} = a grad_x chi_{q-1,alpha,k} + sum_j a e_j chi_{q-1,alpha-e_j,k}
+ a grad_y chi_{q,alpha,k} and abar = <f>.  The equations never couple
different k (after shifting the correction index the data is k-free), so the
table stores one entry per (q, alpha) and mu prefix and serves every k.

For an eigenvalue of multiplicity N the branches are driven by the N x N
coupling matrix D built from the third-order table (equivalently from the
corrector covariance <chi1 chi1> weighted by W - lambda_0); its eigenpairs
fix the second-order splittings and the rotated envelope basis, and at later
levels the kernel components of the envelopes are recovered by restricted
inversion of (D - mu_2) in the solvability conditions.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateD,
    DegreeCapExceeded,
    EpsilonTooLarge,
    MeanNotZero,
    NotSimple,
    NumericalError,
    SolvabilityViolated,
)
from .hermite import (
    HermiteSampler,
    MacroFunction,
    QuadratureRule,
    SpectrumResult,
    quadrature_for,
    resolvent_solve,
    spectral_gap,
)
from .separable import PRUNE_TOL, SeparableField
from .slowpoly import SlowPolynomial, monomials_of_degree
from .torus import (CoefficientField, FourierSampler, PeriodicField,
                    cell_residual, l2_inner, solve_cell)

MU1_TOL = 1e-8
SOLVABILITY_TOL = 1e-8
D_DUAL_TOL = 1e-8
D_SPACING_TOL = 1e-6
DEGREE_CAP = 8          # highest slow degree of a corrector entry


def _sub(alpha: tuple, axis: int) -> tuple:
    out = list(alpha)
    out[axis] -= 1
    return tuple(out)


class CorrectorTable:
    """Memoized (q, alpha) -> corrector / flux / homogenized-vector store.

    Holds a live reference to a mu list; entries at order q with |alpha| = m
    read mu_0 .. mu_{q-2-m}, which the level driver guarantees to have
    appended before they are requested.  Entries are keyed on (q, alpha)
    plus that mu prefix, and every table that ``fork`` makes shares one
    store.  The homogenize stage creates it with mu = [], which serves the
    classical q <= 2 entries (they read no mu); each branch forks it with
    mu_0 = lambda_0, and the branches of a cluster agree on mu_0 and
    mu_1 = 0, so each cell problem is solved once.  Equal sources of
    different entries or slow monomials share one solve.
    """

    def __init__(self, coeff: CoefficientField, W: SlowPolynomial, mu: list,
                 tol: float):
        self.coeff = coeff
        self.W = W
        self.mu = mu
        self.grid = coeff.grid
        self.d = coeff.grid.dim
        self.tol = tol
        self._chi: dict = {}
        self._flux: dict = {}
        self._abar: dict = {}
        self._cells: dict = {}      # (F or G, source bytes) -> (solution, residual)
        self.residuals: dict = {}
        self.rhs_means: dict = {}

    def fork(self, mu0: float) -> CorrectorTable:
        """A table for one branch: the same store, with its own mu = [mu0]."""
        twin = copy.copy(self)
        twin.mu = [mu0]
        return twin

    # --- public accessors ---

    def chi(self, q: int, alpha: tuple) -> SeparableField:
        if not any(alpha):
            return (SeparableField.one(self.grid) if q == 0
                    else SeparableField.zero(self.grid))
        return self._memo(self._chi, self._solve_chi, q, alpha,
                          lambda: SeparableField.zero(self.grid))

    def flux(self, q: int, alpha: tuple) -> list:
        return self._memo(self._flux, self._build_flux, q, alpha, lambda: [
            SeparableField.zero(self.grid) for _ in range(self.d)])

    def abar(self, q: int, alpha: tuple) -> list:
        return self._memo(self._abar, self._build_abar, q, alpha, lambda: [
            SlowPolynomial.zero(self.d) for _ in range(self.d)])

    # --- construction ---

    def _key(self, q: int, alpha: tuple) -> tuple:
        need = q - 1 - sum(alpha)
        if need > len(self.mu):
            raise RuntimeError(
                f"corrector ({q},{alpha}) needs mu_0..mu_{need - 1}, "
                f"have {len(self.mu)}"
            )
        return (q, alpha, tuple(self.mu[:max(need, 0)]))

    def _memo(self, store: dict, build, q: int, alpha: tuple, zero):
        """store[(q, alpha, mu prefix)], built on first use; zero() off range."""
        alpha = tuple(int(a) for a in alpha)
        if q < 0 or min(alpha) < 0 or sum(alpha) > q:
            return zero()
        key = self._key(q, alpha)
        if key not in store:
            store[key] = build(q, alpha)
        return store[key]

    def _solve_chi(self, q: int, alpha: tuple) -> SeparableField:
        key = self._key(q, alpha)
        if q == 1:
            axis = alpha.index(1)
            col = PeriodicField(self.grid, self.coeff.a.values[:, axis])
            u, self.residuals[key] = self._cell(F=col, G=None)
            return SeparableField.from_periodic(u)
        rhs = self._rhs(q, alpha)
        out = SeparableField.zero(self.grid)
        worst_mean = 0.0
        worst_res = 0.0
        scale = max(rhs.max_norm(), 1.0)
        for beta, shape in rhs.terms.items():
            mval = abs(shape.mean())
            worst_mean = max(worst_mean, mval)
            if mval > 1e-10 * scale:
                raise MeanNotZero((q, alpha, beta), mval)
            if shape.l2_norm() <= PRUNE_TOL * scale:
                continue
            # equal sources under different slow monomials (W = x1^2 + x2^2
            # puts one shape under x1^2 and x2^2) are solved once per store
            u, res = self._cell(F=None, G=shape.mean_zero())
            worst_res = max(worst_res, res)
            out._accumulate(beta, u)
        self.rhs_means[key] = worst_mean
        self.residuals[key] = worst_res
        return out.purge()

    def _cell(self, F: PeriodicField | None,
              G: PeriodicField | None) -> tuple:
        """(solution, residual) of the cell problem with the one source F or
        G that is not None; each distinct source is solved once per store."""
        kind, source = ("F", F) if G is None else ("G", G)
        key = (kind, source.values.tobytes())
        if key not in self._cells:
            u = solve_cell(self.coeff, F=F, G=G, tol=self.tol)
            self._cells[key] = (u, cell_residual(self.coeff, u, F=F, G=G))
        return self._cells[key]

    def _slow_vector(self, q: int, alpha: tuple) -> list:
        """grad_x chi_{q-1,alpha} + sum_j e_j chi_{q-1,alpha-e_j}, the part of
        the order-q flux before a grad_y chi_{q,alpha}, one field per axis."""
        c_prev = self.chi(q - 1, alpha)
        return [c_prev.dx(j) + self.chi(q - 1, _sub(alpha, j))
                for j in range(self.d)]

    def _times_a(self, v: list) -> list:
        """a v for a vector of d separable fields: one multiply per slow
        monomial."""
        zero = PeriodicField.zeros(self.grid)
        out = [SeparableField.zero(self.grid) for _ in range(self.d)]
        for beta in dict.fromkeys(b for vj in v for b in vj.terms):
            av = self.coeff.multiply(PeriodicField(self.grid, np.stack(
                [vj.terms.get(beta, zero).values for vj in v])))
            for i in range(self.d):
                out[i]._accumulate(beta, av.component(i))
        return out

    def _rhs(self, q: int, alpha: tuple) -> SeparableField:
        m = sum(alpha)
        rhs = SeparableField.zero(self.grid)
        for i, f in enumerate(self._times_a(self._slow_vector(q, alpha))):
            rhs = rhs + f.dy(i)
        f_same = self.flux(q - 1, alpha)
        for i in range(self.d):
            rhs = rhs + f_same[i].ring().dx(i)
        for i in range(self.d):
            if alpha[i] == 0:
                continue
            rhs = rhs + self.flux(q - 1, _sub(alpha, i))[i].ring()
        c_ww = self.chi(q - 2, alpha).ring()
        if not c_ww.is_zero():
            w_chi = c_ww.mul_poly(self.W)
            if w_chi.degree() > DEGREE_CAP:
                raise DegreeCapExceeded(f"slow degree {w_chi.degree()} "
                                        f"exceeds cap {DEGREE_CAP}")
            rhs = rhs - w_chi
        for r in range(m, q - 1):
            cr = self.chi(r, alpha).ring()
            if not cr.is_zero():
                rhs = rhs + float(self.mu[q - 2 - r]) * cr
        return rhs.purge()

    def _build_flux(self, q: int, alpha: tuple) -> list:
        """a (grad_x chi_{q-1,alpha} + sum_j e_j chi_{q-1,alpha-e_j}
        + grad_y chi_{q,alpha})."""
        c_cur = self.chi(q, alpha)
        v = [vj + c_cur.dy(j)
             for j, vj in enumerate(self._slow_vector(q, alpha))]
        return [f.purge() for f in self._times_a(v)]

    def _build_abar(self, q: int, alpha: tuple) -> list:
        return [f.y_mean().prune(1e-16) for f in self.flux(q, alpha)]

    def cell_solves(self) -> int:
        """Cell problems solved by this store and every table forked from it."""
        return len(self._cells)

    def max_cell_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def max_rhs_mean(self) -> float:
        return max(self.rhs_means.values(), default=0.0)

    def max_chi_mean(self) -> float:
        """Largest |<chi_{q,alpha}>| over stored entries with (q,alpha) != 0."""
        return max((chi.max_shape_mean() for chi in self._chi.values()),
                   default=0.0)


@dataclass
class ExpansionBranch:
    """One eigenvalue branch: corrections mu_p, envelopes U_p, and the table."""

    label: int                      # branch index r within the cluster
    j: int                          # 1-based index of the cluster's first eigenvalue
    lambda0: float
    gamma: float
    P: int
    mu: list
    U: list
    table: CorrectorTable
    spectrum: SpectrumResult
    cluster: tuple
    D: np.ndarray | None = None
    E: np.ndarray | None = None
    mu1_computed: float = 0.0       # solvability value before snapping to 0
    alphas: dict = field(default_factory=dict)   # level -> kernel coefficients
    hierarchy_residuals: dict = field(default_factory=dict)
    solvability_residuals: dict = field(default_factory=dict)

    @property
    def cluster_size(self) -> int:
        return self.cluster[1] - self.cluster[0]

    def mu1_magnitude(self) -> float:
        """|mu_1| as computed from the solvability integral (before snapping)."""
        if self.mu1_computed != 0.0:
            return abs(self.mu1_computed)
        return abs(self.mu[1]) if len(self.mu) > 1 else 0.0


# --- macroscopic level machinery ---------------------------------------------


def _div_sources(table: CorrectorTable, U: list, K: int,
                 quad: QuadratureRule) -> list:
    """Node values of H_i = sum_{k<=K-2} sum_{1<=m<=K-k} abar_{K-k,alpha,k}[i] d^alpha U_k."""
    d = table.d
    pts = quad.points()
    H = [np.zeros(pts.shape[0]) for _ in range(d)]
    for k in range(0, K - 1):
        if k >= len(U) or U[k].norm() == 0.0:
            continue
        q = K - k
        for m in range(1, q + 1):
            for alpha in monomials_of_degree(d, m):
                ab = table.abar(q, alpha)
                if all(p.is_zero() for p in ab):
                    continue
                du = quad.values(U[k], alpha)
                for i in range(d):
                    if ab[i].is_zero():
                        continue
                    H[i] += ab[i](pts) * du
    return H


def _macro_rhs_parts(table: CorrectorTable, U: list, K: int,
                     quad: QuadratureRule) -> np.ndarray:
    """Galerkin coefficients of div H (by parts: -<grad psi_n, H>)."""
    H = _div_sources(table, U, K, quad)
    out = np.zeros(U[0].basis.total)
    d = table.d
    for i in range(d):
        e_i = tuple(1 if ax == i else 0 for ax in range(d))
        out -= quad.project(H[i], e_i)
    return out


def choose_P(eps: float, lam0: float, gamma: float, c: float,
             mu: list | None = None) -> int:
    """Truncation order floor(c log|log(eps lam^{3/2}/gamma)|), floored at 2.

    When the computed corrections are supplied, the order is additionally
    capped at the last p for which |eps^p mu_p| is still decreasing.
    """
    x = eps * lam0 ** 1.5 / gamma
    if x >= 1.0:
        raise EpsilonTooLarge(
            f"eps*lambda^(3/2)/gamma = {x:.3g} >= 1; truncation rule undefined"
        )
    raw = math.floor(c * math.log(abs(math.log(x))))
    P = max(2, raw)
    if mu is not None:
        prev = abs(eps ** 2 * mu[2]) if len(mu) > 2 else 0.0
        cap = 2
        for p in range(3, min(P, len(mu) - 1) + 1):
            cur = abs(eps ** p * mu[p])
            if prev > 0.0 and cur >= prev:
                break
            cap = p
            prev = max(cur, prev * 1e-16)
        P = min(P, max(2, cap))
    return P


def epsilon_condition_violated(eps: float, lam0: float, gamma: float) -> bool:
    return eps > gamma * lam0 ** -1.5


# --- the coupling matrix -------------------------------------------------------


def build_D_matrix(spec: SpectrumResult, j: int, table: CorrectorTable,
                   quad: QuadratureRule, spacing_tol: float = D_SPACING_TOL):
    """Second-order coupling matrix of the cluster containing lambda_j.

    The matrix is the cluster block of the second-order solvability operator,

        D[r, s] = sum_{1<=|alpha|<=3} int abar_{3,alpha,0} . grad phi_r
                                          d^alpha phi_s dx .

    Its gradient-gradient block (|alpha| = 1; the |alpha| = 2 block vanishes
    identically) is computed a second, independent way through the corrector
    covariance <chi1_i chi1_l> weighted by W - lambda_0, and the two must
    agree to D_DUAL_TOL relative.  The |alpha| = 3 block contracts the constant
    third-order-table vectors against third derivatives; dropping it is not
    an option, as the exactly separable laminate oracle shows it shifts the
    branch corrections at leading order.

    Returns the symmetrized matrix, its ascending eigenvalues, and the
    orthonormal row-eigenvector matrix E.  Raises DegenerateD when the
    eigenvalue spacing falls below spacing_tol (relative), which the branch
    construction assumes.
    """
    a, b = spec.cluster_of(j)
    N = b - a
    d = table.d
    mu0 = spec.eigenvalue(j)
    phis = spec.eigenfunctions[a:b]
    pts = quad.points()

    e_idx = [tuple(1 if ax == i else 0 for ax in range(d)) for i in range(d)]
    dphi = [[quad.values(phis[r], e_idx[i]) for i in range(d)] for r in range(N)]

    D1 = np.zeros((N, N))        # |alpha| <= 2 block, printed route
    G = np.zeros((N, N))         # |alpha| = 3 block
    for m in (1, 2, 3):
        for alpha in monomials_of_degree(d, m):
            ab = table.abar(3, alpha)
            if all(p.is_zero() for p in ab):
                continue
            vals_s = [quad.values(phis[s], alpha) if m > 1 else None
                      for s in range(N)]
            for l in range(d):
                if ab[l].is_zero():
                    continue
                poly = ab[l](pts)
                tgt = D1 if m <= 2 else G
                for r in range(N):
                    for s in range(N):
                        ds = dphi[s][alpha.index(1)] if m == 1 else vals_s[s]
                        tgt[r, s] += quad.integrate(poly, dphi[r][l], ds)

    cov = np.zeros((d, d))
    for i in range(d):
        chi_i = table.chi(1, e_idx[i]).terms[(0,) * d]
        for l in range(i, d):
            chi_l = table.chi(1, e_idx[l]).terms[(0,) * d]
            cov[i, l] = cov[l, i] = l2_inner(chi_i, chi_l)
    wvals = table.W(pts) - mu0
    D2 = np.zeros((N, N))
    for i in range(d):
        for l in range(d):
            if cov[i, l] == 0.0:
                continue
            for r in range(N):
                for s in range(N):
                    D2[r, s] += cov[i, l] * quad.integrate(
                        wvals, dphi[r][l], dphi[s][i]
                    )

    # natural magnitude of the cluster integrals, so that an identically
    # vanishing block still passes the agreement check
    scale = max(np.max(np.abs(D2)), np.max(np.abs(D1)), np.max(np.abs(G)),
                float(np.max(np.abs(cov))) * max(1.0, abs(mu0)), 1e-30)
    dual_gap = float(np.max(np.abs(D1 - D2))) / scale
    if dual_gap > D_DUAL_TOL:
        raise NumericalError(
            f"coupling-matrix routes disagree by {dual_gap:.3e} relative"
        )
    full = D1 + G
    sym_gap = float(np.max(np.abs(full - full.T))) / scale
    D = 0.5 * (full + full.T)
    mu2, vecs = np.linalg.eigh(D)
    E = vecs.T
    for r in range(N):
        i = int(np.argmax(np.abs(E[r])))
        if E[r, i] < 0:
            E[r] = -E[r]
    spacing = np.min(np.diff(mu2)) if N > 1 else np.inf
    rel_spacing = spacing / max(np.max(np.abs(mu2)), 1e-30)
    if N > 1 and rel_spacing < spacing_tol:
        raise DegenerateD(
            f"coupling matrix eigenvalue spacing {rel_spacing:.3e} relative; "
            "the branch construction assumes distinct eigenvalues"
        )
    info = {"dual_gap": dual_gap, "sym_gap": sym_gap,
            "spacing": float(rel_spacing if N > 1 else np.inf)}
    return D, E, [float(v) for v in mu2], info


# --- branch drivers -------------------------------------------------------------


def _level_rhs(table, U, mu, K, quad):
    """Coefficients of the level-K right-hand side with mu_{K-1} excluded."""
    coeffs = _macro_rhs_parts(table, U, K, quad)
    for k in range(1, K - 1):
        if mu[K - 1 - k] != 0.0 and U[k].norm() > 0.0:
            coeffs = coeffs + mu[K - 1 - k] * U[k].coeffs
    return coeffs


def _run_branch(table, spec, j, P, label, D, E, mu2_list) -> ExpansionBranch:
    """Shared level loop for a single branch (simple case: N = 1, E = [1]);
    ``table.mu`` is the branch's mu list, [lambda_0] on entry."""
    a, b = spec.cluster_of(j)
    N = b - a
    basis = spec.basis
    lam0 = spec.eigenvalue(j)
    gamma = spectral_gap(spec, j)
    quad = quadrature_for(basis, max_derivative=max(P + 2, 4))
    phis = spec.eigenfunctions[a:b]
    phi_mat = np.stack([p.coeffs for p in phis])         # (N, total)

    e_self = E[label]
    mu2_val = mu2_list[label] if N > 1 else None
    U0 = MacroFunction(basis, e_self @ phi_mat)
    mu = table.mu
    branch = ExpansionBranch(
        label=label, j=a + 1, lambda0=lam0, gamma=gamma, P=P,
        mu=mu, U=[U0], table=table, spectrum=spec, cluster=(a, b),
        D=D, E=E,
    )

    def solve_level(K):
        """RHS with mu_{K-1} excluded, plus its cluster projections."""
        coeffs = _level_rhs(table, branch.U, mu, K, quad)
        w_vec = phi_mat @ coeffs                          # <RHS(mu_{K-1}=0), phi_t>
        return coeffs, w_vec

    for K in range(2, P + 2):
        coeffs, w_vec = solve_level(K)
        mu_new = -float(np.dot(w_vec, e_self))
        if K == 3 and mu2_val is not None:
            # the coupling matrix defines mu_2; the solvability value must agree
            gap = abs(mu_new - mu2_val) / max(abs(mu2_val), 1e-12)
            branch.solvability_residuals[("mu2_vs_D", K)] = gap
            if gap > 100 * SOLVABILITY_TOL:
                raise NumericalError(
                    f"mu_2 from solvability ({mu_new:.6e}) disagrees with the "
                    f"coupling matrix ({mu2_val:.6e})"
                )
            mu_new = mu2_val
        mu.append(mu_new)

        if N > 1 and K >= 4:
            # recover the deferred kernel components of U_{K-3} by restricted
            # inversion of (D - mu_2) on the orthogonal complement of E[label]
            residual_vec = w_vec + mu_new * e_self
            alpha = np.zeros(N)
            for t in range(N):
                if t == label:
                    continue
                alpha += (np.dot(E[t], residual_vec) /
                          (mu2_list[t] - mu2_val)) * E[t]
            branch.alphas[K - 3] = alpha.copy()
            if np.linalg.norm(alpha) > 1e-14 * max(np.linalg.norm(w_vec), 1.0):
                branch.U[K - 3] = MacroFunction(
                    basis, branch.U[K - 3].coeffs + alpha @ phi_mat
                )
                # the level K-1 envelope was resolved against the stale
                # kernel part of U_{K-3}; re-resolve it before this level
                cs_prev = _level_rhs(table, branch.U, mu, K - 1, quad)
                cs_prev = cs_prev + mu[K - 2] * branch.U[0].coeffs
                rhs_prev = cs_prev - phi_mat.T @ (phi_mat @ cs_prev)
                branch.U[K - 2] = resolvent_solve(
                    spec, a + 1, MacroFunction(basis, rhs_prev)
                )
                coeffs, w_vec = solve_level(K)

        coeffs = coeffs + mu_new * branch.U[0].coeffs
        proj = phi_mat @ coeffs
        scale = max(float(np.linalg.norm(coeffs)), abs(mu_new), 1e-30)
        res = float(np.linalg.norm(proj)) / scale
        branch.solvability_residuals[K] = res
        if res > SOLVABILITY_TOL:
            raise SolvabilityViolated(K, label, res)
        rhs = MacroFunction(basis, coeffs - phi_mat.T @ proj)
        Unew = resolvent_solve(spec, a + 1, rhs)
        r = spec.matrix @ Unew.coeffs - lam0 * Unew.coeffs - rhs.coeffs
        r = r - phi_mat.T @ (phi_mat @ r)
        branch.hierarchy_residuals[K - 1] = float(
            np.linalg.norm(r) / max(np.linalg.norm(rhs.coeffs), 1e-30)
        )
        branch.U.append(Unew)

        if K == 2:
            tol = MU1_TOL * lam0 ** 1.5
            if abs(mu[1]) > tol:
                raise NumericalError(
                    f"first-order correction {mu[1]:.3e} exceeds "
                    f"{tol:.1e}; the cyclic cancellation failed"
                )
            _snap_first_order(branch)

    return branch


def _snap_first_order(branch: ExpansionBranch):
    """Replace the computed (tiny) mu_1 and U_1 by their proven zeros.

    The cyclic cancellation makes mu_1 = 0 and U_1 = 0 exactly; the computed
    values are solver noise at the 1e-13 level, and snapping keeps pure
    polynomial identities (such as the eps-scaling of lambda_tilde) exact.
    The measured magnitude remains available as mu1_computed.
    """
    if len(branch.mu) > 1:
        branch.mu1_computed = float(branch.mu[1])
        branch.mu[1] = 0.0
        branch.U[1] = MacroFunction.zero(branch.U[0].basis)


def simple_recursion(store: CorrectorTable, spec: SpectrumResult, j: int,
                     P: int) -> ExpansionBranch:
    """Correction hierarchy for a simple eigenvalue lambda_j, orders <= P,
    on a fork of the corrector store with mu_0 = lambda_j."""
    a, b = spec.cluster_of(j)
    if b - a != 1:
        raise NotSimple(
            f"eigenvalue {j} has cluster size {b - a}; use multiple_recursion"
        )
    if P < 2:
        raise ValueError("P must be at least 2")
    return _run_branch(store.fork(spec.eigenvalue(j)), spec, j, P, label=0,
                       D=None, E=np.array([[1.0]]), mu2_list=None)


def multiple_recursion(store: CorrectorTable, spec: SpectrumResult, j: int,
                       P: int) -> list:
    """All N branches of the cluster containing lambda_j, orders <= P.

    Each branch forks the corrector store with mu_0 = lambda_0; D is built
    on branch 0's table while its mu is [lambda_0]."""
    if P < 2:
        raise ValueError("P must be at least 2")
    lam0 = spec.eigenvalue(j)
    table = store.fork(lam0)
    quad = quadrature_for(spec.basis, max_derivative=max(P + 2, 4))
    D, E, mu2, _ = build_D_matrix(spec, j, table, quad)
    return [_run_branch(table if r == 0 else store.fork(lam0), spec, j, P,
                        label=r, D=D, E=E, mu2_list=mu2)
            for r in range(len(mu2))]


# --- assembly --------------------------------------------------------------------


@dataclass
class Assembly:
    """Samples of the expanded eigenfunction (and of its gradient, when
    asked for)."""

    w: np.ndarray
    grad_w: np.ndarray | None


def lambda_tilde(branch: ExpansionBranch, eps: float, P: int) -> float:
    return float(sum(eps ** p * branch.mu[p] for p in range(P + 1)))


def lambda_tilde_shift(branch: ExpansionBranch, eps: float, P: int) -> float:
    """lambda_tilde - lambda_0 summed directly (no cancellation against mu_0)."""
    return float(sum(eps ** p * branch.mu[p] for p in range(1, P + 1)))


def assemble(branch: ExpansionBranch, eps: float, points: np.ndarray, P: int,
             gradient: bool, sample_x: HermiteSampler,
             sample_y: FourierSampler) -> Assembly:
    """Assemble w_eps(x) = sum eps^p d^alpha U_k : chi(x, x/eps).

    The gradient is exact: spectral y-derivatives scaled by 1/eps plus slow
    x-derivatives of the polynomial factors and envelopes.  Every envelope
    derivative is sampled through ``sample_x``, a HermiteSampler of the
    branch's basis at ``points`` with max_order at least P + 1, and every
    corrector shape through ``sample_y``, a FourierSampler of the corrector
    grid at the fast variable ``points / eps`` (reduced mod 1 as the caller
    likes, such as on a lattice of phases).  Each envelope derivative and
    each corrector shape is sampled once per call.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if P > branch.P:
        raise ValueError(f"branch built to order {branch.P}, asked for {P}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = branch.table.d
    m = pts.shape[0]
    w = np.zeros(m)
    gw = np.zeros((d, m)) if gradient else None
    table = branch.table
    live = [k for k, Uk in enumerate(branch.U[:P + 1])
            if Uk is not None and Uk.norm() != 0.0]
    envelopes, shapes = {}, {}

    def envelope(Uk, alpha):
        if alpha not in envelopes:
            envelopes[alpha] = sample_x(Uk, alpha)
        return envelopes[alpha]

    def shape(q, alpha, last):
        # chi(q, alpha) and, with the gradient, its x- and y-derivative
        # along every axis (None where one vanishes); None when chi does.
        # Dropped on its last use
        if (q, alpha) not in shapes:
            chi = table.chi(q, alpha)
            shapes[q, alpha] = None if chi.is_zero() else (
                chi.eval_xy(pts, sample_y),
                [[None if f.is_zero() else f.eval_xy(pts, sample_y)
                  for f in (chi.dx(i), chi.dy(i))]
                 for i in range(d)] if gradient else None)
        return shapes.pop((q, alpha)) if last else shapes[q, alpha]

    for k in live:
        Uk = branch.U[k]
        envelopes.clear()
        for q in range(0, P + 1 - k):
            # no later order samples the shapes of order q
            last = not any(k < j <= P - q for j in live)
            for mm in range(0, q + 1):
                for alpha in monomials_of_degree(d, mm):
                    sampled = shape(q, alpha, last)
                    if sampled is None:
                        continue
                    cvals, derivs = sampled
                    scalef = eps ** (q + k)
                    du = envelope(Uk, alpha)
                    w += scalef * du * cvals
                    if not gradient:
                        continue
                    for i, (dxc, dyc) in enumerate(derivs):
                        e_i = tuple(1 if ax == i else 0 for ax in range(d))
                        a_up = tuple(x + y for x, y in zip(alpha, e_i))
                        gw[i] += scalef * envelope(Uk, a_up) * cvals
                        if dxc is not None:
                            gw[i] += scalef * du * dxc
                        if dyc is not None:
                            gw[i] += scalef / eps * du * dyc
    return Assembly(w, gw)
