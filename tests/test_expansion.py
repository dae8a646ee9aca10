"""Correction hierarchy: corrector table identities, mu/U recursion, branches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec.classical import build_suite
from homspec.config import parse_config
from homspec.errors import (
    DegenerateD,
    DegreeCapExceeded,
    EpsilonTooLarge,
    NotSimple,
)
from homspec.expansion import (
    CorrectorTable,
    assemble,
    build_D_matrix,
    choose_P,
    envelope_requests,
    lambda_tilde,
    lambda_tilde_shift,
    multiple_recursion,
    simple_recursion,
)
from homspec.hermite import (HermiteSampler, MacroBasis, default_sigma,
                             quadrature_for, solve_spectrum, spectral_gap)
from homspec.pipeline import stage_expand
from homspec.slowpoly import SlowPolynomial
from homspec.torus import CoefficientField, FourierSampler, TorusGrid, l2_inner

TWO_PI = 2.0 * np.pi


def w_iso(dim):
    if dim == 1:
        return SlowPolynomial(1, {(2,): 1.0})
    return SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})


def store(coeff, W, tol=1e-13):
    """The corrector store that the homogenize stage hands to expand."""
    return build_suite(coeff, W, tol=tol)[0]


def envelope_batch(branch, pts, P, gradient):
    """Every envelope derivative that assemble reads at pts, as one batch."""
    return HermiteSampler(branch.spectrum.basis, pts, P + 1).batch(
        [(branch.U[k], alpha)
         for k, alpha in envelope_requests(branch, P, gradient)])


def assemble_at(branch, eps, pts, P):
    """assemble with its gradient, sampling at pts through one Hermite batch
    and one Fourier basis."""
    return assemble(branch, eps, pts, P=P, gradient=True,
                    envelopes=envelope_batch(branch, pts, P, True),
                    sample_y=FourierSampler(branch.table.grid, pts / eps))


@pytest.fixture(scope="module")
def case_1d():
    """a = 2 + cos(2 pi y), W = x^2: the workhorse 1D problem."""
    grid = TorusGrid(1, 128)
    coeff = CoefficientField.from_isotropic(grid, lambda y: 2.0 + np.cos(TWO_PI * y))
    W = w_iso(1)
    abar = np.array([[np.sqrt(3.0)]])
    basis = MacroBasis(1, 48, default_sigma(abar, W))
    spec = solve_spectrum(abar, W, basis, 6)
    branch = simple_recursion(store(coeff, W), spec, 1, 4)
    return coeff, W, spec, branch


@pytest.fixture(scope="module")
def case_2d_laminate():
    """Normalized laminate: abar = I, exactly separable reference problem."""
    grid = TorusGrid(2, 64)
    coeff = CoefficientField.from_matrix(grid, [
        [lambda y1, y2: (2.0 + np.cos(TWO_PI * y1)) / np.sqrt(3.0), None],
        [None, lambda y1, y2: np.ones_like(y1)],
    ])
    W = w_iso(2)
    basis = MacroBasis(2, 20, 1.0)
    spec = solve_spectrum(np.eye(2), W, basis, 8)
    return coeff, W, spec


class TestCorrectorTable:
    def test_base_conventions(self, case_1d):
        coeff, W, spec, branch = case_1d
        t = branch.table
        assert t.chi(0, (0,)).terms[(0,)].mean() == 1.0
        assert t.chi(1, (0,)).is_zero()
        assert t.chi(2, (3,)).is_zero()          # m > q
        assert t.chi(-1, (0,)).is_zero()
        assert t.chi(2, (1,)).is_zero()          # abar_{2,1,k} = 0 level
        assert all(p.is_zero() for p in t.abar(2, (1,)))

    def test_chi1_matches_classical(self, case_2d_laminate, ordered_pairs):
        coeff, W, spec = case_2d_laminate
        chi1, _, _ = ordered_pairs(coeff, 1e-13)
        _, abar, _ = build_suite(coeff, W, tol=1e-13)
        table = CorrectorTable(coeff, W, [spec.eigenvalue(1)], tol=1e-13)
        for k, alpha in enumerate([(1, 0), (0, 1)]):
            chi = table.chi(1, alpha)
            diff = chi.terms[(0, 0)] - chi1[k]
            assert diff.l2_norm() < 1e-12
        # abar_{1,e_j,k} = abar e_j
        for k, alpha in enumerate([(1, 0), (0, 1)]):
            ab = table.abar(1, alpha)
            vec = np.array([p.constant_term() for p in ab])
            assert np.allclose(vec, abar[:, k], atol=1e-12)

    def test_chi2_matches_classical_pairs(self, case_2d_laminate,
                                          ordered_pairs):
        coeff, W, spec = case_2d_laminate
        _, chi2, abar3 = ordered_pairs(coeff, 1e-13)
        table = CorrectorTable(coeff, W, [spec.eigenvalue(1)], tol=1e-13)
        # chi_{2, e1+e2} = chi2_(1,2) + chi2_(2,1); chi_{2, 2e1} = chi2_(1,1)
        c_mixed = table.chi(2, (1, 1))
        target = chi2[(0, 1)] + chi2[(1, 0)]
        if c_mixed.is_zero():
            assert target.l2_norm() < 1e-12
        else:
            assert (c_mixed.terms[(0, 0)] - target).l2_norm() < 1e-11
        c_11 = table.chi(2, (2, 0))
        assert (c_11.terms[(0, 0)] - chi2[(0, 0)]).l2_norm() < 1e-11
        # abar_{2,alpha,k} matches the ordered-pair third-order tensor
        ab = table.abar(2, (2, 0))
        assert np.allclose([p.constant_term() for p in ab],
                           abar3[:, 0, 0], atol=1e-11)
        ab = table.abar(2, (1, 1))
        assert np.allclose([p.constant_term() for p in ab],
                           abar3[:, 0, 1] + abar3[:, 1, 0], atol=1e-11)

    def test_chi3_separable_structure(self, case_1d):
        # chi_{3,e_i} = (mu0 - W(x)) psi_i(y): one shape, weights (mu0, -1)
        coeff, W, spec, branch = case_1d
        t = branch.table
        chi3 = t.chi(3, (1,))
        assert set(chi3.terms) == {(0,), (2,)}
        lam0 = spec.eigenvalue(1)
        diff = chi3.terms[(0,)] - (-lam0) * chi3.terms[(2,)]
        assert diff.l2_norm() < 1e-12 * chi3.max_norm()

    def test_abar3_covariance_identity(self, case_2d_laminate):
        # abar_{3,e_i,0}[l] = (W - mu0) <chi1_i chi1_l>, coefficientwise
        coeff, W, spec = case_2d_laminate
        mu0 = spec.eigenvalue(1)
        table = CorrectorTable(coeff, W, [mu0], tol=1e-13)
        chi11 = table.chi(1, (1, 0)).terms[(0, 0)]
        cov = l2_inner(chi11, chi11)
        ab = table.abar(3, (1, 0))[0]
        assert ab.coeffs[(2, 0)] == pytest.approx(cov, rel=1e-10)
        assert ab.coeffs[(0, 2)] == pytest.approx(cov, rel=1e-10)
        assert ab.coeffs[(0, 0)] == pytest.approx(-mu0 * cov, rel=1e-10)

    def test_mean_and_residual_bookkeeping(self, case_1d):
        _, _, _, branch = case_1d
        assert branch.table.max_rhs_mean() < 1e-10
        assert branch.table.max_cell_residual() < 1e-10
        assert branch.table.max_chi_mean() < 1e-12

    def test_degree_cap(self, case_1d, monkeypatch):
        import homspec.expansion as expansion
        coeff, W, spec, _ = case_1d
        monkeypatch.setattr(expansion, "DEGREE_CAP", 2)
        t = CorrectorTable(coeff, W, [spec.eigenvalue(1), 0.0, 0.0, 0.0],
                           tol=1e-12)
        with pytest.raises(DegreeCapExceeded):
            t.chi(5, (1,))     # needs W * (degree-2 entry) -> degree 4


class TestConstantCoefficient:
    def test_everything_vanishes(self):
        grid = TorusGrid(2, 16)
        coeff = CoefficientField.identity(grid)
        W = w_iso(2)
        basis = MacroBasis(2, 12, 1.0)
        spec = solve_spectrum(np.eye(2), W, basis, 4)
        br = simple_recursion(store(coeff, W, tol=1e-12), spec, 1, 3)
        assert all(abs(m) < 1e-12 for m in br.mu[1:])
        assert all(u.norm() < 1e-12 for u in br.U[1:])
        for q in range(1, 4):
            assert br.table.chi(q, (1, 0)).max_norm() <= 1e-12
        ab = br.table.abar(1, (1, 0))
        assert ab[0].constant_term() == pytest.approx(1.0, abs=1e-12)

    def test_assemble_identity(self):
        grid = TorusGrid(1, 16)
        coeff = CoefficientField.identity(grid)
        W = w_iso(1)
        basis = MacroBasis(1, 32, 1.0)
        spec = solve_spectrum(np.array([[1.0]]), W, basis, 4)
        br = simple_recursion(store(coeff, W, tol=1e-12), spec, 1, 2)
        pts = np.linspace(-3, 3, 41).reshape(-1, 1)
        asm = assemble_at(br, 0.3, pts, P=2)
        assert lambda_tilde(br, 0.3, 2) == pytest.approx(spec.eigenvalue(1),
                                                 abs=1e-12)
        exact = spec.eigenfunction(1).evaluate(pts)
        assert np.max(np.abs(asm.w - exact)) < 1e-12


class TestSimpleRecursion:
    def test_mu1_vanishes(self, case_1d):
        _, _, spec, branch = case_1d
        assert branch.mu1_magnitude() < 1e-8 * spec.eigenvalue(1) ** 1.5

    def test_mu2_covariance_oracle(self, case_1d):
        # mu2 = <(chi1)^2> int (W - lambda0)(phi')^2, evaluated independently
        coeff, W, spec, branch = case_1d
        chi1 = branch.table.chi(1, (1,)).terms[(0,)]
        cov = l2_inner(chi1, chi1)
        quad = quadrature_for(spec.basis, 4)
        dphi = quad.values(spec.eigenfunction(1), (1,))
        wvals = W(quad.points()) - spec.eigenvalue(1)
        mu2 = cov * quad.integrate(wvals, dphi, dphi)
        assert branch.mu[2] == pytest.approx(mu2, rel=1e-8)

    def test_mu2_ladder_oracle(self):
        # unit-normalized 1D laminate: mu2(n) = cov (1 - 6n(n+1)) / 4,
        # from the oscillator ladder algebra for int (x^2 - (2n+1)) (psi_n')^2
        grid = TorusGrid(1, 128)
        coeff = CoefficientField.from_isotropic(
            grid, lambda y: (2.0 + np.cos(TWO_PI * y)) / np.sqrt(3.0)
        )
        W = w_iso(1)
        basis = MacroBasis(1, 48, 1.0)
        spec = solve_spectrum(np.array([[1.0]]), W, basis, 6)
        chi1 = None
        shared = store(coeff, W)
        for n in (0, 1, 2):
            br = simple_recursion(shared, spec, n + 1, 2)
            if chi1 is None:
                chi1 = br.table.chi(1, (1,)).terms[(0,)]
                cov = l2_inner(chi1, chi1)
            expect = cov * (1.0 - 6.0 * n * (n + 1)) / 4.0
            assert br.mu[2] == pytest.approx(expect, rel=1e-9)

    def test_hierarchy_residuals(self, case_1d):
        _, _, _, branch = case_1d
        assert all(r < 1e-8 for r in branch.hierarchy_residuals.values())
        assert all(r < 1e-8 for r in branch.solvability_residuals.values())

    def test_envelopes_orthogonal_to_ground(self, case_1d):
        _, _, spec, branch = case_1d
        phi = spec.eigenfunction(1)
        for u in branch.U[1:]:
            assert abs(u.inner(phi)) < 1e-12

    def test_not_simple_rejected(self, case_2d_laminate):
        coeff, W, spec = case_2d_laminate
        with pytest.raises(NotSimple):
            simple_recursion(store(coeff, W, tol=1e-12), spec, 2, 2)


class TestCouplingMatrix:
    def test_identity_coefficient_degenerate(self):
        grid = TorusGrid(2, 16)
        coeff = CoefficientField.identity(grid)
        W = w_iso(2)
        basis = MacroBasis(2, 12, 1.0)
        spec = solve_spectrum(np.eye(2), W, basis, 6)
        table = CorrectorTable(coeff, W, [spec.eigenvalue(2)], tol=1e-12)
        with pytest.raises(DegenerateD):
            build_D_matrix(spec, 2, table, quadrature_for(spec.basis, 4))

    def test_n1_consistency(self, case_1d):
        coeff, W, spec, branch = case_1d
        table = CorrectorTable(coeff, W, [spec.eigenvalue(1)], tol=1e-13)
        D, E, mu2, info = build_D_matrix(spec, 1, table,
                                         quadrature_for(spec.basis, 4),
                                         spacing_tol=0.0)
        assert D.shape == (1, 1)
        assert E[0, 0] == 1.0
        assert mu2[0] == pytest.approx(branch.mu[2], rel=1e-8)

    def test_laminate_cluster(self, case_2d_laminate):
        coeff, W, spec = case_2d_laminate
        table = CorrectorTable(coeff, W, [spec.eigenvalue(2)], tol=1e-13)
        D, E, mu2, info = build_D_matrix(spec, 2, table,
                                         quadrature_for(spec.basis, 4))
        assert info["dual_gap"] < 1e-8
        assert info["sym_gap"] < 1e-12
        assert np.max(np.abs(E @ E.T - np.eye(2))) < 1e-12
        assert mu2[0] < mu2[1]
        # separable oracle: splittings are the 1D corrections of the
        # oscillating factor at oscillator levels n = 1 and n = 0
        chi1 = table.chi(1, (1, 0)).terms[(0, 0)]
        cov = l2_inner(chi1, chi1)
        assert mu2[0] == pytest.approx(cov * (1 - 6 * 1 * 2) / 4.0, rel=1e-8)
        assert mu2[1] == pytest.approx(cov * 0.25, rel=1e-8)


class TestMultipleRecursion:
    def test_branches_match_separable_oracle(self, case_2d_laminate):
        coeff, W, spec = case_2d_laminate
        branches = multiple_recursion(store(coeff, W), spec, 2, 2)
        assert len(branches) == 2
        chi1 = branches[0].table.chi(1, (1, 0)).terms[(0, 0)]
        cov = l2_inner(chi1, chi1)
        assert branches[0].mu[2] == pytest.approx(-11 * cov / 4, rel=1e-8)
        assert branches[1].mu[2] == pytest.approx(cov / 4, rel=1e-8)
        for br in branches:
            assert br.mu1_magnitude() < 1e-8 * br.lambda0 ** 1.5
            assert all(v < 1e-8 for k, v in br.solvability_residuals.items()
                       if not isinstance(k, tuple))
            # rotated envelope is a unit combination of the cluster pair
            assert br.U[0].norm() == pytest.approx(1.0, abs=1e-12)

    def test_n1_equals_simple(self, case_1d):
        coeff, W, spec, simple = case_1d
        multi = multiple_recursion(store(coeff, W), spec, 1, 3)
        assert len(multi) == 1
        br = multi[0]
        for p in range(4):
            assert br.mu[p] == pytest.approx(simple.mu[p], rel=1e-10, abs=1e-14)
        for u_m, u_s in zip(br.U[:4], simple.U[:4]):
            assert (u_m - u_s).norm() < 1e-10
        # both run the one level loop: at the same P (so the same
        # quadrature) the branch is the simple one bit for bit
        same_p = simple_recursion(store(coeff, W), spec, 1, 3)
        assert br.mu == same_p.mu
        assert all(np.array_equal(u_m.coeffs, u_s.coeffs)
                   for u_m, u_s in zip(br.U, same_p.U))

    @pytest.mark.parametrize("P", [2, 4])
    def test_cluster_solves_each_cell_problem_once(self, case_2d_laminate,
                                                   monkeypatch, P):
        # the branches share mu_0 and mu_1 = 0, so one store keyed on
        # (q, alpha, mu prefix) serves homogenize and the cluster: every
        # entry is built once, every cell problem (one source) is solved
        # once and counted by the store, and each branch is bit for bit the
        # branch that an unshared table of its own gives
        import homspec.expansion as expansion
        coeff, W, spec = case_2d_laminate
        build, solve = CorrectorTable._solve_chi, expansion.solve_cell
        building = []        # entries under construction, innermost last

        def run(fork):
            built, solved = [], []

            def counting_build(table, q, alpha):
                prefix = table.mu[:max(q - 1 - sum(alpha), 0)]
                building.append((q, alpha, tuple(prefix)))
                built.append(building[-1])
                try:
                    return build(table, q, alpha)
                finally:
                    building.pop()

            def counting_solve(*args, **kwargs):
                source = kwargs["F"] if kwargs["G"] is None else kwargs["G"]
                solved.append(source.values.tobytes())
                return solve(*args, **kwargs)

            monkeypatch.setattr(CorrectorTable, "_solve_chi", counting_build)
            monkeypatch.setattr(expansion, "solve_cell", counting_solve)
            monkeypatch.setattr(CorrectorTable, "fork", fork)
            branches = multiple_recursion(store(coeff, W), spec, 2, P)
            return branches, built, solved

        shared, built, solves = run(CorrectorTable.fork)
        assert len(built) == len(set(built))
        assert len(solves) == len(set(solves))
        assert shared[0].table.cell_solves() == len(solves)
        alone, built_alone, solves_alone = run(
            lambda t, mu0: CorrectorTable(t.coeff, t.W, [mu0], tol=t.tol))
        assert set(built_alone) == set(built)
        assert len(built_alone) > len(built)
        assert set(solves_alone) == set(solves)
        assert len(solves_alone) > len(solves)
        for br, br_alone in zip(shared, alone):
            assert br.mu == br_alone.mu
            assert all(np.array_equal(u.coeffs, v.coeffs)
                       for u, v in zip(br.U, br_alone.U))

    def test_equal_sources_solved_once(self, case_2d_laminate, monkeypatch):
        # W = x1^2 + x2^2 puts one source under several slow monomials; at
        # P = 4 the cluster meets 37 cell sources, 26 of them distinct, and
        # solving each distinct one once changes no bit of the branches
        import homspec.expansion as expansion
        coeff, W, spec = case_2d_laminate
        init, solve = CorrectorTable.__init__, expansion.solve_cell

        class Forgetful(dict):
            def __contains__(self, key):
                return False

        def run(forget):
            calls = []

            def counting_solve(*args, **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)

            def table_init(table, *args, **kwargs):
                init(table, *args, **kwargs)
                if forget:
                    table._cells = Forgetful()

            monkeypatch.setattr(expansion, "solve_cell", counting_solve)
            monkeypatch.setattr(CorrectorTable, "__init__", table_init)
            branches = multiple_recursion(store(coeff, W), spec, 2, 4)
            return branches, len(calls)

        deduped, n_deduped = run(False)
        every, n_every = run(True)
        assert (n_deduped, n_every) == (26, 37)
        for br, br_every in zip(deduped, every):
            assert br.mu == br_every.mu
            assert all(np.array_equal(u.coeffs, v.coeffs)
                       for u, v in zip(br.U, br_every.U))

    def test_forced_constant_coefficient(self):
        grid = TorusGrid(2, 16)
        coeff = CoefficientField.identity(grid)
        W = w_iso(2)
        basis = MacroBasis(2, 12, 1.0)
        spec = solve_spectrum(np.eye(2), W, basis, 6)
        with pytest.raises(DegenerateD):
            multiple_recursion(store(coeff, W, tol=1e-12), spec, 2, 2)

    def test_deeper_orders_run(self, case_2d_laminate):
        # P = 4 exercises the deferred-normalization path (alpha at K >= 4)
        coeff, W, spec = case_2d_laminate
        branches = multiple_recursion(store(coeff, W), spec, 2, 4)
        for br in branches:
            assert all(v < 1e-8 for k, v in br.solvability_residuals.items()
                       if not isinstance(k, tuple))
            assert all(r < 1e-8 for r in br.hierarchy_residuals.values())


class TestAssemble:
    def test_pure_polynomial_eps_ratio(self, case_1d):
        # with P = 2: (lt(eps) - lambda0) / (lt(eps/2) - lambda0) = 4 exactly
        _, _, _, branch = case_1d
        eps = 0.05
        r = lambda_tilde_shift(branch, eps, 2) \
            / lambda_tilde_shift(branch, eps / 2, 2)
        assert r == pytest.approx(4.0, rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(eps=st.floats(1e-6, 10.0))
    def test_eps_scaling_property(self, case_1d, eps):
        # mu_1 is snapped to exactly 0, so the order-2 shift is eps^2 mu_2
        # and halving eps divides it by 4; only the rounding of eps ** 2
        # is left (at most 2.2e-16 relative over 40 000 draws)
        _, _, _, branch = case_1d
        assert branch.mu[1] == 0.0
        r = lambda_tilde_shift(branch, eps, 2) \
            / lambda_tilde_shift(branch, eps / 2, 2)
        assert r == pytest.approx(4.0, rel=1e-15, abs=0.0)

    def test_w_gradient_oscillation(self, case_1d):
        # the P=1 gradient carries the O(1) cell oscillation chi'(x/eps) phi'
        coeff, W, spec, branch = case_1d
        eps = 0.05
        pts = np.linspace(-1.0, 1.0, 257).reshape(-1, 1)
        asm = assemble_at(branch, eps, pts, P=1)
        phi = spec.eigenfunction(1)
        chi1 = branch.table.chi(1, (1,)).terms[(0,)]
        from homspec.torus import deriv_y
        dchi = deriv_y(chi1, 0)
        expect = phi.evaluate(pts, (1,)) * (1.0 + dchi.evaluate(pts / eps)) \
            + eps * chi1.evaluate(pts / eps) * phi.evaluate(pts, (2,))
        assert np.max(np.abs(asm.grad_w[0] - expect)) < 1e-10

    def test_one_basis_and_no_table_per_point_set(self, case_1d,
                                                   monkeypatch):
        # every corrector shape reuses the caller's Fourier basis, and every
        # envelope derivative comes from its batch; rebuilding the basis per
        # call would make 15 Fourier bases, and no Hermite table is built
        import homspec.expansion as expansion
        import homspec.hermite as hermite
        _, _, _, branch = case_1d
        counts = {"fourier": 0, "hermite": 0}

        class CountingSampler(expansion.FourierSampler):
            def __init__(self, *args):
                counts["fourier"] += 1
                super().__init__(*args)

        table_values = hermite.hermite_function_values

        def counting_values(*args):
            counts["hermite"] += 1
            return table_values(*args)

        monkeypatch.setattr(expansion, "FourierSampler", CountingSampler)
        monkeypatch.setattr(hermite, "hermite_function_values", counting_values)
        pts = np.linspace(-2.0, 2.0, 101).reshape(-1, 1)
        asm = assemble(branch, 0.05, pts, P=3, gradient=True,
                       envelopes=envelope_batch(branch, pts, 3, True),
                       sample_y=expansion.FourierSampler(branch.table.grid,
                                                         pts / 0.05))
        assert np.all(np.isfinite(asm.grad_w))
        assert counts == {"fourier": 1, "hermite": 0}



class TestStageExpand:
    def test_epsilon_condition_warning(self, case_1d, case_2d_laminate):
        # one EpsilonConditionViolated per eps above gamma lambda^(-3/2),
        # also for the two-branch cluster of the laminate, and none below
        for dim, (coeff, W, spec, *_), j, branches in (
                (1, case_1d, 1, 1), (2, case_2d_laminate, 2, 2)):
            lam0, gamma = spec.eigenvalue(j), spectral_gap(spec, j)
            bound = gamma * lam0 ** -1.5
            eps_list = (2.0 * bound, 1.5 * bound, 0.25 * bound)
            problem = ("dim = 1\na = 1\nw = x**2" if dim == 1
                       else "dim = 2\na = 1\nw = x1**2 + x2**2")
            cfg = parse_config(
                f"[problem]\n{problem}\n[experiment]\nj = {j}\n"
                f"eps = {', '.join(map(repr, eps_list))}\np_order = 2\n")
            warnings = []
            built, _, P_eps = stage_expand(cfg, store(coeff, W), spec,
                                           warnings)
            assert len(built) == branches
            assert P_eps == dict.fromkeys(eps_list, 2)
            assert [(w["code"], w["eps"]) for w in warnings] == [
                ("EpsilonConditionViolated", eps) for eps in eps_list[:2]]


class TestMatchingAmbiguity:
    def test_degenerate_overlaps_detected(self, case_2d_laminate):
        # hand the matcher a reference whose cluster eigenvectors are copies:
        # no assignment can dominate and MatchingAmbiguous must surface
        from homspec.errors import MatchingAmbiguous
        from homspec.reference import FineGrid, ReferenceSpectrum, match_and_compare
        coeff, W, spec = case_2d_laminate
        branches = multiple_recursion(store(coeff, W), spec, 2, 2)
        grid = FineGrid(2, 5.0, 0.125)
        pts = grid.points()
        v = branches[0].U[0].evaluate(pts)
        v = v / (np.linalg.norm(v) * grid.h)
        ref = ReferenceSpectrum(
            eps=0.125, grid=grid,
            eigenvalues_h=np.array([4.0, 4.0]),
            eigenvalues_h2=np.array([4.0, 4.0]),
            eigenvalues=np.array([4.0, 4.0]),
            error_estimates=np.zeros(2),
            eigenvectors=np.stack([v, v]),
            fine_grid=grid, path="by hand",
        )
        with pytest.raises(MatchingAmbiguous):
            match_and_compare(ref, branches, 0.125, P=2)

    def test_2d_node_tables_match_per_point_sampling(self, case_2d_laminate):
        # match_and_compare samples the envelopes on the 79 node coordinates
        # per axis and the correctors on eps/h = 4 phases per axis; sampling
        # both once per node must give the same rows
        from homspec.reference import FineGrid, ReferenceSpectrum, match_and_compare
        coeff, W, spec = case_2d_laminate
        branches = multiple_recursion(store(coeff, W), spec, 2, 3)
        eps, P = 0.5, 3
        grid = FineGrid(2, 5.0, 0.125)
        pts = grid.points()
        vecs = []
        for br in branches:
            v = br.U[0].evaluate(pts)
            vecs.append(v / (np.linalg.norm(v) * grid.h))
        lam = np.array([4.0, 4.5])
        ref = ReferenceSpectrum(
            eps=eps, grid=grid, eigenvalues_h=lam, eigenvalues_h2=lam,
            eigenvalues=lam, error_estimates=np.zeros(2),
            eigenvectors=np.stack(vecs), fine_grid=grid, path="by hand",
        )
        rows = match_and_compare(ref, branches, eps, P=P)
        y, index = grid.phases(eps)
        per_point_y = np.stack([y[ix, ax] for ax, ix in enumerate(index)],
                               axis=1)
        for r, (br, row) in enumerate(zip(branches, rows)):
            sample_x = HermiteSampler(br.spectrum.basis, pts, P + 1)
            psi = vecs[r] / (vecs[r] @ sample_x(br.U[0]) * grid.h ** 2)
            asm = assemble(br, eps, pts, P=P, gradient=False,
                           envelopes=[sample_x(br.U[k], alpha)
                                      for k, alpha
                                      in envelope_requests(br, P, False)],
                           sample_y=FourierSampler(br.table.grid, per_point_y))
            l2 = np.sqrt(np.sum((psi - asm.w) ** 2) * grid.h ** 2)
            assert row.l2_err > 0.0
            assert row.l2_err == pytest.approx(l2, rel=1e-12, abs=0.0)
            assert row.eig_err == pytest.approx(
                abs(lam[r] - lambda_tilde(br, eps, P)), rel=1e-12, abs=0.0)


class TestChooseP:
    def test_direct_evaluation(self):
        # eps lam^{3/2}/gamma = e^{-e^3} -> floor(log|log .|) = 3
        x = float(np.exp(-np.exp(3.0)))
        assert choose_P(x, 1.0, 1.0, 1.0) == 3

    def test_clamping(self):
        assert choose_P(0.9, 1.0, 1.0, 1.0) == 2

    def test_eps_too_large(self):
        with pytest.raises(EpsilonTooLarge):
            choose_P(1.5, 1.0, 1.0, 1.0)

    def test_divergence_guard(self):
        # mu growing so fast that eps^p mu_p increases past p = 2
        mu = [1.0, 0.0, 1.0, 50.0, 2500.0]
        assert choose_P(1e-4, 1.0, 1.0, c=2.0, mu=mu) >= 2
        mu_bad = [1.0, 0.0, 1.0, 1e6]
        assert choose_P(1e-4, 1.0, 1.0, c=2.0, mu=mu_bad) == 2
