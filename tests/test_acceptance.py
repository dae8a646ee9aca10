"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line.  Two sub-criteria are expected to fail
and are left red deliberately, with the measured values in the assertion
message and the analysis in the repository notes:

  * the H1 eigenfunction-error slope against the first-order prediction
    (the true slope is 1: the gradient of the error carries the cell-scale
    term eps * chi2'(x/eps) grad^2 phi at first order in eps);
  * the +-20% stability of the zeroth-order envelope constant across j
    (the per-j constants scale like |mu_2,j| / lambda_j^{3/2}, which spreads
    by a factor of about 3 over the first three eigenvalues).
"""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homspec.classical import build_suite, cyclic_check
from homspec.expansion import (
    CorrectorTable,
    build_D_matrix,
    lambda_tilde,
    multiple_recursion,
    simple_recursion,
)
from homspec.hermite import (MacroBasis, default_sigma, quadrature_for,
                             solve_spectrum)
from homspec.reference import (
    FineGrid,
    fit_rate,
    match_and_compare,
    solve_Leps,
    truncation_radius,
)
from homspec.slowpoly import SlowPolynomial
from homspec.torus import CoefficientField, TorusGrid, grad_y

TWO_PI = 2.0 * np.pi


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def w_iso(dim):
    if dim == 1:
        return SlowPolynomial(1, {(2,): 1.0})
    return SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})


def random_trig_coeff(rng, grid, amp=0.3, base=2.5):
    """Smooth SPD coefficient with a few random low trigonometric modes."""
    d = grid.dim

    def entry(b):
        c = rng.uniform(-amp, amp, size=(2, 2))
        s = rng.uniform(-amp, amp, size=(2, 2))

        def fn(*ys):
            out = np.full_like(ys[0], b, dtype=float)
            for p in range(1, 3):
                for q in range(1, 3):
                    phase = TWO_PI * (p * ys[0] + (q * ys[1] if d == 2 else 0))
                    out = out + c[p - 1, q - 1] * np.cos(phase) \
                        + s[p - 1, q - 1] * np.sin(phase)
            return out
        return fn

    if d == 1:
        return CoefficientField.from_isotropic(grid, entry(base))
    off = entry(0.0)
    return CoefficientField.from_matrix(grid, [
        [entry(base), off], [off, entry(base)],
    ])


# --- shared 1D context (A3, A4, A7, A8) -------------------------------------


@pytest.fixture(scope="module")
def ctx_1d():
    """Branch to order 4 plus the reference sweep eps = 1/10 .. 1/160."""
    t0 = time.perf_counter()
    coeff = CoefficientField.from_isotropic(
        TorusGrid(1, 256), lambda y: 2.0 + np.cos(TWO_PI * y)
    )
    W = w_iso(1)
    abar = np.array([[np.sqrt(3.0)]])
    basis = MacroBasis(1, 48, default_sigma(abar, W))
    spec = solve_spectrum(abar, W, basis, 6)
    branch = simple_recursion(build_suite(coeff, W, tol=1e-13)[0], spec, 1, 4)
    refs = {}
    for eps in (1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160):
        grid = FineGrid(1, 7.0, eps / 16)
        refs[eps] = solve_Leps(coeff, W, eps, grid, 3, keep_vectors=True)
    elapsed = time.perf_counter() - t0
    return {"coeff": coeff, "W": W, "spec": spec, "branch": branch,
            "refs": refs, "build_s": elapsed}


def test_a1_oscillator_exactness():
    t0 = time.perf_counter()
    basis = MacroBasis(1, 64, 1.0)
    spec = solve_spectrum(np.array([[1.0]]), w_iso(1), basis, 6)
    expect = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
    err = float(np.max(np.abs(spec.eigenvalues - expect) / expect))
    dt = time.perf_counter() - t0
    ok = err < 1e-10 and dt < 1.0
    assert _report("A1", ok,
                   f"first 6 oscillator eigenvalues rel err {err:.2e} "
                   f"(< 1e-10), runtime {dt:.2f}s (< 1s)")


def test_a2_1d_homogenized_matrix():
    t0 = time.perf_counter()
    grid = TorusGrid(1, 256)
    coeff = CoefficientField.from_isotropic(
        grid, lambda y: 2.0 + np.cos(TWO_PI * y)
    )
    store, abar, _ = build_suite(coeff, w_iso(1), tol=1e-13)
    abar_err = abs(abar[0, 0] - np.sqrt(3.0))
    du = grad_y(store.chi(1, (1,)).terms[(0,)]).component(0)
    closed = type(du)(grid, np.sqrt(3.0) / coeff.a.values[0, 0] - 1.0)
    chi_err = (du - closed).l2_norm()
    dt = time.perf_counter() - t0
    ok = abar_err < 1e-12 and chi_err < 1e-10
    assert _report("A2", ok,
                   f"|abar - sqrt(3)| = {abar_err:.2e} (< 1e-12), corrector "
                   f"closed-form L2 err {chi_err:.2e} (< 1e-10), {dt:.2f}s")


def test_a3_eigenvalue_rate(ctx_1d):
    spec, refs = ctx_1d["spec"], ctx_1d["refs"]
    lam0 = spec.eigenvalue(1)
    pts = [(eps, abs(ref.eigenvalues[0] - lam0)) for eps, ref in refs.items()]
    slope, _, r2 = fit_rate(pts)
    ok = 1.9 <= slope <= 2.2 and r2 > 0.99
    assert _report(
        "A3-eig", ok,
        f"|lam_eps - lam_0| slope {slope:.3f} in [1.9, 2.2], r2 {r2:.5f} "
        f"> 0.99  (sweep+build {ctx_1d['build_s']:.0f}s < 300s)",
    ) and ctx_1d["build_s"] < 300


def test_a3_h1_eigenfunction_rate(ctx_1d):
    """Stated criterion: H1 slope vs phi0 + eps grad(phi0) chi1(./eps) in
    [1.8, 2.2].  The measurement is implemented exactly as specified and the
    criterion fails: the true H1 error of the first-order prediction is
    O(eps), because grad(psi - w1) contains eps chi2'(x/eps) grad^2 phi0 with
    chi2' = -chi1 (verified against the explicit two-scale solution; the L2
    error separately shows a clean second-order rate)."""
    branch, refs = ctx_1d["branch"], ctx_1d["refs"]
    h1_pts, l2_pts = [], []
    for eps, ref in refs.items():
        row = match_and_compare(ref, [branch], eps, P=1)[0]
        h1_pts.append((eps, row.h1_err))
        l2_pts.append((eps, row.l2_err))
    h1_slope, _, h1_r2 = fit_rate(h1_pts)
    l2_slope, _, _ = fit_rate(l2_pts)
    ok = 1.8 <= h1_slope <= 2.2
    _report("A3-h1", ok,
            f"H1 slope {h1_slope:.2f} (criterion [1.8, 2.2]); "
            f"L2 slope {l2_slope:.2f} for context")
    assert ok, (
        f"H1 eigenfunction-error slope {h1_slope:.3f} is outside [1.8, 2.2] "
        f"and cannot reach it: the continuum error is O(eps) "
        f"(measured {h1_pts[0][1]:.2e} at eps={h1_pts[0][0]:g} ~ "
        f"{h1_pts[0][1] / h1_pts[0][0]:.3f}*eps), while the "
        f"L2 slope is {l2_slope:.2f}. "
        "See notes: the first-order prediction omits the second-order cell "
        "term whose gradient enters at order eps."
    )


def test_a4_higher_order_gain(ctx_1d):
    branch, refs = ctx_1d["branch"], ctx_1d["refs"]
    lam0 = branch.lambda0
    sweep = [1 / 10, 1 / 20, 1 / 40, 1 / 80]
    p3, p0 = [], []
    for eps in sweep:
        lam_ref = refs[eps].eigenvalues[0]
        p3.append((eps, abs(lam_ref - lambda_tilde(branch, eps, 3))))
        p0.append((eps, abs(lam_ref - lam0)))
    slope, _, r2 = fit_rate(p3)
    below = all(a[1] < b[1] for a, b in zip(p3, p0))
    ok = slope >= 2.8 and below
    assert _report(
        "A4", ok,
        f"P=3 error slope {slope:.2f} (>= 2.8), r2 {r2:.4f}; P=3 error below "
        f"P=0 at every eps: {below}",
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), base=st.floats(1.5, 3.0),
       c=st.floats(0.5, 2.0))
def test_rate_over_random_smooth_problems(seed, base, c):
    # the paper's claim, corrections characterized to any order, on random
    # smooth 1D problems a = random_trig_coeff (amp 0.4) and W = c x^2:
    # the P = 0 eigenvalue error falls as eps^2, and P = 3 gains a full
    # order over P = 2, since mu_1 and mu_3 vanish in 1D.  The first eps
    # solves its h grid from bisection's shifts, the later ones from the
    # h/2 eigenvalues of the eps before.  h is eps/32: at eps/16 the
    # reference's Richardson floor, about eps^2 (h/eps)^4 times a constant
    # of the draw, reaches the P = 3 error at eps = 1/40 in about 2% of
    # draws (P = 3 slopes down to 3.2; at eps/32 none below 4.0 in 59)
    coeff = random_trig_coeff(np.random.default_rng(seed), TorusGrid(1, 64),
                              amp=0.4, base=base)
    # amp 0.4 does not keep every draw elliptic
    assume(np.min(coeff.a.values) >= 0.5)
    W = SlowPolynomial(1, {(2,): c})
    store, abar, _ = build_suite(coeff, W, tol=1e-13)
    spec = solve_spectrum(abar, W, MacroBasis(1, 40, default_sigma(abar, W)),
                          4)
    branch = simple_recursion(store, spec, 1, 4)
    radius = truncation_radius(spec.eigenvalue(3), c)
    p0, p3, routes, shifts = [], [], [], None
    for eps in (1 / 10, 1 / 20, 1 / 40):
        ref = solve_Leps(coeff, W, eps, FineGrid(1, radius, eps / 32), 3,
                         keep_vectors=False, shifts=shifts)
        shifts = ref.axis_eigenvalues_h2
        routes += ref.h_routes
        lam = ref.eigenvalues[0]
        p0.append((eps, abs(lam - lambda_tilde(branch, eps, 0))))
        p3.append((eps, abs(lam - lambda_tilde(branch, eps, 3))))
        # the auto radius keeps the box out of every measured error
        assert _box_floor(ref, W, abar)[0] < 0.1 * min(p0[-1][1], p3[-1][1])
    assert routes == ["bisection", "warm", "warm"]
    assert 1.9 <= fit_rate(p0)[0] <= 2.1
    assert fit_rate(p3)[0] >= 3.8
    assert all(e3 < e0 for (_, e3), (_, e0) in zip(p3, p0))


def _box_floor(ref, W, abar):
    """The box floor of ref's eigenvalues as stage_reference forms it: the
    wall terms over 2 R c per axis, c = sqrt(Q_aa / abar_aa)."""
    decay = np.sqrt(np.diag(W.quadratic_form()) / np.diag(abar))
    return ref.wall_terms @ (1.0 / (2.0 * ref.grid.radius * decay))


def _axis_coeff(rng):
    """A random smooth coefficient of one variable, 2 plus two random
    trigonometric modes of amplitude up to 0.4, scaled to harmonic mean 1."""
    cs, ss = rng.uniform(-0.4, 0.4, size=(2, 2))

    def raw(y):
        return 2.0 + sum(cs[p] * np.cos(TWO_PI * (p + 1) * y)
                         + ss[p] * np.sin(TWO_PI * (p + 1) * y)
                         for p in range(2))

    scale = np.mean(1.0 / raw(np.arange(4096) / 4096))
    return lambda y: scale * raw(y)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(0.5, 2.0))
def test_rate_over_random_separable_2d_problems(seed, c):
    # the multiple-2d claim on random separable problems: a = diag(a1(y1),
    # a2(y2)), each a random smooth coefficient of its own axis with
    # harmonic mean 1, and W = c |x|^2, so abar = I and lambda_2 = lambda_3
    # form a cluster of 2, split by the branches' mu_2.  Each branch's P = 2
    # eigenvalue error falls at least as eps^2.5 (4.0 or more in 30 draws;
    # over eps = 1/8 to 1/24 at h = eps/8, one draw in 12 read 2.05, its
    # errors flattened near 1e-8 by the reference's Richardson floor), and
    # the auto radius keeps the box floor out of every error.  An example
    # takes about 0.1 s
    rng = np.random.default_rng(seed)
    a1, a2 = _axis_coeff(rng), _axis_coeff(rng)
    coeff = CoefficientField.from_matrix(TorusGrid(2, 32), [
        [lambda y1, y2: a1(y1) + 0.0 * y2, None],
        [None, lambda y1, y2: a2(y2) + 0.0 * y1],
    ])
    W = SlowPolynomial(2, {(2, 0): c, (0, 2): c})
    store, abar, _ = build_suite(coeff, W, tol=1e-13)
    spec = solve_spectrum(abar, W, MacroBasis(2, 16, default_sigma(abar, W)),
                          4)
    assert spec.cluster_of(2) == (1, 3)
    branches = multiple_recursion(store, spec, 2, 2)
    radius = truncation_radius(spec.eigenvalue(3), c)
    errs = {0: [], 1: []}
    for eps in (1 / 4, 1 / 6, 1 / 8):
        ref = solve_Leps(coeff, W, eps, FineGrid(2, radius, eps / 16), 4,
                         keep_vectors=False)
        assert ref.path == "separable"
        floor = _box_floor(ref, W, abar)
        for r, br in enumerate(branches):
            errs[r].append((eps, abs(ref.eigenvalues[1 + r]
                                     - lambda_tilde(br, eps, 2))))
            assert floor[1 + r] < 0.1 * errs[r][-1][1]
    assert all(fit_rate(errs[r])[0] >= 2.5 for r in errs), errs


def test_a5_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_mu1 = 0.0
    worst_cyc = 0.0
    for k in range(10):
        dim = 1 if k < 5 else 2
        grid = TorusGrid(dim, 128 if dim == 1 else 48)
        coeff = random_trig_coeff(rng, grid)
        W = w_iso(dim)
        store, abar, abar3_sym = build_suite(coeff, W, tol=1e-13)
        worst_cyc = max(worst_cyc, cyclic_check(abar3_sym))
        sigma = default_sigma(abar, W)
        basis = MacroBasis(dim, 32 if dim == 1 else 16, sigma)
        spec = solve_spectrum(abar, W, basis, 4)
        br = simple_recursion(store, spec, 1, 2)
        worst_mu1 = max(worst_mu1,
                        abs(br.mu1_computed) / spec.eigenvalue(1) ** 1.5)
    ok_mu1 = worst_mu1 < 1e-8
    ok_cyc = worst_cyc < 1e-10

    # constant-coefficient degeneracy
    cI = CoefficientField.identity(TorusGrid(1, 16))
    specI = solve_spectrum(np.array([[1.0]]), w_iso(1),
                           MacroBasis(1, 32, 1.0), 4)
    brI = simple_recursion(build_suite(cI, w_iso(1))[0], specI, 1, 3)
    degen = max(max(abs(m) for m in brI.mu[1:]),
                max(u.norm() for u in brI.U[1:]),
                brI.table.chi(3, (1,)).max_norm())
    ok_deg = degen < 1e-12

    # coupling-matrix dual formula and symmetry on a 2D cluster
    c2 = CoefficientField.from_matrix(TorusGrid(2, 64), [
        [lambda y1, y2: (2.0 + np.cos(TWO_PI * y1)) / np.sqrt(3.0), None],
        [None, lambda y1, y2: np.ones_like(y1)],
    ])
    spec2 = solve_spectrum(np.eye(2), w_iso(2), MacroBasis(2, 20, 1.0), 8)
    table2 = CorrectorTable(c2, w_iso(2), tol=1e-13).fork(spec2.eigenvalue(2))
    D, E, mu2, info = build_D_matrix(spec2, 2, table2,
                                     quadrature_for(spec2.basis, 4))
    ok_D = info["dual_gap"] < 1e-8 and info["sym_gap"] < 1e-12
    dt = time.perf_counter() - t0
    ok = ok_mu1 and ok_cyc and ok_deg and ok_D and dt < 120
    assert _report(
        "A5", ok,
        f"mu1/lam^1.5 worst {worst_mu1:.2e} (< 1e-8); cyclic worst "
        f"{worst_cyc:.2e} (< 1e-10); constant-coeff degeneracy {degen:.2e} "
        f"(< 1e-12); D dual gap {info['dual_gap']:.2e} (< 1e-8), symmetry "
        f"{info['sym_gap']:.2e} (< 1e-12); runtime {dt:.0f}s (< 120s)",
    )


@pytest.mark.heavy
def test_a6_multiplicity_splitting():
    t0 = time.perf_counter()
    coeff = CoefficientField.from_matrix(TorusGrid(2, 64), [
        [lambda y1, y2: (2.0 + np.cos(TWO_PI * y1)) / np.sqrt(3.0), None],
        [None, lambda y1, y2: np.ones_like(y1)],
    ])
    W = w_iso(2)
    spec = solve_spectrum(np.eye(2), W, MacroBasis(2, 20, 1.0), 8)
    a, b = spec.cluster_of(2)
    assert (a, b) == (1, 3)
    branches = multiple_recursion(build_suite(coeff, W, tol=1e-13)[0], spec,
                                  2, 2)
    mu2 = [br.mu[2] for br in branches]
    spacing = abs(mu2[1] - mu2[0]) / max(abs(mu2[0]), abs(mu2[1]))
    lam0 = branches[0].lambda0

    errs = {0: [], 1: []}
    for eps in (1 / 8, 1 / 12, 1 / 16, 1 / 24):
        grid = FineGrid(2, 6.0, eps / 8)
        ref = solve_Leps(coeff, W, eps, grid, 4, keep_vectors=False)
        for r, br in enumerate(branches):
            pred = lam0 + eps ** 2 * mu2[r]
            errs[r].append((eps, abs(ref.eigenvalues[1 + r] - pred)))
    slopes = {}
    for r in (0, 1):
        slopes[r], _, _ = fit_rate(errs[r])
    dt = time.perf_counter() - t0
    ok = all(s >= 2.5 for s in slopes.values()) and spacing > 1e-6 \
        and dt < 1800
    assert _report(
        "A6", ok,
        f"cluster lambda0 = {lam0:.12f} (N=2), mu2 = ({mu2[0]:.4e}, "
        f"{mu2[1]:.4e}), distinct (rel spacing {spacing:.2f}); branch error "
        f"slopes {slopes[0]:.2f}, {slopes[1]:.2f} (>= 2.5); "
        f"runtime {dt:.0f}s (< 1800s)",
    )


def test_a7_zeroth_order_envelope(ctx_1d):
    """The envelope |lam_eps,j - lam_0,j| <= C1 eps lam^{3/2} holds with a
    single finite constant (reported below).  The +-20% stability of the
    per-j fitted constants fails and cannot hold: C1_j tracks
    |mu_2,j| eps / lam_j^{3/2}, and the ladder values of mu_2,j make the
    three constants spread by a factor of about 3."""
    spec, refs = ctx_1d["spec"], ctx_1d["refs"]
    c1 = {}
    for j in (1, 2, 3):
        lam = spec.eigenvalue(j)
        c1[j] = max(abs(ref.eigenvalues[j - 1] - lam) / (eps * lam ** 1.5)
                    for eps, ref in refs.items())
    envelope = max(c1.values())
    ok_env = np.isfinite(envelope) and envelope < 1.0
    mean = np.mean(list(c1.values()))
    spread = max(abs(v / mean - 1.0) for v in c1.values())
    ok_stable = spread <= 0.20
    _report("A7", ok_env and ok_stable,
            f"envelope C1 = {envelope:.3e} (exists, reported); per-j "
            f"constants {', '.join(f'j{j}: {v:.3e}' for j, v in c1.items())}; "
            f"spread {spread * 100:.0f}% (criterion <= 20%)")
    assert ok_env, "envelope constant must exist and be finite"
    assert ok_stable, (
        f"per-j envelope constants {c1} spread by {spread * 100:.0f}% "
        "around their mean; the criterion's +-20% stability cannot hold "
        "because C1_j ~ |mu_2,j|/lambda_j^{3/2} varies by ~3x across "
        "j = 1, 2, 3 (see notes)."
    )


@pytest.mark.heavy
def test_bundled_simple_1d_config():
    """The bundled 1D sweep reproduces the single-eigenvalue rate table."""
    from homspec.config import load_config
    from homspec.pipeline import run
    import os
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                   "configs", "simple-1d.ini"))
    manifest, rows = run(cfg)
    zeroth = manifest.fits["branch0_zeroth"]
    eig = manifest.fits["branch0_eig"]
    ok = 1.9 <= zeroth["slope"] <= 2.2 and zeroth["r2"] > 0.99 \
        and eig["slope"] >= 2.8 and manifest.hierarchy_residual_max < 1e-8
    assert _report(
        "run-simple-1d", ok,
        f"zeroth slope {zeroth['slope']:.3f}, P=3 slope {eig['slope']:.2f}, "
        f"hierarchy residual {manifest.hierarchy_residual_max:.1e}",
    )


@pytest.mark.heavy
def test_bundled_multiple_2d_config():
    """The bundled 2D sweep reproduces the branch-splitting table."""
    from homspec.config import load_config
    from homspec.pipeline import run
    import os
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                   "configs", "multiple-2d.ini"))
    manifest, rows = run(cfg)
    assert manifest.cluster_size == 2
    s0 = manifest.fits["branch0_eig"]["slope"]
    s1 = manifest.fits["branch1_eig"]["slope"]
    mu2 = [manifest.mu[k][2] for k in sorted(manifest.mu)]
    ok = s0 >= 2.5 and s1 >= 2.5 and mu2[0] < mu2[1]
    assert _report(
        "run-multiple-2d", ok,
        f"branch slopes {s0:.2f}, {s1:.2f} (>= 2.5); mu2 = "
        f"({mu2[0]:.3e}, {mu2[1]:.3e})",
    )


def test_a8_residual_suite(ctx_1d):
    branch = ctx_1d["branch"]
    t0 = time.perf_counter()
    worst_macro = max(branch.hierarchy_residuals.values())
    worst_solv = max(v for k, v in branch.solvability_residuals.items()
                     if not isinstance(k, tuple))
    worst_cell = branch.table.max_cell_residual()
    worst_mean = branch.table.max_chi_mean()
    dt = time.perf_counter() - t0
    ok = worst_macro < 1e-8 and worst_solv < 1e-8 \
        and worst_cell < 1e-10 and worst_mean < 1e-12 and dt < 60
    assert _report(
        "A8", ok,
        f"macroscopic residual {worst_macro:.2e} (< 1e-8), solvability "
        f"{worst_solv:.2e} (< 1e-8), cell residual {worst_cell:.2e} "
        f"(< 1e-10), corrector means {worst_mean:.2e} (< 1e-12)",
    )
