"""Experiment orchestration: the homogenize -> spectrum -> expand ->
reference -> compare pipeline, manifests, and CSV artifacts.

A run is driven entirely by a RunConfig; the manifest embeds the config
verbatim (plus a hash) so a run can be reproduced from the manifest alone.
All artifacts are deterministic for a fixed config on one machine, with the
BLAS thread count fixed, except for the recorded wall-clock column.  The
reference stage's names, and scipy with them, are imported by the functions
that use them, so the homogenize, spectrum and expand commands never load
scipy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .classical import build_suite, cyclic_check
from .config import RunConfig, serialize_config
from .errors import (DegenerateFit, EpsilonTooLarge, HomspecError,
                     InsufficientPoints)
from .expansion import (
    choose_P,
    epsilon_condition_violated,
    multiple_recursion,
    simple_recursion,
)
from .hermite import MacroBasis, default_sigma, solve_spectrum, spectral_gap
from .torus import TorusGrid

P_BUILD_CAP = 5


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit a run."""

    version: str
    config_text: str
    config_hash: str
    dim: int
    abar: list
    abar3_sym: list
    cyclic_check: float
    cell_solves: int
    cell_residual_max: float
    lambda0: float
    gamma: float
    cluster_size: int
    P_built: int
    mu: dict                    # branch label -> list of mu_p
    D: list | None
    E: list | None
    radius: float
    radius_shift: float | None
    hierarchy_residual_max: float
    per_eps: list               # rows as dicts (the CSV table)
    fits: dict
    c1_envelope: dict
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True,
                          default=float)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


# --- stages ----------------------------------------------------------------------


def stage_homogenize(cfg: RunConfig, warnings: list):
    """The corrector store (mu = []) with abar and abar3_sym read off it:
    (store, abar, abar3_sym).  A coefficient given as grid samples adds a
    RoughCoefficient warning."""
    coeff = cfg.coefficient(TorusGrid(cfg.dim, cfg.torus_modes))
    if coeff.from_samples:
        warnings.append({
            "code": "RoughCoefficient",
            "detail": "coefficient given as grid samples; spectral accuracy "
                      "holds only if the underlying field is smooth",
        })
    return build_suite(coeff, cfg.potential(), tol=cfg.solver_tol)


def stage_spectrum(cfg: RunConfig, W, abar):
    sigma = cfg.hermite_sigma or default_sigma(abar, W)
    return solve_spectrum(abar, W, MacroBasis(cfg.dim, cfg.hermite_size, sigma),
                          cfg.count)


def stage_expand(cfg: RunConfig, store, spec, warnings: list):
    """Build the branches of the cluster of lambda_j to order P_build and
    decide the order P_eps[eps] at which every eps is evaluated: p_order,
    or the truncation rule capped by the decay of branch 0's mu_p (2 where
    the rule is undefined).  Returns (branches, P_build, P_eps); each eps
    adds its EpsilonTooLarge and EpsilonConditionViolated warnings once, and
    a hierarchy residual above 1e-8 adds HierarchyResidual."""
    a, b = spec.cluster_of(cfg.j)
    lam0, gamma = spec.eigenvalue(cfg.j), spectral_gap(spec, cfg.j)

    def rule(eps, mu=None):
        try:
            return choose_P(eps, lam0, gamma, cfg.p_rule_c, mu=mu)
        except EpsilonTooLarge:
            return None

    if cfg.p_order is not None:
        P_build = cfg.p_order
    else:
        ruled = [P for P in map(rule, cfg.eps_list) if P is not None]
        P_build = min(max(ruled, default=2), P_BUILD_CAP)
    if b - a == 1:
        branches = [simple_recursion(store, spec, cfg.j, P_build)]
    else:
        branches = multiple_recursion(store, spec, cfg.j, P_build)
    P_eps = {}
    for eps in cfg.eps_list:
        P = cfg.p_order or rule(eps, branches[0].mu)
        if P is None:
            warnings.append({"code": "EpsilonTooLarge", "eps": eps,
                             "detail": f"truncation rule undefined at eps={eps}"})
        if epsilon_condition_violated(eps, lam0, gamma):
            warnings.append({
                "code": "EpsilonConditionViolated", "eps": eps,
                "detail": f"eps={eps:.4g} exceeds gamma*lambda^(-3/2)="
                          f"{gamma * lam0 ** -1.5:.4g}",
            })
        P_eps[eps] = min(P or 2, P_build)
    hier_max = hierarchy_residual_max(branches)
    if hier_max > 1e-8:
        warnings.append({
            "code": "HierarchyResidual",
            "detail": f"macroscopic hierarchy residual {hier_max:.3e} "
                      "exceeds 1e-8; the corrector recursion and the "
                      "macroscopic equations are inconsistent at this order",
        })
    return branches, P_build, P_eps


def hierarchy_residual_max(branches) -> float:
    return max((r for br in branches for r in br.hierarchy_residuals.values()),
               default=0.0)


def expansion_summary(branches) -> dict:
    """The cluster and its corrections as the manifest and expand.json
    report them."""
    br = branches[0]
    return {"lambda0": br.lambda0, "gamma": br.gamma,
            "cluster_size": br.cluster_size,
            "mu": {b.label: [float(m) for m in b.mu] for b in branches},
            "D": None if br.D is None else br.D.tolist(),
            "E": None if br.E is None else br.E.tolist()}


def stage_reference(cfg: RunConfig, store, spec, keep_vectors: bool,
                    warnings: list):
    """Fine-grid reference spectra at every eps of the sweep, one after the
    other.

    Returns (radius, radius_shift, ref_count, refs) with refs[eps] =
    (ReferenceSpectrum, seconds spent on it).  With validate_radius the box
    is doubled once at the largest eps: radius_shift is the relative
    eigenvalue shift (None without validate_radius), and a shift above 1e-9
    adds RadiusNotConverged.
    """
    from .reference import (FineGrid, solve_Leps, truncation_radius,
                            validate_radius)
    coeff, W = store.coeff, store.W
    _, b = spec.cluster_of(cfg.j)
    lam_min = float(np.min(np.linalg.eigvalsh(W.quadratic_form())))
    radius = cfg.radius or truncation_radius(
        spec.eigenvalues[min(cfg.count, spec.count) - 1], lam_min,
        cfg.radius_safety,
    )
    ref_count = max(b + 1, 3)

    def grid(eps):
        return FineGrid(cfg.dim, radius, eps / cfg.fd_h_rule)

    def one_eps(eps):
        start = time.perf_counter()
        ref = solve_Leps(coeff, W, eps, grid(eps), ref_count,
                         keep_vectors=keep_vectors)
        return ref, time.perf_counter() - start

    refs = {eps: one_eps(eps) for eps in cfg.eps_list}
    radius_shift = None
    if cfg.validate_radius:
        radius_shift = validate_radius(coeff, W, refs[max(cfg.eps_list)][0])
        if radius_shift > 1e-9:
            warnings.append({
                "code": "RadiusNotConverged",
                "detail": f"doubling the box moved eigenvalues by "
                          f"{radius_shift:.3e} relative",
            })
    return radius, radius_shift, ref_count, refs


def run(cfg: RunConfig):
    """Execute the full pipeline; returns (manifest, comparison rows)."""
    from .reference import fit_rate, match_and_compare
    timings = {}
    warnings = []
    # eigenfunctions are compared in 1D only: a 2D reference keeps no vectors
    compare = cfg.compare_eigenfunctions and cfg.dim == 1
    t0 = time.perf_counter()
    store, abar, abar3_sym = stage_homogenize(cfg, warnings)
    timings["homogenize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec = stage_spectrum(cfg, store.W, abar)
    timings["spectrum"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    branches, P_build, P_eps = stage_expand(cfg, store, spec, warnings)
    timings["expand"] = time.perf_counter() - t0
    summary = expansion_summary(branches)

    t0 = time.perf_counter()
    radius, radius_shift, ref_count, refs = stage_reference(
        cfg, store, spec, compare, warnings)
    timings["reference"] = time.perf_counter() - t0

    rows = []
    per_eps_meta = []
    timings["compare"] = 0.0
    for eps in cfg.eps_list:
        t0 = time.perf_counter()
        # a reference is dropped once compared: only one eps's vectors
        # are held at a time
        ref, elapsed = refs.pop(eps)
        eps_rows = match_and_compare(ref, branches, eps, P=P_eps[eps])
        compared = time.perf_counter() - t0
        timings["compare"] += compared
        share = (elapsed + compared) / max(len(eps_rows), 1)
        for row in eps_rows:
            row.runtime_s = share
        rows.extend(eps_rows)
        per_eps_meta.append({
            "eps": eps, "P": P_eps[eps], "path": ref.path,
            "richardson_estimate": [float(v) for v in ref.error_estimates],
            "lambda_ref": [float(v) for v in ref.eigenvalues],
        })

    series = [("eig", lambda row: row.eig_err),
              ("zeroth",
               lambda row: abs(row.lambda_ref_richardson - summary["lambda0"]))]
    if compare:
        series += [("l2", lambda row: row.l2_err),
                   ("h1", lambda row: row.h1_err)]
    fits = {}
    for r in range(len(branches)):
        for name, value in series:
            data = [(row.eps, value(row)) for row in rows
                    if row.branch == r and np.isfinite(value(row))]
            try:
                slope, intercept, r2 = fit_rate(data)
                fits[f"branch{r}_{name}"] = {
                    "slope": slope, "intercept": intercept, "r2": r2,
                }
            except (DegenerateFit, HomspecError) as exc:
                fits[f"branch{r}_{name}"] = {"error": str(exc)}

    # zeroth-order envelope constant per reference index
    c1 = {}
    for k in range(min(ref_count, len(spec.eigenvalues))):
        lam0k = spec.eigenvalues[k]
        ratios = [abs(meta["lambda_ref"][k] - lam0k)
                  / (meta["eps"] * lam0k ** 1.5)
                  for meta in per_eps_meta if k < len(meta["lambda_ref"])]
        if ratios:
            c1[f"j{k + 1}"] = float(max(ratios))

    manifest = RunManifest(
        version=__version__,
        config_text=serialize_config(cfg),
        config_hash=config_hash(cfg),
        dim=cfg.dim,
        abar=abar.tolist(),
        abar3_sym=abar3_sym.tolist(),
        cyclic_check=cyclic_check(abar3_sym),
        cell_solves=store.cell_solves(),
        cell_residual_max=store.max_cell_residual(),
        P_built=P_build,
        radius=radius,
        radius_shift=radius_shift,
        hierarchy_residual_max=hierarchy_residual_max(branches),
        **summary,
        per_eps=per_eps_meta,
        fits=fits,
        c1_envelope=c1,
        warnings=warnings,
        timings=timings,
    )
    return manifest, rows


# --- artifacts -------------------------------------------------------------------

CSV_COLUMNS = ("epsilon", "j", "branch", "lambda_ref",
               "lambda_ref_richardson", "lambda_tilde", "eig_err",
               "l2_err", "h1_err", "h", "R", "runtime_s")


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for row in rows:
        w.writerow([
            repr(row.eps), row.j, row.branch, repr(row.lambda_ref),
            repr(row.lambda_ref_richardson), repr(row.lambda_tilde),
            repr(row.eig_err), repr(row.l2_err), repr(row.h1_err),
            repr(row.h), repr(row.radius), f"{row.runtime_s:.3f}",
        ])
    return buf.getvalue()


def rows_from_csv(text: str) -> list:
    """Rows of a ``sweep.csv`` text as written by rows_to_csv."""
    from .reference import ComparisonRow
    return [ComparisonRow(
        eps=float(rec["epsilon"]), j=int(rec["j"]), branch=int(rec["branch"]),
        lambda_ref=float(rec["lambda_ref"]),
        lambda_ref_richardson=float(rec["lambda_ref_richardson"]),
        lambda_tilde=float(rec["lambda_tilde"]),
        eig_err=float(rec["eig_err"]), l2_err=float(rec["l2_err"]),
        h1_err=float(rec["h1_err"]), h=float(rec["h"]),
        radius=float(rec["R"]), runtime_s=float(rec["runtime_s"]),
    ) for rec in csv.DictReader(io.StringIO(text))]


def emit_plot_data(fits: dict, rows) -> dict:
    """One CSV text per error norm: log-log series plus the fitted line.

    Fit parameters are repeated per row so the file stays consumable by any
    plotting tool without a sidecar.
    """
    eps_values = sorted({row.eps for row in rows}, reverse=True)
    if len(eps_values) < 2:
        raise InsufficientPoints("plot data needs at least two sweep points")
    out = {}
    branches = sorted({row.branch for row in rows})
    for key, name in (("eig", "eig_err"), ("l2", "l2_err"), ("h1", "h1_err")):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("epsilon", "branch", name, "fit_slope", "fit_intercept",
                    "fit_r2"))
        wrote = False
        for br in branches:
            fit = fits.get(f"branch{br}_{key}", {})
            slope = fit.get("slope", "")
            intercept = fit.get("intercept", "")
            r2 = fit.get("r2", "")
            for row in rows:
                value = getattr(row, name)
                if row.branch != br or not np.isfinite(value):
                    continue
                w.writerow((repr(row.eps), br, repr(value),
                            slope, intercept, r2))
                wrote = True
        if wrote:
            out[name] = buf.getvalue()
    return out
