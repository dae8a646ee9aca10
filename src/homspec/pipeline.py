"""Experiment orchestration: the homogenize -> spectrum -> expand ->
reference -> compare pipeline, manifests, and CSV artifacts.

A run is driven entirely by a RunConfig; the manifest embeds the config
verbatim (plus a hash) so a run can be reproduced from the manifest alone.
All artifacts are deterministic for a fixed config on one machine, with the
BLAS thread count fixed, except for the recorded wall-clock column; every
sweep manifest records the thread variables it ran under (README names the
steps whose rounding moves with them).  The
reference stage's names, and with them scipy's _flapack alone (and
scipy.sparse on the sparse 2D path), are imported by the functions that use
them, so the homogenize, spectrum and expand commands do not load scipy;
config_hash uses CPython's built-in SHA-256, so no command loads OpenSSL's
binding.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .classical import build_suite, cyclic_check
from .config import RunConfig, serialize_config
from .errors import ConfigError, HomspecError, InsufficientPoints
from .expansion import choose_P, multiple_recursion, simple_recursion
from .hermite import MacroBasis, default_sigma, solve_spectrum, spectral_gap
from .torus import TorusGrid

P_BUILD_CAP = 5
# the environment variables that set the BLAS and OpenMP thread counts,
# which every sweep manifest records as it saw them
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
# mantissa bits of x87 extended precision, in which the reference's energy
# quotients and polish are formed
EXTENDED_NMANT = 63


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
    longdouble_nmant: int       # np.finfo(np.longdouble).nmant of the run
    blas_threads: dict          # THREAD_VARIABLES as seen, None where unset
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
    # CPython's built-in SHA-256 gives hashlib's digest without loading
    # OpenSSL's libcrypto (3.5 MB, the peak of a 2D sweep) for one digest;
    # hashlib serves only an interpreter built without it
    try:
        from _sha2 import sha256            # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256      # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def precision_warnings(nmant: int) -> list:
    """The reference's warnings on a long double of nmant mantissa bits:
    NarrowLongDouble below EXTENDED_NMANT (long double is float64 on
    aarch64 macOS and MSVC), where the energy quotients and the polish lose
    the floor far below the expansion's residuals; none otherwise."""
    if nmant >= EXTENDED_NMANT:
        return []
    return [{"code": "NarrowLongDouble", "nmant": nmant,
             "detail": f"long double carries {nmant} mantissa bits, not "
                       f"{EXTENDED_NMANT}: the reference eigenvalues and "
                       "the polished eigenvectors are formed in float64, "
                       "whose rounding on fine grids can reach the errors "
                       "being measured"}]


# --- stages ----------------------------------------------------------------------


def positive_eigenvalue(spec, k: int, need: str) -> float:
    """lambda_k of spec; a ConfigError saying what needs it when it is not
    positive."""
    lam = spec.eigenvalue(k)
    if lam <= 0:
        raise ConfigError(f"lambda_{k} = {lam:.6g} is not positive: {need}")
    return lam


def stage_homogenize(cfg: RunConfig, warnings: list):
    """The corrector store (mu = []) with abar and abar3_sym read off it:
    (store, abar, abar3_sym).  A coefficient given as grid samples adds a
    RoughCoefficient warning."""
    coeff = cfg.coefficient(TorusGrid(cfg.dim, cfg.torus_modes))
    if coeff.entry_fns is None:
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
    where the rule is undefined adds EpsilonConditionViolated once, and
    EpsilonTooLarge unless p_order is set, and a hierarchy residual above
    1e-8 adds HierarchyResidual.  lambda_j must be positive."""
    lam0 = positive_eigenvalue(spec, cfg.j, "the truncation rule and the "
                               "epsilon condition need lambda_j > 0")
    a, b = spec.cluster_of(cfg.j)
    gamma = spectral_gap(spec, cfg.j)
    if cfg.p_order is not None:
        P_build = cfg.p_order
    else:
        # choose_P is None where the rule is undefined, and never 0
        ruled = [choose_P(eps, lam0, gamma, cfg.p_rule_c)
                 for eps in cfg.eps_list]
        P_build = min(max(filter(None, ruled), default=2), P_BUILD_CAP)
    # an overflow raises FloatingPointError, which main reports as a
    # numerical failure, where an inf or NaN would pass the residual checks
    with np.errstate(over="raise", invalid="raise"):
        if b - a == 1:
            branches = [simple_recursion(store, spec, cfg.j, P_build)]
        else:
            branches = multiple_recursion(store, spec, cfg.j, P_build)
    P_eps = {}
    for eps in cfg.eps_list:
        P = choose_P(eps, lam0, gamma, cfg.p_rule_c, branches[0].mu)
        if P is None:
            if not cfg.p_order:
                warnings.append({
                    "code": "EpsilonTooLarge", "eps": eps,
                    "detail": f"truncation rule undefined at eps={eps}"})
            warnings.append({
                "code": "EpsilonConditionViolated", "eps": eps,
                # lam0 ** -1.5 underflows to 0 where gamma / lam0 does not
                "detail": f"eps={eps:.4g} exceeds gamma*lambda^(-3/2)="
                          f"{gamma / lam0 / math.sqrt(lam0):.4g}",
            })
        P_eps[eps] = cfg.p_order or min(P or 2, P_build)
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


def stage_reference(cfg: RunConfig, store, abar, spec, keep_vectors: bool,
                    warnings: list, each) -> float:
    """Fine-grid reference spectra at every eps of the sweep, one after the
    other, in the box radius that it returns: each(ref, floor) is called
    with every eps's ReferenceSpectrum, in the order of cfg.eps_list, and
    its box floor, and the reference is dropped once it returns, so one
    eps's vectors are held at a time.  Each eps after the first is solved
    from the h/2 eigenvalues of the one before as shifts (solve_Leps),
    which the expansion under test never enters.

    The box floor of an eigenvalue, by which the Dirichlet box of radius R
    raises it, is the sum over the axes of its wall terms / (2 c R), with
    c = sqrt(Q_aa / abar_aa) the Gaussian exponent of the homogenized
    eigenfunctions along the axis (ReferenceSpectrum).  each returns
    (index, error) pairs, the error that its command reports for the
    reference eigenvalue of that index; an eps where a floor reaches a
    tenth of its error adds RadiusNotConverged once.  A long double
    narrower than x87 extended precision adds NarrowLongDouble
    (precision_warnings).
    """
    from .reference import FineGrid, solve_Leps, truncation_radius
    coeff, W = store.coeff, store.W
    _, b = spec.cluster_of(cfg.j)
    Q = W.quadratic_form()
    radius = cfg.radius or truncation_radius(
        positive_eigenvalue(spec, cfg.count, "the automatic box radius "
                            "needs it positive; set discretization.radius"),
        float(np.min(np.linalg.eigvalsh(Q))))
    tails = 2.0 * radius * np.sqrt(np.diag(Q) / np.diag(abar))
    warnings.extend(precision_warnings(np.finfo(np.longdouble).nmant))
    shifts = None
    for eps in cfg.eps_list:
        ref = solve_Leps(coeff, W, eps, FineGrid(cfg.dim, radius,
                                                 eps / cfg.fd_h_rule),
                         max(b + 1, 3), keep_vectors=keep_vectors,
                         shifts=shifts)
        shifts = ref.axis_eigenvalues_h2 or None
        floor = ref.wall_terms @ (1.0 / tails)
        errors = each(ref, floor)
        # the loop variable would hold the reference through the next solve
        del ref
        over = [f"lambda_{k + 1}: {floor[k]:.3e} against {err:.3e}"
                for k, err in errors if floor[k] >= 0.1 * err]
        if over:
            warnings.append({
                "code": "RadiusNotConverged", "eps": eps,
                "detail": f"the box floor reaches a tenth of the error "
                          f"({', '.join(over)}); widen discretization.radius"})
    return radius


def run(cfg: RunConfig):
    """Execute the full pipeline; returns (manifest, comparison rows).

    One lap clock, started on the first line, times it: lap(stage) adds
    the seconds since the previous lap to timings[stage] and returns them,
    so the stages imports, homogenize, spectrum, expand, reference,
    compare and summary (the fits, the c1 envelope and the manifest
    fields) add up to the whole call.  Each eps laps reference on entry to
    its comparison (its solve) and compare on exit, and its rows'
    runtime_s split the two laps.  Its per_eps entry records the box floor
    of every reference eigenvalue, which stage_reference holds against the
    eig_err of each row.
    """
    last = time.perf_counter()
    timings = {}

    def lap(stage):
        nonlocal last
        start, last = last, time.perf_counter()
        timings[stage] = timings.get(stage, 0.0) + (last - start)
        return last - start

    # the first import of the reference stage loads LAPACK's _flapack
    from .reference import check_diagonal, fit_rate, match_and_compare
    lap("imports")
    warnings = []
    # eigenfunctions are compared in 1D only: a 2D reference keeps no vectors
    compare = cfg.compare_eigenfunctions and cfg.dim == 1
    store, abar, abar3_sym = stage_homogenize(cfg, warnings)
    check_diagonal(store.coeff)
    lap("homogenize")
    spec = stage_spectrum(cfg, store.W, abar)
    lap("spectrum")
    branches, P_build, P_eps = stage_expand(cfg, store, spec, warnings)
    summary = expansion_summary(branches)
    lap("expand")

    rows = []
    per_eps_meta = []

    def compare_eps(ref, floor):
        solved = lap("reference")
        eps = ref.eps
        eps_rows = match_and_compare(ref, branches, eps, P=P_eps[eps])
        per_eps_meta.append({
            "eps": eps, "P": P_eps[eps], "path": ref.path,
            "h_route": list(ref.h_routes),
            "richardson_estimate": [float(v) for v in ref.error_estimates],
            "box_floor": floor.tolist(),
            "lambda_ref": [float(v) for v in ref.eigenvalues],
            "polish_steps": [row.polish_steps for row in eps_rows],
        })
        elapsed = solved + lap("compare")
        for row in eps_rows:
            row.runtime_s = elapsed / len(eps_rows)
        rows.extend(eps_rows)
        return [(row.index, row.eig_err) for row in eps_rows]

    radius = stage_reference(cfg, store, abar, spec, compare, warnings,
                             compare_eps)
    lap("reference")

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
            except HomspecError as exc:
                fits[f"branch{r}_{name}"] = {"error": str(exc)}

    # zeroth-order envelope constant per reference index
    c1 = {}
    for k, lam0k in enumerate(spec.eigenvalues):
        ratios = [abs(meta["lambda_ref"][k] - lam0k)
                  / (meta["eps"] * lam0k ** 1.5)
                  for meta in per_eps_meta
                  if lam0k > 0 and k < len(meta["lambda_ref"])]
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
        longdouble_nmant=int(np.finfo(np.longdouble).nmant),
        blas_threads={name: os.environ.get(name)
                      for name in THREAD_VARIABLES},
        hierarchy_residual_max=hierarchy_residual_max(branches),
        **summary,
        per_eps=per_eps_meta,
        fits=fits,
        c1_envelope=c1,
        warnings=warnings,
        timings=timings,
    )
    # the manifest holds timings itself, so this last lap lands in it
    lap("summary")
    return manifest, rows


# --- artifacts -------------------------------------------------------------------

# the columns of sweep.csv as (header, ComparisonRow field, type): a float
# is written as its repr, runtime_s to the millisecond
CSV_COLUMNS = (
    ("epsilon", "eps", float), ("j", "j", int), ("branch", "branch", int),
    ("lambda_ref", "lambda_ref", float),
    ("lambda_ref_richardson", "lambda_ref_richardson", float),
    ("lambda_tilde", "lambda_tilde", float), ("eig_err", "eig_err", float),
    ("l2_err", "l2_err", float), ("h1_err", "h1_err", float),
    ("h", "h", float), ("R", "radius", float),
    ("runtime_s", "runtime_s", float),
)


def _csv_cell(name: str, kind: type, value):
    if name == "runtime_s":
        return f"{value:.3f}"
    return repr(value) if kind is float else value


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header for header, _, _ in CSV_COLUMNS)
    for row in rows:
        w.writerow(_csv_cell(name, kind, getattr(row, name))
                   for _, name, kind in CSV_COLUMNS)
    return buf.getvalue()


def rows_from_csv(text: str) -> list:
    """Rows of a ``sweep.csv`` text as written by rows_to_csv."""
    from .reference import ComparisonRow
    return [ComparisonRow(index=None, polish_steps=None, **{
        name: kind(rec[header]) for header, name, kind in CSV_COLUMNS})
        for rec in csv.DictReader(io.StringIO(text))]


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
