"""Batch command-line interface.

Subcommands: homogenize, spectrum, expand, reference, sweep, verify,
plot-data.  Exit codes: 0 success, 2 invariant failure, 3 config or usage
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, HomspecError, NumericalError


def _make_dir(out_dir: str) -> str:
    """Make out_dir and return it; an --out that cannot hold files, such as
    one naming a file or a path under one, is a config error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    return out_dir


def _write(out_dir: str, name: str, text: str):
    """Write text to out_dir/name, making out_dir; a file that cannot be
    written is a config error."""
    path = os.path.join(_make_dir(out_dir), name)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _dump(payload, out_dir, name):
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if out_dir:
        print(_write(out_dir, name, text))
    else:
        print(text)


def _sample_grid(dim, sigma, n):
    """n points per axis of [-4 sigma, 4 sigma]^dim as (coords, index, points):
    the axis coordinates as (n, dim) rows, each point's row among them per
    axis, and the points."""
    from .torus import tensor_rows
    R = 4.0 * sigma
    x = np.linspace(-R, R, n)
    index = tensor_rows(n, dim)
    return (np.repeat(x[:, None], dim, axis=1), index,
            np.stack([x[r] for r in index], axis=1))


# Rows per block of a grid-sample CSV: the formatted values of one block are
# held at once, so the block bounds those transient strings.
CSV_BLOCK = 1024


def _write_grid_samples(out_dir, name, coords, index, columns):
    """CSV of a tensor grid's points and each (header, values) in
    ``columns``; point p has coordinate coords[index[ax][p], ax] on axis ax.

    Each distinct coordinate is formatted once, and every value as repr,
    which is what csv.writer writes for a float; the rows are formatted in
    blocks of CSV_BLOCK.
    """
    axes = [np.array(list(map(repr, coords[:, ax].tolist())), dtype=object)
            for ax in range(coords.shape[1])]
    blocks = [",".join([f"x{ax + 1}" for ax in range(len(axes))]
                       + [h for h, _ in columns])]
    for start in range(0, len(index[0]), CSV_BLOCK):
        rows = slice(start, start + CSV_BLOCK)
        cols = [x[ix[rows]] for x, ix in zip(axes, index)]
        cols += [map(repr, v[rows].tolist()) for _, v in columns]
        blocks.append("\n".join(map(",".join, zip(*cols))))
    print(_write(out_dir, name, "\n".join(blocks) + "\n"))


def cmd_homogenize(cfg: RunConfig, args):
    from .classical import cyclic_check
    from .pipeline import stage_homogenize
    warnings = []
    store, abar, abar3_sym = stage_homogenize(cfg, warnings)
    payload = {
        "abar": abar.tolist(),
        "abar3_sym": abar3_sym.tolist(),
        "cyclic_check": cyclic_check(abar3_sym),
        "theta": store.coeff.theta,
        "lam_min": store.coeff.lam_min,
        "lam_max": store.coeff.lam_max,
        "warnings": warnings,
    }
    _dump(payload, args.out, "homogenize.json")
    return 0


def cmd_spectrum(cfg: RunConfig, args):
    from .hermite import HermiteSampler, spectral_gap
    from .pipeline import stage_homogenize, stage_spectrum
    warnings = []
    store, abar, _ = stage_homogenize(cfg, warnings)
    spec = stage_spectrum(cfg, store.W, abar)
    gaps = {}
    for j in range(1, spec.count):
        try:
            gaps[f"j{j}"] = spectral_gap(spec, j)
        except HomspecError:
            break
    payload = {
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "clusters": [list(c) for c in spec.clusters],
        "gaps": gaps,
        "sigma": spec.basis.sigma,
        "basis_size": spec.basis.size,
        "warnings": warnings,
    }
    _dump(payload, args.out, "spectrum.json")
    if args.out and args.eigenfunction_samples > 0:
        coords, index, _ = _sample_grid(cfg.dim, spec.basis.sigma,
                                        args.eigenfunction_samples)
        sample = HermiteSampler(spec.basis, coords, 0, index)
        _write_grid_samples(
            args.out, "eigenfunctions.csv", coords, index,
            [(f"phi{j}", sample(spec.eigenfunction(j)))
             for j in range(1, spec.count + 1)])
    return 0


def cmd_expand(cfg: RunConfig, args):
    from .expansion import assemble, lambda_tilde
    from .hermite import HermiteSampler
    from .pipeline import (expansion_summary, stage_expand, stage_homogenize,
                           stage_spectrum)
    from .torus import FourierSampler
    warnings = []
    store, abar, _ = stage_homogenize(cfg, warnings)
    spec = stage_spectrum(cfg, store.W, abar)
    branches, P_build, P_eps = stage_expand(cfg, store, spec, warnings)
    per_eps = [{"eps": eps, **{f"lambda_tilde_branch{br.label}":
                               lambda_tilde(br, eps, P_eps[eps])
                               for br in branches}}
               for eps in cfg.eps_list]
    payload = {**expansion_summary(branches), "P": P_build,
               "per_eps": per_eps, "warnings": warnings}
    _dump(payload, args.out, "expand.json")
    if args.out and args.w_samples > 0:
        # one Hermite table for every column and one Fourier basis per eps,
        # shared by the branches, each on the grid's axis coordinates
        coords, index, pts = _sample_grid(cfg.dim, spec.basis.sigma,
                                        args.w_samples)
        sample_x = HermiteSampler(spec.basis, coords, P_build + 1, index)
        columns = []
        for eps in cfg.eps_list:
            sample_y = FourierSampler(store.grid, coords / eps, index)
            columns += [(f"w_eps{eps}_branch{br.label}",
                         assemble(br, eps, pts, P=P_eps[eps], gradient=False,
                                  sample_x=sample_x, sample_y=sample_y).w)
                        for br in branches]
        _write_grid_samples(args.out, "w_samples.csv", coords, index, columns)
    return 0


def cmd_reference(cfg: RunConfig, args):
    from .pipeline import stage_homogenize, stage_reference, stage_spectrum
    warnings = []
    store, abar, _ = stage_homogenize(cfg, warnings)
    spec = stage_spectrum(cfg, store.W, abar)
    radius, radius_shift, _, refs = stage_reference(
        cfg, store, spec, keep_vectors=False, warnings=warnings)
    payload = {"radius": radius, "radius_shift": radius_shift, "per_eps": [],
               "warnings": warnings}
    for eps in cfg.eps_list:
        ref, _ = refs[eps]
        payload["per_eps"].append({
            "eps": eps,
            "lambda_h": [float(v) for v in ref.eigenvalues_h],
            "lambda_richardson": [float(v) for v in ref.eigenvalues],
            "estimate": [float(v) for v in ref.error_estimates],
            "path": ref.path,
        })
    _dump(payload, args.out, "reference.json")
    return 0


def cmd_sweep(cfg: RunConfig, args):
    from .pipeline import emit_plot_data, rows_to_csv, run
    # an --out that cannot hold the output fails before the sweep runs
    out = _make_dir(args.out or cfg.directory)
    manifest, rows = run(cfg)
    print(_write(out, "manifest.json", manifest.to_json()))
    print(_write(out, "sweep.csv", rows_to_csv(rows)))
    try:
        for name, text in emit_plot_data(manifest.fits, rows).items():
            print(_write(out, f"plot_{name}.csv", text))
    except HomspecError:
        pass
    return 0


def cmd_verify(cfg, args):
    from .verify import report, run_invariants
    results = run_invariants(tolerance_scale=args.tolerance_scale)
    print(report(results))
    return 0 if all(r.passed for r in results) else 2


def cmd_plot_data(cfg, args):
    from .pipeline import emit_plot_data, rows_from_csv
    if not args.manifest:
        raise ConfigError("plot-data needs --manifest pointing at a sweep dir")
    try:
        with open(os.path.join(args.manifest, "manifest.json")) as fh:
            fits = json.load(fh)["fits"]
        with open(os.path.join(args.manifest, "sweep.csv")) as fh:
            rows = rows_from_csv(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read the sweep in {args.manifest}: "
                          f"{exc}") from exc
    out = args.out or args.manifest
    for name, text in emit_plot_data(fits, rows).items():
        print(_write(out, f"plot_{name}.csv", text))
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _tolerance_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = _Parser(
        prog="homspec",
        description="Spectral expansions for periodic divergence-form "
                    "Schrodinger operators, with a fine-grid verification "
                    "harness.",
    )
    parser.add_argument("--config", help="path to the run configuration")
    parser.add_argument("--out", help="output directory (default: print/config)")
    parser.add_argument("--manifest", help="directory with a sweep run (plot-data)")
    parser.add_argument("--tolerance-scale", type=_tolerance_scale, default=1.0,
                        dest="tolerance_scale",
                        help="multiply invariant thresholds (verify)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("homogenize", "spectrum", "expand", "reference", "sweep",
                 "verify", "plot-data"):
        p = sub.add_parser(name)
        if name == "spectrum":
            p.add_argument("--eigenfunction-samples", type=int, default=0)
        if name == "expand":
            p.add_argument("--w-samples", type=int, default=0,
                           dest="w_samples",
                           help="sample the expanded eigenfunction on a grid")
        if name == "plot-data":
            # also accepted after the subcommand; SUPPRESS keeps a value given
            # before it from being overwritten by this parser's default
            p.add_argument("--manifest", default=argparse.SUPPRESS,
                           help="directory with a sweep run")
    cfg = None
    try:
        args = parser.parse_args(argv)
        if args.command not in ("verify", "plot-data"):
            if not args.config:
                raise ConfigError(f"{args.command} requires --config")
            cfg = load_config(args.config)
        handler = {
            "homogenize": cmd_homogenize,
            "spectrum": cmd_spectrum,
            "expand": cmd_expand,
            "reference": cmd_reference,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
            "plot-data": cmd_plot_data,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except HomspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
