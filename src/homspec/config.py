"""Run configuration: INI-style file with four sections.

Grammar (stdlib configparser syntax, all keys lowercase):

    [problem]
    dim = 1 | 2
    a   = <expr>                 ; isotropic coefficient a(y) * I
    a_samples = <path.npy>       ; alternative: grid samples (smoothness
                                 ;   warning recorded in the manifest)
    a11 = <expr>  a22 = <expr>   ; alternative: diagonal / full matrix
    a12 = <expr>                 ;   (a21 is implied by symmetry)
    w   = <poly expr>            ; confining potential, degree 2

    [discretization]
    torus_modes   = 128          ; Fourier modes per axis on the cell
    hermite_size  = 48           ; Hermite functions per axis
    hermite_sigma = auto         ; or a positive number
    solver_tol    = 1e-12
    fd_h_rule     = 16           ; fine grid h = eps / fd_h_rule
    radius        = auto         ; box radius, or a number
    radius_safety = 3.0          ; used when radius = auto
    validate_radius = false      ; doubling check before the sweep

    [experiment]
    j       = 1                  ; 1-based homogenized eigenvalue index
    count   = 8                  ; computed homogenized eigenvalues
    eps     = 0.1, 0.05, 0.025   ; sorted descending
    p_order = auto               ; or an integer >= 2
    p_rule_c = 1.0
    compare_eigenfunctions = true

    [output]
    directory = out

Coefficient expressions may use y1, y2 (or y in 1D), numbers, pi, cos, sin,
+ - * / and ** with integer exponents.  Potential expressions use x1, x2
(or x) and polynomial operations only.  Parsing is a whitelisted walk of the
Python AST; anything outside the grammar is a ConfigError.
"""

from __future__ import annotations

import ast
import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .slowpoly import SlowPolynomial

_ALLOWED_FUNCS = {"cos": np.cos, "sin": np.sin}


def _parse_expression(text: str, names: dict, allow_funcs: bool):
    """Compile a whitelisted arithmetic expression to a callable of names."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return lambda env: node.value
            raise ConfigError(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ConfigError(f"unknown name {node.id!r} in {text!r}")
            key = node.id
            return lambda env: env[key]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = walk(node.operand)
            sign = 1.0 if isinstance(node.op, ast.UAdd) else -1.0
            return lambda env: sign * inner(env)
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            op = node.op
            if isinstance(op, ast.Add):
                return lambda env: left(env) + right(env)
            if isinstance(op, ast.Sub):
                return lambda env: left(env) - right(env)
            if isinstance(op, ast.Mult):
                return lambda env: left(env) * right(env)
            if isinstance(op, ast.Div):
                if not allow_funcs:
                    raise ConfigError("division is not allowed in potentials")
                return lambda env: left(env) / right(env)
            if isinstance(op, ast.Pow):
                if not isinstance(node.right, ast.Constant) or \
                        not isinstance(node.right.value, int):
                    raise ConfigError("exponents must be integer literals")
                p = node.right.value
                return lambda env: left(env) ** p
            raise ConfigError(f"operator {op.__class__.__name__} not allowed")
        if isinstance(node, ast.Call) and allow_funcs:
            if not isinstance(node.func, ast.Name) or \
                    node.func.id not in _ALLOWED_FUNCS or node.keywords:
                raise ConfigError(f"only cos/sin calls allowed, got {text!r}")
            fn = _ALLOWED_FUNCS[node.func.id]
            if len(node.args) != 1:
                raise ConfigError("cos/sin take one argument")
            arg = walk(node.args[0])
            return lambda env: fn(arg(env))
        raise ConfigError(
            f"construct {node.__class__.__name__} not allowed in {text!r}"
        )

    return walk(tree)


def parse_coefficient_expr(text: str, dim: int):
    """Callable (y1[, y2]) -> array for one coefficient entry."""
    names = {"pi", "y1"} | ({"y"} if dim == 1 else {"y2"})
    fn = _parse_expression(text, {n: None for n in names}, allow_funcs=True)

    def evaluate(*ys):
        env = {"pi": np.pi, "y1": ys[0]}
        if dim == 1:
            env["y"] = ys[0]
        else:
            env["y2"] = ys[1]
        # a non-finite value is refused where the coefficient is built
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fn(env)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(ys[0])).copy()

    return evaluate


def parse_potential_expr(text: str, dim: int) -> SlowPolynomial:
    """Potential string evaluated over polynomial generators, exactly."""
    names = {"pi", "x1"} | ({"x"} if dim == 1 else {"x2"})
    fn = _parse_expression(text, {n: None for n in names}, allow_funcs=False)
    env = {"pi": np.pi, "x1": SlowPolynomial.variable(dim, 0)}
    if dim == 1:
        env["x"] = env["x1"]
    else:
        env["x2"] = SlowPolynomial.variable(dim, 1)
    out = fn(env)
    if isinstance(out, (int, float)):
        out = SlowPolynomial.constant(dim, float(out))
    if not isinstance(out, SlowPolynomial):
        raise ConfigError(f"potential {text!r} did not reduce to a polynomial")
    return out


@dataclass
class RunConfig:
    """Validated run configuration; the raw key/value table is kept verbatim
    so that the manifest can reproduce the run."""

    dim: int
    a_entries: dict                 # (i, j) -> expression string
    w_expr: str
    a_samples_path: str | None = None   # .npy alternative to expressions
    torus_modes: int = 128
    hermite_size: int = 48
    hermite_sigma: float | None = None
    solver_tol: float = 1e-12
    fd_h_rule: float = 16.0
    radius: float | None = None
    radius_safety: float = 3.0
    validate_radius: bool = False
    j: int = 1
    count: int = 8
    eps_list: tuple = (0.1, 0.05, 0.025)
    p_order: int | None = None      # None means the truncation rule
    p_rule_c: float = 1.0
    compare_eigenfunctions: bool = True
    directory: str = "out"
    raw: dict = field(default_factory=dict, repr=False)

    def potential(self) -> SlowPolynomial:
        return parse_potential_expr(self.w_expr, self.dim)

    def coefficient(self, grid):
        from .torus import CoefficientField as CF
        d = self.dim
        if self.a_samples_path is not None:
            try:
                vals = np.asarray(np.load(self.a_samples_path), dtype=float)
            except (OSError, ValueError, EOFError) as exc:
                raise ConfigError(f"cannot read a_samples "
                                  f"{self.a_samples_path}: {exc}") from exc
            if vals.shape == grid.shape:
                full = np.zeros((d, d) + grid.shape)
                for i in range(d):
                    full[i, i] = vals
                vals = full
            if vals.shape != (d, d) + grid.shape:
                raise ConfigError(
                    f"sampled coefficient shape {vals.shape} does not match "
                    f"the {grid.shape} torus grid (isotropic) or "
                    f"{(d, d) + grid.shape} (matrix)"
                )
            return CF.from_samples(grid, vals)
        fns = [[None] * d for _ in range(d)]
        for (i, jj), expr in self.a_entries.items():
            fns[i][jj] = parse_coefficient_expr(expr, d)
            if i != jj:
                fns[jj][i] = fns[i][jj]
        for i in range(d):
            if fns[i][i] is None:
                raise ConfigError(f"missing diagonal coefficient entry a{i+1}{i+1}")
            for jj in range(d):
                if fns[i][jj] is None:
                    fns[i][jj] = parse_coefficient_expr("0", d)
        return CF.from_matrix(grid, fns)


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    return default


def _floats(text: str) -> tuple:
    items = [t for t in text.replace(",", " ").split() if t]
    return tuple(float(t) for t in items)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for sec in ("problem",):
        if not cp.has_section(sec):
            raise ConfigError(f"missing [{sec}] section")

    try:
        dim = int(_get(cp, "problem", "dim", "1"))
    except ValueError as exc:
        raise ConfigError(f"dim must be an integer: {exc}") from exc
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}")

    a_entries = {}
    a_samples_path = _get(cp, "problem", "a_samples")
    if _get(cp, "problem", "a") is not None:
        for i in range(dim):
            a_entries[(i, i)] = _get(cp, "problem", "a")
    for i in range(dim):
        for jj in range(i, dim):
            key = f"a{i+1}{jj+1}"
            if _get(cp, "problem", key) is not None:
                a_entries[(i, jj)] = _get(cp, "problem", key)
    if not a_entries and a_samples_path is None:
        raise ConfigError(
            "no coefficient given: set a, a11/a22[/a12], or a_samples"
        )
    w_expr = _get(cp, "problem", "w")
    if w_expr is None:
        raise ConfigError("missing potential w")
    # validate the expressions now, before any compute
    for expr in a_entries.values():
        parse_coefficient_expr(expr, dim)
    parse_potential_expr(w_expr, dim)

    def fval(section, key, default):
        raw = _get(cp, section, key)
        if raw is None or raw == "auto":
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be a number") from exc

    def ival(section, key, default):
        raw = _get(cp, section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be an integer") from exc

    sigma_raw = _get(cp, "discretization", "hermite_sigma", "auto")
    radius_raw = _get(cp, "discretization", "radius", "auto")
    p_raw = _get(cp, "experiment", "p_order", "auto")
    eps_raw = _get(cp, "experiment", "eps", "0.1, 0.05, 0.025")
    eps_list = _floats(eps_raw)
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ConfigError("eps must be a list of positive numbers")
    if list(eps_list) != sorted(eps_list, reverse=True):
        raise ConfigError("eps list must be sorted descending")

    cfg = RunConfig(
        dim=dim,
        a_entries=a_entries,
        w_expr=w_expr,
        a_samples_path=a_samples_path,
        torus_modes=ival("discretization", "torus_modes", 128),
        hermite_size=ival("discretization", "hermite_size", 48),
        hermite_sigma=None if sigma_raw in (None, "auto")
        else float(sigma_raw),
        solver_tol=fval("discretization", "solver_tol", 1e-12),
        fd_h_rule=fval("discretization", "fd_h_rule", 16.0),
        radius=None if radius_raw in (None, "auto") else float(radius_raw),
        radius_safety=fval("discretization", "radius_safety", 3.0),
        validate_radius=_get(cp, "discretization", "validate_radius",
                             "false").lower() in ("1", "true", "yes"),
        j=ival("experiment", "j", 1),
        count=ival("experiment", "count", 8),
        eps_list=eps_list,
        p_order=None if p_raw in (None, "auto") else int(p_raw),
        p_rule_c=fval("experiment", "p_rule_c", 1.0),
        compare_eigenfunctions=_get(cp, "experiment", "compare_eigenfunctions",
                                    "true").lower() in ("1", "true", "yes"),
        directory=_get(cp, "output", "directory", "out") or "out",
    )
    if cfg.solver_tol <= 0 or cfg.fd_h_rule < 8:
        raise ConfigError("solver_tol must be positive and fd_h_rule >= 8")
    if cfg.radius is not None and not cfg.radius > 0:
        raise ConfigError("radius must be positive (or auto)")
    if cfg.p_order is not None and cfg.p_order < 2:
        raise ConfigError("p_order must be at least 2")
    if cfg.j < 1 or cfg.count < cfg.j + 1:
        raise ConfigError("need count >= j + 1 to resolve the spectral gap")
    cfg.raw = {s: dict(cp.items(s)) for s in cp.sections()}
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) is the identity."""
    cp = configparser.ConfigParser()
    cp.add_section("problem")
    cp.set("problem", "dim", str(cfg.dim))
    for (i, jj), expr in sorted(cfg.a_entries.items()):
        cp.set("problem", f"a{i+1}{jj+1}", expr)
    if cfg.a_samples_path is not None:
        cp.set("problem", "a_samples", cfg.a_samples_path)
    cp.set("problem", "w", cfg.w_expr)
    cp.add_section("discretization")
    cp.set("discretization", "torus_modes", str(cfg.torus_modes))
    cp.set("discretization", "hermite_size", str(cfg.hermite_size))
    cp.set("discretization", "hermite_sigma",
           "auto" if cfg.hermite_sigma is None else repr(cfg.hermite_sigma))
    cp.set("discretization", "solver_tol", repr(cfg.solver_tol))
    cp.set("discretization", "fd_h_rule", repr(cfg.fd_h_rule))
    cp.set("discretization", "radius",
           "auto" if cfg.radius is None else repr(cfg.radius))
    cp.set("discretization", "radius_safety", repr(cfg.radius_safety))
    cp.set("discretization", "validate_radius", str(cfg.validate_radius).lower())
    cp.add_section("experiment")
    cp.set("experiment", "j", str(cfg.j))
    cp.set("experiment", "count", str(cfg.count))
    cp.set("experiment", "eps", ", ".join(repr(e) for e in cfg.eps_list))
    cp.set("experiment", "p_order",
           "auto" if cfg.p_order is None else str(cfg.p_order))
    cp.set("experiment", "p_rule_c", repr(cfg.p_rule_c))
    cp.set("experiment", "compare_eigenfunctions",
           str(cfg.compare_eigenfunctions).lower())
    cp.add_section("output")
    cp.set("output", "directory", cfg.directory)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
