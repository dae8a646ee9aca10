"""Run configuration: INI-style file with four sections.

Grammar (stdlib configparser syntax, all keys lowercase):

    [problem]
    dim = 1 | 2                  ; default 1
    a   = <expr>                 ; isotropic coefficient a(y) * I
    a_samples = <path.npy>       ; alternative: grid samples (smoothness
                                 ;   warning recorded in the manifest)
    a11 = <expr>  a22 = <expr>   ; alternative: diagonal / full matrix
    a12 = <expr>                 ;   (a21 is implied by symmetry)
    w   = <poly expr>            ; confining potential, degree 2

    [discretization]  [experiment]  [output]
    <key> = <value> | auto       ; one row of SETTINGS per key

Each row of SETTINGS states one key's section, RunConfig field, type,
default and lowest value; RunConfig says what the field means.  A missing
key, or "auto", means the default; for hermite_sigma, radius and p_order it
is decided at run time (default_sigma, truncation_radius, the truncation
rule).  Numbers must be finite and positive, integers and fd_h_rule no
lower than their lowest value, torus_modes even, booleans one of
1/0/true/false/yes/no, eps sorted descending and count >= j + 1; anything
else is a ConfigError, which names the section.key of a bad value.  So is
a section or key outside this grammar (a21 among them: it is implied), and
the error names each one.

Coefficient expressions may use y1, y2 (or y in 1D), numbers, pi, cos, sin,
+ - * / and ** with integer exponents.  Potential expressions use x1, x2
(or x) and polynomial operations only.  Parsing is a whitelisted walk of the
Python AST; anything outside the grammar is a ConfigError.
"""

from __future__ import annotations

import ast
import configparser
import functools
import io
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Setting:
    """One row of SETTINGS.  ``kind`` is int, float, bool, str, or tuple for
    a list of floats; a default of None is decided at run time, and a
    ``low`` of None lets any positive number through."""

    section: str
    key: str
    field: str
    kind: type
    default: object
    low: float | None


# section, key, RunConfig field, type, default, lowest value
SETTINGS = tuple(Setting(*row) for row in (
    ("discretization", "torus_modes", "torus_modes", int, 128, 4),
    ("discretization", "hermite_size", "hermite_size", int, 48, 8),
    ("discretization", "hermite_sigma", "hermite_sigma", float, None, None),
    ("discretization", "solver_tol", "solver_tol", float, 1e-12, None),
    ("discretization", "fd_h_rule", "fd_h_rule", float, 16.0, 8),
    ("discretization", "radius", "radius", float, None, None),
    ("discretization", "radius_safety", "radius_safety", float, 3.0, None),
    ("discretization", "validate_radius", "validate_radius", bool, False,
     None),
    ("experiment", "j", "j", int, 1, 1),
    ("experiment", "count", "count", int, 8, 2),
    ("experiment", "eps", "eps_list", tuple, (0.1, 0.05, 0.025), None),
    ("experiment", "p_order", "p_order", int, None, 2),
    ("experiment", "p_rule_c", "p_rule_c", float, 1.0, None),
    ("experiment", "compare_eigenfunctions", "compare_eigenfunctions", bool,
     True, None),
    ("output", "directory", "directory", str, "out", None),
))

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


@dataclass
class RunConfig:
    """Validated run configuration: the problem, and one field per row of
    SETTINGS."""

    dim: int
    a_entries: dict                 # (i, j) -> expression string
    w_expr: str
    a_samples_path: str | None      # .npy alternative to expressions
    torus_modes: int                # Fourier modes per axis on the cell
    hermite_size: int               # Hermite functions per axis
    hermite_sigma: float | None     # Hermite scale; None: default_sigma
    solver_tol: float               # cell-solve tolerance
    fd_h_rule: float                # fine grid h = eps / fd_h_rule
    radius: float | None            # box radius; None: truncation_radius
    radius_safety: float            # the safety factor of truncation_radius
    validate_radius: bool           # doubling check of the reference box
    j: int                          # 1-based homogenized eigenvalue index
    count: int                      # computed homogenized eigenvalues
    eps_list: tuple                 # the sweep, sorted descending
    p_order: int | None             # None: the truncation rule
    p_rule_c: float                 # the truncation rule's constant c
    compare_eigenfunctions: bool    # L2/H1 errors in 1D
    directory: str                  # sweep output when --out is not given

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
        return CF.from_matrix(grid, fns)


def _read_setting(s: Setting, text: str | None):
    """The value of setting ``s`` given its text in the file; a missing key
    or "auto" is the default.  Any other text that is not a value of the
    setting's type at or above its bound raises a ConfigError naming
    section.key."""
    if text is None or text == "auto":
        return s.default
    where = f"{s.section}.{s.key}"
    if s.kind is bool:
        if text.lower() not in _BOOLEANS:
            raise ConfigError(f"{where} must be one of 1/0/true/false/yes/no, "
                              f"got {text!r}")
        return _BOOLEANS[text.lower()]
    if s.kind is str:
        if not text:
            raise ConfigError(f"{where} must not be empty")
        return text
    items = text.replace(",", " ").split() if s.kind is tuple else [text]
    try:
        values = [int(t) if s.kind is int else float(t) for t in items]
    except ValueError:
        values = []             # refused below like an empty list
    if not values:
        what = {int: "an integer", float: "a number",
                tuple: "a list of numbers"}[s.kind]
        raise ConfigError(f"{where} must be {what}, got {text!r}")
    for v in values:
        if s.kind is not int and not (math.isfinite(v) and v > 0):
            raise ConfigError(f"{where} must be positive and finite, "
                              f"got {text!r}")
        if s.low is not None and v < s.low:
            raise ConfigError(f"{where} must be at least {s.low}, "
                              f"got {text!r}")
    return tuple(values) if s.kind is tuple else values[0]


def _write_setting(s: Setting, value) -> str:
    """The canonical text of a value of setting ``s``; _read_setting reads
    it back to the same value."""
    if value is None:
        return "auto"
    if s.kind is tuple:
        return ", ".join(map(repr, value))
    if s.kind is bool:
        return str(value).lower()
    return repr(value) if s.kind is float else str(value)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not cp.has_section("problem"):
        raise ConfigError("missing [problem] section")
    get = functools.partial(cp.get, fallback=None)    # stripped, or None

    dim_text = get("problem", "dim")
    try:
        dim = 1 if dim_text is None else int(dim_text)
    except ValueError as exc:
        raise ConfigError(f"dim must be an integer: {exc}") from exc
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}")
    known = {"problem": {"dim", "a", "a_samples", "w"}
             | {f"a{i}{jj}" for i in range(1, dim + 1)
                for jj in range(i, dim + 1)}}
    for s in SETTINGS:
        known.setdefault(s.section, set()).add(s.key)
    unknown = []
    for sec in cp.sections():
        if sec not in known:
            unknown.append(f"[{sec}]")
        else:
            unknown += [f"{sec}.{key}" for key in cp.options(sec)
                        if key not in known[sec]]
    if unknown:
        raise ConfigError(f"unknown section or key: {', '.join(unknown)}")

    a_entries = {}
    a_samples_path = get("problem", "a_samples")
    if get("problem", "a") is not None:
        for i in range(dim):
            a_entries[(i, i)] = get("problem", "a")
    for i in range(dim):
        for jj in range(i, dim):
            key = f"a{i+1}{jj+1}"
            if get("problem", key) is not None:
                a_entries[(i, jj)] = get("problem", key)
    if not a_entries and a_samples_path is None:
        raise ConfigError(
            "no coefficient given: set a, a11/a22[/a12], or a_samples"
        )
    w_expr = get("problem", "w")
    if w_expr is None:
        raise ConfigError("missing potential w")
    # validate the expressions now, before any compute
    for expr in a_entries.values():
        parse_coefficient_expr(expr, dim)
    parse_potential_expr(w_expr, dim)

    cfg = RunConfig(
        dim=dim, a_entries=a_entries, w_expr=w_expr,
        a_samples_path=a_samples_path,
        **{s.field: _read_setting(s, get(s.section, s.key))
           for s in SETTINGS},
    )
    if cfg.torus_modes % 2:
        raise ConfigError(f"discretization.torus_modes must be even, "
                          f"got {cfg.torus_modes}")
    if list(cfg.eps_list) != sorted(cfg.eps_list, reverse=True):
        raise ConfigError("eps list must be sorted descending")
    if cfg.count < cfg.j + 1:
        raise ConfigError("need count >= j + 1 to resolve the spectral gap")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) is the identity."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.add_section("problem")
    cp.set("problem", "dim", str(cfg.dim))
    for (i, jj), expr in sorted(cfg.a_entries.items()):
        cp.set("problem", f"a{i+1}{jj+1}", expr)
    if cfg.a_samples_path is not None:
        cp.set("problem", "a_samples", cfg.a_samples_path)
    cp.set("problem", "w", cfg.w_expr)
    for s in SETTINGS:
        if not cp.has_section(s.section):
            cp.add_section(s.section)
        cp.set(s.section, s.key, _write_setting(s, getattr(cfg, s.field)))
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
