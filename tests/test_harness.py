"""Config parsing, pipeline runs, verify suite, CLI plumbing."""

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from homspec import cli, pipeline, reference
from homspec.config import (
    SETTINGS,
    load_config,
    parse_coefficient_expr,
    parse_config,
    parse_potential_expr,
    serialize_config,
)
from homspec.errors import ConfigError
from homspec.pipeline import (emit_plot_data, precision_warnings,
                              rows_from_csv, rows_to_csv, run)
from homspec.reference import FineGrid, solve_Leps
from homspec.slowpoly import SlowPolynomial
from homspec.torus import CoefficientField, TorusGrid, tensor_grid
from homspec.verify import report, run_invariants

MINIMAL = """
[problem]
dim = 1
a = 2 + cos(2*pi*y)
w = x**2

[discretization]
torus_modes = 64
hermite_size = 40
solver_tol = 1e-13
radius = 7.0

[experiment]
j = 1
count = 5
eps = 0.125, 0.0625, 0.03125
p_order = 2

[output]
directory = out
"""

# two-branch 2D cluster, coarse enough for a subprocess test; both eps
# violate the epsilon condition
TWO_BRANCH = """
[problem]
dim = 2
a11 = (2 + cos(2*pi*y1)) * 0.5773502691896258
a22 = 1
w = x1**2 + x2**2

[discretization]
torus_modes = 16
hermite_size = 10
fd_h_rule = 8
radius = 6.0

[experiment]
j = 2
count = 5
eps = 0.5, 0.4
p_order = 2
compare_eigenfunctions = false
"""

# TWO_BRANCH at smaller eps with the truncation rule choosing P: the
# branches are built to P = 5, and the rule, capped by the decay of the
# computed mu_p, evaluates eps = 1/8 at P = 2 and eps = 1/24 at P = 3
TWO_BRANCH_AUTO_P = (TWO_BRANCH.replace("0.5, 0.4", "0.125, 0.041666666666666664")
                     .replace("p_order = 2", "p_rule_c = 10.0"))

# texts that no number, integer or boolean reads as a value and that do
# not spell auto: no digit, sign or dot, none of the letters e f i l n o s
# t y, and no comment, list or space character
JUNK = st.text(alphabet="abcdgjkmpqruvwxz!?@$&*()<>", min_size=1, max_size=6)


def _setting(key):
    return next(s for s in SETTINGS if s.key == key)


def _with_setting(s, value):
    """MINIMAL with setting ``s`` given as the text ``value``."""
    lines = [line for line in MINIMAL.splitlines()
             if not line.startswith(f"{s.key} =")]
    at = lines.index(f"[{s.section}]") + 1
    return "\n".join(lines[:at] + [f"{s.key} = {value}"] + lines[at:]) + "\n"


def _bad_texts(s):
    """Texts that setting ``s`` must refuse."""
    if s.kind is str:
        return st.just("")
    junk = st.builds(str.__add__, st.sampled_from(["", "1", "0.5", "-2"]), JUNK)
    if s.kind is bool:
        return junk | st.sampled_from(["nan", "inf", "2", "-1", "treu"])
    out = (junk | st.sampled_from(["nan", "inf", "-inf", "0", "-0.0"])
           | st.integers(max_value=-1).map(str)
           | st.floats(max_value=0.0, allow_nan=False).map(repr))
    if s.low is not None:
        below = (st.integers(max_value=s.low - 1) if s.kind is int else
                 st.floats(0.0, s.low, exclude_max=True))
        out = out | below.map(str)
    if s.kind is tuple:
        out = out | st.builds("0.5, {}".format, junk | st.just("nan"))
    if s.key == "torus_modes":
        out = out | st.integers(2, 250).map(lambda k: str(2 * k + 1))
    return out


# typos that would otherwise run with a default, and the name the error
# gives each: a misspelled key or section, and an entry the dimension does
# not have (a21 is implied by symmetry)
UNKNOWN_KEYS = [
    (MINIMAL.replace("torus_modes = 64", "torus_mode = 8"),
     "discretization.torus_mode"),
    (MINIMAL.replace("p_order = 2", "p_oder = 7"), "experiment.p_oder"),
    (MINIMAL.replace("[experiment]", "[experimnt]"), "[experimnt]"),
    (TWO_BRANCH.replace("a22 = 1", "a22 = 1\na21 = 0.5"), "problem.a21"),
    (MINIMAL.replace("w = x**2", "w = x**2\na22 = 1"), "problem.a22"),
]
KNOWN_KEYS = {"problem": {"dim", "a", "a_samples", "w", "a11"}}
for _s in SETTINGS:
    KNOWN_KEYS.setdefault(_s.section, set()).add(_s.key)


def _valid_texts(s):
    """Texts that setting ``s`` reads as a value (or as its default)."""
    if s.kind is bool:
        out = st.sampled_from(["1", "0", "true", "False", "yes", "NO"])
    elif s.kind is str:
        out = st.text(alphabet="abcxyz0189-_./%", min_size=1, max_size=12)
    elif s.key == "torus_modes":
        out = st.integers(s.low // 2, 250).map(lambda k: str(2 * k))
    elif s.kind is int:
        out = st.integers(s.low, s.low + 500).map(str)
    else:
        number = st.floats(min_value=s.low or 0.0, max_value=1e300,
                           exclude_min=s.low is None, allow_nan=False)
        out = number.map(repr)
        if s.kind is tuple:
            out = st.lists(number, min_size=1, max_size=4).map(
                lambda v: ", ".join(map(repr, sorted(v, reverse=True))))
    return out | st.just("auto")


def _csv_floats(text):
    """Every data cell of a CSV text as a float (fails on any other form)."""
    return [[float(v) for v in line.split(",")]
            for line in text.splitlines()[1:]]


class TestExpressions:
    def test_coefficient_parse(self):
        fn = parse_coefficient_expr("2 + cos(2*pi*y)", 1)
        y = np.linspace(0, 1, 9)
        assert np.allclose(fn(y), 2 + np.cos(2 * np.pi * y))

    def test_coefficient_2d(self):
        fn = parse_coefficient_expr("1.5 + 0.5*sin(2*pi*(y1 + y2))", 2)
        y1 = np.array([0.1, 0.3])
        y2 = np.array([0.7, 0.2])
        assert np.allclose(fn(y1, y2), 1.5 + 0.5 * np.sin(2 * np.pi * (y1 + y2)))

    def test_constant_broadcast(self):
        fn = parse_coefficient_expr("1", 2)
        y = np.zeros((3, 3))
        assert fn(y, y).shape == (3, 3)

    def test_potential_parse(self):
        W = parse_potential_expr("x1**2 + x2**2", 2)
        assert W.coeffs == {(2, 0): 1.0, (0, 2): 1.0}
        W1 = parse_potential_expr("2*x**2 + x + 1", 1)
        assert W1.coeffs == {(2,): 2.0, (1,): 1.0, (0,): 1.0}

    def test_rejects_evil(self):
        with pytest.raises(ConfigError):
            parse_coefficient_expr("__import__('os')", 1)
        with pytest.raises(ConfigError):
            parse_coefficient_expr("y.__class__", 1)
        with pytest.raises(ConfigError):
            parse_potential_expr("cos(x)", 1)

    def test_rejects_unknown_name(self):
        with pytest.raises(ConfigError):
            parse_coefficient_expr("z + 1", 1)

    # each accepted expression with the same value written out with numpy
    # (coefficients, of y or of y1 and y2) or SlowPolynomial (potentials, of
    # x or of x1 and x2); unary + and - as the products 1.0 * v and -1.0 * v
    @pytest.mark.parametrize("text, dim, want", [
        ("+y**2", 1, lambda y: 1.0 * y ** 2),
        ("-y", 1, lambda y: -1.0 * y),
        ("2 - y**2", 1, lambda y: 2 - y ** 2),
        ("y**2 - -1", 1, lambda y: y ** 2 - -1.0),
        ("y**True", 1, lambda y: y ** 1),
        ("-2*cos(2*pi*y)", 1, lambda y: -2.0 * np.cos(2 * np.pi * y)),
        ("1/(2 + sin(2*pi*y1))", 1, lambda y: 1 / (2 + np.sin(2 * np.pi * y))),
        ("-3", 1, lambda y: np.full_like(y, -3.0)),
        ("y1*y2 - +y2/3", 2, lambda y1, y2: y1 * y2 - 1.0 * y2 / 3),
    ])
    def test_coefficient_values(self, text, dim, want):
        ys = np.linspace(-1.0, 1.0, 7 * dim).reshape(dim, 7) + 0.1
        assert parse_coefficient_expr(text, dim)(*ys).tobytes() == \
            want(*ys).tobytes()

    @pytest.mark.parametrize("text, dim, want", [
        ("+x**2", 1, lambda x: 1.0 * x ** 2),
        ("-x + 2*x**2", 1, lambda x: -1.0 * x + 2 * x ** 2),
        ("2 - x**2", 1, lambda x: 2 - x ** 2),
        ("x**2 - -1", 1, lambda x: x ** 2 - -1.0),
        ("x**True", 1, lambda x: x),
        ("pi*x**2 - 0.1*x", 1, lambda x: np.pi * x ** 2 - 0.1 * x),
        ("-3", 1, lambda x: SlowPolynomial.constant(1, -3.0)),
        ("x1**2 + x2**2 - -x1*x2", 2,
         lambda x1, x2: x1 ** 2 + x2 ** 2 - (-1.0 * x1) * x2),
        ("(x1 - 0.3*x2)**2 + +x2**2", 2,
         lambda x1, x2: (x1 - 0.3 * x2) ** 2 + 1.0 * x2 ** 2),
    ])
    def test_potential_values(self, text, dim, want):
        xs = [SlowPolynomial.variable(dim, ax) for ax in range(dim)]
        got, expect = parse_potential_expr(text, dim), want(*xs)
        assert (got.dim, got.coeffs) == (expect.dim, expect.coeffs)

    @pytest.mark.parametrize("text", [
        "y.real", "y[0]", "(lambda: 1)()", "[y for y in (1, 2)]",
        "{y: 1 for y in (1,)}", "(z := y)", "cos(y=y)", "cos(*y)",
        "cos(y, y)", "cos()", "'y'", "b'y'", "1j", "y < 1", "0 < y < 1",
        "y and 1", "not y", "1 if y else 2", "y**y", "y**2.0", "y**-1",
        "cos + 1", "pi(1)", "y(2)", "cos(y)(y)", "z + 1", "x",
        "__import__('os')", "y % 2", "y // 2", "y @ y", "y ^ 2", "y << 1",
        "~y", "y2", "f'{y}'", "(y, y)", "[y]", "{y}", "...", "None",
        "y +", "", "1/0", "10.0**400", "10**400", "cos(10**40)",
    ])
    def test_refused_coefficients(self, text):
        # refused where it is parsed, or else where it is evaluated
        with pytest.raises(ConfigError):
            parse_coefficient_expr(text, 1)(np.ones(3))

    @pytest.mark.parametrize("text", [
        "x/2", "x**2/2", "cos(x)", "sin(x)**2", "x**x", "y", "x1 + x2",
        "x % 2", "x // 2", "-x.real", "x**2 if x else 1", "abs(x)",
        "10.0**400*x**2", "x**2*10**400", "10**400", "1e400*x**2",
    ])
    def test_refused_potentials(self, text):
        with pytest.raises(ConfigError):
            parse_potential_expr(text, 1)


class TestConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(MINIMAL)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert serialize_config(cfg2) == text
        assert cfg2.eps_list == cfg.eps_list
        assert cfg2.a_entries == cfg.a_entries

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            parse_config("[problem]\ndim = 3\na = 1\nw = x**2\n")
        with pytest.raises(ConfigError):
            parse_config("[problem]\ndim = 1\nw = x**2\n")
        with pytest.raises(ConfigError):
            parse_config("[problem]\ndim = 1\na = 1\nw = x**2\n"
                         "[experiment]\neps = 0.1, 0.2\n")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bad_setting_names_its_key(self, data):
        # malformed text, nan, inf, zero, negative and below-bound values of
        # every setting are refused with section.key in the message
        s = data.draw(st.sampled_from(SETTINGS))
        text = _with_setting(s, data.draw(_bad_texts(s)))
        with pytest.raises(ConfigError,
                           match=re.escape(f"{s.section}.{s.key} ")):
            parse_config(text)

    @pytest.mark.parametrize("text, name", UNKNOWN_KEYS)
    def test_unknown_key_is_named(self, text, name):
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown section or key: {name}")):
            parse_config(text)

    @settings(max_examples=100, deadline=None)
    @given(section=st.sampled_from(sorted(KNOWN_KEYS)),
           key=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
                       max_size=12))
    def test_any_unknown_key_is_named(self, section, key):
        # a key no row of the grammar knows, in any section, is refused
        # by its section.key
        assume(key not in KNOWN_KEYS[section])
        lines = MINIMAL.splitlines()
        at = lines.index(f"[{section}]") + 1
        text = "\n".join(lines[:at] + [f"{key} = 1"] + lines[at:]) + "\n"
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            parse_config(text)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_valid_settings_round_trip(self, data):
        # random valid values, some keys left out: serialize then parse
        # gives the same config, and serializing that gives the same text
        texts = {s.key: data.draw(_valid_texts(s)) for s in SETTINGS
                 if data.draw(st.booleans())}
        j = int(texts.get("j", "auto").replace("auto", "1"))
        if int(texts.get("count", "auto").replace("auto", "8")) < j + 1:
            texts["count"] = str(j + 1)
        sections = {}
        for s in SETTINGS:
            if s.key in texts:
                sections.setdefault(s.section, []).append(
                    f"{s.key} = {texts[s.key]}")
        cfg = parse_config("[problem]\ndim = 1\na = 1\nw = x**2\n" + "".join(
            f"[{name}]\n" + "\n".join(lines) + "\n"
            for name, lines in sections.items()))
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    def test_auto_is_the_default(self):
        # "auto" means the table's default for every setting
        cfg = parse_config(MINIMAL)
        for s in SETTINGS:
            auto = parse_config(_with_setting(s, "auto"))
            assert getattr(auto, s.field) == s.default
            assert auto == dataclasses.replace(cfg, **{s.field: s.default})

    def test_matrix_entries(self):
        text = MINIMAL.replace("dim = 1", "dim = 2").replace(
            "a = 2 + cos(2*pi*y)",
            "a11 = 2 + cos(2*pi*y1)\na22 = 1\n").replace(
            "w = x**2", "w = x1**2 + x2**2")
        cfg = parse_config(text)
        assert set(cfg.a_entries) == {(0, 0), (1, 1)}

    def test_sampled_coefficient(self, tmp_path):
        # grid-sample arrays are accepted in place of expressions, and the
        # run flags the reduced-accuracy path
        from homspec.torus import TorusGrid
        n = 64
        y = np.arange(n) / n
        vals = 2.0 + np.cos(2 * np.pi * y)
        path = tmp_path / "a.npy"
        np.save(path, vals)
        text = MINIMAL.replace("a = 2 + cos(2*pi*y)",
                               f"a_samples = {path}")
        cfg = parse_config(text)
        coeff = cfg.coefficient(TorusGrid(1, n))
        assert coeff.entry_fns is None
        assert abs(coeff.a.values[0, 0][3] - vals[3]) < 1e-14
        manifest, _ = run(cfg)
        assert any(w["code"] == "RoughCoefficient"
                   for w in manifest.warnings)
        assert abs(manifest.abar[0][0] - np.sqrt(3.0)) < 1e-10


@pytest.fixture(scope="module")
def mini_run():
    cfg = parse_config(MINIMAL)
    return cfg, *run(cfg)


class TestPipeline:
    def test_manifest_contents(self, mini_run):
        cfg, manifest, rows = mini_run
        assert manifest.cluster_size == 1
        assert abs(manifest.abar[0][0] - np.sqrt(3.0)) < 1e-10
        assert manifest.lambda0 == pytest.approx(3.0 ** 0.25, rel=1e-9)
        assert manifest.gamma == pytest.approx(2 * 3.0 ** 0.25, rel=1e-8)
        assert abs(manifest.mu["0"] if isinstance(manifest.mu, dict) and
                   "0" in manifest.mu else manifest.mu[0][1]) < 1e-10
        assert len(rows) == len(cfg.eps_list)
        # manifest alone reproduces the run
        cfg2 = parse_config(manifest.config_text)
        assert serialize_config(cfg2) == manifest.config_text

    def test_eigenvalue_slope(self, mini_run):
        _, manifest, _ = mini_run
        fit = manifest.fits["branch0_zeroth"]
        assert 1.9 < fit["slope"] < 2.2
        assert fit["r2"] > 0.99

    def test_c1_envelope(self, mini_run):
        _, manifest, _ = mini_run
        assert all(v < 1.0 for v in manifest.c1_envelope.values())

    def test_compare_timing(self, mini_run):
        # runtime_s is each eps's reference solve plus its comparison,
        # split over that eps's rows
        _, manifest, rows = mini_run
        t = manifest.timings
        assert t["compare"] >= 0.0
        total = sum(row.runtime_s for row in rows)
        assert t["compare"] - 1e-9 <= total <= t["reference"] + t["compare"] + 1e-9

    def test_timings_cover_run(self):
        # one lap clock times run from its first line to its last: the
        # stages add up to the whole call
        cfg = parse_config(MINIMAL)
        start = time.perf_counter()
        manifest, _ = run(cfg)
        wall = time.perf_counter() - start
        assert set(manifest.timings) == {
            "imports", "homogenize", "spectrum", "expand", "reference",
            "compare", "summary"}
        assert sum(manifest.timings.values()) >= 0.98 * wall, (
            manifest.timings, wall)

    def test_csv_deterministic(self, mini_run):
        cfg, manifest, rows = mini_run
        text1 = rows_to_csv(rows)
        manifest2, rows2 = run(cfg)
        text2 = rows_to_csv(rows2)
        strip = lambda t: ["," .join(line.split(",")[:-1])
                           for line in t.splitlines()]
        assert strip(text1) == strip(text2)       # identical up to runtime_s

    def test_plot_data(self, mini_run):
        _, manifest, rows = mini_run
        out = emit_plot_data(manifest.fits, rows)
        assert "eig_err" in out
        header = out["eig_err"].splitlines()[0]
        assert header.startswith("epsilon,branch,eig_err,fit_slope")

    def test_plot_data_insufficient(self, mini_run):
        from homspec.errors import InsufficientPoints
        _, manifest, rows = mini_run
        one_eps = [r for r in rows if r.eps == rows[0].eps]
        with pytest.raises(InsufficientPoints):
            emit_plot_data(manifest.fits, one_eps)

    def test_rows_csv_round_trip(self, mini_run):
        _, _, rows = mini_run
        back = rows_from_csv(rows_to_csv(rows))
        strip = lambda r: dataclasses.replace(r, runtime_s=0.0)
        assert [strip(r) for r in back] == [strip(r) for r in rows]

    def test_per_eps_path(self, mini_run):
        # each eps records the eigensolve path its reference took
        cfg, manifest, _ = mini_run
        assert [e["path"] for e in manifest.per_eps] == (
            ["tridiagonal"] * len(cfg.eps_list))

    def test_per_eps_polish_steps(self, mini_run):
        # each eps records the Newton steps of every compared pair's polish:
        # one step reaches the rounding floor and the next stops on the
        # plateau
        from homspec.reference import POLISH_STEPS
        cfg, manifest, rows = mini_run
        assert [e["polish_steps"] for e in manifest.per_eps] == [
            [row.polish_steps for row in rows if row.eps == eps]
            for eps in cfg.eps_list]
        assert all(1 <= row.polish_steps <= POLISH_STEPS for row in rows)

    def test_manifest_hierarchy_field(self, mini_run):
        _, manifest, _ = mini_run
        assert manifest.hierarchy_residual_max < 1e-8

    def test_2d_fits_only_measured_errors(self):
        # compare_eigenfunctions (on by default) compares eigenfunctions in
        # 1D only, so a 2D sweep fits no L2 or H1 series
        cfg = parse_config(TWO_BRANCH.replace("compare_eigenfunctions = false\n",
                                              ""))
        assert cfg.compare_eigenfunctions
        manifest, rows = run(cfg)
        assert sorted(manifest.fits) == ["branch0_eig", "branch0_zeroth",
                                         "branch1_eig", "branch1_zeroth"]
        assert all(np.isnan(row.l2_err) and np.isnan(row.h1_err)
                   for row in rows)

    def test_hierarchy_residual_warns(self, monkeypatch):
        # a macroscopic hierarchy residual above 1e-8 adds one
        # HierarchyResidual warning, and the manifest records it
        monkeypatch.setattr(pipeline, "hierarchy_residual_max",
                            lambda branches: 2e-8)
        manifest, _ = run(parse_config(MINIMAL))
        assert [w["code"] for w in manifest.warnings] == ["HierarchyResidual"]
        assert manifest.hierarchy_residual_max == 2e-8

    def test_one_solve_per_eps(self, monkeypatch):
        # every reference reads its box floor off the vectors it forms:
        # one solve_Leps per eps, on the configured box, and a floor per
        # reference eigenvalue far below the errors at radius 7
        calls = []
        solve = reference.solve_Leps

        def counting(coeff, W, eps, grid, *args, **kwargs):
            calls.append((eps, grid.radius))
            return solve(coeff, W, eps, grid, *args, **kwargs)

        monkeypatch.setattr(reference, "solve_Leps", counting)
        cfg = parse_config(MINIMAL)
        manifest, _ = run(cfg)
        assert calls == [(eps, 7.0) for eps in cfg.eps_list]
        for meta in manifest.per_eps:
            assert len(meta["box_floor"]) == len(meta["lambda_ref"])
            assert 0.0 <= max(meta["box_floor"]) < 1e-9
        assert manifest.warnings == []

    def test_no_reference_outlives_its_eps(self, monkeypatch):
        # stage_reference drops each eps's reference once it is compared:
        # none is alive when the next eps is solved
        alive = []
        solve = reference.solve_Leps

        def tracking(*args, **kwargs):
            assert all(ref() is None for ref in alive)
            out = solve(*args, **kwargs)
            alive.append(weakref.ref(out))
            return out

        monkeypatch.setattr(reference, "solve_Leps", tracking)
        cfg = parse_config(MINIMAL)
        _, rows = run(cfg)
        assert len(alive) == len(cfg.eps_list)
        assert all(ref() is None for ref in alive)
        assert all(np.isfinite(row.l2_err) for row in rows)

    def test_1d_sweep_holds_one_eps(self):
        # a 1D sweep solves, compares and drops one eps at a time, and the
        # comparison samples the nodes a block at a time: the run's
        # allocations peak below 26 float64 arrays of the finest h/2 grid
        # (about 30 when every eps's reference was held through the
        # comparisons and the envelopes were sampled at every node at once)
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                       "configs", "simple-1d.ini"))
        tracemalloc.start()
        try:
            manifest, rows = run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = reference.FineGrid(1, manifest.radius, min(cfg.eps_list)
                               / cfg.fd_h_rule / 2.0).n_interior
        assert m > 70_000
        assert all(np.isfinite(row.h1_err) for row in rows)
        assert peak < 26 * 8 * m

    def test_h_routes_of_a_sweep(self):
        # the first eps solves its h grid by bisection, and every later one
        # warm, from the h/2 eigenvalues of the eps before
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                       "configs", "simple-1d.ini"))
        manifest, _ = run(cfg)
        assert cfg.eps_list[0] == 0.1 and len(cfg.eps_list) == 5
        assert [e["h_route"] for e in manifest.per_eps] == (
            [["bisection"]] + [["warm"]] * 4)

    def test_long_double_width(self, monkeypatch):
        # one rule decides the precision warning: below the 63 mantissa
        # bits of x87 extended precision the reference's floor is gone
        assert precision_warnings(63) == precision_warnings(112) == []
        [warning] = precision_warnings(52)
        assert warning["code"] == "NarrowLongDouble"
        assert warning["nmant"] == 52
        # a sweep records the width it ran with and carries the rule's
        # warning, here from a rule that asks one bit more than it has
        nmant = np.finfo(np.longdouble).nmant
        monkeypatch.setattr(pipeline, "EXTENDED_NMANT", nmant + 1)
        manifest, _ = run(load_config(os.path.join(
            os.path.dirname(__file__), "..", "configs", "minimal.ini")))
        assert manifest.longdouble_nmant == nmant
        assert [w["code"] for w in manifest.warnings] == ["NarrowLongDouble"]

    def test_manifest_cell_solves(self):
        # homogenize and the two-branch cluster share one corrector store:
        # the multiple-2d sweep solves 7 cell problems (13 when homogenize
        # solved the ordered pairs on its own) to a residual below 1e-10
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                       "configs", "multiple-2d.ini"))
        manifest, _ = run(cfg)
        assert manifest.cell_solves == 7
        assert 0.0 < manifest.cell_residual_max < 1e-10

    @pytest.mark.parametrize("text", [MINIMAL, TWO_BRANCH],
                             ids=["1d", "separable"])
    def test_manifest_blas_threads(self, monkeypatch, text):
        # every sweep, 1D and 2D alike, records the thread variables as it
        # saw them, None where unset: a separable 2D run too, which factors
        # no dense matrix
        for name in pipeline.THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        manifest, _ = run(parse_config(text))
        assert manifest.blas_threads == {"OMP_NUM_THREADS": None,
                                         "OPENBLAS_NUM_THREADS": "3",
                                         "MKL_NUM_THREADS": None}

    @pytest.mark.parametrize("config", ["minimal", "simple-1d", "multiple-2d"])
    @pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")],
                             ids=["builtin", "hashlib"])
    def test_config_hash_is_sha256(self, monkeypatch, config, blocked):
        # the built-in SHA-256 gives hashlib's digest, and so does the
        # hashlib fallback of an interpreter built without it
        import hashlib
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                       "configs", f"{config}.ini"))
        text = serialize_config(cfg).encode()
        assert pipeline.config_hash(cfg) == (
            hashlib.sha256(text).hexdigest()[:16])


GRID_SAMPLE_FLOATS = st.floats() | st.sampled_from([
    -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 9999999999999998.0,
    1e-05, 9.999999999999999e-06, 1e-04, 3.0, -42.0, 1e22])


class TestGridSamples:
    # every example writes a file of over a thousand rows, so shrinking a
    # failure would take minutes: the failing example is reported unshrunk
    @settings(max_examples=25, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(pool=st.lists(GRID_SAMPLE_FLOATS, min_size=1, max_size=40),
           seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           ncols=st.integers(0, 3))
    def test_writer_matches_csv_module(self, tmp_path_factory, pool, seed,
                                       dim, ncols):
        # the block writer's bytes equal csv.writer's over the same rows,
        # on grids whose rows cross a block boundary; the floats include
        # -0.0, subnormals, the 1e16 and 1e-5 repr boundaries, integral
        # values, infinities and NaN
        rng = np.random.default_rng(seed)
        n = 1030 if dim == 1 else 33
        assert n ** dim > cli.CSV_BLOCK
        coords = rng.choice(pool, size=(n, dim))
        index = tensor_grid(np.arange(n), dim)[1]
        columns = [(f"c{i}", rng.choice(pool, size=n ** dim))
                   for i in range(ncols)]
        out = tmp_path_factory.mktemp("grid")
        cli._write_grid_samples(str(out), "g.csv", coords, index, columns)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([f"x{i + 1}" for i in range(dim)] + [h for h, _ in columns])
        pts = np.stack([coords[ix, ax] for ax, ix in enumerate(index)], axis=1)
        w.writerows(np.column_stack([pts] + [v for _, v in columns]).tolist())
        assert (out / "g.csv").read_text() == buf.getvalue()

    def test_writer_holds_one_block(self, tmp_path):
        # the rows are formatted and written one CSV_BLOCK at a time, so the
        # writer's allocations peak below half of the file: a writer that
        # joins every block into one text holds several times the file
        rng = np.random.default_rng(7)
        n = 128
        assert n ** 2 == 16 * cli.CSV_BLOCK
        coords = np.repeat(np.linspace(-4.0, 4.0, n)[:, None], 2, axis=1)
        index = tensor_grid(np.arange(n), 2)[1]
        columns = [(f"c{i}", rng.standard_normal(n ** 2)) for i in range(3)]
        tracemalloc.start()
        try:
            cli._write_grid_samples(str(tmp_path), "g.csv", coords, index,
                                    columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "g.csv").stat().st_size
        assert size > 1_000_000
        assert peak < 0.5 * size


class TestVerify:
    def test_all_pass(self):
        results = run_invariants()
        failing = [r for r in results if not r.passed]
        assert not failing, report(results)

    def test_tamper_detected(self, monkeypatch):
        # perturb the symmetrized third-order tensor before the real check:
        # the broken cyclic identity must be reported as a failure
        import homspec.verify as verify
        check = verify.cyclic_check

        def tampered(abar3s):
            abar3s = abar3s.copy()
            abar3s[0, 0, 0] += 1e-3
            return check(abar3s)

        monkeypatch.setattr(verify, "cyclic_check", tampered)
        results = run_invariants()
        cyc = [r for r in results if r.name == "cyclic_identity"]
        assert cyc and not cyc[0].passed

    def test_tightened_tolerance_fails(self):
        # the documented expected-failure demonstration: scaling thresholds
        # down to the 1e-14 regime must produce failures
        results = run_invariants(tolerance_scale=1e-4)
        assert any(not r.passed for r in results)


class TestCLI:
    def _run(self, *argv, cwd, **variables):
        env = dict(os.environ, **variables)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        return subprocess.run(
            [sys.executable, "-m", "homspec.cli", *argv],
            capture_output=True, text=True, cwd=cwd, env=env,
        )

    def test_homogenize_json(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL)
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "homogenize", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "homogenize.json").read_text())
        assert sorted(payload) == ["abar", "abar3_sym", "cyclic_check",
                                   "lam_max", "lam_min", "theta", "warnings"]
        assert abs(payload["abar"][0][0] - np.sqrt(3.0)) < 1e-10
        assert payload["cyclic_check"] < 1e-10

    def test_spectrum_json(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL)
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "spectrum", "--eigenfunction-samples", "9",
                      cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["eigenvalues"][0] == pytest.approx(3 ** 0.25, rel=1e-9)
        samples = _csv_floats((tmp_path / "eigenfunctions.csv").read_text())
        assert len(samples) == 9 and all(len(s) == 1 + 5 for s in samples)

    def test_expand_and_sweep(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        small = MINIMAL.replace("0.125, 0.0625, 0.03125", "0.125, 0.0625")
        cfgfile.write_text(small)
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "expand", "--w-samples", "33", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        w_csv = (tmp_path / "w_samples.csv").read_text()
        assert w_csv.splitlines()[0].startswith("x1,w_eps")
        assert len(_csv_floats(w_csv)) == 33
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "sweep", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "manifest.json").exists()
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.splitlines()[0].startswith("epsilon,j,branch")
        # plot data can be regenerated from the persisted artifacts alone
        r = self._run("--manifest", str(tmp_path), "--out", str(tmp_path),
                      "plot-data", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "plot_eig_err.csv").exists()

    def test_plot_data_manifest_positions(self, tmp_path, mini_run):
        # --manifest is accepted before and after the subcommand; the
        # subcommand's own option must not reset a value given before it
        _, manifest, rows = mini_run
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(manifest.to_json())
        (run_dir / "sweep.csv").write_text(rows_to_csv(rows))
        r = self._run("plot-data", "--manifest", str(run_dir),
                      cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert (run_dir / "plot_eig_err.csv").exists()
        top = tmp_path / "top"
        r = self._run("--manifest", str(run_dir), "--out", str(top),
                      "plot-data", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert ((top / "plot_eig_err.csv").read_text()
                == (run_dir / "plot_eig_err.csv").read_text())
        r = self._run("plot-data", cwd=str(tmp_path))
        assert r.returncode == 3
        assert "--manifest" in r.stderr

    def test_expand_never_imports_scipy(self, tmp_path):
        # expand needs no reference solve, so it must not pay for importing
        # scipy; a 1D sweep and a separable 2D one in the same process
        # load LAPACK's _flapack extension and not the scipy.linalg package,
        # whose init (scipy._lib._array_api among it) costs about 0.1 s, and
        # the 1D one writes the sweep.csv of an in-process run; no command
        # loads OpenSSL's binding (_hashlib), whose libcrypto set a 2D
        # sweep's peak memory when the config hash came from hashlib
        cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                                "minimal.ini")
        two = tmp_path / "two.ini"
        two.write_text(TWO_BRANCH)
        loaded = ("print(*(name in sys.modules for name in ("
                  "'scipy.linalg._flapack', 'scipy.linalg', "
                  "'scipy._lib._array_api', '_hashlib')))\n")
        script = (
            "import sys\n"
            "from homspec.cli import main\n"
            f"base = ['--config', {cfg_path!r}, '--out', {str(tmp_path)!r}]\n"
            "assert main(base + ['expand', '--w-samples', '5']) == 0\n"
            "print('scipy' in sys.modules, '_hashlib' in sys.modules)\n"
            "assert main(base + ['sweep']) == 0\n"
            + loaded +
            f"assert main(['--config', {str(two)!r}, '--out', "
            f"{str(tmp_path / 'two')!r}, 'sweep']) == 0\n"
            + loaded
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, cwd=str(tmp_path), env=env)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert "False False" in lines
        assert [line for line in lines if line.startswith("True")] == [
            "True False False False"] * 2
        assert len(_csv_floats((tmp_path / "w_samples.csv").read_text())) == 5

        def without_runtime(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        _, rows = run(load_config(cfg_path))
        assert (without_runtime((tmp_path / "sweep.csv").read_text())
                == without_runtime(rows_to_csv(rows)))

    def test_expand_warnings_once(self, tmp_path):
        cfgfile = tmp_path / "two.ini"
        cfgfile.write_text(TWO_BRANCH)
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "expand", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "expand.json").read_text())
        assert payload["cluster_size"] == 2
        seen = [(w["code"], w["eps"]) for w in payload["warnings"]]
        assert sorted(seen) == [("EpsilonConditionViolated", 0.4),
                                ("EpsilonConditionViolated", 0.5)]

    def test_sampled_coefficient_warns_once(self, tmp_path):
        # homogenize.json, spectrum.json, expand.json and the sweep manifest
        # carry RoughCoefficient once each
        np.save(tmp_path / "a.npy", 2.0 + np.cos(2 * np.pi * np.arange(64) / 64))
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("a = 2 + cos(2*pi*y)",
                                           f"a_samples = {tmp_path / 'a.npy'}"))
        for command, name in (("homogenize", "homogenize.json"),
                              ("spectrum", "spectrum.json"),
                              ("expand", "expand.json"),
                              ("sweep", "manifest.json")):
            r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                          command, cwd=str(tmp_path))
            assert r.returncode == 0, r.stderr
            warnings = json.loads((tmp_path / name).read_text())["warnings"]
            assert [w["code"] for w in warnings] == ["RoughCoefficient"]

    def test_reference_validates_radius(self, tmp_path):
        # a radius of 2 is far too small (the doubled box moves lambda_1 by
        # 0.65): its box floor reaches a tenth of the error that each
        # command reports, the Richardson estimate in reference and
        # eig_err in the sweep, and both raise RadiusNotConverged
        text = MINIMAL.replace("radius = 7.0", "radius = 2.0")
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "reference", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "reference.json").read_text())
        manifest, _ = run(parse_config(text))
        assert ([e["box_floor"] for e in payload["per_eps"]]
                == [e["box_floor"] for e in manifest.per_eps])
        assert all(e["box_floor"][0] > 1e-2 for e in payload["per_eps"])
        assert ([w["code"] for w in payload["warnings"]]
                == [w["code"] for w in manifest.warnings]
                == ["RadiusNotConverged"] * 3)
        assert ([w["eps"] for w in payload["warnings"]]
                == [w["eps"] for w in manifest.warnings]
                == [0.125, 0.0625, 0.03125])

    @pytest.mark.parametrize("config, radius, warned", [
        ("simple-1d", 6.0, [0.025, 0.0125, 0.00625]),
        ("simple-1d", 4.2, [0.1, 0.05, 0.025, 0.0125, 0.00625]),
        ("multiple-2d", 3.5, [0.125, 0.08333333333333333, 0.0625,
                              0.041666666666666664]),
    ])
    def test_box_floor_flags_a_small_radius(self, config, radius, warned):
        # a bundled config on a narrower box: its eig_err flattens onto the
        # box floor, which raises RadiusNotConverged at every eps where the
        # floor reaches a tenth of eig_err (simple-1d at radius 6: floor
        # 1.14e-11 against eig_err 1.1e-8, 6.5e-10, 2.2e-11, 1.7e-11 and
        # 2.0e-11; multiple-2d at 3.5: 4.4e-4 and 7.1e-4 against 8.35e-4)
        with open(self._bundled(config)) as fh:
            text = fh.read()
        cfg = parse_config(text.replace("radius = 7.0", f"radius = {radius}")
                           .replace("radius = 6.0", f"radius = {radius}"))
        assert cfg.radius == radius
        manifest, _ = run(cfg)
        assert [w["eps"] for w in manifest.warnings
                if w["code"] == "RadiusNotConverged"] == warned

    def test_reference_radius_matches_sweep(self, tmp_path):
        # radius = auto: the reference subcommand and the sweep must size
        # the box the same way
        text = MINIMAL.replace("radius = 7.0\n", "")
        assert "radius" not in text
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "reference", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        payload = json.loads((tmp_path / "reference.json").read_text())
        manifest, _ = run(parse_config(text))
        assert payload["radius"] == manifest.radius
        assert "radius_shift" not in payload and payload["warnings"] == []
        assert [e["eps"] for e in payload["per_eps"]] == [0.125, 0.0625, 0.03125]
        assert ([e["h_route"] for e in payload["per_eps"]]
                == [e["h_route"] for e in manifest.per_eps]
                == [["bisection"], ["warm"], ["warm"]])
        assert payload["per_eps"][0]["lambda_richardson"][0] == pytest.approx(
            manifest.per_eps[0]["lambda_ref"][0], rel=1e-12)

    @pytest.mark.parametrize("command", ["reference", "sweep"])
    @pytest.mark.parametrize("radius", ["0.0078125", "0.01171875", "0.001"])
    def test_box_too_small_exit_code(self, tmp_path, command, radius):
        # h = 0.125 / 16: the box holds 1 and 2 interior nodes, fewer than
        # the max(count, 3) the reference needs, and a box narrower than
        # one cell holds none; a radius of 0 is a config error
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("radius = 7.0", f"radius = {radius}")
                           .replace("0.125, 0.0625, 0.03125", "0.125"))
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      command, cwd=str(tmp_path))
        nodes = {"0.0078125": 1, "0.01171875": 2, "0.001": 0}[radius]
        self._fails_in_one_line(r, 4, "error: ",
                                f"error: {nodes} interior nodes per axis")

    @staticmethod
    def _refused_a12(tmp_path, command, monkeypatch, capsys, a12):
        # the 2D fine-grid stencil takes a diagonal a: a nonzero a12 is one
        # config error line that names it, not a traceback, given as soon
        # as the coefficient is built: neither the spectrum nor the
        # expansion runs
        def never(*args, **kwargs):
            raise AssertionError("ran past the a12 check")

        monkeypatch.setattr(pipeline, "stage_spectrum", never)
        monkeypatch.setattr(pipeline, "stage_expand", never)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(TWO_BRANCH.replace("a22 = 1",
                                              f"a22 = 1\na12 = {a12}"))
        code = cli.main(["--config", str(cfgfile), "--out", str(tmp_path),
                         command])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("config error: ") and "problem.a12" in err, err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["reference", "sweep"])
    def test_off_diagonal_2d_reference_exit_code(self, tmp_path, command,
                                                 monkeypatch, capsys):
        self._refused_a12(tmp_path, command, monkeypatch, capsys,
                          "0.2*sin(2*pi*(y1+y2))")

    @pytest.mark.parametrize("command", ["reference", "sweep"])
    def test_off_grid_a12_exit_code(self, tmp_path, command, monkeypatch,
                                    capsys):
        # an a12 that is zero on every node of the 16-mode torus, and not
        # between them, is refused too: the stencil would drop it
        self._refused_a12(tmp_path, command, monkeypatch, capsys,
                          "cos(16*pi*y1)**2 - 1")

    @pytest.mark.parametrize("a11, fn", [
        # the stencil evaluates it on index arrays that broadcast together
        ("2 + cos(2*pi*y1)*cos(2*pi*y2)",
         lambda y1, y2: 2 + np.cos(2 * np.pi * y1) * np.cos(2 * np.pi * y2)),
        # constant in y2 on every node of the 16-mode torus, not between
        ("2 + cos(2*pi*y1) + 0.5*sin(16*pi*y2)**2",
         lambda y1, y2: 2 + np.cos(2 * np.pi * y1)
         + 0.5 * np.sin(16 * np.pi * y2) ** 2),
    ], ids=["both-axes", "off-grid"])
    def test_non_separable_2d_reference(self, tmp_path, a11, fn):
        # an a11 that does not separate goes to the sparse path, with the
        # eigenvalues of the same coefficient given as numpy functions
        text = TWO_BRANCH
        for old, new in (("(2 + cos(2*pi*y1)) * 0.5773502691896258", a11),
                         ("radius = 6.0", "radius = 2.0"),
                         ("0.5, 0.4", "0.5"), ("count = 5", "count = 3")):
            text = text.replace(old, new)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path),
                         "reference"]) == 0
        (row,) = json.loads((tmp_path / "reference.json").read_text())[
            "per_eps"]
        assert row["path"] == "sparse"
        coeff = CoefficientField.from_matrix(TorusGrid(2, 16), [
            [fn, None], [None, lambda y1, y2: np.ones_like(y1)]])
        W = SlowPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        ref = solve_Leps(coeff, W, 0.5, FineGrid(2, 2.0, 0.5 / 8), 3,
                         keep_vectors=False)
        assert row["lambda_richardson"] == ref.eigenvalues.tolist()

    @pytest.mark.parametrize("key, value", [
        ("radius", "abc"),              # malformed text
        ("solver_tol", "nan"),          # not finite
        ("p_rule_c", "-2"),             # not positive
        ("hermite_size", "4"),          # below the bound
        ("compare_eigenfunctions", "treu"),  # not a boolean
        ("eps", "0.1, abc"),            # a malformed list entry
        ("torus_modes", "5"),           # odd
    ])
    def test_bad_setting_exit_code(self, tmp_path, key, value):
        s = _setting(key)
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(_with_setting(s, value))
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "expand", cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ",
                                f"{s.section}.{s.key} ")
        assert "Traceback" not in r.stderr

    def test_expand_agrees_with_sweep_at_auto_p(self, tmp_path):
        # with P chosen per eps by the truncation rule, expand reports
        # lambda_tilde at the order the sweep uses, and the cluster
        # summary of the manifest
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(TWO_BRANCH_AUTO_P)
        for command in ("expand", "sweep"):
            r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                          command, cwd=str(tmp_path))
            assert r.returncode == 0, r.stderr
        expand = json.loads((tmp_path / "expand.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert expand["P"] == manifest["P_built"] == 5
        assert [e["P"] for e in manifest["per_eps"]] == [2, 3]
        lt = {(e["eps"], int(k.removeprefix("lambda_tilde_branch"))): v
              for e in expand["per_eps"] for k, v in e.items()
              if k.startswith("lambda_tilde_branch")}
        rows = rows_from_csv((tmp_path / "sweep.csv").read_text())
        assert lt == {(row.eps, row.branch): row.lambda_tilde for row in rows}
        for key in ("lambda0", "gamma", "cluster_size", "mu", "D", "E"):
            assert expand[key] == manifest[key], key

    def test_nonpositive_radius_exit_code(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("radius = 7.0", "radius = 0"))
        r = self._run("--config", str(cfgfile), "reference", cwd=str(tmp_path))
        assert r.returncode == 3
        assert "radius must be positive" in r.stderr

    def test_config_error_exit_code(self, tmp_path):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("[problem]\ndim = 7\na = 1\nw = x**2\n")
        r = self._run("--config", str(cfgfile), "homogenize", cwd=str(tmp_path))
        assert r.returncode == 3

    def test_unknown_key_exit_code(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("p_order = 2", "p_oder = 7"))
        r = self._run("--config", str(cfgfile), "homogenize",
                      cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ", "experiment.p_oder")
        # the box floor of every reference replaced these two settings
        for key in ("radius_safety", "validate_radius"):
            cfgfile.write_text(MINIMAL.replace("radius = 7.0",
                                               f"radius = 7.0\n{key} = 3"))
            r = self._run("--config", str(cfgfile), "homogenize",
                          cwd=str(tmp_path))
            self._fails_in_one_line(r, 3, "config error: unknown section or "
                                    "key", f"discretization.{key}")

    @pytest.mark.parametrize("argv, needle", [
        (("expand", "--w-samples", "abc"), "--w-samples"),
        (("frobnicate",), "frobnicate"),
        ((), "command"),
        (("--tolerance-scale", "-1", "verify"), "--tolerance-scale"),
        (("--tolerance-scale", "nan", "verify"), "--tolerance-scale"),
        (("expand", "--w-samples", "-3"), "--w-samples"),
        (("spectrum", "--eigenfunction-samples", "-2"),
         "--eigenfunction-samples"),
    ], ids=["bad-int", "unknown-subcommand", "no-subcommand",
            "negative-scale", "nan-scale", "negative-w-samples",
            "negative-eigenfunction-samples"])
    def test_usage_error_exit_code(self, tmp_path, argv, needle):
        # argparse's own usage errors are config errors, not exit 2, which
        # is kept for invariant failures
        r = self._run(*argv, cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ", needle)

    def test_failed_allocation_exit_code(self, tmp_path, monkeypatch, capsys):
        # an array larger than the host allocates (a 2D coefficient on
        # torus_modes = 1048576 asks numpy for 32 TiB) is a numerical
        # failure in one line, not a traceback; the stage raises the error
        # here, since an overcommitting host may grant the real request
        message = ("Unable to allocate 32.0 TiB for an array with shape "
                   "(2, 2, 1048576, 1048576) and data type float64")

        def refuse(cfg, warnings):
            raise MemoryError(message)

        monkeypatch.setattr(pipeline, "stage_homogenize", refuse)
        code = cli.main(["--config", str(self._minimal(tmp_path)),
                         "homogenize"])
        err = capsys.readouterr().err
        assert code == 4, err
        assert err == f"numerical failure: {message}\n"

    def test_parser_error_is_a_config_error(self):
        from homspec.cli import _Parser
        with pytest.raises(ConfigError, match="bad usage"):
            _Parser(prog="homspec").error("bad usage")

    def test_missing_config_exit_code(self, tmp_path):
        r = self._run("sweep", cwd=str(tmp_path))
        assert r.returncode == 3

    def _fails_in_one_line(self, r, code, prefix, needle):
        assert r.returncode == code, r.stderr
        assert r.stderr.startswith(prefix) and needle in r.stderr, r.stderr
        assert r.stderr.count("\n") == 1, r.stderr
        assert needle in r.stderr

    @staticmethod
    def _bundled(config):
        return os.path.join(os.path.dirname(__file__), "..", "configs",
                            f"{config}.ini")

    def _outputs_by_threads(self, tmp_path, config, *commands):
        """For one and two BLAS threads, every artifact of each command on
        the config file, keyed by command and file name, but for the wall
        times (sweep.csv's runtime_s, the manifest's timings) and the
        manifest's record of the thread variables, which must be the ones
        set."""
        outputs = []
        for threads in ("1", "2"):
            variables = dict.fromkeys(pipeline.THREAD_VARIABLES, threads)
            files = {}
            for command in commands:
                out = tmp_path / threads / command[0]
                r = self._run("--config", config, "--out", str(out),
                              *command, cwd=str(tmp_path), **variables)
                assert r.returncode == 0, r.stderr
                for path in sorted(out.iterdir()):
                    text = path.read_text()
                    if path.name == "sweep.csv":
                        text = "\n".join(line.rsplit(",", 1)[0]
                                         for line in text.splitlines())
                    elif path.name == "manifest.json":
                        manifest = json.loads(text)
                        del manifest["timings"]
                        assert manifest.pop("blas_threads") == variables
                        text = json.dumps(manifest, sort_keys=True)
                    files[command[0], path.name] = text
            outputs.append(files)
        return outputs

    def test_1d_sweep_independent_of_blas_threads(self, tmp_path):
        # simple-1d's finest h/2 grid holds 71 679 nodes, far above the
        # ~10 000 elements from which OpenBLAS splits a dot product over
        # threads: the sweep writes the same bytes under one BLAS thread and
        # two
        one, two = self._outputs_by_threads(
            tmp_path, self._bundled("simple-1d"), ("sweep",))
        assert ("sweep", "sweep.csv") in one and one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == []

    def test_2d_sweep_independent_of_blas_threads(self, tmp_path):
        # multiple-2d's lambda = 4 is a double eigenvalue of the 400 x 400
        # L0, whose dense eigh returns a rotation of its eigenspace that
        # moves with the thread split; solved per axis, the basis is the
        # products, and sweep and expand write the same bytes under one
        # BLAS thread and two
        one, two = self._outputs_by_threads(
            tmp_path, self._bundled("multiple-2d"), ("sweep",),
            ("expand", "--w-samples", "100"))
        assert ("expand", "expand.json") in one and one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == []

    def test_2d_expand_at_256_modes_independent_of_blas_threads(self,
                                                                tmp_path):
        # at 256 torus modes the cell solve's inner products run over
        # 256 x 129 half-spectrum entries, far above the ~10 000 elements
        # from which OpenBLAS splits a dot product over threads; they are
        # numpy sums, so expand writes the same bytes under one BLAS thread
        # and two
        with open(self._bundled("multiple-2d")) as fh:
            text = fh.read()
        assert "torus_modes = 64" in text
        cfgfile = tmp_path / "modes-256.ini"
        cfgfile.write_text(text.replace("torus_modes = 64",
                                        "torus_modes = 256"))
        one, two = self._outputs_by_threads(
            tmp_path, str(cfgfile), ("expand", "--w-samples", "100"))
        assert ("expand", "expand.json") in one and one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == []

    @pytest.mark.parametrize("failure", ["pivot", "steps"])
    def test_lapack_failure_exit_code(self, tmp_path, monkeypatch, capsys,
                                      failure):
        # failures of the 1D eigensolve end as one numerical failure line,
        # exit 4, that names the check that failed: a shifted band with a
        # zero column, exactly singular, on which gttrf reports a zero
        # pivot, and bisection stopped at a width of 10, whose shifts lie so
        # far from the eigenvalues that inverse iteration does not converge
        if failure == "pivot":
            tridiagonal = reference.FDOperator.tridiagonal

            def singular(self, shift):
                dl, d, du = tridiagonal(self, shift)
                d[0] = dl[0] = 0.0
                return dl, d, du

            monkeypatch.setattr(reference.FDOperator, "tridiagonal", singular)
            needle = "zero pivot at row 1"
        else:
            monkeypatch.setattr(reference, "BISECT_WIDTH", 10.0)
            needle = "did not converge within WARM_STEPS = 8 steps"
        cfgfile = self._minimal(tmp_path)
        code = cli.main(["--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "sweep"])
        err = capsys.readouterr().err
        assert code == 4, err
        assert err.startswith("numerical failure: ") and needle in err, err
        assert err.count("\n") == 1, err

    def test_uncertified_h_grid_exit_code(self, tmp_path, merged_bisection,
                                          capsys):
        # bisection's shift of pair 1 of simple-1d's first h grid handed
        # that of pair 0: their pairs fail the certificate, one numerical
        # failure line
        cfgfile = os.path.join(os.path.dirname(__file__), "..", "configs",
                               "simple-1d.ini")
        code = cli.main(["--config", cfgfile,
                         "--out", str(tmp_path / "out"), "sweep"])
        err = capsys.readouterr().err
        assert code == 4, err
        assert err.startswith("numerical failure: ") and "not certified" in err
        assert err.count("\n") == 1, err

    def test_unreadable_config_exit_code(self, tmp_path):
        r = self._run("--config", str(tmp_path / "missing.ini"), "sweep",
                      cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ", "missing.ini")

    @pytest.mark.parametrize("kind", ["missing", "text", "npz", "shape"])
    def test_unreadable_a_samples_exit_code(self, tmp_path, kind):
        # a missing path, a file that is no .npy (read without pickle), an
        # .npz archive in place of one array, and 10 values for 64 modes
        path = tmp_path / "a.npy"
        if kind == "text":
            path.write_text("not an array\n")
        elif kind == "npz":
            with open(path, "wb") as fh:
                np.savez(fh, a=np.ones(64))
        elif kind == "shape":
            np.save(path, np.full(10, 2.0))
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("a = 2 + cos(2*pi*y)",
                                           f"a_samples = {path}"))
        r = self._run("--config", str(cfgfile), "homogenize",
                      cwd=str(tmp_path))
        needle = "sampled coefficient shape" if kind == "shape" else "a_samples"
        self._fails_in_one_line(r, 3, "config error: ", needle)

    @pytest.mark.parametrize("manifest", [None, "{not json"])
    def test_unreadable_plot_data_manifest_exit_code(self, tmp_path, mini_run,
                                                     manifest):
        # a missing sweep directory, and a corrupt manifest.json in one
        run_dir = tmp_path / "run"
        if manifest is not None:
            run_dir.mkdir()
            (run_dir / "manifest.json").write_text(manifest)
            (run_dir / "sweep.csv").write_text(rows_to_csv(mini_run[2]))
        r = self._run("--manifest", str(run_dir), "plot-data",
                      cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ", str(run_dir))

    @pytest.mark.parametrize("samples", [False, True])
    def test_nan_coefficient_exit_code(self, tmp_path, samples):
        # NaN <= 0 is false, so only an explicit finiteness check stops a
        # NaN coefficient before the cell solves run on it
        if samples:
            vals = 2.0 + np.cos(2 * np.pi * np.arange(64) / 64)
            vals[5] = np.nan
            np.save(tmp_path / "a.npy", vals)
            coeff = f"a_samples = {tmp_path / 'a.npy'}"
        else:
            coeff = "a = 2 + cos(2*pi*y) + (y - y)/(y - y)"
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("a = 2 + cos(2*pi*y)", coeff))
        r = self._run("--config", str(cfgfile), "homogenize",
                      cwd=str(tmp_path))
        self._fails_in_one_line(r, 4, "error: ", "non-finite")

    @pytest.mark.parametrize("command", ["sweep", "expand"])
    def test_degenerate_coupling_exit_code(self, tmp_path, command):
        # a = 1 leaves the j = 2 cluster's coupling matrix D with equal
        # eigenvalues: the run stops before writing anything
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(TWO_BRANCH.replace(
            "(2 + cos(2*pi*y1)) * 0.5773502691896258", "1"))
        out = tmp_path / "out"
        r = self._run("--config", str(cfgfile), "--out", str(out), command,
                      cwd=str(tmp_path))
        self._fails_in_one_line(r, 4, "numerical failure: ",
                                "coupling matrix eigenvalue spacing")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["expand", "sweep"])
    @pytest.mark.parametrize("p_order", ["", "\np_order = 2"],
                             ids=["rule", "p_order"])
    def test_negative_eigenvalue_exit_code(self, tmp_path, command, p_order):
        # W = x^2 - 3 puts lambda_1 below 0, where lambda_j^(3/2) of the
        # truncation rule and the epsilon condition is complex
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[problem]\ndim = 1\na = 2 + cos(2*pi*y)\nw = x**2 - 3\n"
            "[discretization]\ntorus_modes = 16\nhermite_size = 16\n"
            f"[experiment]\nj = 1\ncount = 3\neps = 0.1{p_order}\n")
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path / "out"),
                      command, cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ", "lambda_1 = -1.68")

    def test_negative_top_eigenvalue_reference_exit_code(self, tmp_path):
        # W = x^2 - 30 puts lambda_3 below 0: the automatic box radius,
        # sqrt(lambda_3 / Lambda_-), is then undefined
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[problem]\ndim = 1\na = 2 + cos(2*pi*y)\nw = x**2 - 30\n"
            "[discretization]\ntorus_modes = 16\nhermite_size = 16\n"
            "[experiment]\nj = 1\ncount = 3\neps = 0.1\n")
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path / "out"),
                      "reference", cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ", "lambda_3 = ")

    @pytest.mark.parametrize("command, problem, p_order, code, line", [
        ("homogenize", "dim = 2\na11 = 1e300\na22 = 1e-300\n"
         "w = x1**2 + x2**2", "", 4,
         "error: coefficient not positive definite, min eig -inf"),
        ("homogenize", "dim = 2\na11 = 1e300\na22 = 1e300\n"
         "w = x1**2 + x2**2", "", 4,
         "error: coefficient not positive definite, min eig nan"),
        ("spectrum", "dim = 2\na11 = 1\na22 = 1\n"
         "w = 1e300*x1**2 + 1e300*x2**2", "", 4,
         "numerical failure: Hermite scale 0.0 not positive"),
        ("homogenize", "dim = 1\na = 4e299 + 1e299*sin(6*pi*y)\nw = x**2",
         "", 4, "numerical failure: homogenized matrix [[0.0]]"),
        # its cell source's norm overflowed into a CG breakdown under the
        # constant-Laplacian preconditioner; the closed-form inverse of the
        # coefficient solves it, and the flux norms overflow instead
        ("homogenize", "dim = 1\na = 6e299 + 4e299*sin(4*pi*y)\nw = x**2",
         "", 4, "numerical failure: homogenized matrix [[0.0]]"),
        ("reference", "dim = 1\na = 1 + 1e-16*cos(2*pi*y)\n"
         "w = 1e282*x**2 + 1e282*x + 1e282", "", 4,
         "numerical failure: h grid bisection's shifts failed"),
        ("expand", "dim = 1\na = 1e142 / (3 + cos(2*pi*y))\n"
         "w = 5e299*x**2 + 3", "", 4, "numerical failure: overflow"),
        ("expand", "dim = 1\na = 1e140\nw = 1e300*x**2", "p_order = 2", 0,
         ""),
        ("reference", "dim = 1\na = 2 + cos(2*pi*y)\nw = 1e-300*x**2 + 1e300",
         "", 4, "numerical failure: 4.61e+18 nodes per axis"),
    ], ids=["eig-bound-inf", "eig-bound-nan", "default-sigma",
            "flux-norm", "cell-source-norm", "normalized-iterate",
            "truncation-rule", "mu1-tolerance", "node-count"])
    def test_float_range_exit_code(self, tmp_path, command, problem, p_order,
                                   code, line):
        # problems at the float range, one per place where an overflow
        # ended in a traceback, or printed a RuntimeWarning before the exit
        # line: each ends in its exit code and one line, or runs cleanly
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            f"[problem]\n{problem}\n[discretization]\ntorus_modes = 8\n"
            "hermite_size = 8\n[experiment]\nj = 1\ncount = 2\neps = 0.1\n"
            f"{p_order}\n")
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path / "out"),
                      command, cwd=str(tmp_path))
        if code == 0:
            assert r.returncode == 0 and r.stderr == "", r.stderr
        else:
            self._fails_in_one_line(r, code, line, line)
        if command == "expand" and code == 0:
            # lambda_1 near 1e150 takes lambda^(-3/2) below the float range,
            # but not gamma * lambda^(-3/2), the bound the warning names
            expand = json.loads((tmp_path / "out" / "expand.json").read_text())
            bounds = [float(w["detail"].rsplit("=", 1)[1])
                      for w in expand["warnings"]
                      if w["code"] == "EpsilonConditionViolated"]
            assert bounds and all(b > 0.0 for b in bounds)

    @pytest.mark.parametrize("command", ["reference", "sweep"])
    def test_coefficient_zero_off_torus_grid_exit_code(self, tmp_path,
                                                       command):
        # 1 + sin(4 pi y) reads 1 on all 4 torus nodes and reaches 0 at
        # y = 3/8, a fine-grid node at radius 2: the harmonic averages and
        # the flux gradient would divide by it
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[problem]\ndim = 1\na = 1 + sin(2*pi*2*y)\nw = x**2\n"
            "[discretization]\ntorus_modes = 4\nhermite_size = 10\n"
            "radius = 2.0\n[experiment]\nj = 1\ncount = 2\neps = 0.1\n")
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path / "out"),
                      command, cwd=str(tmp_path))
        self._fails_in_one_line(r, 4, "error: a11 reaches 0 ", "torus grid")

    def test_negative_lower_eigenvalue_sweep(self, tmp_path):
        # W = x^2 - 2 puts lambda_1 below 0 and lambda_2 above: the sweep
        # about lambda_2 runs, and the zeroth-order envelope, which takes
        # lambda_k^(3/2), leaves lambda_1 out instead of writing NaN
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(
            "[problem]\ndim = 1\na = 2 + cos(2*pi*y)\nw = x**2 - 2\n"
            "[discretization]\ntorus_modes = 16\nhermite_size = 16\n"
            "[experiment]\nj = 2\ncount = 4\neps = 0.1, 0.05, 0.025\n")
        out = tmp_path / "out"
        r = self._run("--config", str(cfgfile), "--out", str(out), "sweep",
                      cwd=str(tmp_path))
        assert r.returncode == 0 and r.stderr == "", r.stderr

        def refuse(name):
            raise AssertionError(f"{name} in manifest.json")

        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=refuse)
        assert manifest["lambda0"] > 0
        # the reference solves max(j + 1, 3) eigenvalues per eps
        assert sorted(manifest["c1_envelope"]) == ["j2", "j3"]

    def _minimal(self, tmp_path, old="", new=""):
        """configs/minimal.ini, with ``old`` replaced by ``new``, as
        tmp_path/run.ini."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "minimal.ini")
        with open(path) as fh:
            text = fh.read()
        assert old in text
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text.replace(old, new))
        return cfgfile

    @pytest.mark.parametrize("command, sub", [("homogenize", False),
                                              ("sweep", True)])
    def test_out_naming_a_file_exit_code(self, tmp_path, command, sub):
        # an --out that is a file (the config itself), or a directory under
        # one, cannot hold the output: one config error line naming the path
        cfgfile = self._minimal(tmp_path)
        out = cfgfile / "sub" if sub else cfgfile
        r = self._run("--config", str(cfgfile), "--out", str(out), command,
                      cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ", str(out))

    def test_sweep_checks_out_before_running(self, tmp_path, monkeypatch,
                                             capsys):
        # a directory under a file cannot hold the output, which the sweep
        # learns before its pipeline runs
        import homspec.pipeline as pipeline

        def never(cfg):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(pipeline, "run", never)
        out = self._minimal(tmp_path) / "sub"
        code = cli.main(["--config", str(tmp_path / "run.ini"),
                         "--out", str(out), "sweep"])
        assert code == 3
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv, name", [
        ("expand", ["--w-samples", "3"], "w_samples.csv"),
        ("spectrum", ["--eigenfunction-samples", "3"], "eigenfunctions.csv")])
    def test_unwritable_grid_samples_exit_code(self, tmp_path, command, argv,
                                               name):
        # a directory in the place of the grid-sample CSV: the streamed
        # writer's open fails as one config error line, as every artifact's
        cfgfile = self._minimal(tmp_path)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        r = self._run("--config", str(cfgfile), "--out", str(out), command,
                      *argv, cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: cannot write ",
                                str(out / name))

    @pytest.mark.parametrize("command", ["reference", "sweep"])
    def test_box_too_large_exit_code(self, tmp_path, command):
        # a radius of 1e30 puts 6.4e32 nodes on each axis of the h/2 grid:
        # the reference refuses it before building an array, not with
        # numpy's ValueError from an arange of that length
        cfgfile = self._minimal(tmp_path, "[discretization]",
                                "[discretization]\nradius = 1e30")
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path / "out"),
                      command, cwd=str(tmp_path))
        self._fails_in_one_line(r, 4, "numerical failure: ",
                                f"exceed the cap {reference.MAX_NODES_PER_AXIS}")

    @pytest.mark.parametrize("sigma", ["1e200", "1e-300"])
    def test_far_hermite_scale_exit_code(self, tmp_path, sigma):
        # sigma ** 2 overflows at 1e200 and underflows to 0 at 1e-300; either
        # leaves L0 with non-finite entries, which is a numerical failure,
        # not a traceback or an Infinity/NaN spectrum
        cfgfile = self._minimal(tmp_path, "hermite_size = 32",
                                f"hermite_size = 32\nhermite_sigma = {sigma}")
        r = self._run("--config", str(cfgfile), "spectrum", cwd=str(tmp_path))
        self._fails_in_one_line(r, 4, "numerical failure: ", "non-finite")

    @pytest.mark.parametrize("command, coeff, prefix, needle", [
        (command, coeff, prefix, needle) for coeff, prefix, needle in [
            ("1e300 + cos(2*pi*y)", "numerical failure: ",
             "homogenized matrix"),
            ("5 + 0.9*1e300/sin(4*pi*y)", "error: ", "non-finite")]
        for command in ("homogenize", "sweep")],
        ids=["homogenize", "sweep", "homogenize-divide", "sweep-divide"])
    def test_overflowing_coefficient_exit_code(self, tmp_path, command,
                                               coeff, prefix, needle):
        # the flux norms overflow, the fluxes are pruned whole and abar would
        # be 0: a numerical failure, not abar = [[0.0]] with exit 0; a
        # coefficient that overflows where it is sampled is non-finite.
        # Either is one line, with no RuntimeWarning before it
        cfgfile = self._minimal(tmp_path, "a = 1", f"a = {coeff}")
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path / "out"),
                      command, cwd=str(tmp_path))
        self._fails_in_one_line(r, 4, prefix, needle)

    @pytest.mark.parametrize("command", ["homogenize", "sweep"])
    @pytest.mark.parametrize("old, new", [
        ("a = 1", "a = 1/0"),
        ("a = 1", "a = (1/0)*y + 2"),
        ("a = 1", "a = 10.0**400"),
        ("w = x**2", "w = 10.0**400*x**2"),
        ("a = 1", "a = 10**400"),
        ("w = x**2", "w = x**2*10**400"),
        ("w = x**2", "w = 1e300*1e10*x**2"),
        ("w = x**2", "w = x**2 + 1e400 - 1e400"),
        ("w = x**2", "w = x**1000000"),
        ("w = x**2", "w = ((1 + x)**8)**8"),
    ])
    def test_unevaluable_expression_exit_code(self, tmp_path, command, old,
                                              new):
        # Python numbers raise where numpy arrays give inf: a division by
        # zero, an overflow, or an int that no float holds is a config error
        # that names the expression, not a traceback; so is a potential
        # whose float arithmetic overflowed to inf or nan without raising,
        # and a power above the degree cap, refused before it is formed
        cfgfile = self._minimal(tmp_path, old, new)
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path / "out"),
                      command, cwd=str(tmp_path))
        self._fails_in_one_line(r, 3, "config error: ",
                                repr(new.split(" = ")[1]))

    def test_negative_coefficient_exit_code(self, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("a = 2 + cos(2*pi*y)",
                                           "a = cos(2*pi*y)"))
        r = self._run("--config", str(cfgfile), "homogenize",
                      cwd=str(tmp_path))
        self._fails_in_one_line(r, 4, "error: ",
                                "coefficient not positive definite")

    def test_eps_above_truncation_rule_warns(self, tmp_path):
        # with no p_order the truncation rule picks P; at eps = 3 and 2 it is
        # undefined and the epsilon condition fails, at eps = 1 neither
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(MINIMAL.replace("0.125, 0.0625, 0.03125",
                                           "3.0, 2.0, 1.0")
                           .replace("p_order = 2\n", ""))
        r = self._run("--config", str(cfgfile), "--out", str(tmp_path),
                      "expand", cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        warnings = json.loads((tmp_path / "expand.json").read_text())["warnings"]
        by_eps = {}
        for w in warnings:
            by_eps.setdefault(w["eps"], []).append(w["code"])
        assert by_eps == {
            3.0: ["EpsilonTooLarge", "EpsilonConditionViolated"],
            2.0: ["EpsilonTooLarge", "EpsilonConditionViolated"],
        }
        for w in warnings:
            if w["code"] == "EpsilonTooLarge":
                assert w["detail"].endswith(f"eps={w['eps']}")

    def test_verify_exit_codes(self, tmp_path):
        r = self._run("verify", cwd=str(tmp_path))
        assert r.returncode == 0, r.stdout + r.stderr
        r = self._run("--tolerance-scale", "1e-4", "verify", cwd=str(tmp_path))
        assert r.returncode == 2
