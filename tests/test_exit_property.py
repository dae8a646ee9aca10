"""Every config ends in its exit code and at most one stderr line.

A grammar draws configs, 1D and 2D: coefficient and potential expressions
inside and outside the config grammar, constants from 1e-300 to 1e300,
potentials with linear and cross terms and negative constants, and small
torus and Hermite sizes.  Each draw runs homogenize, spectrum and expand in
process through cli.main, and a 1D draw also reference and sweep at the
single eps 0.1.  Every run must exit 0, 2, 3 or 4, write exactly one
stderr line when it does not exit 0, and emit no Python warning.  The
reference's node cap is lowered to 2^16 per axis, so that a draw whose box
would hold millions of nodes ends in the cap's one-line exit 4 at once
instead of solving them.
"""

import contextlib
import io
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from homspec import cli, reference

CONSTANT = st.floats(1e-300, 1e300).map(repr)
SIGNED = st.builds(str.__add__, st.sampled_from(["", "-"]), CONSTANT)
# expressions outside the grammar, in the axis name {0}
OUTSIDE = st.sampled_from([
    "exp({0})", "abs({0})", "{0}.real", "__import__('os')", "1 if {0} else 2",
    "[{0}][0]", "{0}**0.5", "{0} // 2", "'1'", "lambda: {0}",
])


def _axes(letter, dim):
    return [letter] if dim == 1 else [f"{letter}{ax}" for ax in (1, 2)]


def coefficient(y):
    """One coefficient entry as an expression in the axis name y."""
    periodic = st.builds("{} + {}*{}(2*pi*{}*{})".format, CONSTANT, SIGNED,
                         st.sampled_from(["cos", "sin"]), st.integers(1, 3),
                         st.just(y))
    quotient = st.builds("{} / ({} + cos(2*pi*{}))".format, CONSTANT,
                         CONSTANT, st.just(y))
    return st.one_of(periodic, periodic, quotient, CONSTANT,
                     OUTSIDE.map(lambda text: text.format(y)))


def potential(dim):
    """W as a sum of a positive quadratic term per axis, optional linear,
    cross and constant terms, or an expression outside the grammar."""
    xs = _axes("x", dim)
    optional = [st.builds("{}*{}".format, SIGNED, st.sampled_from(xs)),
                SIGNED]
    if dim == 2:
        optional.append(st.builds("{}*x1*x2".format, SIGNED))
    terms = st.tuples(*[st.builds(f"{{}}*{x}**2".format, CONSTANT)
                        for x in xs],
                      *[st.sampled_from([""]) | t for t in optional])
    polynomial = terms.map(lambda ts: " + ".join(t for t in ts if t))
    return polynomial | OUTSIDE.map(lambda text: text.format(xs[0]))


@st.composite
def configs(draw):
    dim = draw(st.integers(1, 2))
    keys = ["a"] if dim == 1 else ["a11", "a22"]
    entries = {key: draw(coefficient(y))
               for key, y in zip(keys, _axes("y", dim))}
    j = draw(st.integers(1, 2))
    lines = ["[problem]", f"dim = {dim}",
             *(f"{key} = {expr}" for key, expr in entries.items()),
             f"w = {draw(potential(dim))}",
             "[discretization]",
             f"torus_modes = {draw(st.sampled_from([4, 8, 16]))}",
             f"hermite_size = {draw(st.sampled_from([8, 10, 12]))}",
             "[experiment]", f"j = {j}",
             f"count = {draw(st.integers(j + 1, j + 2))}", "eps = 0.1",
             draw(st.sampled_from(["", "p_order = 2"]))]
    return dim, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, database=None)
@given(drawn=configs())
def test_every_config_exits_in_one_line(drawn):
    dim, text = drawn
    commands = [["homogenize"], ["spectrum"], ["expand"]]
    if dim == 1:
        commands += [["reference"], ["sweep"]]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(reference, "MAX_NODES_PER_AXIS", 1 << 16):
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(text)
        for command in commands:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = cli.main(["--config", path, "--out",
                                 os.path.join(tmp, "out"), *command])
            where = f"{command[0]} on\n{text}"
            assert code in (0, 2, 3, 4), where
            assert err.getvalue().count("\n") == (code != 0), \
                f"{where}{err.getvalue()}"
            assert not caught, f"{where}{[str(w.message) for w in caught]}"
