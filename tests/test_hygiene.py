"""Every top-level function and public method in src/homspec is used by
package code, every parameter of one or of a function nested in one is read,
every defaulted parameter is passed by name or position by some call in
src/homspec, and every dataclass field is read by package code.  Tests and
the benchmark are not callers: what only they use is kept, if at all, in a
KEPT_* table with its reason."""

import ast
import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent

# defaulted parameters that no call in src/homspec passes, kept on purpose
KEPT_DEFAULTS = {
    # the console script calls main() with none; perfbench/child.py passes it
    "cli.py:main(argv=)",
    # the per-call oracle that the tests check HermiteSampler against, and
    # that the benchmark's tracer wraps
    "hermite.py:MacroFunction.evaluate(alpha=)",
    # the tamper hook through which the tests check that a broken cyclic
    # identity is reported
    "verify.py:run_invariants(tamper_abar3=)",
}

# parameters that their function's body never reads, kept on purpose
KEPT_UNREAD = {
    # main's dispatch table calls every subcommand handler as (args, cfg)
    "cli.py:cmd_verify(cfg)",
    "cli.py:cmd_plot_data(cfg)",
}

# functions and methods that no package code names, kept on purpose
KEPT_UNCALLED = {
    # argparse calls it on a usage error
    "cli.py:_Parser.error",
}


# public method names that more than one class defines.  A call such as
# x.evaluate(...) cannot be traced to its class from the AST, so a name any
# class's method is called by counts as used for every owner; each owner
# names its caller here instead, and a new shared name or owner fails
# test_no_unused_helpers until it is listed
SHARED_METHODS = {
    "constant": {
        "PeriodicField": "SeparableField.one",
        "SlowPolynomial": "config.parse_potential_expr",
    },
    "degree": {
        "SeparableField": "CorrectorTable._rhs, against the degree cap",
        "SlowPolynomial": "hermite.poly_multiply_op and hermite.assemble_L0",
    },
    "evaluate": {
        "MacroFunction": "no package code: perfbench/tracer.py wraps it, "
                         "and the tests use it as the per-call oracle that "
                         "HermiteSampler is checked against",
        "PeriodicField": "verify.run_invariants and test_torus, as the "
                         "per-call route that FourierSampler is checked "
                         "against",
    },
    "is_zero": {
        "SeparableField": "CorrectorTable._rhs and expansion.assemble",
        "SlowPolynomial": "expansion._div_sources and build_D_matrix",
    },
    "points": {
        "FineGrid": "reference.match_and_compare",
        "QuadratureRule": "expansion._div_sources and build_D_matrix",
    },
    "shape": {
        "MacroBasis": "hermite.extended_coefficients (a property)",
        "TorusGrid": "config.RunConfig.coefficient (a property)",
    },
    "zero": {
        "MacroFunction": "expansion._snap_first_order and "
                         "hermite.resolvent_solve",
        "SeparableField": "CorrectorTable.chi",
        "SlowPolynomial": "CorrectorTable.abar",
    },
}


def _trees(root: pathlib.Path = ROOT) -> list:
    """(path, AST) of every module of the package under root/src/homspec;
    the gates read no other file, so a use in tests or perfbench is none."""
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("src/homspec/*.py"))]


def _defined(trees, nested: bool = False) -> list:
    """(module, qualified name, name its calls use, FunctionDef, bound) of
    every top-level function and method, and with ``nested`` of every
    function defined inside one of them too (qualified by its enclosing
    function, and called by its own name)."""
    out = []
    for path, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((path.name, node.name, node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    call_name = node.name if m.name == "__init__" else m.name
                    out.append((path.name, f"{node.name}.{m.name}", call_name,
                                m, not static))
    if nested:
        out += [(mod, f"{qual}.{inner.name}", inner.name, inner, False)
                for mod, qual, _, fn, _ in list(out)
                for stmt in fn.body for inner in ast.walk(stmt)
                if isinstance(inner, ast.FunctionDef)]
    return out


def _calls(trees) -> dict:
    """Call nodes keyed by the called name; cls(...) counts for its class."""
    calls = {}
    for _, tree in trees:
        classes = [(c, {id(n) for n in ast.walk(c)}) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "cls":
                name = next(c.name for c, inside in classes if id(node) in inside)
            calls.setdefault(name, []).append(node)
    return calls


def _module_uses(trees) -> set:
    """(module file, name) pairs for every top-level name that is used: its
    own module loads it by name, another file imports it from that module,
    or code reads it as an attribute of that module."""
    used = set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((path.name, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                mod = node.module.rsplit(".", 1)[-1] + ".py"
                used.update((mod, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                owner = getattr(owner, "id", getattr(owner, "attr", None))
                used.add((f"{owner}.py", node.attr))
    return used


def _unused_helpers(trees) -> list:
    """Functions and public methods that no package code names.  A method
    counts as used when any name or attribute spells it (its class cannot
    be told from the AST); a module function only when it is reached
    through its own module."""
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    module_used = _module_uses(trees)
    return [f"{mod}:{qual}" for mod, qual, _, fn, _ in _defined(trees)
            if f"{mod}:{qual}" not in KEPT_UNCALLED
            and ((fn.name == qual and (mod, fn.name) not in module_used)
                 or (fn.name != qual and not fn.name.startswith("_")
                     and fn.name not in used))]


def _unpassed_defaults(trees) -> list:
    """Defaulted parameters that no package call passes by name or position.
    A **mapping argument passes none: which keys it holds cannot be read
    from the call."""
    calls = _calls(trees)
    unpassed = []
    for mod, qual, call_name, fn, bound in _defined(trees, nested=True):
        if fn.name.startswith("__") and fn.name != "__init__":
            continue              # dunders other than __init__ run implicitly
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for arg in defaulted:
            slot = (positional.index(arg) - bound if arg in positional
                    else None)
            passed = any(
                any(k.arg == arg.arg for k in call.keywords)
                or (slot is not None
                    and (len(call.args) > slot
                         or any(isinstance(a, ast.Starred) for a in call.args)))
                for call in calls.get(call_name, []))
            label = f"{mod}:{qual.replace('.__init__', '')}({arg.arg}=)"
            if not passed and label not in KEPT_DEFAULTS:
                unpassed.append(label)
    return unpassed


def _unread_parameters(trees) -> list:
    """Parameters that their function's body never reads."""
    unread = []
    for mod, qual, _, fn, bound in _defined(trees, nested=True):
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for arg in params[bound:]:
            label = f"{mod}:{qual.replace('.__init__', '')}({arg.arg})"
            if arg.arg not in read and label not in KEPT_UNREAD:
                unread.append(label)
    return unread


def _serialized_whole(cls: ast.ClassDef) -> bool:
    """A method of the class passes self to asdict, so every field reaches
    the output without being read by name."""
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "asdict"
               and any(getattr(a, "id", None) == "self" for a in node.args)
               for node in ast.walk(cls))


def _unread_fields(trees) -> list:
    """Dataclass fields that no package code reads as an attribute; classes
    written out whole through asdict (RunManifest) are exempt."""
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or _serialized_whole(cls):
                continue
            if not any("dataclass" in ast.unparse(d)
                       for d in cls.decorator_list):
                continue
            unread += [f"{path.name}:{cls.name}.{stmt.target.id}"
                       for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign)
                       and stmt.target.id not in read]
    return unread


def test_no_unused_helpers():
    # a helper that only tests call is code the package carries for them:
    # delete it, or keep it in KEPT_UNCALLED with a reason
    trees = _trees()
    unused = _unused_helpers(trees)
    assert not unused, f"never referenced in src/homspec: {unused}"
    owners = {}
    for _, qual, _, fn, _ in _defined(trees):
        if fn.name != qual and not fn.name.startswith("_"):
            owners.setdefault(fn.name, set()).add(qual.split(".")[0])
    shared = {name: by for name, by in owners.items() if len(by) > 1}
    assert shared == {name: set(by) for name, by in SHARED_METHODS.items()}, (
        f"method names shared across classes changed: {shared}")


def test_every_default_is_passed():
    # a defaulted parameter that no package call sets is a knob only tests
    # turn: fold it into the body, or keep it in KEPT_DEFAULTS with a reason
    unpassed = _unpassed_defaults(_trees())
    assert not unpassed, f"defaults no call in src/homspec passes: {unpassed}"


def test_every_parameter_is_read():
    # a parameter the body never reads is a value every caller passes for
    # nothing: delete it, or keep it in KEPT_UNREAD with a reason
    unread = _unread_parameters(_trees())
    assert not unread, f"parameters no body reads: {unread}"


def test_every_field_is_read():
    # a dataclass field that no package code reads as an attribute is state
    # set for nothing: delete it
    unread = _unread_fields(_trees())
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_gates_see_what_only_tests_use(tmp_path):
    # one package with one case of each kind the gates must not count as a
    # use: a helper that only a test calls, a default that only a **mapping
    # passes, and a nested function whose default and parameter no call sets
    # or body reads
    package = tmp_path / "src" / "homspec"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent("""\
        from dataclasses import dataclass


        @dataclass
        class Pair:
            used: int
            spare: int


        def helper():
            return 1


        def solve(x, maxiter=10):
            return x * maxiter


        def driver(pair, **source):
            def check(name, note=""):
                return name

            check("a")
            return solve(pair.used, **source)


        COMMANDS = {"run": driver}
        """))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(textwrap.dedent("""\
        from homspec.mod import Pair, driver, helper


        def test_mod():
            pair = Pair(1, 2)
            assert helper() + pair.spare == 3
            assert driver(pair, maxiter=1) == 1
        """))
    trees = _trees(tmp_path)
    assert _unused_helpers(trees) == ["mod.py:helper"]
    assert _unpassed_defaults(trees) == ["mod.py:solve(maxiter=)",
                                         "mod.py:driver.check(note=)"]
    assert _unread_parameters(trees) == ["mod.py:driver.check(note)"]
    assert _unread_fields(trees) == ["mod.py:Pair.spare"]


def test_tracer_restores_every_patch(monkeypatch):
    # the benchmark's tracer wraps homspec names by attribute; each must
    # still exist, and restore() must put back every original it replaced
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer
    t = tracer.Tracer()
    try:
        tracer.install(t)
        patches = list(t._patches)
        assert patches
        assert all(vars(target)[attr] is not orig
                   for target, attr, orig in patches)
    finally:
        t.restore()
    assert not t._patches
    assert all(vars(target)[attr] is orig for target, attr, orig in patches)
