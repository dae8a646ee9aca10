"""Every top-level function and public method in src/homspec is used by
package code, every parameter of one or of a function nested in one is read,
every defaulted parameter is passed by name or position by some call in
src/homspec, no parameter of a function, method or constructor is passed
one literal (or one module constant) by every call, every dataclass field is
read by package code, every warning code is named in README and by a test,
no method name of a class is also one of its instance attributes, no
package code raises NotImplementedError, only pipeline.run reads the clock,
only config._parse_expression calls eval, exec or compile, and only
pipeline.config_hash imports a SHA-256.
Tests and the benchmark are not callers: what only they use is kept, if at
all, in a KEPT_* table with its reason.

Run as a script, it prints the code lines of each module of the package
(code_lines) and their total:

    python tests/test_hygiene.py
"""

import ast
import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent

# defaulted parameters that no call in src/homspec passes, kept on purpose
KEPT_DEFAULTS = {
    # the console script calls main() with none; perfbench/child.py passes it
    "cli.py:main(argv=)",
    # one request to a HermiteSampler at a point list, which the tests use
    # to sample a function once and the benchmark's tracer wraps
    "hermite.py:MacroFunction.evaluate(alpha=)",
}

# parameters that their function's body never reads, kept on purpose
KEPT_UNREAD = {
    # main calls every subcommand handler of cli.COMMANDS as (cfg, args)
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
                         "and the tests use it to sample a function once, "
                         "as one request to a HermiteSampler",
        "PeriodicField": "verify.run_invariants and test_torus, as the "
                         "per-call route that FourierSampler is checked "
                         "against",
    },
    "is_zero": {
        "SeparableField": "CorrectorTable._rhs and expansion.assemble",
        "SlowPolynomial": "expansion._div_sources and build_D_matrix",
    },
    "shape": {
        "MacroBasis": "hermite.extended_coefficients (a property)",
        "TorusGrid": "config.RunConfig.coefficient (a property)",
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


def _literal(node: ast.expr, constants: dict):
    """repr of the value of a literal argument node, or of the module
    constant in ``constants`` that it names, or None for any other
    expression; -1, (0, 1) and TOL after a module-level TOL = 1e-6 are
    literals, x and f(1) are not."""
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _module_constants(tree: ast.Module) -> dict:
    """NAME -> repr of the value of every module-level NAME = <literal>."""
    return {target.id: _literal(stmt.value, {}) for stmt in tree.body
            if isinstance(stmt, ast.Assign) for target in stmt.targets
            if isinstance(target, ast.Name)}


def _constant_arguments(trees) -> list:
    """Parameters of functions, methods and constructors that every package
    call passes, by name or by position, one and the same literal, or a
    module constant of the calling module that holds it: a knob with one
    value.  Dunders other than __init__ run implicitly and are left out.
    A call that leaves the parameter to its default, or that unpacks *args
    or **kwargs, passes no literal."""
    calls = _calls(trees)
    constants = {id(node): names for _, tree in trees
                 for names in [_module_constants(tree)]
                 for node in ast.walk(tree) if isinstance(node, ast.Call)}
    constant = []
    for mod, qual, call_name, fn, bound in _defined(trees, nested=True):
        sites = calls.get(call_name, [])
        if (fn.name.startswith("__") and fn.name != "__init__") \
                or not sites:
            continue
        positional = fn.args.posonlyargs + fn.args.args
        for arg in positional[bound:] + fn.args.kwonlyargs:
            slot = (positional.index(arg) - bound if arg in positional
                    else None)
            values = set()
            for call in sites:
                given = [k.value for k in call.keywords if k.arg == arg.arg]
                if slot is not None and len(call.args) > slot and not any(
                        isinstance(a, ast.Starred) for a in call.args):
                    given.append(call.args[slot])
                values.add(_literal(given[0], constants[id(call)])
                           if len(given) == 1 else None)
            if len(values) == 1 and None not in values:
                constant.append(f"{mod}:{qual}({arg.arg})")
    return constant


def _serialized_whole(cls: ast.ClassDef) -> bool:
    """A method of the class passes self to asdict, so every field reaches
    the output without being read by name."""
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "asdict"
               and any(getattr(a, "id", None) == "self" for a in node.args)
               for node in ast.walk(cls))


def _unread_fields(trees) -> list:
    """Dataclass fields that no package code reads as an attribute, or by
    name through the sweep.csv schema; classes written out whole through
    asdict (RunManifest) are exempt."""
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    # rows_to_csv reads the field named in each (header, field, type) row
    # of pipeline.CSV_COLUMNS with getattr
    read |= {row.elts[1].value for _, tree in trees for node in tree.body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets]
             == ["CSV_COLUMNS"] for row in node.value.elts}
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


def _shadowed_methods(trees) -> list:
    """module:Class.name of every method, classmethod or property whose
    name the class also sets as self.<name> or declares as a field: the
    instance attribute hides the method on every instance."""
    shadowed = []
    for path, tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            state = {node.attr for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Store)
                     and getattr(node.value, "id", None) == "self"}
            state |= {stmt.target.id for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign)}
            shadowed += [f"{path.name}:{cls.name}.{fn.name}"
                         for fn in cls.body
                         if isinstance(fn, ast.FunctionDef)
                         and fn.name in state]
    return shadowed


def code_lines(trees) -> dict:
    """Module file -> its code lines: those that are not blank, not only a
    comment, and not part of the docstring of the module, a class or a
    function."""
    counts = {}
    for path, tree in trees:
        docs = {line for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None
                for line in range(node.body[0].lineno,
                                  node.body[0].end_lineno + 1)}
        lines = path.read_text(encoding="utf-8").splitlines()
        counts[path.name] = sum(
            1 for number, line in enumerate(lines, 1)
            if line.strip() and not line.lstrip().startswith("#")
            and number not in docs)
    return counts


def _not_implemented(trees) -> list:
    """module:line of every raise of NotImplementedError, bare or called."""
    return [f"{path.name}:{node.lineno}" for path, tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and "NotImplementedError" in (
                getattr(node.exc, "id", None),
                getattr(getattr(node.exc, "func", None), "id", None))]


def _owners(trees, hit) -> list:
    """module:function, for every top-level function or method, of those
    holding a node for which ``hit`` is true, and the bare module where such
    a node lies outside any."""
    found = set()
    for path, tree in trees:
        owners = [(f"{path.name}:{qual}", {id(n) for n in ast.walk(fn)})
                  for _, qual, _, fn, _ in _defined([(path, tree)])]
        for node in ast.walk(tree):
            if hit(node):
                found.add(next((owner for owner, inside in owners
                                if id(node) in inside), path.name))
    return sorted(found)


def _clock_readers(trees) -> list:
    """The owners of every read of the time module's clock: an attribute of
    ``time``, or a name imported from it."""
    return _owners(trees, lambda node: (
        isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "time") or (
        isinstance(node, ast.ImportFrom) and node.module == "time"))


def _evaluators(trees) -> list:
    """The owners of every call of the builtins eval, exec and compile."""
    return _owners(trees, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", None) in ("eval", "exec", "compile"))


def _digest_importers(trees) -> list:
    """The owners of every import of hashlib or of CPython's built-in
    SHA-256 modules."""
    digests = {"hashlib", "_sha2", "_sha256"}
    return _owners(trees, lambda node: (
        isinstance(node, ast.Import)
        and any(alias.name in digests for alias in node.names)) or (
        isinstance(node, ast.ImportFrom) and node.module in digests))


def _warning_codes(trees) -> list:
    """Every warning code the package emits, sorted: the string value of a
    "code" key in a dict display."""
    return sorted({value.value for _, tree in trees
                   for node in ast.walk(tree) if isinstance(node, ast.Dict)
                   for key, value in zip(node.keys, node.values)
                   if isinstance(key, ast.Constant) and key.value == "code"
                   and isinstance(value, ast.Constant)})


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


def test_no_constant_arguments():
    # a parameter that every package call sets to one literal is a knob
    # with one value: make the value a constant in the body
    constant = _constant_arguments(_trees())
    assert not constant, (
        f"parameters every call passes one literal: {constant}")


def test_every_field_is_read():
    # a dataclass field that no package code reads as an attribute is state
    # set for nothing: delete it
    unread = _unread_fields(_trees())
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_no_attribute_shadows_a_method():
    # an instance attribute named like a method of its class (a flag
    # beside the classmethod that sets it) hides the method on every
    # instance: keep one of the two
    shadowed = _shadowed_methods(_trees())
    assert not shadowed, f"methods hidden by instance attributes: {shadowed}"


def test_nothing_raises_not_implemented():
    # an input the package cannot handle is a deliberate error (a
    # ConfigError naming its key, exit 3); a NotImplementedError reaches
    # cli.main as a traceback
    raised = _not_implemented(_trees())
    assert not raised, f"NotImplementedError raised at: {raised}"


def test_one_clock():
    # pipeline.run's lap clock is the one timing record: every stage, and
    # each eps's runtime_s, is read off it, so nothing else reads the time
    assert _clock_readers(_trees()) == ["pipeline.py:run"]


def test_one_evaluator():
    # config expressions are the only text the package hands to Python to
    # run, and only after _parse_expression has checked every node of them
    assert _evaluators(_trees()) == ["config.py:_parse_expression"]


def test_one_digest():
    # the manifest's config hash is the one digest the package makes, from
    # the built-in SHA-256: an import of hashlib elsewhere, at module level
    # above all, would load OpenSSL's libcrypto (3.5 MB) into every command
    assert _digest_importers(_trees()) == ["pipeline.py:config_hash"]


def test_every_warning_code_is_named_and_raised():
    # a warning code is the manifest's machine-readable record of what a
    # run found: README says what each one means, and some test makes the
    # package raise it, naming it as the string the manifest carries
    codes = _warning_codes(_trees())
    assert "RadiusNotConverged" in codes
    readme = (ROOT / "README.md").read_text("utf-8")
    tests = "".join(path.read_text("utf-8")
                    for path in (ROOT / "tests").glob("test_*.py")
                    if path.name != pathlib.Path(__file__).name)
    assert [c for c in codes if f"`{c}`" not in readme] == []
    assert [c for c in codes if f'"{c}"' not in tests] == []


def test_errors_carry_their_message_only():
    # an error is its type, which cli.main maps to an exit code, and its
    # message: a class body beyond the docstring (an __init__, a stored
    # label or magnitude) is state that nothing reads
    tree = ast.parse((ROOT / "src/homspec/errors.py").read_text("utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes
    heavy = [cls.name for cls in classes
             if len(cls.body) != 1 or not isinstance(cls.body[0], ast.Expr)]
    assert not heavy, f"error classes with more than a docstring: {heavy}"


def test_gates_see_what_only_tests_use(tmp_path):
    # one package with one case of each kind the gates must not count as a
    # use: a helper that only a test calls, a default that only a **mapping
    # passes, a nested function whose default and parameter no call sets
    # or body reads, two private parameters that their one package call
    # sets to a literal and to a module constant (a test passes others),
    # and a constructor's flag and the nested function's name, which their
    # one call each sets to a literal; the helper reads the clock, which
    # _clock_readers names, the module imports hashlib, which
    # _digest_importers names, and a property and a classmethod share
    # their names with a field and with a flag, which _shadowed_methods
    # names
    package = tmp_path / "src" / "homspec"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent("""\
        \"\"\"A package module with one case of each kind.\"\"\"
        import hashlib
        import time
        from dataclasses import dataclass

        OFFSET = 0


        @dataclass
        class Pair:
            used: int
            spare: int

            @property
            def spare(self):
                return self.used


        class Field:
            def __init__(self, values, sampled=False):
                # the flag beside the classmethod below
                self.values = values
                self.sampled = sampled

            @classmethod
            def sampled(cls, values):
                return cls(values, sampled=True)


        def helper():
            \"\"\"The clock,
            read once.\"\"\"
            return time.perf_counter()


        def solve(x, maxiter=10):
            if maxiter < 1:
                raise NotImplementedError("maxiter below 1")
            return eval(repr(x)) * maxiter


        def driver(pair, **source):
            def check(name, note=""):
                return name

            check("a")
            return solve(_scale(pair.used, 2, OFFSET), **source)


        def _scale(x, factor, offset):
            return x * factor + offset


        COMMANDS = {"run": driver}
        """))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(textwrap.dedent("""\
        from homspec.mod import Pair, _scale, driver, helper


        def test_mod():
            pair = Pair(1, 2)
            assert helper() > 0 and pair.spare == 2
            assert driver(pair, maxiter=1) == 2 and _scale(1, 3, 1) == 4
        """))
    trees = _trees(tmp_path)
    assert _unused_helpers(trees) == ["mod.py:helper"]
    assert _unpassed_defaults(trees) == ["mod.py:solve(maxiter=)",
                                         "mod.py:driver.check(note=)"]
    assert _unread_parameters(trees) == ["mod.py:driver.check(note)"]
    assert _unread_fields(trees) == ["mod.py:Pair.spare"]
    assert _constant_arguments(trees) == ["mod.py:Field.__init__(sampled)",
                                          "mod.py:_scale(factor)",
                                          "mod.py:_scale(offset)",
                                          "mod.py:driver.check(name)"]
    assert _shadowed_methods(trees) == ["mod.py:Pair.spare",
                                        "mod.py:Field.sampled"]
    assert _not_implemented(trees) == ["mod.py:38"]
    assert _clock_readers(trees) == ["mod.py:helper"]
    assert _evaluators(trees) == ["mod.py:solve"]
    assert _digest_importers(trees) == ["mod.py"]
    assert code_lines(trees) == {"mod.py": 32}


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


if __name__ == "__main__":
    counts = code_lines(_trees())
    for name, count in counts.items():
        print(f"{name:16} {count:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
