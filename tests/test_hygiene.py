"""Every top-level function and public method in src/homspec is used, every
parameter of one is read, and every defaulted parameter is passed by some
call in src/homspec."""

import ast
import pathlib
import sys

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
        "MacroFunction": "test_hermite and test_expansion, as the per-call "
                         "route that HermiteSampler is checked against",
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


def _trees():
    paths = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/*.py"))
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in paths]


def _defined(trees):
    """(module, qualified name, name its calls use, FunctionDef, bound)."""
    out = []
    for path, tree in trees:
        if path.parts[-2] != "homspec":
            continue
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


def test_no_unused_helpers():
    # a method counts as used when any name or attribute spells it (its
    # class cannot be told from the AST); a module function only when it
    # is reached through its own module
    trees = _trees()
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    module_used = _module_uses(trees)
    unused = [f"{mod}:{qual}" for mod, qual, _, fn, _ in _defined(trees)
              if (fn.name == qual and (mod, fn.name) not in module_used)
              or (fn.name != qual and not fn.name.startswith("_")
                  and fn.name not in used)]
    assert not unused, f"never referenced in src/ or tests/: {unused}"
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
    trees = _trees()
    calls = _calls([(path, tree) for path, tree in trees
                    if path.parts[-2] == "homspec"])
    unpassed = []
    for mod, qual, call_name, fn, bound in _defined(trees):
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
                any(k.arg in (arg.arg, None) for k in call.keywords)
                or (slot is not None
                    and (len(call.args) > slot
                         or any(isinstance(a, ast.Starred) for a in call.args)))
                for call in calls.get(call_name, []))
            label = f"{mod}:{qual.replace('.__init__', '')}({arg.arg}=)"
            if not passed and label not in KEPT_DEFAULTS:
                unpassed.append(label)
    assert not unpassed, f"defaults no call in src/homspec passes: {unpassed}"


def test_every_parameter_is_read():
    # a parameter the body never reads is a value every caller passes for
    # nothing: delete it, or keep it in KEPT_UNREAD with a reason
    unread = []
    for mod, qual, _, fn, bound in _defined(_trees()):
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
    assert not unread, f"parameters no body reads: {unread}"


def _serialized_whole(cls: ast.ClassDef) -> bool:
    """A method of the class passes self to asdict, so every field reaches
    the output without being read by name."""
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "asdict"
               and any(getattr(a, "id", None) == "self" for a in node.args)
               for node in ast.walk(cls))


def test_every_field_is_read():
    # a dataclass field that no code reads as an attribute is state set for
    # nothing: delete it.  Classes written out whole through asdict
    # (RunManifest) are exempt
    trees = _trees()
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees:
        if path.parts[-2] != "homspec":
            continue
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
    assert not unread, f"dataclass fields nothing reads: {unread}"


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
