"""Every top-level function and public method in src/homspec is used."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_unused_helpers():
    used, defined = set(), []
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
        if path.parts[-2] != "homspec":
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")]
    unused = [f"{mod}:{qual}" for mod, qual, name in defined if name not in used]
    assert not unused, f"never referenced in src/ or tests/: {unused}"
