"""Static check: every name the package imports is used in its module.

A name counts as used if the module reads it anywhere or lists it in
``__all__``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "annealed_il"


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    return [f"{path.relative_to(PACKAGE)}:{line} {name}" for name, line in _imported_names(tree) if name not in used]


def test_no_unused_imports_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
