"""Module layering: imports run one way and sit at module level."""

import ast
from pathlib import Path

import gathersim

SRC = Path(gathersim.__file__).parent


def _imports_configuration(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module is None:
            return any(alias.name == "configuration" for alias in node.names)
        return (node.module or "").split(".")[-1] == "configuration"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "configuration" for alias in node.names)
    return False


def test_no_import_inside_a_function():
    late = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert late == []


def test_symmetry_imports_configuration_only_for_type_checking():
    tree = ast.parse((SRC / "symmetry.py").read_text())
    guarded = runtime = 0
    for stmt in tree.body:
        if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name) and stmt.test.id == "TYPE_CHECKING":
            guarded += any(_imports_configuration(node) for node in ast.walk(stmt))
            runtime += any(_imports_configuration(node) for other in stmt.orelse for node in ast.walk(other))
        else:
            runtime += any(_imports_configuration(node) for node in ast.walk(stmt))
    assert guarded == 1 and runtime == 0
