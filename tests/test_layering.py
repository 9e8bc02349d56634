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


# How classification measures a location, by the exact pair pass or by the
# cell tree's bounds, is chosen in ``configuration.py`` alone; the
# quasi-regular center test reads its two members.
_CHOICE = {"_TREE_FROM", "_LEAF_SIZE", "_pair_sums", "_CellBounds", "_sum_walks", "_r_floor", "_sum_at"}
_MEASURES = {"_lower_sums", "_sums_at"}


def _names_read(path: Path) -> set[str]:
    """Every bare name and attribute name a module reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_configuration_chooses_how_locations_are_measured():
    names = {path.name: _names_read(path) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, read in names.items() if read & _CHOICE] == ["configuration.py"]
    assert names["symmetry.py"] & (_CHOICE | _MEASURES) == _MEASURES


def _reads(node: ast.AST, name: str) -> int:
    """How often ``name`` is read as a bare name or an attribute under node."""
    return sum(
        isinstance(sub, (ast.Name, ast.Attribute))
        and isinstance(sub.ctx, ast.Load)
        and (sub.id if isinstance(sub, ast.Name) else sub.attr) == name
        for sub in ast.walk(node)
    )


def test_one_function_reads_the_tree_crossover():
    # ``Configuration._sum_walks`` alone reads the 64-robot crossover; the
    # rest of classification branches on its None
    readers, everywhere = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        everywhere += _reads(tree, "_TREE_FROM")
        readers += [
            (path.name, fn.name, _reads(fn, "_TREE_FROM"))
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _reads(fn, "_TREE_FROM")
        ]
    assert readers == [("configuration.py", "_sum_walks", everywhere)]
