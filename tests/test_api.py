from __future__ import annotations

import ast
from pathlib import Path

import qbiblock
from qbiblock.exactring import Polynomial, RationalFunction
from qbiblock import matrix
from qbiblock.matrix import RingMatrix

PACKAGE = Path(qbiblock.__file__).resolve().parent

# re-exported so that the layer tracer of the benchmark can wrap them under
# their _fastpoly names
UNUSED_IMPORTS_ALLOWED = {"_fastpoly.py": {"matmul", "ffgj_inverse"}}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def test_no_module_imports_a_name_it_never_uses():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported_names(tree) - used - UNUSED_IMPORTS_ALLOWED.get(path.name, set())
        assert not unused, (path.name, sorted(unused))


def private_definitions(tree: ast.Module) -> list[tuple[ast.stmt, list[str]]]:
    """Each module-level statement with the _-prefixed, non-dunder function,
    class and constant names it defines."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        private = [n for n in names if n.startswith("_") and not n.startswith("__")]
        if private:
            out.append((stmt, private))
    return out


def referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def test_no_module_defines_a_private_helper_nothing_else_references():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    references = [(stmt, referenced_names(stmt)) for tree in trees.values() for stmt in tree.body]
    for module, tree in sorted(trees.items()):
        for definition, names in private_definitions(tree):
            elsewhere = set().union(*(refs for stmt, refs in references if stmt is not definition))
            unused = [n for n in names if n not in elsewhere]
            assert not unused, (module, unused)


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert set(qbiblock.__all__) == imported_names(tree)
    assert len(qbiblock.__all__) == len(set(qbiblock.__all__))
    for name in qbiblock.__all__:
        assert getattr(qbiblock, name) is not None, name
    removed = {
        "block_degree",
        "eval_at",
        "q_matrix_from_distances",
        "inverse_gauss",
        "SingularMatrixError",
        "rf_matrix",
    }
    assert not removed & set(qbiblock.__all__)
    assert not any(hasattr(qbiblock, name) for name in removed)
    assert not any(hasattr(matrix, name) for name in removed)
    assert not hasattr(Polynomial, "gcd") and not hasattr(Polynomial, "lead")
    assert not hasattr(RationalFunction, "exact_div")
    assert not hasattr(RingMatrix, "from_blocks") and RingMatrix.__hash__ is None
