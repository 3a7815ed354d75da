from __future__ import annotations

import ast
from pathlib import Path

import qbiblock
from qbiblock.exactring import Polynomial, RationalFunction
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


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert set(qbiblock.__all__) == imported_names(tree)
    assert len(qbiblock.__all__) == len(set(qbiblock.__all__))
    for name in qbiblock.__all__:
        assert getattr(qbiblock, name) is not None, name
    removed = {"block_degree", "eval_at", "q_matrix_from_distances"}
    assert not removed & set(qbiblock.__all__)
    assert not any(hasattr(qbiblock, name) for name in removed)
    assert not hasattr(Polynomial, "gcd") and not hasattr(Polynomial, "lead")
    assert not hasattr(RationalFunction, "exact_div")
    assert not hasattr(RingMatrix, "from_blocks") and RingMatrix.__hash__ is None
