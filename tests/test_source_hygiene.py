"""Every top-level import of a package module is read by that module or
re-exported through its ``__all__`` (the unused-import check of a
linter, done with ``ast``)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sympeig"


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname:
                    yield alias.asname
                elif alias.name != "*":
                    # `import a.b` binds `a`
                    yield alias.name.split(".")[0]


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(set(imported_names(tree)) - read - exported_names(tree))
    assert not unused, f"{path.name} imports {unused} and never reads them"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_operators_reads_matrix_market(path):
    # every Matrix Market read goes through `operators.load_matrix` or
    # `operators.load_dense`, which map parse errors to OSError (exit 3)
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name.split(".")[-1] for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert path.name == "operators.py" or "mmread" not in names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_operators_runs_arpack(path):
    # extreme eigenvalues above the dense budget come from one routine,
    # `SpdOperator.extreme_eigvals`
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert path.name == "operators.py" or "scipy.sparse.linalg" not in modules



@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_blas(path):
    # scipy and numpy load separate OpenBLAS builds; with more than one
    # BLAS thread, level-1 calls into scipy's build from the inner loop
    # contend with numpy's thread pool, so the package uses numpy only
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            used |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, (ast.Attribute, ast.Name)):
            used.add(ast.unparse(node))
    assert not any(name.startswith("scipy.linalg.blas") for name in used)
    assert not any(name.split(".")[-1] == "get_blas_funcs" for name in used)
