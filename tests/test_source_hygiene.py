"""Every top-level import of a package module is read by that module or
re-exported through its ``__all__``, and every top-level definition has
a caller outside the tests (the unused-name checks of a linter, done
with ``ast``)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sympeig"
PERFBENCH = ROOT / "perfbench"


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


def read_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def test_every_src_definition_has_a_caller():
    # a name counts as read when a package module (outside its own
    # definition), the package's __all__ or the benchmark reads it
    read = set()
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= exported_names(tree)
        for stmt in tree.body:
            names = read_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
                names.discard(stmt.name)
            read |= names
    for path in sorted(PERFBENCH.glob("*.py")):
        read |= read_names(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in read)
    assert not unused, f"defined in src but read only by tests: {unused}"


def test_every_solver_param_is_read():
    # a setting that no solver code path reads is a dead knob; reads in
    # SolverParams' own methods (validate, from_dict) do not count
    tree = ast.parse((SRC / "solver.py").read_text())
    (params_cls,) = [node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "SolverParams"]
    declared = {stmt.target.id for stmt in params_cls.body if isinstance(stmt, ast.AnnAssign)}
    read = {node.attr for stmt in tree.body if stmt is not params_cls
            for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "params"}
    assert declared
    assert not declared - read, f"never read by the solver: {sorted(declared - read)}"


# the names of `solve`'s direction, step, pair memory and precision
SOLVE_ONLY = {"exact_step", "lbfgs_direction", "MEMORY", "SINGLE_EPS", "SINGLE_SCALE",
              "single_precision"}


def names_read_from(functions, entry):
    """Names read by `entry` and by every function of `functions` it calls."""
    seen, todo, read = set(), [entry], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            names = read_names(functions[name])
            read |= names
            todo += sorted(names & functions.keys())
    return read


def test_solve_basic_shares_no_code_with_solve_steps():
    # `solve_basic` is the paper's method and the subject of acceptance
    # criterion 06, so a change to `solve`'s inner step must not reach it
    tree = ast.parse((SRC / "solver.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert SOLVE_ONLY <= names_read_from(functions, "solve")
    leaked = sorted(SOLVE_ONLY & names_read_from(functions, "solve_basic"))
    assert not leaked, f"solve_basic reaches {leaked}"
