"""Every top-level import of a package module is read by that module or
re-exported through its ``__all__``, every import inside a function is
read by that function, and every top-level definition has
a caller outside the tests: a package module or the benchmark (the
unused-name checks of a linter, done with ``ast``)."""

import ast
import pathlib

import pytest

from conftest import load_tracing, run_with_blas_threads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sympeig"
PERFBENCH = ROOT / "perfbench"


def imported_names(body):
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname:
                    yield alias.asname
                elif alias.name != "*":
                    # `import a.b` binds `a`
                    yield alias.name.split(".")[0]


def loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(imported_names(tree.body)) - loaded_names(tree) - exported_names(tree))
    assert not unused, f"{path.name} imports {unused} and never reads them"
    # an import inside a function binds a local name, read in that function
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = [node for node in ast.walk(fn) if node is not fn]
            unused = sorted(set(imported_names(body)) - loaded_names(fn))
            assert not unused, f"{path.name}:{fn.name} imports {unused} and never reads them"


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
def test_only_errors_reads_number_types(path):
    # every numeric-field check goes through `errors.check_number`, so no
    # other module tests a value against numbers.Integral or numbers.Real
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert path.name == "errors.py" or not names & {"Integral", "Real"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_operators_runs_arpack(path):
    # the id is older than its check, kept so the test's history stays one
    # line: no module, operators.py included, imports scipy.sparse.linalg.
    # Extreme eigenvalues come from one routine, `SpdOperator.extreme_eigvals`,
    # a Lanczos run of the package's own rather than ARPACK
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    sparse_linalg = sorted(m for m in modules if m and (
        m == "scipy.sparse.linalg" or m.startswith("scipy.sparse.linalg.")))
    assert not sparse_linalg, f"{path.name} imports {sparse_linalg}; no module may"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_instances_and_arpack_draw(path):
    # no solver draws a random number: the instance generators and the start
    # vector of the Lanczos run in `SpdOperator.extreme_eigvals` (ARPACK's,
    # when the id was given) are the draws
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))}
    used |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    draws = {name for name in used
             if "random" in name.split(".") or name.endswith("default_rng")}
    assert path.name in ("testgen.py", "operators.py") or not draws, (
        f"{path.name} draws {sorted(draws)}; only testgen.py and operators.py may")


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


def test_dense_solve_loads_no_scipy():
    # a dense instance and its solve need numpy alone; run in a subprocess,
    # since this test process has scipy loaded already
    loaded = run_with_blas_threads(
        "import sys\n"
        "import sympeig\n"
        "op, _ = sympeig.GeneratorSpec('dense', 30).make()\n"
        "assert sympeig.solve(op, 3).status is sympeig.SolveStatus.CONVERGED\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert loaded.strip() == "[]"


def test_slr_solve_loads_no_scipy_linalg():
    # a sparse-plus-low-rank instance needs scipy.sparse for its CSR part
    # and nothing of scipy's linear algebra, dense or sparse
    loaded = run_with_blas_threads(
        "import sys\n"
        "import sympeig\n"
        "op, _ = sympeig.GeneratorSpec('slr', 30).make()\n"
        "assert sympeig.solve(op, 3).status is sympeig.SolveStatus.CONVERGED\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    modules = ast.literal_eval(loaded.strip())
    assert "scipy.sparse" in modules
    linalg = [m for m in modules if m.startswith(("scipy.linalg", "scipy.sparse.linalg"))]
    assert not linalg, linalg


def test_srr_never_applies_the_operator():
    # the Rayleigh-Ritz step takes A X from the stage end, the one place
    # that applies A to a stage's exit iterate
    tree = ast.parse((SRC / "factor.py").read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "apply" not in attrs


def read_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def sympeig_reads(tree):
    """Attributes of every chain rooted at the name ``sympeig``
    (``sympeig.SolveStatus.CONVERGED`` reads SolveStatus and CONVERGED)."""
    read = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "sympeig":
            read.update(chain)
    return read


def test_every_src_definition_has_a_caller():
    # a name counts as read when a package module reads it outside its own
    # definition, or the benchmark reads it through `sympeig`: an attribute
    # chain rooted at `sympeig`, or a module attribute its tracing rebinds;
    # a listing in __all__ alone, or a benchmark name that only shares the
    # spelling, is no caller
    read = set()
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = read_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
                names.discard(stmt.name)
            read |= names
    for path in sorted(PERFBENCH.glob("*.py")):
        read |= sympeig_reads(ast.parse(path.read_text(), filename=str(path)))
    read |= {attr for _, attr, _ in load_tracing().PATCH_POINTS}
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in read)
    assert not unused, f"defined in src but read only by tests: {unused}"


def defaulted_params(fn, method):
    """Names of `fn`'s parameters that have a default, and its positional
    parameters as a call passes them (without `self` or `cls` when
    `fn` is a method called through an instance or its class)."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if method and not any(getattr(d, "id", None) == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]
    named = positional[len(positional) - len(fn.args.defaults):] if fn.args.defaults else []
    named += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
              if d is not None]
    return set(named), positional


def test_every_default_has_a_src_caller():
    # a default that every package call overrides is a dead fallback:
    # for each function outside __all__ (a method counts with its class),
    # some package call must leave each defaulted parameter out; a call
    # with *args or **kwargs counts as leaving out every one
    from sympeig import __all__ as exported

    functions, calls = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        methods.add(stmt)
                        if node.name not in exported:
                            functions.setdefault(stmt.name, []).append(
                                (f"{path.name}:{node.name}.{stmt.name}", stmt, True))
            elif isinstance(node, ast.Call):
                calls.append(node)
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and node not in methods
                    and node.name not in exported):
                functions.setdefault(node.name, []).append(
                    (f"{path.name}:{node.name}", node, False))
    left_out = {}
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        starred = (any(isinstance(a, ast.Starred) for a in call.args)
                   or any(k.arg is None for k in call.keywords))
        for label, fn, method in functions.get(name, ()):
            named, positional = defaulted_params(fn, method)
            given = set(positional[:len(call.args)]) | {k.arg for k in call.keywords}
            left_out.setdefault(label, set()).update(named if starred else named - given)
    dead = sorted(f"{label}({param})" for entries in functions.values()
                  for label, fn, method in entries
                  for param in sorted(defaulted_params(fn, method)[0]
                                      - left_out.get(label, set())))
    assert not dead, f"defaults that no package call leaves out: {dead}"


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


# the names of `solve`'s direction, step, first tolerance and precision
SOLVE_ONLY = {"exact_step", "lbfgs_direction", "EPS_FIRST", "SINGLE_EPS",
              "SINGLE_SCALE", "single_precision"}


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
    # and conversely: `solve`'s exact step takes no BB length or GLL window
    leaked = sorted({"bb_step", "WINDOW"} & names_read_from(functions, "solve"))
    assert not leaked, f"solve reaches {leaked}"


def test_one_gradient_method_and_one_j_kernel():
    # `BasedEval` differs from `PenaltyEval` only in the gradient's M, and
    # `operators.j_left` forms every J x and m - J x of the gradient and the
    # residue: no other row-half slice in `penalty` or `metrics` than the
    # ray's thin products and the violation's identity blocks
    from sympeig.penalty import BasedEval

    assert "ensure_gradient" not in BasedEval.__dict__
    for name in ("penalty.py", "metrics.py"):
        tree = ast.parse((SRC / name).read_text())
        slicing = set()
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
                    slicing.add(top.name)
        assert slicing <= {"ray", "violation"}, f"{name}: {sorted(slicing)}"
