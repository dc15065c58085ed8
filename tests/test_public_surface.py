"""The package's contract with its callers: the exported names, and the
module attributes through which ``perfbench/tracing.py`` wraps each
layer of a solve."""

import dataclasses
import json
import os
import re
import types

import sympeig
from conftest import load_tracing

PUBLIC = {
    # solving
    "solve", "solve_basic", "SolverParams", "SolveStatus", "SympEigResult",
    "beta_suggest",
    # operators and files
    "SpdOperator", "load_matrix", "store_matrix", "symplectic_gram", "poisson",
    # instances
    "GeneratorSpec", "FAMILIES",
    # checking
    "reference", "residue", "feasibility", "golub_werman", "count_flops",
    # errors
    "NumericalFailure",
}

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_exported_names():
    assert len(PUBLIC) == 19
    assert set(sympeig.__all__) == PUBLIC
    for name in sympeig.__all__:
        assert getattr(sympeig, name) is not None
    # besides its modules the namespace binds no name outside __all__, so a
    # name dropped from it cannot still be imported from the package
    extra = {name for name, value in vars(sympeig).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert extra == PUBLIC


def test_readme_matches_the_package():
    # the README's SolverParams table (keys, order, defaults) and its count
    # of the exported names
    text = open(README, encoding="utf-8").read()
    table = text[text.index("| key "):].split("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]*)` +\|", table, flags=re.MULTILINE)
    fields = dataclasses.fields(sympeig.SolverParams)
    assert [key for key, _ in rows] == [f.name for f in fields]
    for (key, default), f in zip(rows, fields):
        value = json.loads(default)
        assert value == f.default and type(value) is type(f.default), key
    (count,) = re.findall(r"`sympeig\.__all__`, (\d+) names", text)
    assert int(count) == len(sympeig.__all__)


def test_every_patch_point_records_a_span():
    tracing = load_tracing()
    op, _ = sympeig.GeneratorSpec("dense", 20, seed=0).make()
    tracer = tracing.Tracer()
    proxy = tracing.TracedOperator(op, tracer)
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.PATCH_POINTS]
    with tracing.installed(tracer):
        res = sympeig.solve(proxy, 2)
    assert res.status is sympeig.SolveStatus.CONVERGED
    layers = tracer.summarize(0, len(tracer.name_id))
    # `solve`'s exact step needs no BB length; `solve_basic` takes one per step
    for (owner, attr, name), original in zip(tracing.PATCH_POINTS, originals):
        if name == "stepper.bb_step":
            assert layers[name]["calls"] == 0, name
        else:
            assert layers[name]["calls"] >= 1, name
        assert owner.__dict__[attr] is original, name
    assert layers[tracing.APPLY]["calls"] == proxy.applies
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        res = sympeig.solve_basic(op, 2)
    assert res.inner_iterations > 0
    layers = tracer.summarize(0, len(tracer.name_id))
    assert layers["stepper.bb_step"]["calls"] == res.inner_iterations


def test_one_step_length_and_one_line_search_per_inner_step():
    # the cross-checks of a `--trace 1` benchmark run, on a loose-only
    # solve and on one with tight stages, whose exit checks apply A; the
    # one step length is the exact step's, so `bb_step` is never called
    tracing = load_tracing()
    for family, n, p in (("dense", 20, 2), ("slr", 40, 4)):
        op, _ = sympeig.GeneratorSpec(family, n, seed=0).make()
        tracer = tracing.Tracer()
        proxy = tracing.TracedOperator(op, tracer)
        with tracing.installed(tracer):
            res = sympeig.solve(proxy, p)
        layers = tracer.summarize(0, len(tracer.name_id))
        assert res.inner_iterations > 0
        assert layers["stepper.bb_step"]["calls"] == 0
        assert layers["stepper.gll_search"]["calls"] == res.inner_iterations
        # every step forms a gradient, tight stages' included
        assert layers["penalty.ensure_gradient"]["calls"] >= res.inner_iterations
        refused = sum(st.refused for st in res.trace.outer)
        assert (layers[tracing.APPLY]["calls"] == proxy.applies
                == res.inner_iterations + res.outer_iterations + 1 + refused)
    assert any(st.eps < sympeig.solver.SINGLE_EPS for st in res.trace.outer)


def test_apply_counts_off_the_float32_path():
    # the untraced benchmark count on the paths its workloads do not take:
    # `solve_basic` applies A at its start, once per step and for its
    # Rayleigh-Ritz step, and `solve` on an operator whose mean eigenvalue
    # lies outside SINGLE_SCALE runs in float64 at the count of its docstring
    tracing = load_tracing()
    op, _ = sympeig.GeneratorSpec("dense", 20, seed=0).make()
    proxy = tracing.CountingOperator(op)
    res = sympeig.solve_basic(proxy, 2)
    assert res.inner_iterations > 0
    assert proxy.applies == res.inner_iterations + 2
    large = sympeig.SpdOperator.from_dense(1e9 * op.densify())
    assert large.trace() / (2 * large.n) > sympeig.solver.SINGLE_SCALE[1]
    proxy = tracing.CountingOperator(large)
    res = sympeig.solve(proxy, 2)
    assert res.status is sympeig.SolveStatus.CONVERGED
    refused = sum(st.refused for st in res.trace.outer)
    assert proxy.applies == res.inner_iterations + res.outer_iterations + 1 + refused
