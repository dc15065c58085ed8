"""The in-place forms of the hot-path kernels give the same bits as the
plain expressions they stand for.

Each test keeps the plain expression as the reference and compares with
``np.array_equal``: the rewrites reorder no arithmetic, so any rounding
difference is a bug.  Inputs cover p = 1 and every operator kind.
"""

import numpy as np
import pytest

from conftest import KINDS, make_operator, random_spd
from sympeig import symplectic_gram
from sympeig.operators import j_left
from sympeig.penalty import evaluate, violation
from sympeig.stepper import DELTA, gll_search

PAIRS = (1, 2, 5)


def _block(rng, n, p):
    return rng.standard_normal((2 * n, 2 * p))


@pytest.mark.parametrize("p", PAIRS)
def test_j_left_matches_concatenation(p):
    rng = np.random.default_rng(p)
    for x in (_block(rng, 7, p), rng.standard_normal(14)):
        k = x.shape[0] // 2
        assert np.array_equal(j_left(x), np.concatenate((x[k:], -x[:k]), axis=0))


@pytest.mark.parametrize("p", PAIRS)
def test_symplectic_gram_matches_halved_difference(p):
    rng = np.random.default_rng(10 + p)
    x = _block(rng, 9, p)
    g = x.T @ j_left(x)
    assert np.array_equal(symplectic_gram(x), 0.5 * (g - g.T))


@pytest.mark.parametrize("p", PAIRS)
def test_subtract_poisson_matches_fancy_indexing(p):
    rng = np.random.default_rng(20 + p)
    x = _block(rng, 8, p)
    expected = symplectic_gram(x)
    idx = np.arange(p)
    expected[idx, p + idx] -= 1.0
    expected[p + idx, idx] += 1.0
    assert np.array_equal(violation(x), expected)
    assert np.array_equal(violation(x, jx=j_left(x)), expected)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PAIRS)
def test_gradient_matches_expression(kind, p):
    rng = np.random.default_rng(30 + p)
    op = make_operator(kind, random_spd(rng, 16))
    ev = evaluate(op, _block(rng, 8, p), 3.7)
    expected = ev.ax - ev.beta * (ev.jx @ ev.violation)
    assert np.array_equal(ev.ensure_gradient(), expected)


@pytest.mark.parametrize("kind", KINDS)
def test_apply_matches_expression(kind):
    rng = np.random.default_rng(40)
    op = make_operator(kind, random_spd(rng, 16))
    for x in (_block(rng, 8, 1), _block(rng, 8, 3), rng.standard_normal(16)):
        expected = op._b @ x
        if op._c is not None:
            expected = expected + op._c @ (op._c.T @ x)
        assert np.array_equal(op.apply(x), expected)


@pytest.mark.parametrize("backtracks", (0, 3))
def test_trial_point_matches_expression(backtracks):
    rng = np.random.default_rng(60 + backtracks)
    x = _block(rng, 6, 2)
    g = _block(rng, 6, 2)
    trials = []

    def f_eval(xt):
        trials.append(xt.copy())
        # the first `backtracks` trials fail the decrease test
        return (1e9 if len(trials) <= backtracks else 0.0), None

    ls = gll_search(f_eval, x, g, 0.3, float(np.vdot(g, g)), [1.0])
    assert ls.t == backtracks
    step = 0.3
    for xt in trials:
        assert np.array_equal(xt, x - step * g)
        step *= DELTA
    assert np.array_equal(ls.x, trials[-1])
