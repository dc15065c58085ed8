"""The in-place forms of the hot-path kernels give the same bits as the
plain expressions they stand for.

Each test keeps the plain expression as the reference and compares with
``np.array_equal``: the rewrites reorder no arithmetic, so any rounding
difference is a bug.  Inputs cover p = 1 and every operator kind.
"""

import numpy as np
import pytest

from conftest import KINDS, make_operator, random_spd
from sympeig import residue, symplectic_gram
from sympeig.operators import j_left
from sympeig.penalty import BasedEval, evaluate, ray, violation
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
        # the fused minuend - J x, in float64 and float32, into a new
        # block and into a caller's
        for dtype in (np.float64, np.float32):
            xd = x.astype(dtype)
            m = rng.standard_normal(x.shape).astype(dtype)
            expected = m - np.concatenate((xd[k:], -xd[:k]), axis=0)
            got = j_left(xd, minuend=m)
            assert got.dtype == dtype and np.array_equal(got, expected)
            out = np.empty_like(xd)
            assert j_left(xd, out=out, minuend=m) is out
            assert np.array_equal(out, expected)


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PAIRS)
def test_gradient_matches_expression(kind, p):
    rng = np.random.default_rng(30 + p)
    op = make_operator(kind, random_spd(rng, 16))
    ev = evaluate(op, _block(rng, 8, p), 3.7)
    expected = ev.ax - j_left(ev.x @ (ev.beta * ev.violation))
    assert np.array_equal(ev.ensure_gradient(), expected)
    # the same blocks, formed again into a caller's buffer
    out = np.empty_like(expected)
    assert ev.ensure_gradient(out=out) is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PAIRS)
def test_based_gradient_matches_expression(kind, p):
    # after three moves of a float32 correction, H - J (X (beta dV) +
    # E (beta V0)) with every product and sum in the dtypes the based
    # evaluation keeps
    rng = np.random.default_rng(80 + p)
    op = make_operator(kind, random_spd(rng, 16))
    base = evaluate(op, _block(rng, 8, p), 3.7)
    ev = BasedEval(base, base.ensure_gradient(), np.float32)
    for frac in (0.2, 0.05, 0.3):
        g = ev.ensure_gradient()
        d = (g + 0.1 * rng.standard_normal(g.shape)).astype(np.float32)
        model = ray(ev.x, ev.violation, d, op.apply(d), ev.beta, float(np.vdot(g, d)))
        # a move of `frac` ||X||
        step = frac * float(np.linalg.norm(ev.x) / np.linalg.norm(d))
        ev.move(step * d, model, step, ev.value)
    assert np.linalg.norm(ev._e) > 0.1 * np.linalg.norm(base.x)
    beta_dv = (ev.violation - base.violation).astype(np.float32)
    beta_dv *= ev.beta
    beta_v0 = (base.beta * base.violation).astype(np.float32)
    expected = ev.ax - j_left(ev.x @ beta_dv + ev._e @ beta_v0)
    assert expected.dtype == np.float32
    assert np.array_equal(ev.ensure_gradient(), expected)
    out = np.empty_like(expected)
    assert ev.ensure_gradient(out=out) is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("p", PAIRS)
def test_residue_matches_expression(p):
    # J_n X J_p^T D with the sign on D against the sign on the column half
    rng = np.random.default_rng(50 + p)
    op = make_operator("dense", random_spd(rng, 18))
    x = _block(rng, 9, p)
    x[0, 0] = x[1, p] = 0.0
    x[2, p - 1] = -0.0
    d = rng.uniform(0.5, 2.0, p)
    ax = op.apply(x)
    target = j_left(np.concatenate((x[:, p:], -x[:, :p]), axis=1) * np.concatenate([d, d]))
    expected = float(np.linalg.norm(ax - target) / np.linalg.norm(ax))
    assert residue(op, x, d, ax=ax) == expected


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
    op = make_operator("dense", random_spd(rng, 12))
    x = _block(rng, 6, 2)
    g = _block(rng, 6, 2)
    ev = evaluate(op, x, 2.0)
    slope = float(np.vdot(g, g))
    model = ray(x, ev.violation, g, op.apply(g), 2.0, slope)
    # -s + c2 s^2 <= -LAM s fails exactly for the first `backtracks`
    # trials 0.3 DELTA^t when c2 = 1 / (1.5 * 0.3 DELTA^backtracks)
    c2 = slope / (1.5 * 0.3 * DELTA**backtracks)
    ls = gll_search(ev.value, (-slope, c2, 0.0, 0.0), 0.3, [ev.value])
    assert ls.t == backtracks
    step = 0.3
    for _ in range(backtracks):
        step *= DELTA
    assert ls.step == step
    expected = (x - step * g, ev.ax - step * model.ad,
                ev.violation + step * (step * model.n - model.k))
    ev.move(step * g, model, ls.step, ls.f)
    assert np.array_equal(ev.x, expected[0])
    assert np.array_equal(ev.ax, expected[1])
    assert np.array_equal(ev.violation, expected[2])
    assert ev.value == ls.f
