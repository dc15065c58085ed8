"""Invariances of symplectic eigenvalues, checked as properties.

For SPD A, the symplectic eigenvalues d(A) scale with A, d(cA) = c d(A)
for every c > 0, are invariant under symplectic congruence,
d(S^T A S) = d(A) for every S in Sp(2n) (Williamson 1936), and are
monotone, d_j(A) <= d_j(B) whenever A <= B, and interlace: compressed
onto a symplectic frame E, d_j(E^T A E) >= d_j(A) (Bhatia and Jain, J.
Math. Phys. 56, 2015).  Symplectic singular values scale the same way,
sigma(cX) = c sigma(X), so no absolute threshold may enter either.  The
reference is the dense oracle; instances stay at n <= 8 so each example
costs milliseconds.  The solver's answer must not depend on the order
of the coordinate pairs (i, n + i), although its iterates do.  Nor may
the solver's own work depend on scale: for a power of two it repeats
itself exactly.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthosymplectic, random_spd
from sympeig import SolveStatus, SpdOperator, reference, solve
from sympeig.factor import ssvd, williamson_small
from sympeig.operators import canonical_frame, j_left
from sympeig.solver import SINGLE_SCALE
from test_solver import _CountingOperator

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
half_dims = st.integers(min_value=1, max_value=8)
scales = st.floats(min_value=1e-3, max_value=1e3)
powers = st.integers(min_value=-30, max_value=30)


def _instance(n, seed):
    rng = np.random.default_rng(seed)
    cond = rng.uniform(1.0, 100.0)
    return random_spd(rng, 2 * n, cond=cond), rng


def _expm_symplectic(n, rng):
    # S = exp(J_n H) for random symmetric H, scaled as the "prescribed" family scales it
    h = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    h = 0.5 * (h + h.T)
    jh = j_left(h)
    jh *= rng.uniform(0.5, 2.0) / np.linalg.norm(jh, 2)
    return scipy.linalg.expm(jh)


def _d(a):
    return reference(SpdOperator.from_dense(0.5 * (a + a.T))).d


@PROPERTY
@given(n=half_dims, seed=seeds, c=scales)
def test_scaling_is_homogeneous(n, seed, c):
    a, _ = _instance(n, seed)
    np.testing.assert_allclose(_d(c * a), c * _d(a), rtol=1e-9)


@PROPERTY
@given(n=half_dims, seed=seeds, e=powers)
def test_scaling_holds_over_sixty_decades(n, seed, e):
    a, _ = _instance(n, seed)
    c = 10.0 ** e
    np.testing.assert_allclose(_d(c * a), c * _d(a), rtol=1e-9)


@PROPERTY
@given(n=half_dims, seed=seeds, e=powers)
def test_ssvd_scales_with_basis(n, seed, e):
    p = max(1, n // 2)
    x = np.random.default_rng(seed).standard_normal((2 * n, 2 * p))
    c = 10.0 ** e
    np.testing.assert_allclose(ssvd(c * x)[1], c * ssvd(x)[1], rtol=1e-9)


@PROPERTY
@given(n=half_dims, seed=seeds, orthogonal=st.booleans())
def test_symplectic_congruence_is_invariant(n, seed, orthogonal):
    a, rng = _instance(n, seed)
    s = random_orthosymplectic(n, rng) if orthogonal else _expm_symplectic(n, rng)
    # ||S||_2 <= e^2 for the exp(J H) builder, so cond(S^T A S) grows by <= e^8
    np.testing.assert_allclose(_d(s.T @ a @ s), _d(a), rtol=1e-8)


@pytest.mark.parametrize("c", [1e-2, 7.0])
def test_solver_scales_with_operator(c):
    n, p = 8, 3
    a, _ = _instance(n, 11)
    base = solve(SpdOperator.from_dense(a), p)
    scaled = solve(SpdOperator.from_dense(c * a), p)
    assert base.status is SolveStatus.CONVERGED
    assert scaled.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(scaled.eigenvalues, c * base.eigenvalues, rtol=1e-7)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(min_value=2, max_value=8), seed=seeds,
       shift=st.sampled_from([-80, 0, 70]), data=st.data())
def test_solver_repeats_itself_on_power_of_two_multiples(n, seed, shift, data):
    # solve(2^k A) takes the steps and applies of solve(A), and returns
    # 2^k times its eigenvalues and the same eigenbasis, bit for bit.  k
    # keeps 2^k A on A's side of SINGLE_SCALE, so both run their stages
    # in the same precision: A's mean eigenvalue lies below the guard
    # (shift -80), inside it (0) or above it (70)
    p = data.draw(st.integers(min_value=1, max_value=n - 1), label="p")
    a, _ = _instance(n, seed)
    a = np.ldexp(a, shift)
    mean = np.trace(a) / (2 * n)
    lo, hi = -40, 40
    if SINGLE_SCALE[0] <= mean <= SINGLE_SCALE[1]:
        lo = max(lo, math.ceil(math.log2(SINGLE_SCALE[0] / mean)))
        hi = min(hi, math.floor(math.log2(SINGLE_SCALE[1] / mean)))
    k = data.draw(st.integers(min_value=lo, max_value=hi), label="k")
    base = _CountingOperator(SpdOperator.from_dense(a))
    scaled = _CountingOperator(SpdOperator.from_dense(np.ldexp(a, k)))
    res, res_k = solve(base, p), solve(scaled, p)
    assert res.status is SolveStatus.CONVERGED
    assert res_k.status is res.status
    assert res_k.inner_iterations == res.inner_iterations
    assert res_k.outer_iterations == res.outer_iterations
    assert scaled.applies == base.applies
    assert np.array_equal(res_k.eigenvalues, np.ldexp(res.eigenvalues, k))
    assert np.array_equal(res_k.eigenbasis, res.eigenbasis)


@PROPERTY
@given(n=half_dims, seed=seeds, rank=st.integers(min_value=1, max_value=4),
       c=scales)
def test_positive_update_is_monotone(n, seed, rank, c):
    a, rng = _instance(n, seed)
    f = np.sqrt(c / (2 * n)) * rng.standard_normal((2 * n, rank))
    low, high = _d(a), _d(a + f @ f.T)
    assert np.all(low <= high * (1.0 + 1e-10))


@PROPERTY
@given(n=st.integers(min_value=2, max_value=8), seed=seeds, data=st.data())
def test_frame_compression_bounds_smallest_from_above(n, seed, data):
    # `solve` caps its first penalty weight at 1.1 times the p-th of these
    p = data.draw(st.integers(min_value=1, max_value=n - 1), label="p")
    a, _ = _instance(n, seed)
    e = canonical_frame(n, p)
    compressed = williamson_small(e.T @ SpdOperator.from_dense(a).apply(e)).d
    assert np.all(compressed >= _d(a)[:p] * (1.0 - 1e-10))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(n=st.integers(min_value=2, max_value=8), seed=seeds, data=st.data())
def test_pair_permutation_leaves_eigenvalues(n, seed, data):
    # P maps coordinate pair (i, n + i) to (pi(i), n + pi(i)); it is
    # orthosymplectic, so P^T A P has the spectrum of A
    p = data.draw(st.integers(min_value=1, max_value=n - 1), label="p")
    perm = np.asarray(data.draw(st.permutations(range(n)), label="perm"))
    a, _ = _instance(n, seed)
    pair_perm = np.concatenate([perm, n + perm])
    permuted = a[np.ix_(pair_perm, pair_perm)]
    base = solve(SpdOperator.from_dense(a), p)
    moved = solve(SpdOperator.from_dense(permuted), p)
    assert base.status is SolveStatus.CONVERGED
    assert moved.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(moved.eigenvalues, base.eigenvalues, rtol=1e-8)
