import tracemalloc

import numpy as np
import pytest

from conftest import (
    KINDS,
    construct_stationary_point,
    hess_quadform,
    make_operator,
    random_orthosymplectic,
    random_spd,
)
from sympeig import GeneratorSpec, SpdOperator, symplectic_gram
from sympeig.operators import canonical_frame
from sympeig.penalty import BasedEval, evaluate, ray, violation
from sympeig.stepper import exact_step


def fd_gradient(op, x, beta):
    # entrywise central differences of the objective
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            g[i, j] = (evaluate(op, xp, beta).value
                       - evaluate(op, xm, beta).value) / (2 * h)
    return g


class TestObjective:
    def test_zero_input_costs_penalty_only(self):
        op = SpdOperator.from_dense(np.eye(8))
        for p, beta in [(1, 3.0), (2, 10.0)]:
            assert evaluate(op, np.zeros((8, 2 * p)), beta).value == pytest.approx(
                beta * p / 2.0, rel=1e-15
            )

    def test_identity_on_canonical_frame(self):
        op = SpdOperator.from_dense(np.eye(10))
        x = canonical_frame(5, 2)
        assert evaluate(op, x, 7.0).value == pytest.approx(2.0, rel=1e-15)

    def test_hand_checked_value(self):
        # n = p = 1, A = diag(2, 8), beta = 10, X = sqrt(0.6) diag(sqrt(2), 1/sqrt(2))
        op = SpdOperator.from_dense(np.diag([2.0, 8.0]))
        x = np.sqrt(0.6) * np.diag([np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
        assert evaluate(op, x, 10.0).value == pytest.approx(3.2, abs=1e-14)

    def test_bad_beta_rejected(self):
        op = SpdOperator.from_dense(np.eye(4))
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError):
                evaluate(op, np.zeros((4, 2)), beta).value

    def test_odd_columns_rejected(self):
        op = SpdOperator.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            evaluate(op, np.zeros((4, 3)), 1.0).value

    def test_orthosymplectic_right_invariance(self):
        rng = np.random.default_rng(1)
        op = make_operator("dense", random_spd(rng, 12))
        x = rng.standard_normal((12, 6))
        t = random_orthosymplectic(3, rng)
        f0 = evaluate(op, x, 4.0).value
        f1 = evaluate(op, x @ t.T, 4.0).value
        assert abs(f1 - f0) <= 1e-12 * abs(f0)


class TestGradient:
    def test_zero_input(self):
        op = SpdOperator.from_dense(np.eye(6))
        g = evaluate(op, np.zeros((6, 2)), 3.0).ensure_gradient()
        np.testing.assert_array_equal(g, np.zeros((6, 2)))

    def test_hand_checked_stationary_point(self):
        op = SpdOperator.from_dense(np.diag([2.0, 8.0]))
        x = np.sqrt(0.6) * np.diag([np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
        g = evaluate(op, x, 10.0).ensure_gradient()
        assert np.linalg.norm(g) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(2)
        op = make_operator(kind, random_spd(rng, 8))
        x = rng.standard_normal((8, 4))
        g = evaluate(op, x, 6.0).ensure_gradient()
        g_fd = fd_gradient(op, x, 6.0)
        assert np.linalg.norm(g - g_fd) < 1e-6 * np.linalg.norm(g)

    def test_cached_ax_reused(self):
        rng = np.random.default_rng(4)
        op = make_operator("dense", random_spd(rng, 8))
        x = rng.standard_normal((8, 2))
        ev = evaluate(op, x, 3.0)
        ev.ensure_gradient()
        np.testing.assert_array_equal(ev.ax, op.apply(x))


class TestEvaluateInputs:
    @pytest.mark.parametrize("kind", KINDS)
    def test_given_image_is_used_instead_of_an_apply(self, kind):
        rng = np.random.default_rng(25)
        op = make_operator(kind, random_spd(rng, 8))
        x = rng.standard_normal((8, 4))
        plain = evaluate(op, x, 3.0)
        given = evaluate(op, x, 3.0, ax=op.apply(x))
        assert given.value == plain.value
        assert np.array_equal(given.ensure_gradient(), plain.ensure_gradient())

    def test_image_shape_checked(self):
        op = SpdOperator.from_dense(np.eye(8))
        with pytest.raises(ValueError, match="image shape"):
            evaluate(op, np.ones((8, 2)), 1.0, ax=np.ones((8, 4)))

    def test_evaluation_holds_no_block_until_a_gradient(self):
        # a stage end that forms no gradient keeps no scratch block alive
        op, _ = GeneratorSpec("dense", 200, seed=0).make()
        x = canonical_frame(200, 10)
        ax = op.apply(x)
        tracemalloc.start()
        try:
            ev = evaluate(op, x, 1.0, ax=ax)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < x.nbytes
        fresh = evaluate(op, x, 1.0)
        np.testing.assert_array_equal(ev.ensure_gradient(), fresh.ensure_gradient())

    @pytest.mark.parametrize("kind", KINDS)
    def test_float32_point_is_evaluated_in_float32(self, kind):
        rng = np.random.default_rng(26)
        op = make_operator(kind, random_spd(rng, 12))
        x = rng.standard_normal((12, 4))
        ev = evaluate(op, x.astype(np.float32), 5.0, ax=op.apply(x))
        g = ev.ensure_gradient()
        assert ev.ax.dtype == ev.violation.dtype == g.dtype == np.float32
        ref = evaluate(op, x, 5.0)
        assert ev.value == pytest.approx(ref.value, rel=1e-5)
        np.testing.assert_allclose(g, ref.ensure_gradient(), rtol=1e-4, atol=1e-4)


def quartic_delta(coeffs, s):
    c1, c2, c3, c4 = coeffs
    return s * (c1 + s * (c2 + s * (c3 + s * c4)))


class TestRay:
    @pytest.mark.parametrize("kind", KINDS)
    def test_quartic_matches_evaluate(self, kind):
        rng = np.random.default_rng(21)
        op = make_operator(kind, random_spd(rng, 12))
        x = rng.standard_normal((12, 4))
        d = rng.standard_normal((12, 4))
        beta = 4.0
        ev = evaluate(op, x, beta)
        model = ray(x, ev.violation, d, op.apply(d), beta,
                    float(np.vdot(ev.ensure_gradient(), d)))
        for s in (-0.7, 1e-3, 0.1, 0.5, 1.0, 3.0):
            fresh = evaluate(op, x - s * d, beta).value
            got = ev.value + quartic_delta(model.coeffs, s)
            assert got == pytest.approx(fresh, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_moved_point_matches_evaluate(self, kind):
        rng = np.random.default_rng(22)
        op = make_operator(kind, random_spd(rng, 12))
        x = rng.standard_normal((12, 4))
        d = rng.standard_normal((12, 4))
        fresh = evaluate(op, x - 0.3 * d, 4.0)
        moved = evaluate(op, x, 4.0)
        g = moved.ensure_gradient()
        model = ray(x, moved.violation, d, op.apply(d), 4.0, float(np.vdot(g, d)))
        moved.move(0.3 * d, model, 0.3, moved.value + quartic_delta(model.coeffs, 0.3))
        np.testing.assert_allclose(moved.x, fresh.x, rtol=1e-14)
        np.testing.assert_allclose(moved.ax, fresh.ax, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(moved.violation, fresh.violation, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(moved.ensure_gradient(out=g), fresh.ensure_gradient(),
                                   rtol=1e-12, atol=1e-12)
        assert moved.value == pytest.approx(fresh.value, rel=1e-13)

    @pytest.mark.parametrize("kind", KINDS)
    def test_carried_state_matches_fresh_evaluate(self, kind):
        # 400 exact steps along the gradient, each carried without an
        # apply; the drift of A X, V and f stays at rounding level
        rng = np.random.default_rng(23)
        op = make_operator(kind, random_spd(rng, 16, cond=20.0))
        beta = 30.0
        ev = evaluate(op, rng.standard_normal((16, 4)), beta)
        for _ in range(400):
            g = ev.ensure_gradient()
            model = ray(ev.x, ev.violation, g, op.apply(g), beta, float(np.vdot(g, g)))
            s = exact_step(model.coeffs)
            ev.move(s * g, model, s, ev.value + quartic_delta(model.coeffs, s))
        fresh = evaluate(op, ev.x, beta)
        assert np.linalg.norm(ev.ax - fresh.ax) <= 1e-12 * np.linalg.norm(fresh.ax)
        assert (np.linalg.norm(ev.violation - fresh.violation)
                <= 1e-12 * max(1.0, np.linalg.norm(fresh.violation)))
        assert ev.value == pytest.approx(fresh.value, rel=1e-12)
        assert np.array_equal(ev.violation, -ev.violation.T)

    def test_twice_c2_is_the_hessian_form(self):
        rng = np.random.default_rng(24)
        op = make_operator("dense", random_spd(rng, 8))
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 4))
        model = ray(x, violation(x), y, op.apply(y), 6.0, 0.0)
        assert hess_quadform(op, x, y, 6.0) == 2.0 * model.coeffs[1]


class TestBasedEval:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", (1, 2, 5))
    def test_based_step_matches_fresh_evaluate(self, kind, p):
        # with the correction in float64, three moves from the base leave
        # the based gradient, value and ray at X0 + E those of a fresh
        # evaluation there, to 1e-12 relative
        rng = np.random.default_rng(70 + p)
        op = make_operator(kind, random_spd(rng, 16))
        beta = 5.0
        base = evaluate(op, rng.standard_normal((16, 2 * p)), beta)
        ev = BasedEval(base, base.ensure_gradient(), np.float64)
        for step in (0.2, 0.05, 0.3):
            g = ev.ensure_gradient()
            d = g + 0.1 * rng.standard_normal(g.shape)
            model = ray(ev.x, ev.violation, d, op.apply(d), beta, float(np.vdot(g, d)))
            ev.move(step * d, model, step, ev.value + quartic_delta(model.coeffs, step))
        x = ev.point()
        assert np.linalg.norm(x - base.x) > 0.1 * np.linalg.norm(base.x)
        fresh = evaluate(op, x, beta)
        g, g_fresh = ev.ensure_gradient(), fresh.ensure_gradient()
        assert np.linalg.norm(g - g_fresh) <= 1e-12 * np.linalg.norm(g_fresh)
        assert np.linalg.norm(ev.x - x) <= 1e-14 * np.linalg.norm(x)
        assert ev.value == pytest.approx(fresh.value, rel=1e-12)
        assert ev.image_norm() == base.image_norm()
        d = rng.standard_normal(x.shape)
        ad = op.apply(d)
        based = ray(ev.x, ev.violation, d, ad.copy(), beta, float(np.vdot(g, d)))
        exact = ray(x, fresh.violation, d, ad, beta, float(np.vdot(g_fresh, d)))
        scale = max(abs(c) for c in exact.coeffs)
        for got, want in zip(based.coeffs, exact.coeffs):
            assert abs(got - want) <= 1e-12 * scale

    def test_float32_correction_keeps_the_base_exact(self):
        # at E = 0 the float32 gradient is the float64 base's rounded once
        rng = np.random.default_rng(75)
        op = make_operator("dense", random_spd(rng, 16))
        base = evaluate(op, rng.standard_normal((16, 4)), 5.0)
        c0 = base.ensure_gradient()
        ev = BasedEval(base, c0, np.float32)
        g = ev.ensure_gradient()
        assert g.dtype == np.float32 and ev.x.dtype == np.float32
        assert np.array_equal(g, c0.astype(np.float32))
        assert ev.point().dtype == np.float64
        assert np.array_equal(ev.point(), base.x)


class TestHessQuadform:
    def test_zero_direction(self):
        op = SpdOperator.from_dense(np.eye(6))
        assert hess_quadform(op, np.ones((6, 2)), np.zeros((6, 2)), 5.0) == 0.0

    def test_hand_expanded_canonical_case(self):
        # A = I, X = Y = canonical frame: tr(X^T X) + (beta/2) ||2 J_p||^2
        n, p, beta = 6, 2, 3.0
        op = SpdOperator.from_dense(np.eye(2 * n))
        x = canonical_frame(n, p)
        expected = 2 * p + 4 * beta * p
        assert hess_quadform(op, x, x, beta) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        op = make_operator(kind, random_spd(rng, 8))
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 4))
        y /= np.linalg.norm(y)
        h = 1e-4 * (1.0 + np.linalg.norm(x))
        fd = (
            evaluate(op, x + h * y, 6.0).value
            - 2.0 * evaluate(op, x, 6.0).value
            + evaluate(op, x - h * y, 6.0).value
        ) / (h * h)
        quad = hess_quadform(op, x, y, 6.0)
        assert abs(quad - fd) < 1e-5 * abs(quad)

    def test_shape_mismatch_rejected(self):
        op = SpdOperator.from_dense(np.eye(6))
        with pytest.raises(ValueError):
            hess_quadform(op, np.zeros((6, 2)), np.zeros((6, 4)), 1.0)


class TestConstructStationaryPoint:
    def setup_method(self):
        self.op, self.ref = GeneratorSpec("prescribed", 8, seed=7).make()
        self.a_norm = np.linalg.norm(self.op.densify())

    def test_full_rank_is_stationary(self):
        p, beta = 3, 20.0
        rng = np.random.default_rng(8)
        t = random_orthosymplectic(p, rng)
        x = construct_stationary_point(self.ref.frame(p), self.ref.d[:p], p, t, beta)
        g = evaluate(self.op, x, beta).ensure_gradient()
        assert np.linalg.norm(g) <= 1e-10 * self.a_norm

    def test_rank_deficient_is_stationary(self):
        p, q, beta = 3, 2, 20.0
        x = construct_stationary_point(self.ref.frame(q), self.ref.d[:q], p, None, beta)
        assert np.linalg.norm(x[:, [q, p + q]]) == 0.0
        g = evaluate(self.op, x, beta).ensure_gradient()
        assert np.linalg.norm(g) <= 1e-10 * self.a_norm

    def test_right_factor_cancels_in_objective(self):
        p, beta = 3, 20.0
        rng = np.random.default_rng(9)
        x_id = construct_stationary_point(self.ref.frame(p), self.ref.d[:p], p, None, beta)
        t = random_orthosymplectic(p, rng)
        x_t = construct_stationary_point(self.ref.frame(p), self.ref.d[:p], p, t, beta)
        f_id = evaluate(self.op, x_id, beta).value
        f_t = evaluate(self.op, x_t, beta).value
        assert abs(f_t - f_id) <= 1e-12 * abs(f_id)

    def test_global_value_formula(self):
        # f_beta at the global minimizer is sum(d_i - d_i^2 / (2 beta)); at
        # the exact eigenbasis, which is feasible, it is sum(d_i)
        p, beta = 3, 20.0
        d = self.ref.d[:p]
        x = construct_stationary_point(self.ref.frame(p), d, p, None, beta)
        expected = float(np.sum(d - d * d / (2.0 * beta)))
        assert evaluate(self.op, x, beta).value == pytest.approx(expected, rel=1e-12)
        f_basis = evaluate(self.op, self.ref.frame(p), beta).value
        assert f_basis == pytest.approx(float(d.sum()), rel=1e-10)

    def test_beta_bound_enforced(self):
        with pytest.raises(ValueError):
            construct_stationary_point(self.ref.frame(2), self.ref.d[:2], 2, None, 1.5)

    def test_positive_eigenvalues_required(self):
        with pytest.raises(ValueError):
            construct_stationary_point(self.ref.frame(2), [-1.0, 2.0], 2, None, 10.0)

    def test_q_exceeding_p_rejected(self):
        with pytest.raises(ValueError):
            construct_stationary_point(self.ref.frame(3), self.ref.d[:3], 2, None, 20.0)

    def test_skew_hamiltonian_witness_at_stationary_points(self):
        # W = -X^T J_n X J_p at a stationary X: symmetric PSD, ||W||_2 <= 1
        p, beta = 3, 20.0
        rng = np.random.default_rng(10)
        t = random_orthosymplectic(p, rng)
        x = construct_stationary_point(self.ref.frame(p), self.ref.d[:p], p, t, beta)
        # -G J_p = [G_2, -G_1] for the column halves of G = X^T J_n X
        g = symplectic_gram(x)
        w = np.hstack([g[:, p:], -g[:, :p]])
        assert np.linalg.norm(w - w.T) <= 1e-12
        eigs = np.linalg.eigvalsh(0.5 * (w + w.T))
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1.0 + 1e-8
