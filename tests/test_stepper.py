import numpy as np
import pytest

from sympeig import NumericalFailure
from sympeig.stepper import (
    DELTA, GAMMA0, GAMMA_HI, GAMMA_LO, LAM, MEMORY, bb_step, gll_search, lbfgs_direction,
)


def toy_eval(x):
    # 1-D quadratic f(x) = x^2 / 2, aux unused
    val = 0.5 * float(x[0, 0]) ** 2
    return val, None


class TestBbStep:
    @pytest.mark.parametrize("k", [1, 2])
    def test_equal_differences_give_unit_step(self, k):
        s = np.array([[1.0], [2.0]])
        assert bb_step(s, s.copy(), k) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_scaled_differences(self, k):
        z = np.array([[1.0], [2.0]])
        assert bb_step(2.0 * z, z, k) == pytest.approx(2.0)

    def test_parity_selects_formula(self):
        s = np.array([[2.0], [0.0]])
        z = np.array([[1.0], [1.0]])
        # even k: <S,S>/|<S,Z>| = 4/2; odd k: |<S,Z>|/<Z,Z> = 2/2
        assert bb_step(s, z, 2) == pytest.approx(2.0)
        assert bb_step(s, z, 1) == pytest.approx(1.0)

    def test_without_alternation_every_step_is_bb2(self):
        s = np.array([[2.0], [0.0]])
        z = np.array([[1.0], [1.0]])
        assert [bb_step(s, z, k, alternate=False) for k in (1, 2, 3, 4)] == [1.0] * 4
        assert bb_step(None, None, 0, alternate=False) == GAMMA0

    def test_orthogonal_differences_fall_back(self):
        s = np.array([[1.0], [0.0]])
        z = np.array([[0.0], [1.0]])
        assert bb_step(s, z, 2) == GAMMA_HI

    def test_requires_history(self):
        with pytest.raises(ValueError):
            bb_step(None, np.ones((2, 1)), 1)
        with pytest.raises(ValueError):
            bb_step(np.ones((2, 1)), None, 2)

    def test_first_step_is_gamma0(self):
        assert bb_step(None, None, 0) == GAMMA0

    def test_within_bounds_unchanged(self):
        # BB value 3 sits inside the clamp and is returned as computed
        z = np.array([[1.0], [2.0]])
        assert bb_step(3.0 * z, z, 1) == 3.0

    def test_clamps_high_and_low(self):
        z = np.array([[1.0], [2.0]])
        assert bb_step(1e9 * z, z, 1) == GAMMA_HI
        assert bb_step(1e-12 * z, z, 1) == GAMMA_LO


class TestGllSearch:
    def test_full_step_accepted_on_quadratic(self):
        x = np.array([[1.0]])
        g = np.array([[1.0]])
        res = gll_search(toy_eval, x, g, 1.0, 1.0, [0.5])
        assert res.t == 0
        assert res.f == 0.0
        assert not res.capped

    def test_oversized_step_backtracks_to_known_count(self):
        # accept needs (1-s)^2/2 <= 1/2 - lam s, i.e. s <= 2 - 2 lam;
        # from gamma = 100 with delta = 0.5 the first such trial is t = 6
        x = np.array([[1.0]])
        g = np.array([[1.0]])
        res = gll_search(toy_eval, x, g, 100.0, 1.0, [0.5])
        assert res.t == 6
        assert res.x[0, 0] == pytest.approx(1.0 - 100.0 * 0.5**6)

    def test_window_maximum_is_the_reference(self):
        # trial value 0.845 sits above the last objective 0.5 but below
        # the window max 2.0 minus the decrease term, so t = 0 passes
        x = np.array([[1.0]])
        g = np.array([[-0.3]])
        res = gll_search(toy_eval, x, g, 1.0, 0.09, [2.0, 0.5])
        assert res.t == 0
        assert res.f == pytest.approx(0.845)

    def test_monotone_reference_would_reject(self):
        # same trial fails against a window holding only the last value
        x = np.array([[1.0]])
        g = np.array([[-0.3]])
        res = gll_search(toy_eval, x, g, 1.0, 0.09, [0.5])
        assert res.t > 0

    def test_cap_flags_result(self):
        def flat(x):
            return 0.0, None

        res = gll_search(flat, np.array([[1.0]]), np.array([[1.0]]),
                         1.0, 1.0, [0.0])
        assert res.capped
        assert res.t == 60

    def test_accepted_step_satisfies_condition(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))

        def f_eval(xt):
            return 0.5 * float(np.vdot(xt, xt)), None

        f0 = 0.5 * float(np.vdot(x, x))
        g = x.copy()
        window = [f0]
        res = gll_search(f_eval, x, g, 7.0, float(np.vdot(g, g)), window)
        step = DELTA**res.t * 7.0
        assert res.f <= max(window) - LAM * step * float(np.vdot(g, g))

    def test_direction_with_unit_step_matches_scaled_gradient(self):
        # d = 7 g tried from step 1 visits the same points and applies the
        # same test as g tried from step 7, since <g, d> = 7 ||g||^2
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2))

        def f_eval(xt):
            return 0.5 * float(np.vdot(xt, xt)), None

        g = x.copy()
        window = [0.5 * float(np.vdot(x, x))]
        along_g = gll_search(f_eval, x, g, 7.0, float(np.vdot(g, g)), window)
        along_d = gll_search(f_eval, x, 7.0 * g, 1.0, 7.0 * float(np.vdot(g, g)), window)
        assert along_d.t == along_g.t > 0
        np.testing.assert_allclose(along_d.x, along_g.x, rtol=1e-15)

    def test_non_finite_trial_raises(self):
        def bad(x):
            return float("nan"), None

        with pytest.raises(NumericalFailure):
            gll_search(bad, np.array([[1.0]]), np.array([[1.0]]),
                       1.0, 1.0, [0.0])


def quadratic_pairs(rng, count, shape=(6, 2)):
    # curvature pairs of f(X) = <X, A X>/2 with A SPD: y = A s, <s, y> > 0
    dim = shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * np.linspace(1.0, 10.0, dim)) @ q.T
    pairs = []
    for _ in range(count):
        s = rng.standard_normal(shape)
        y = a @ s
        pairs.append((s, y, 1.0 / float(np.vdot(s, y))))
    return a, pairs


class TestLbfgsDirection:
    def test_no_pairs_gives_scaled_gradient(self):
        g = np.random.default_rng(8).standard_normal((6, 2))
        d = lbfgs_direction(g, [], 0.37)
        assert np.array_equal(d, 0.37 * g)

    def test_newest_pair_satisfies_secant_equation(self):
        _, pairs = quadratic_pairs(np.random.default_rng(9), MEMORY)
        s, y, _ = pairs[-1]
        np.testing.assert_allclose(lbfgs_direction(y, pairs, 0.2), s, rtol=1e-12)

    def test_direction_is_descent_on_a_quadratic(self):
        rng = np.random.default_rng(10)
        a, pairs = quadratic_pairs(rng, MEMORY)
        for _ in range(20):
            g = a @ rng.standard_normal((6, 2))
            assert float(np.vdot(g, lbfgs_direction(g, pairs, 0.2))) > 0.0

    def test_input_gradient_untouched(self):
        rng = np.random.default_rng(11)
        _, pairs = quadratic_pairs(rng, MEMORY)
        g = rng.standard_normal((6, 2))
        kept = g.copy()
        lbfgs_direction(g, pairs, 0.2)
        assert np.array_equal(g, kept)
