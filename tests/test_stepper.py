import numpy as np
import pytest

from sympeig import NumericalFailure
from sympeig.stepper import (
    DELTA, GAMMA0, GAMMA_HI, GAMMA_LO, LAM, bb_step, exact_step, gll_search,
    lbfgs_direction,
)


def toy_ray(x, d):
    # f(x) = ||x||^2 / 2 along x - s d: -s <x, d> + s^2 ||d||^2 / 2; the
    # gradient is x, so the decrease rate <g, d> is <x, d>
    return (-float(np.vdot(x, d)), 0.5 * float(np.vdot(d, d)), 0.0, 0.0)


def bb(s, z, k, **kwargs):
    # bb_step with <S,Z> taken here, as the solvers take it
    return bb_step(s, z, k, float(np.vdot(s, z)), **kwargs)


class TestBbStep:
    @pytest.mark.parametrize("k", [1, 2])
    def test_equal_differences_give_unit_step(self, k):
        s = np.array([[1.0], [2.0]])
        assert bb(s, s.copy(), k) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_scaled_differences(self, k):
        z = np.array([[1.0], [2.0]])
        assert bb(2.0 * z, z, k) == pytest.approx(2.0)

    def test_parity_selects_formula(self):
        s = np.array([[2.0], [0.0]])
        z = np.array([[1.0], [1.0]])
        # even k: <S,S>/|<S,Z>| = 4/2; odd k: |<S,Z>|/<Z,Z> = 2/2
        assert bb(s, z, 2) == pytest.approx(2.0)
        assert bb(s, z, 1) == pytest.approx(1.0)

    def test_without_alternation_every_step_is_bb2(self):
        s = np.array([[2.0], [0.0]])
        z = np.array([[1.0], [1.0]])
        assert [bb(s, z, k, alternate=False) for k in (1, 2, 3, 4)] == [1.0] * 4
        assert bb_step(None, None, 0, None, alternate=False) == GAMMA0

    def test_orthogonal_differences_fall_back(self):
        s = np.array([[1.0], [0.0]])
        z = np.array([[0.0], [1.0]])
        assert bb(s, z, 2) == GAMMA_HI

    def test_requires_history(self):
        with pytest.raises(ValueError):
            bb_step(None, np.ones((2, 1)), 1, 1.0)
        with pytest.raises(ValueError):
            bb_step(np.ones((2, 1)), None, 2, 1.0)

    def test_first_step_is_gamma0(self):
        assert bb_step(None, None, 0, None) == GAMMA0

    def test_within_bounds_unchanged(self):
        # BB value 3 sits inside the clamp and is returned as computed
        z = np.array([[1.0], [2.0]])
        assert bb(3.0 * z, z, 1) == 3.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("alternate", [True, False])
    def test_handed_inner_product_gives_the_same_step(self, k, alternate):
        # the handed <S,Z> gives the BB1 or BB2 quotient formed from the
        # three inner products, bit for bit
        rng = np.random.default_rng(k)
        s, z = rng.standard_normal((2, 6, 2))
        sz = float(np.vdot(s, z))
        if alternate and k % 2 == 0:
            plain = float(np.vdot(s, s)) / abs(sz)
        else:
            plain = abs(sz) / float(np.vdot(z, z))
        assert GAMMA_LO < plain < GAMMA_HI
        assert bb_step(s, z, k, sz, alternate) == plain

    def test_clamps_high_and_low(self):
        z = np.array([[1.0], [2.0]])
        assert bb(1e9 * z, z, 1) == GAMMA_HI
        assert bb(1e-12 * z, z, 1) == GAMMA_LO

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("c", [1.0, 1e9, 1e-12])
    def test_unit_scales_every_length_exactly(self, k, c):
        # gradient differences 2^40 times larger give lengths 2^-40 times
        # as long in units of 2^-40, clamps and first step included
        rng = np.random.default_rng(k)
        z = rng.standard_normal((6, 2))
        s = c * z + rng.standard_normal((6, 2))
        unit = 2.0**-40
        assert bb(s, z / unit, k, unit=unit) == unit * bb(s, z, k)


def quartic(coeffs, s):
    c1, c2, c3, c4 = coeffs
    return c1 * s + c2 * s**2 + c3 * s**3 + c4 * s**4


def roots_minimizer(coeffs):
    # the reference: stationary points from np.roots, lowest quartic value
    c1, c2, c3, c4 = coeffs
    roots = np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, c1])
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0]
    return min(real, key=lambda s: quartic(coeffs, s))


class TestExactStep:
    def test_one_real_root(self):
        coeffs = (-1.0, 0.5, 0.2, 0.05)
        assert np.sum(np.abs(np.roots([0.2, 0.6, 1.0, -1.0]).imag) > 0) == 2
        s = exact_step(coeffs)
        assert s == pytest.approx(roots_minimizer(coeffs), rel=1e-13)

    def test_three_real_roots_far_minimum_wins(self):
        # q' = -1 + s - 0.1 s^2 + 0.001 s^3 has roots near 1.1, 11 and 89;
        # the far minimum lies lower than the near one
        coeffs = (-1.0, 0.5, -0.1 / 3.0, 0.001 / 4.0)
        roots = np.roots([0.001, -0.1, 1.0, -1.0])
        assert np.all(roots.imag == 0.0) and np.all(roots.real > 0.0)
        s = exact_step(coeffs)
        assert s > 50.0
        assert s == pytest.approx(roots_minimizer(coeffs), rel=1e-13)

    def test_three_real_roots_near_minimum_wins(self):
        coeffs = (-1.0, 0.5, -0.1 / 3.0, 0.0024 / 4.0)
        roots = np.roots([0.0024, -0.1, 1.0, -1.0])
        assert np.all(roots.imag == 0.0) and np.all(roots.real > 0.0)
        s = exact_step(coeffs)
        assert s < 2.0
        assert s == pytest.approx(roots_minimizer(coeffs), rel=1e-13)

    def test_quadratic_ray(self):
        # N = 0: c3 = c4 = 0 and the step is the quadratic's minimizer
        assert exact_step((-3.0, 0.75, 0.0, 0.0)) == 2.0

    def test_negative_curvature_at_zero(self):
        coeffs = (-1.0, -2.0, 0.5, 0.25)
        s = exact_step(coeffs)
        assert s == pytest.approx(roots_minimizer(coeffs), rel=1e-13)

    def test_tiny_quartic_terms_keep_the_quadratic_step(self):
        # near convergence c3 and c4 shrink with powers of |D|; the step
        # must stay accurate where a monic cubic in s would overflow
        coeffs = (-2.0, 1.0, 3e-6, 1e-12)
        assert exact_step(coeffs) == pytest.approx(roots_minimizer(coeffs), rel=1e-13)
        for scale in (1e-12, 1e-20, 1e-40, 1e-150):
            # q' = -2 + 2 s + 9 scale s^2 + 4 scale^2 s^3: s = 1 - 4.5 scale + O(scale^2)
            s = exact_step((-2.0, 1.0, 3.0 * scale, scale * scale))
            assert s == pytest.approx(1.0 - 4.5 * scale, rel=1e-15)

    def test_random_rays_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            c1 = -np.exp(rng.uniform(-5, 5))
            c2 = rng.uniform(-1, 1) * np.exp(rng.uniform(-5, 5))
            c3 = rng.uniform(-1, 1) * np.exp(rng.uniform(-5, 5))
            c4 = np.exp(rng.uniform(-8, 5))
            coeffs = (c1, c2, c3, c4)
            s = exact_step(coeffs)
            ref = roots_minimizer(coeffs)
            grid = np.linspace(0.0, 2.0 * max(s, ref), 20001)
            assert quartic(coeffs, s) <= np.min(quartic(coeffs, grid)) + 1e-12 * abs(quartic(coeffs, s))
            assert quartic(coeffs, s) <= quartic(coeffs, ref) + 1e-12 * abs(quartic(coeffs, ref))

    def test_ray_unbounded_below_gives_inf(self):
        assert exact_step((-1.0, -1.0, 0.0, 0.0)) == float("inf")

    @pytest.mark.parametrize("c1", [0.0, 1.0, float("nan")])
    def test_no_descent_gives_nan(self, c1):
        assert np.isnan(exact_step((c1, 1.0, 0.5, 0.25)))


class TestGllSearch:
    def test_full_step_accepted_on_quadratic(self):
        one = np.array([[1.0]])
        res = gll_search(0.5, toy_ray(one, one), 1.0, [0.5])
        assert res.t == 0
        assert res.f == 0.0
        assert res.step == 1.0
        assert not res.capped

    def test_oversized_step_backtracks_to_known_count(self):
        # accept needs (1-s)^2/2 <= 1/2 - lam s, i.e. s <= 2 - 2 lam;
        # from gamma = 100 with delta = 0.5 the first such trial is t = 6
        one = np.array([[1.0]])
        res = gll_search(0.5, toy_ray(one, one), 100.0, [0.5])
        assert res.t == 6
        assert res.step == 100.0 * 0.5**6
        assert res.f == pytest.approx(0.5 * (1.0 - 100.0 * 0.5**6) ** 2)

    def test_window_maximum_is_the_reference(self):
        # the unit step along d = 2.3 from x = 1 lands at 0.845, above the
        # last objective 0.5 but below the window max 2.0 minus the
        # decrease term, so t = 0 passes
        coeffs = toy_ray(np.array([[1.0]]), np.array([[2.3]]))
        res = gll_search(0.5, coeffs, 1.0, [2.0, 0.5])
        assert res.t == 0
        assert res.f == pytest.approx(0.845)

    def test_monotone_reference_would_reject(self):
        # same trial fails against a window holding only the last value
        coeffs = toy_ray(np.array([[1.0]]), np.array([[2.3]]))
        res = gll_search(0.5, coeffs, 1.0, [0.5])
        assert res.t > 0

    def test_cap_flags_result(self):
        # a ray so steep that even the step DELTA^60 raises f
        res = gll_search(0.0, (-1.0, 1e30, 0.0, 0.0), 1.0, [0.0])
        assert res.capped
        assert res.t == 60
        assert res.step == DELTA**60

    def test_accepted_step_satisfies_condition(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))
        f0 = 0.5 * float(np.vdot(x, x))
        g = x.copy()
        window = [f0]
        res = gll_search(f0, toy_ray(x, g), 7.0, window)
        step = DELTA**res.t * 7.0
        assert res.step == step
        assert res.f <= max(window) - LAM * step * float(np.vdot(g, g))
        xt = x - step * g
        assert res.f == pytest.approx(0.5 * float(np.vdot(xt, xt)), rel=1e-14, abs=1e-14)

    def test_direction_with_unit_step_matches_scaled_gradient(self):
        # d = 7 g tried from step 1 visits the same points and applies the
        # same test as g tried from step 7, since <g, d> = 7 ||g||^2
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2))
        g = x.copy()
        window = [0.5 * float(np.vdot(x, x))]
        along_g = gll_search(window[0], toy_ray(x, g), 7.0, window)
        along_d = gll_search(window[0], toy_ray(x, 7.0 * g), 1.0, window)
        assert along_d.t == along_g.t > 0
        np.testing.assert_allclose(x - along_d.step * (7.0 * g),
                                   x - along_g.step * g, rtol=1e-15)

    def test_non_finite_trial_raises(self):
        with pytest.raises(NumericalFailure):
            gll_search(0.0, (-1.0, float("nan"), 0.0, 0.0), 1.0, [0.0])


def quadratic_pair(rng, shape=(6, 2)):
    # a curvature pair of f(X) = <X, A X>/2 with A SPD: y = A s, <s, y> > 0
    dim = shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * np.linspace(1.0, 10.0, dim)) @ q.T
    s = rng.standard_normal(shape)
    y = a @ s
    return a, (s, y, 1.0 / float(np.vdot(s, y)))


def direction(g, pair, gamma):
    # lbfgs_direction into fresh output and work blocks
    return lbfgs_direction(g, pair, gamma, np.empty_like(g), np.empty_like(g))


class TestLbfgsDirection:
    def test_no_pairs_gives_scaled_gradient(self):
        g = np.random.default_rng(8).standard_normal((6, 2))
        d = direction(g, None, 0.37)
        assert np.array_equal(d, 0.37 * g)

    def test_newest_pair_satisfies_secant_equation(self):
        _, pair = quadratic_pair(np.random.default_rng(9))
        s, y, _ = pair
        np.testing.assert_allclose(direction(y, pair, 0.2), s, rtol=1e-12)

    def test_direction_is_descent_on_a_quadratic(self):
        rng = np.random.default_rng(10)
        a, pair = quadratic_pair(rng)
        for _ in range(20):
            g = a @ rng.standard_normal((6, 2))
            assert float(np.vdot(g, direction(g, pair, 0.2))) > 0.0

    @pytest.mark.parametrize("count", [0, 1])
    def test_buffers_match_the_plain_two_loop(self, count):
        # the one-pair two-loop with a fresh array per operation; the
        # arithmetic is the same, so the bits are
        def plain(g, pair, gamma):
            if pair is None:
                return gamma * g
            s, y, rho = pair
            alpha = rho * float(np.vdot(s, g))
            q = g - alpha * y
            q *= gamma
            return q + (alpha - rho * float(np.vdot(y, q))) * s

        rng = np.random.default_rng(12)
        _, pair = quadratic_pair(rng)
        pair = pair if count else None
        g = rng.standard_normal((6, 2))
        out, work = np.empty_like(g), np.empty_like(g)
        assert lbfgs_direction(g, pair, 0.3, out=out, work=work) is out
        assert np.array_equal(out, plain(g, pair, 0.3))

    def test_input_gradient_untouched(self):
        rng = np.random.default_rng(11)
        _, pair = quadratic_pair(rng)
        g = rng.standard_normal((6, 2))
        kept = g.copy()
        direction(g, pair, 0.2)
        assert np.array_equal(g, kept)
