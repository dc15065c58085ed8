import numpy as np
import pytest

from conftest import construct_stationary_point, dense_j, random_orthosymplectic, random_spd
from sympeig import (
    GeneratorSpec,
    NumericalFailure,
    SpdOperator,
    poisson,
    reference,
    symplectic_gram,
)
from sympeig.factor import (
    SCIPY_MIN_DIM,
    _skew_pairs,
    restart_point,
    srr,
    ssvd,
    williamson_small,
)
from sympeig.operators import canonical_frame, j_left
from sympeig.penalty import evaluate


EPS = np.finfo(float).eps


def _paired(d):
    """[[0, D], [-D, 0]] for D = diag(d)."""
    zero = np.zeros((d.size, d.size))
    return np.block([[zero, np.diag(d)], [-np.diag(d), zero]])


def _rotated(d, rng):
    """O [[0, D], [-D, 0]] O^T, skew to the last bit, for a random orthogonal O."""
    o, _ = np.linalg.qr(rng.standard_normal((2 * d.size, 2 * d.size)))
    k = o @ _paired(d) @ o.T
    return 0.5 * (k - k.T)


# half-dimensions m on both sides of SCIPY_MIN_DIM = 2m
SIDES = [SCIPY_MIN_DIM // 2 - 1, SCIPY_MIN_DIM // 2]


class TestSkewPairs:
    # LAPACK states one accuracy for both Hermitian drivers `_skew_pairs`
    # runs on iK, zheevd (numpy's full `eigh`, 2m < SCIPY_MIN_DIM) and
    # zheevr (scipy's subset of the m largest, 2m >= SCIPY_MIN_DIM), with a
    # modestly growing p(dim), taken here as dim = 2m: each computed
    # eigenpair has residual <= dim eps ||K||_2, each eigenvalue error
    # <= dim eps ||K||_2, and Z^H Z is the identity within dim eps.
    # Q's real columns also meet the conjugate eigenvectors, of
    # -d_j, which lie a gap d_i + d_j >= 2 d_1 away, so orthogonality loses
    # a further ||K||_2 / d_1, and the pairing gains one ||K||_2 from the
    # residual and one from the orthogonality.  No gap between the d enters,
    # so the same bounds cover a cluster: its pairs may mix inside Q, but
    # Q^T K Q stays [[0, D], [-D, 0]].
    def _assert_paired(self, k, d_exact):
        q, d, deficient = _skew_pairs(k, 0.0)
        dim = k.shape[0]
        norm = np.linalg.norm(k, 2)
        orth = dim * EPS * (1.0 + norm / d[0])
        assert deficient == 0
        assert np.all(np.diff(d) >= 0)
        assert np.max(np.abs(d - d_exact)) <= dim * EPS * norm
        assert np.linalg.norm(q.T @ q - np.eye(dim), 2) <= orth
        assert np.linalg.norm(q.T @ k @ q - _paired(d), 2) <= 2.0 * orth * norm

    @pytest.mark.parametrize("m", [1, 2, 7, *SIDES])
    def test_poisson_matrix(self, m):
        # every d = 1: one cluster of width zero
        self._assert_paired(poisson(m), np.ones(m))

    @pytest.mark.parametrize("m", [3, *SIDES])
    def test_rotated_separated(self, m):
        # d = 1..m: unit gaps
        d = np.arange(1.0, m + 1.0)
        self._assert_paired(_rotated(d, np.random.default_rng(m)), d)

    def test_rotated_cluster(self):
        # d = 1 + 1e-14 k, k = 1..40: the gaps lie far below the bound
        d = 1.0 + 1e-14 * np.arange(1, 41)
        self._assert_paired(_rotated(d, np.random.default_rng(11)), d)

    def test_planted_zero_pairs_are_deficient(self):
        # a signed permutation keeps the zeros exact
        d = np.array([2.0, 0.0, 1.0, 0.0, 3.0])
        perm = np.random.default_rng(14).permutation(10)
        sign = np.where(np.arange(10) % 3, 1.0, -1.0)
        k = (sign[:, None] * _paired(d) * sign)[np.ix_(perm, perm)]
        _, pairs, deficient = _skew_pairs(k, 0.0)
        assert deficient == 2
        # dim eps ||K||_2, as above
        np.testing.assert_allclose(pairs, [0.0, 0.0, 1.0, 2.0, 3.0], atol=10 * EPS * 3.0)
        # a threshold above a pair counts it too
        assert _skew_pairs(k, 1.0)[2] == 3

    def test_planted_zero_pairs_refused(self):
        # columns 1 and 3 span an isotropic plane, so one symplectic pair is lost
        x = np.zeros((12, 4))
        x[0, 0] = x[1, 1] = x[6, 2] = x[2, 3] = 1.0
        with pytest.raises(NumericalFailure, match="rank-deficient in 1 symplectic"):
            ssvd(x)
        # a Lagrangian basis: full column rank, every pair zero
        with pytest.raises(NumericalFailure, match="rank-deficient in 2 symplectic"):
            ssvd(np.eye(12)[:, :4])
        # SPD, but one Williamson value 1e-40 lies far below eps ||K||_F
        with pytest.raises(NumericalFailure, match="collapsed"):
            williamson_small(np.diag([1e-40, 1.0, 1e-40, 1.0]))


class TestSsvd:
    def test_canonical_frame(self):
        x = canonical_frame(6, 2)
        s, sigma, t = ssvd(x)
        np.testing.assert_allclose(sigma, np.ones(4), atol=1e-14)
        # T is orthosymplectic: orthogonal and J-preserving
        np.testing.assert_allclose(t.T @ t, np.eye(4), atol=1e-13)
        np.testing.assert_allclose(t.T @ poisson(2) @ t, poisson(2), atol=1e-13)
        np.testing.assert_allclose(s @ np.diag(sigma) @ t.T, x, atol=1e-13)

    def test_scaled_identity_pair(self):
        # n = p = 1, X = 2 I: X^T J X = 4 J so sigma = 2
        s, sigma, t = ssvd(2.0 * np.eye(2))
        np.testing.assert_allclose(sigma, [2.0, 2.0], atol=1e-14)
        gram = symplectic_gram(s)
        np.testing.assert_allclose(gram, poisson(1), atol=1e-13)

    @pytest.mark.parametrize("c", [1e77, 1e150, 1e-150])
    def test_extreme_scales_are_paired(self, c):
        # the Gram entries are c^2; its squared Frobenius norm must not
        # overflow (or underflow) into the pairing threshold
        np.testing.assert_allclose(ssvd(c * canonical_frame(5, 2))[1], c, rtol=1e-12)

    def test_random_input_invariants(self):
        rng = np.random.default_rng(0)
        n, p = 50, 5
        x = rng.standard_normal((2 * n, 2 * p))
        s, sigma, t = ssvd(x)
        recon = s @ np.diag(sigma) @ t.T
        assert np.linalg.norm(recon - x) <= 1e-10 * np.linalg.norm(x)
        assert np.linalg.norm(symplectic_gram(s) - poisson(p)) <= 1e-10
        assert np.linalg.norm(t.T @ t - np.eye(2 * p)) <= 1e-12
        assert np.all(np.diff(sigma[:p]) >= 0)
        np.testing.assert_array_equal(sigma[:p], sigma[p:])

    def test_rank_deficient_rejected(self):
        x = canonical_frame(5, 2)
        x[:, 1] = x[:, 0]  # duplicate a column: one symplectic direction lost
        x[:, 3] = x[:, 2]
        with pytest.raises(NumericalFailure, match="rank-deficient"):
            ssvd(x)

    def test_zero_basis_rejected(self):
        with pytest.raises(NumericalFailure, match="rank-deficient"):
            ssvd(np.zeros((8, 4)))

    def test_odd_columns_rejected(self):
        with pytest.raises(ValueError):
            ssvd(np.zeros((8, 3)))

    def test_residual_bound_diagnostic(self):
        # ||A S - J_n S L|| <= sqrt(2 p d_n / sigma_min(X^T A X)) ||grad||
        # with L = beta (Sigma^3 J_p T^T - Sigma T^T J_p) T Sigma^(-1)
        rng = np.random.default_rng(1)
        n, p, beta = 12, 3, 9.0
        a = random_spd(rng, 2 * n, cond=30.0)
        op = SpdOperator.from_dense(a)
        d_n = reference(op).d[-1]
        for _ in range(5):
            x = rng.standard_normal((2 * n, 2 * p))
            s, sigma, t = ssvd(x)
            jp = poisson(p)
            sig = np.diag(sigma)
            left = np.diag(sigma**3) @ jp @ t.T
            right = sig @ t.T @ jp
            ell = beta * (left - right) @ t @ np.diag(1.0 / sigma)
            lhs = np.linalg.norm(a @ s - j_left(s @ ell))
            xax = x.T @ (a @ x)
            sigma_min = np.linalg.eigvalsh(0.5 * (xax + xax.T))[0]
            gnorm = np.linalg.norm(evaluate(op, x, beta).ensure_gradient())
            assert lhs <= np.sqrt(2 * p * d_n / sigma_min) * gnorm * (1 + 1e-12)


class TestWilliamsonSmall:
    def test_identity(self):
        wf = williamson_small(np.eye(8))
        np.testing.assert_allclose(wf.d, np.ones(4), atol=1e-13)
        np.testing.assert_allclose(wf.s.T @ wf.s, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(wf.s.T @ dense_j(4) @ wf.s, dense_j(4), atol=1e-12)

    def test_hand_checked_two_by_two(self):
        wf = williamson_small(np.diag([2.0, 8.0]))
        np.testing.assert_allclose(wf.d, [4.0], atol=1e-12)
        m = np.diag([2.0, 8.0])
        np.testing.assert_allclose(wf.s.T @ m @ wf.s, np.diag([4.0, 4.0]), atol=1e-12)

    def test_random_input_invariants(self):
        rng = np.random.default_rng(2)
        k = 10
        m = random_spd(rng, 2 * k)
        wf = williamson_small(m)
        target = np.diag(np.concatenate([wf.d, wf.d]))
        m_norm = np.linalg.norm(m)
        assert np.linalg.norm(wf.s.T @ m @ wf.s - target) <= 1e-9 * m_norm
        assert np.linalg.norm(wf.s.T @ dense_j(k) @ wf.s - dense_j(k)) <= 1e-9
        assert np.all(np.diff(wf.d) >= 0)

    def test_matches_imaginary_eigenvalues(self):
        rng = np.random.default_rng(3)
        k = 8
        m = random_spd(rng, 2 * k)
        wf = williamson_small(m)
        imag = np.abs(np.linalg.eigvals(dense_j(k) @ m).imag)
        expected = np.sort(imag)[::2]  # each d appears as a +/- pair
        np.testing.assert_allclose(wf.d, expected, rtol=1e-10)

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NumericalFailure):
            williamson_small(-np.eye(4))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            williamson_small(np.eye(3))


def _identity_case():
    return SpdOperator.from_dense(np.eye(12)), canonical_frame(6, 2), 1.0


def _stationary_case():
    op, ref = GeneratorSpec("prescribed", 10, seed=4).make()
    return op, construct_stationary_point(ref.frame(3), ref.d[:3], 3, None, 25.0), 1.0


def _random_spd_case():
    a = random_spd(np.random.default_rng(9), 20)
    return SpdOperator.from_dense(a), np.random.default_rng(8).standard_normal((20, 6)), 0.25


def _random_basis_case():
    op, _ = GeneratorSpec("prescribed", 10, seed=4).make()
    return op, np.random.default_rng(8).standard_normal((20, 6)), 1.0


def _mixed_stationary_case():
    op, ref = GeneratorSpec("prescribed", 9, seed=5).make()
    t = random_orthosymplectic(2, np.random.default_rng(6))
    return op, construct_stationary_point(ref.frame(2), ref.d[:2], 2, t, 30.0), 1.0


class TestSrr:
    def test_identity_operator(self):
        op, x, _ = _identity_case()
        s_fin, d_fin, _ = srr(x, op.apply(x))
        np.testing.assert_allclose(d_fin, np.ones(2), atol=1e-13)
        target = np.diag(np.concatenate([d_fin, d_fin]))
        np.testing.assert_allclose(s_fin.T @ s_fin, target, atol=1e-12)

    def test_recovers_eigenvalues_from_minimizer(self):
        op, ref = GeneratorSpec("prescribed", 10, seed=4).make()
        p, beta = 3, 25.0
        shat = ref.frame(p)
        x = construct_stationary_point(shat, ref.d[:p], p, None, beta)
        s_fin, d_fin, _ = srr(x, op.apply(x))
        np.testing.assert_allclose(d_fin, ref.d[:p], rtol=1e-10)
        proj = s_fin.T @ op.apply(s_fin)
        target = np.diag(np.concatenate([d_fin, d_fin]))
        assert np.linalg.norm(proj - target) <= 1e-9 * np.linalg.norm(proj)

    @pytest.mark.parametrize("case", [_identity_case, _stationary_case, _random_spd_case,
                                      _random_basis_case, _mixed_stationary_case],
                             ids=lambda case: case.__name__[1:-5])
    def test_image_of_x_gives_the_ritz_values_of_a_applied_to_s(self, case):
        # A S = (A X) T Sigma^-1 from the ssvd factors: the Ritz values
        # match those from an apply of A to the symplectic basis S itself
        op, x, unit = case()
        _, d_fin, _ = srr(x, op.apply(x), unit)
        s, _, _ = ssvd(x)
        applied = williamson_small(unit * (s.T @ op.apply(s))).d / unit
        np.testing.assert_allclose(d_fin, applied, rtol=1e-12)

    @pytest.mark.parametrize("k", [-3, 1, 6])
    def test_ritz_values_in_units_scale_exactly(self, k):
        # odd k too: without the unit, the square root inside the Williamson
        # form would round A and 2A differently
        a = random_spd(np.random.default_rng(9), 20)
        x = np.random.default_rng(8).standard_normal((20, 6))
        s_fin, d_fin, image = srr(x, SpdOperator.from_dense(a).apply(x), 0.25)
        a_k = SpdOperator.from_dense(np.ldexp(a, k))
        s_k, d_k, image_k = srr(x, a_k.apply(x), 0.25 * 2.0**-k)
        assert np.array_equal(s_k, s_fin)
        assert np.array_equal(d_k, np.ldexp(d_fin, k))
        assert np.array_equal(image_k, np.ldexp(image, k))

    def test_image_matches_a_fresh_apply(self):
        op, x, _ = _random_basis_case()
        s_fin, _, image = srr(x, op.apply(x))
        fresh = op.apply(s_fin)
        assert np.linalg.norm(image - fresh) <= 1e-12 * np.linalg.norm(fresh)

    def test_right_factor_invariance(self):
        op, ref = GeneratorSpec("prescribed", 9, seed=5).make()
        p, beta = 2, 30.0
        shat = ref.frame(p)
        rng = np.random.default_rng(6)
        t = random_orthosymplectic(p, rng)
        plain = construct_stationary_point(shat, ref.d[:p], p, None, beta)
        mixed = construct_stationary_point(shat, ref.d[:p], p, t, beta)
        _, d_plain, _ = srr(plain, op.apply(plain))
        _, d_mixed, _ = srr(mixed, op.apply(mixed))
        np.testing.assert_allclose(d_mixed, d_plain, rtol=1e-10)


class TestRestartPoint:
    def test_small_eigenvalues_leave_basis_unscaled(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((10, 4))
        out = restart_point(s, [1e-9, 1e-9], 1.0)
        np.testing.assert_allclose(out, s, rtol=1e-8)

    def test_half_beta_scaling(self):
        s = np.ones((6, 4))
        out = restart_point(s, [5.0, 5.0], 10.0)
        np.testing.assert_allclose(out, s / np.sqrt(2.0), rtol=1e-15)

    def test_clamps_negative_diagonal(self):
        s = np.ones((4, 2))
        out = restart_point(s, [100.0], 10.0)  # 1 - d/beta = -9, clamped
        np.testing.assert_allclose(out, np.sqrt(1e-12) * s)

    def test_restart_is_stationary_for_exact_pairs(self):
        op, ref = GeneratorSpec("prescribed", 10, seed=8).make()
        p, beta = 3, 40.0
        s = ref.frame(p)
        x = restart_point(s, ref.d[:p], beta)
        g = evaluate(op, x, beta).ensure_gradient()
        assert np.linalg.norm(g) <= 1e-9 * np.linalg.norm(op.densify())

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            restart_point(np.ones((4, 2)), [1.0], 0.0)


class TestRandomOrthosymplectic:
    def test_orthogonal_and_symplectic(self):
        rng = np.random.default_rng(9)
        for p in (1, 3, 7):
            t = random_orthosymplectic(p, rng)
            assert np.linalg.norm(t.T @ t - np.eye(2 * p)) <= 1e-12
            assert np.linalg.norm(t.T @ poisson(p) @ t - poisson(p)) <= 1e-12

    def test_deterministic_per_seed(self):
        a = random_orthosymplectic(4, np.random.default_rng(10))
        b = random_orthosymplectic(4, np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)
