import numpy as np
import pytest
from scipy import sparse

from conftest import dense_j, random_spd, random_symplectic_frame
from sympeig import GeneratorSpec, SpdOperator, poisson, reference, symplectic_gram


def ladder_operator(n):
    d = np.arange(1.0, n + 1.0)
    return SpdOperator.from_dense(np.diag(np.concatenate([d, d])))


class TestReference:
    def test_williamson_diagonal_ladder(self):
        n = 6
        ref = reference(ladder_operator(n))
        np.testing.assert_allclose(ref.d, np.arange(1.0, n + 1.0), rtol=1e-12)
        frame = ref.frame(2)
        assert frame.shape == (2 * n, 4)
        # pair j of the frame lives in the (e_j, e_{n+j}) plane
        for j in range(2):
            mask = np.zeros(2 * n, dtype=bool)
            mask[[j, n + j]] = True
            assert np.linalg.norm(frame[~mask][:, [j, 2 + j]]) <= 1e-10

    def test_hand_checked_two_by_two(self):
        ref = reference(SpdOperator.from_dense(np.diag([2.0, 8.0])))
        np.testing.assert_allclose(ref.d, [4.0], rtol=1e-12)

    def test_prescribed_recovery(self):
        op, exact = GeneratorSpec("prescribed", 12, seed=0).make()
        ref = reference(op)
        np.testing.assert_allclose(ref.d, exact.d, rtol=1e-8)

    def test_full_form_invariants(self):
        rng = np.random.default_rng(1)
        n = 10
        a = random_spd(rng, 2 * n)
        ref = reference(SpdOperator.from_dense(a))
        s = ref.s
        target = np.diag(np.concatenate([ref.d, ref.d]))
        assert np.linalg.norm(s.T @ a @ s - target) <= 1e-8 * np.linalg.norm(a)
        assert np.linalg.norm(s.T @ dense_j(n) @ s - dense_j(n)) <= 1e-9

    def test_budget_enforced(self):
        op = SpdOperator.from_csr(sparse.identity(4002, format="csr"))
        with pytest.raises(ValueError, match="reduce n"):
            reference(op)

    def test_frame_bounds(self):
        ref = reference(ladder_operator(4))
        with pytest.raises(ValueError):
            ref.frame(5)
        with pytest.raises(ValueError):
            ref.frame(0)
        # p is an integer, named: not a float that would index, nor a bool
        for p in (2.0, True, "2"):
            with pytest.raises(ValueError, match="^p must be an integer, got "):
                ref.frame(p)


class TestRandomSymplecticFrame:
    def test_exactly_symplectic(self):
        rng = np.random.default_rng(2)
        for n, p in [(5, 2), (12, 4)]:
            x = random_symplectic_frame(n, p, rng)
            assert x.shape == (2 * n, 2 * p)
            gram = symplectic_gram(x)
            assert np.linalg.norm(gram - poisson(p)) <= 1e-10

    def test_deterministic_per_seed(self):
        a = random_symplectic_frame(6, 2, np.random.default_rng(3))
        b = random_symplectic_frame(6, 2, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_frames_vary_with_seed(self):
        a = random_symplectic_frame(6, 2, np.random.default_rng(4))
        b = random_symplectic_frame(6, 2, np.random.default_rng(5))
        assert np.linalg.norm(a - b) > 1e-3
