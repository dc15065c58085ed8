import numpy as np
import pytest

from sympeig import (
    GeneratorSpec,
    gen_dense,
    gen_prescribed,
    gen_slr,
    gen_sparse,
    reference,
)


class TestGenDense:
    def test_extreme_eigenvalues(self):
        for n in (5, 12):
            op = gen_dense(n, seed=0)
            w = np.linalg.eigvalsh(op.densify())
            assert w[0] == pytest.approx(1.0, abs=1e-8)
            assert w[-1] == pytest.approx(float(n), abs=1e-8)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            gen_dense(6, seed=3).densify(), gen_dense(6, seed=3).densify()
        )
        assert not np.array_equal(
            gen_dense(6, seed=3).densify(), gen_dense(6, seed=4).densify()
        )

    def test_spd(self):
        assert gen_dense(8, seed=1).is_spd()

    def test_kind(self):
        assert gen_dense(4, seed=0).kind == "dense"


class TestGenSparse:
    def test_extreme_eigenvalues(self):
        # n = 4 takes the default density min(1, 10/n) = 1
        for n in (4, 25):
            op = gen_sparse(n, seed=0)
            w = np.linalg.eigvalsh(op.densify())
            assert w[0] == pytest.approx(1.0, abs=1e-8)
            assert w[-1] == pytest.approx(float(n), abs=1e-8)

    def test_default_density(self):
        n = 50
        op = gen_sparse(n, seed=1)
        # pattern density sigma = 10/n up to symmetrization and the diagonal
        off_diag = op.nnz - 2 * n
        assert off_diag <= 1.2 * (10.0 / n) * (2 * n) ** 2

    def test_symmetric_and_spd(self):
        op = gen_sparse(30, seed=2)
        assert op.kind == "csr"
        assert op.is_symmetric()
        assert op.is_spd()

    def test_deterministic_per_seed(self):
        a = gen_sparse(20, seed=5).densify()
        b = gen_sparse(20, seed=5).densify()
        np.testing.assert_array_equal(a, b)

    def test_deterministic_above_dense_budget(self):
        # 2n = 4002 takes the iterative extreme-eigenvalue path
        a = gen_sparse(2001, seed=0)
        b = gen_sparse(2001, seed=0)
        np.testing.assert_array_equal(a._b.data, b._b.data)

    def test_density_validated(self):
        with pytest.raises(ValueError):
            gen_sparse(20, density=1.5, seed=0)
        with pytest.raises(ValueError):
            gen_sparse(20, density=0.0, seed=0)


class TestGenSlr:
    def test_low_rank_scale(self):
        n = 20
        op = gen_slr(n, seed=0)
        c = op._c
        w = np.linalg.eigvalsh(c @ c.T)
        assert w[-1] == pytest.approx(float(n), abs=1e-8)
        assert c.shape == (2 * n, 10)

    def test_spd_and_kind(self):
        op = gen_slr(15, seed=1)
        assert op.kind == "slr"
        assert op.is_spd()
        w = np.linalg.eigvalsh(op.densify())
        assert w[0] > 0.0

    def test_factored_apply_matches_densified(self):
        rng = np.random.default_rng(2)
        op = gen_slr(12, seed=2, m=4)
        x = rng.standard_normal((24, 3))
        expected = op.densify() @ x
        err = np.linalg.norm(op.apply(x) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            gen_slr(15, m=0, seed=0)


class TestGenPrescribed:
    def test_oracle_recovers_spectrum(self):
        op, ref = gen_prescribed(10, seed=0)
        d = reference(op).d
        np.testing.assert_allclose(d, np.arange(1.0, 11.0), rtol=1e-8)

    def test_all_ones_spectrum(self):
        op, ref = gen_prescribed(6, spectrum=np.ones(6), seed=1)
        d = reference(op).d
        np.testing.assert_allclose(d, np.ones(6), rtol=1e-8)

    def test_unsorted_spectrum_is_sorted(self):
        op, ref = gen_prescribed(4, spectrum=[4.0, 1.0, 3.0, 2.0], seed=2)
        np.testing.assert_array_equal(ref.d, [1.0, 2.0, 3.0, 4.0])
        d = reference(op).d
        np.testing.assert_allclose(d, ref.d, rtol=1e-8)

    def test_reference_diagonalizes(self):
        op, ref = gen_prescribed(8, seed=3)
        a = op.densify()
        target = np.diag(np.concatenate([ref.d, ref.d]))
        err = np.linalg.norm(ref.s.T @ a @ ref.s - target)
        assert err <= 1e-8 * np.linalg.norm(a)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_prescribed(4, spectrum=[1.0, 2.0], seed=0)
        with pytest.raises(ValueError):
            gen_prescribed(3, spectrum=[1.0, -2.0, 3.0], seed=0)

    def test_deterministic_per_seed(self):
        a = gen_prescribed(7, seed=9)[0].densify()
        b = gen_prescribed(7, seed=9)[0].densify()
        np.testing.assert_array_equal(a, b)


class TestGeneratorSpec:
    def test_make_dispatches(self):
        op, ref = GeneratorSpec("dense", 6, seed=0).make()
        assert op.kind == "dense" and ref is None
        op, ref = GeneratorSpec("sparse", 12, seed=0).make()
        assert op.kind == "csr" and ref is None
        op, ref = GeneratorSpec("slr", 12, m=4, seed=0).make()
        assert op.kind == "slr" and ref is None
        op, ref = GeneratorSpec("prescribed", 6, seed=0).make()
        assert op.kind == "dense" and ref is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("fancy", 6).validate()
        with pytest.raises(ValueError):
            GeneratorSpec("dense", 1).validate()
        with pytest.raises(ValueError):
            GeneratorSpec("sparse", 10, density=2.0).validate()
        with pytest.raises(ValueError):
            GeneratorSpec("slr", 10, m=0).validate()

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            GeneratorSpec("dense", 6, seed=-1).validate()
