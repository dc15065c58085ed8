import hashlib

import numpy as np
import pytest

from conftest import instance, run_with_blas_threads
from sympeig import GeneratorSpec, SpdOperator, reference
from sympeig.testgen import _affine_coeffs


class TestGenDense:
    def test_extreme_eigenvalues(self):
        for n in (5, 12):
            op = instance("dense", n, seed=0)
            w = np.linalg.eigvalsh(op.densify())
            assert w[0] == pytest.approx(1.0, abs=1e-8)
            assert w[-1] == pytest.approx(float(n), abs=1e-8)

    def test_deterministic_per_seed(self):
        a, b, c = (instance("dense", 6, seed=seed).densify() for seed in (3, 3, 4))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spd(self):
        assert instance("dense", 8, seed=1).is_spd()

    @pytest.mark.parametrize("n", [6, 200])
    def test_exactly_symmetric(self, n):
        # the generator takes numpy's N N^T as it comes, exactly symmetric
        b = instance("dense", n, seed=0)._b
        assert np.array_equal(b, b.T)

    def test_kind(self):
        assert instance("dense", 4, seed=0).kind == "dense"


class TestGenSparse:
    def test_extreme_eigenvalues(self):
        # n = 4 takes the default density min(1, 10/n) = 1
        for n in (4, 25):
            op = instance("sparse", n, seed=0)
            w = np.linalg.eigvalsh(op.densify())
            assert w[0] == pytest.approx(1.0, abs=1e-8)
            assert w[-1] == pytest.approx(float(n), abs=1e-8)

    def test_default_density(self):
        n = 50
        op = instance("sparse", n, seed=1)
        # pattern density sigma = 10/n up to symmetrization and the diagonal
        off_diag = op.nnz - 2 * n
        assert off_diag <= 1.2 * (10.0 / n) * (2 * n) ** 2

    def test_symmetric_and_spd(self):
        op = instance("sparse", 30, seed=2)
        assert op.kind == "csr"
        assert op.is_symmetric()
        assert op.is_spd()

    def test_deterministic_per_seed(self):
        a = instance("sparse", 20, seed=5).densify()
        b = instance("sparse", 20, seed=5).densify()
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", ["sparse", "slr"])
    @pytest.mark.parametrize("n", [2, 4, 25, 200, 400])
    def test_extremes_match_dense_eigvalsh(self, family, n):
        # n <= 10 takes the default density min(1, 10/n) = 1
        for seed in range(5):
            b = instance(family, n, seed=seed)._b
            w = np.linalg.eigvalsh(b.toarray())
            lo, hi = SpdOperator.from_csr(b).extreme_eigvals()
            spread = w[-1] - w[0]
            assert abs(lo - w[0]) <= 1e-13 * spread
            assert abs(hi - w[-1]) <= 1e-13 * spread
            np.testing.assert_allclose([w[0], w[-1]], [1.0, n], rtol=0, atol=1e-13 * (n - 1))

    @pytest.mark.parametrize("family", ["sparse", "slr"])
    def test_make_never_densifies(self, family, monkeypatch):
        def refuse(self):
            raise AssertionError("densify called")
        monkeypatch.setattr(SpdOperator, "densify", refuse)
        for n in (2, 25, 200):
            GeneratorSpec(family, n, seed=0).make()

    def test_deterministic_above_dense_budget(self):
        # 2n = 4002, above the dense budget
        a = instance("sparse", 2001, seed=0)
        b = instance("sparse", 2001, seed=0)
        np.testing.assert_array_equal(a._b.data, b._b.data)

    def test_density_validated(self):
        with pytest.raises(ValueError):
            instance("sparse", 20, density=1.5, seed=0)
        with pytest.raises(ValueError):
            instance("sparse", 20, density=0.0, seed=0)

    @pytest.mark.parametrize("family", ["sparse", "slr"])
    @pytest.mark.parametrize("n", [2, 50])
    def test_empty_pattern_names_the_density(self, family, n):
        # refused before the extremes are sought: a zero matrix has no spread
        with pytest.raises(ValueError, match=r"^density 1e-09 draws no entries at n = "):
            instance(family, n, density=1e-9, seed=0)


class TestGenSlr:
    def test_low_rank_scale(self):
        n = 20
        op = instance("slr", n, seed=0)
        c = op._c
        w = np.linalg.eigvalsh(c @ c.T)
        assert w[-1] == pytest.approx(float(n), abs=1e-8)
        assert c.shape == (2 * n, 10)

    def test_spd_and_kind(self):
        op = instance("slr", 15, seed=1)
        assert op.kind == "slr"
        assert op.is_spd()
        w = np.linalg.eigvalsh(op.densify())
        assert w[0] > 0.0

    def test_factored_apply_matches_densified(self):
        rng = np.random.default_rng(2)
        op = instance("slr", 12, seed=2, m=4)
        x = rng.standard_normal((24, 3))
        expected = op.densify() @ x
        err = np.linalg.norm(op.apply(x) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            instance("slr", 15, m=0, seed=0)


class TestGenPrescribed:
    def test_oracle_recovers_spectrum(self):
        op, ref = GeneratorSpec("prescribed", 10, seed=0).make()
        d = reference(op).d
        np.testing.assert_allclose(d, np.arange(1.0, 11.0), rtol=1e-8)

    def test_all_ones_spectrum(self):
        op, ref = GeneratorSpec("prescribed", 6, spectrum=np.ones(6), seed=1).make()
        d = reference(op).d
        np.testing.assert_allclose(d, np.ones(6), rtol=1e-8)

    def test_unsorted_spectrum_is_sorted(self):
        spec = GeneratorSpec("prescribed", 4, spectrum=[4.0, 1.0, 3.0, 2.0], seed=2)
        op, ref = spec.make()
        np.testing.assert_array_equal(ref.d, [1.0, 2.0, 3.0, 4.0])
        d = reference(op).d
        np.testing.assert_allclose(d, ref.d, rtol=1e-8)

    def test_reference_diagonalizes(self):
        op, ref = GeneratorSpec("prescribed", 8, seed=3).make()
        a = op.densify()
        target = np.diag(np.concatenate([ref.d, ref.d]))
        err = np.linalg.norm(ref.s.T @ a @ ref.s - target)
        assert err <= 1e-8 * np.linalg.norm(a)

    def test_validation(self):
        with pytest.raises(ValueError, match="spectrum needs 4 values, got 2"):
            GeneratorSpec("prescribed", 4, spectrum=[1.0, 2.0], seed=0).validate()
        with pytest.raises(ValueError, match="spectrum must be positive"):
            GeneratorSpec("prescribed", 3, spectrum=[1.0, -2.0, 3.0], seed=0).validate()
        # four values, but not as a flat list: named before numpy's own error
        with pytest.raises(ValueError, match=r"^spectrum needs 4 values, got 4 \(2-D\)"):
            GeneratorSpec("prescribed", 4, spectrum=[[1, 2], [3, 4]]).validate()

    def test_deterministic_per_seed(self):
        a = instance("prescribed", 7, seed=9).densify()
        b = instance("prescribed", 7, seed=9).densify()
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
        # each bad field is named, before numpy or scipy sees it: a bool, a
        # string or nan in any numeric field, a fraction in an integer one
        bad = [({name: value}, name) for name in ("n", "m", "seed", "density")
               for value in (True, "1", np.nan)]
        bad += [({"n": 5.5}, "n"), ({"m": 2.0}, "m"), ({"m": 2.5}, "m"),
                ({"seed": 1.5}, "seed"), ({"seed": "0"}, "seed")]
        for fields, name in bad:
            spec = GeneratorSpec(**{"family": "slr", "n": 6, **fields})
            kind = "a finite real number" if name == "density" else "an integer"
            with pytest.raises(ValueError, match=f"^{name} must be {kind}, got "):
                spec.make()
        # every spectrum entry is held to the numeric-field rule, before numpy
        # converts it: non-finite, a bool, a string, a ragged row
        for spectrum, got in (([1.0, np.nan, 2.0], "nan"), ([1.0, np.inf, 2.0], "inf"),
                              ([True, True, True], "True"), (["a", "b", "c"], "'a'"),
                              ([[1.0, 2.0], [3.0], 4.0], r"\[1\.0, 2\.0\]")):
            with pytest.raises(ValueError, match=f"^spectrum must be a finite real number, got {got}$"):
                GeneratorSpec("prescribed", 3, spectrum=spectrum).make()

    @pytest.mark.parametrize("density", ["0.5", True, False, 0.5 + 0j, np.nan,
                                         np.inf, -np.inf, [0.5]])
    def test_bad_density_named(self, density):
        with pytest.raises(ValueError, match="^density must be"):
            GeneratorSpec("sparse", 10, density=density).validate()

    @pytest.mark.parametrize("family, fields, name", [
        ("dense", {"density": 0.5}, "density"),
        ("prescribed", {"density": 0.5}, "density"),
        ("dense", {"spectrum": [1.0, 2.0, 3.0]}, "spectrum"),
        ("sparse", {"spectrum": [1.0, 2.0, 3.0]}, "spectrum"),
        ("slr", {"spectrum": [1.0, 2.0, 3.0]}, "spectrum"),
    ])
    def test_field_the_family_does_not_read_is_rejected(self, family, fields, name):
        with pytest.raises(ValueError, match=f"^{name} does not apply to the {family} family"):
            GeneratorSpec(family, 3, **fields).validate()

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            GeneratorSpec("dense", 6, seed=-1).validate()


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def test_coinciding_extremes_rejected():
    # called directly: no GeneratorSpec reaches it, since N N^T and a
    # non-empty symmetrized pattern have distinct extremes, and an empty
    # pattern is refused before the map is formed
    with pytest.raises(ValueError, match="degenerate spectrum"):
        _affine_coeffs(3.0, 3.0, 10)


class TestPinnedBytes:
    # the instance stream, and with it the slr factor C, B's pattern and
    # every dense instance, does not depend on how a sparse B's extremes
    # are found; B's values do
    def test_slr_factor_and_pattern(self):
        ops = [instance("slr", n, seed=seed) for n in (20, 400) for seed in range(3)]
        assert _sha256(op._c.tobytes() for op in ops) == (
            "7337cfb0059f1030ddd7cb16c0b848cc0b14f6a69ce91f7f7b456b5aba78cef4")
        assert _sha256(chunk for op in ops
                       for chunk in (op._b.indices.tobytes(), op._b.indptr.tobytes())) == (
            "81ef332a20508f09bc96373c83701291d96784222376701ec37c18b78f89e5ef")

    def test_dense(self):
        assert _sha256(instance("dense", 30, seed=seed)._b.tobytes() for seed in range(3)) == (
            "ffc2759ce1c91b0affceafcd93d31be8833c3b7456830170e4597eb522f078b7")


_HASH_SPARSE_INSTANCES = """
from test_testgen import _sparse_instances_sha256
print(_sparse_instances_sha256())
"""


def _sparse_instances_sha256(n=400, seeds=(0, 1)):
    chunks = []
    for family in ("sparse", "slr"):
        for seed in seeds:
            op = instance(family, n, seed=seed)
            chunks += [op._b.data.tobytes(), op._b.indices.tobytes(), op._b.indptr.tobytes()]
            if op._c is not None:
                chunks.append(op._c.tobytes())
    return _sha256(chunks)


def test_sparse_instances_reproducible_with_one_blas_thread():
    assert run_with_blas_threads(_HASH_SPARSE_INSTANCES).strip() == _sparse_instances_sha256()


def test_large_sparse_instances_independent_of_blas_threads():
    # at 2n = 40000 BLAS reductions go threaded; the extremes take none, so
    # B's values and pattern and the slr factor C are the same bytes
    script = ("from test_testgen import _sparse_instances_sha256\n"
              "print(_sparse_instances_sha256(20000, range(3)))\n")
    one, two = (run_with_blas_threads(script, threads) for threads in (1, 2))
    assert one == two
