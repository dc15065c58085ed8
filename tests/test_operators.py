import os

import numpy as np
import pytest
from scipy import sparse
from scipy.io import mmwrite

from conftest import KINDS, dense_j, instance, make_operator, random_spd
from sympeig import (
    NumericalFailure, SpdOperator, load_matrix, poisson, store_matrix, symplectic_gram,
)
from sympeig import operators
from sympeig.flops import count_flops
from sympeig.operators import canonical_frame, j_left, single_precision

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestApply:
    def test_identity_returns_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4))
        op = SpdOperator.from_dense(np.eye(8))
        np.testing.assert_array_equal(op.apply(x), x)

    def test_diagonal_action(self):
        op = SpdOperator.from_dense(np.diag([2.0, 8.0]))
        np.testing.assert_array_equal(op.apply(np.array([1.0, 0.0])), [2.0, 0.0])

    @pytest.mark.parametrize("kind", ["csr", "slr"])
    def test_matches_dense_product(self, kind):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 12)
        op = make_operator(kind, a)
        x = rng.standard_normal((12, 6))
        expected = op.densify() @ x
        err = np.linalg.norm(op.apply(x) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    def test_low_rank_never_densified(self):
        rng = np.random.default_rng(2)
        b = sparse.identity(10, format="csr")
        c = rng.standard_normal((10, 2))
        op = SpdOperator.from_low_rank(b, c)
        x = rng.standard_normal((10, 3))
        expected = x + c @ (c.T @ x)
        np.testing.assert_allclose(op.apply(x), expected, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        op = SpdOperator.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            op.apply(np.zeros((6, 2)))
        with pytest.raises(ValueError):
            op.apply(np.zeros((4, 10)))
        for operand in (3.0, np.zeros((4, 2, 2))):
            with pytest.raises(ValueError, match="operand shape"):
                op.apply(operand)

    def test_spd_quadratic_form_positive(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 10)
        for kind in KINDS:
            op = make_operator(kind, a)
            x = rng.standard_normal((10, 4))
            assert float(np.vdot(x, op.apply(x))) > 0.0


class TestSinglePrecision:
    @pytest.mark.parametrize("kind", KINDS)
    def test_float32_apply_matches_float64_to_float32_rounding(self, kind):
        rng = np.random.default_rng(70)
        dim = 40
        op = make_operator(kind, random_spd(rng, dim))
        x = rng.standard_normal((dim, 6)).astype(np.float32)
        got = op.apply(x)
        assert got.dtype == np.float32
        want = op.apply(x.astype(float))
        assert want.dtype == np.float64
        # each entry is a sum of at most dim + 3 products per term: the
        # float32 error bound (dim + 3) u (|B| |x| + |C| |C^T| |x|)
        mag = abs(op._b) @ abs(x.astype(float))
        if op._c is not None:
            mag += abs(op._c) @ (abs(op._c.T) @ abs(x.astype(float)))
        u = np.finfo(np.float32).eps / 2
        assert np.all(np.abs(got - want) <= (dim + 3) * u * mag)
        assert np.abs(got - want).max() > 0.0  # really computed in float32

    def test_copies_are_made_once_per_block_and_dropped(self):
        rng = np.random.default_rng(71)
        op = make_operator("slr", random_spd(rng, 12))
        x = rng.standard_normal((12, 4)).astype(np.float32)
        with single_precision():
            first = op.apply(x)
            copies = operators._scope.copies[op]
            assert copies[0].dtype == np.float32 and copies[1].dtype == np.float32
            assert np.array_equal(op.apply(x), first)
            assert operators._scope.copies[op] is copies
        assert getattr(operators._scope, "copies", None) is None
        assert np.array_equal(op.apply(x), first)  # outside a block: fresh copies

    def test_nested_blocks_restore_the_outer_copies(self):
        op = SpdOperator.from_dense(np.eye(4))
        x = np.ones((4, 2), dtype=np.float32)
        with single_precision():
            op.apply(x)
            outer = operators._scope.copies
            with single_precision():
                op.apply(x)
                assert operators._scope.copies is not outer
            assert operators._scope.copies is outer

    def test_other_dtypes_compute_in_float64(self):
        op = SpdOperator.from_dense(np.diag([2.0, 8.0]))
        for x in ([1, 0], np.array([1, 0], dtype=np.int32), np.array([1.0, 0.0], dtype=np.float16)):
            out = op.apply(x)
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, [2.0, 0.0])


class TestConstructors:
    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            SpdOperator.from_dense(np.eye(5))
        with pytest.raises(ValueError):
            SpdOperator.from_csr(sparse.identity(7, format="csr"))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            SpdOperator.from_dense(np.ones((4, 6)))

    def test_factor_shape_checked(self):
        b = sparse.identity(8, format="csr")
        with pytest.raises(ValueError):
            SpdOperator.from_low_rank(b, np.ones((6, 2)))
        with pytest.raises(ValueError):
            SpdOperator.from_low_rank(b, np.ones(8))

    def test_nnz_per_kind(self):
        a = np.eye(6)
        assert make_operator("dense", a).nnz == 36
        assert make_operator("csr", a).nnz == 6
        b = sparse.identity(6, format="csr")
        c = np.ones((6, 2))
        assert SpdOperator.from_low_rank(b, c).nnz == 6 + 12

    def test_trace_per_kind(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 10)
        expected = float(np.trace(a))
        for kind in KINDS:
            assert make_operator(kind, a).trace() == pytest.approx(expected, rel=1e-12)

    def test_densify_budget(self):
        op = SpdOperator.from_csr(sparse.identity(4002, format="csr"))
        with pytest.raises(ValueError, match="reduce n"):
            op.densify()


class TestValidation:
    def test_is_symmetric(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 8)
        assert make_operator("csr", a).is_symmetric()
        skew = a.copy()
        skew[0, 1] += 1.0
        assert not SpdOperator.from_dense(skew).is_symmetric()

    def test_small_asymmetry_detected(self):
        # a gap of 1e-11 on a unit diagonal exceeds 1e-12 * max|B|
        b = sparse.identity(100, format="lil")
        b[0, 1] += 1e-11
        assert not SpdOperator.from_csr(b.tocsr()).is_symmetric()

    def test_is_spd(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 8)
        assert make_operator("dense", a).is_spd()
        assert make_operator("csr", a).is_spd()
        neg = SpdOperator.from_dense(-np.eye(8))
        assert not neg.is_spd()
        neg_csr = SpdOperator.from_csr(-sparse.identity(8, format="csr"))
        assert not neg_csr.is_spd()

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_negative_eigenvalue_detected(self, kind):
        d = np.ones(100)
        d[-1] = -0.01
        assert not make_operator(kind, np.diag(d)).is_spd()

    def test_is_spd_above_dense_budget(self):
        # 2n = 4002 takes the Lanczos smallest eigenvalue; the spectrum is [1, n]
        op = instance("sparse", 2001, seed=0)
        assert op.is_spd()
        shifted = op._b - 1.01 * sparse.identity(4002, format="csr")
        assert not SpdOperator.from_csr(shifted).is_spd()

    def test_extreme_eigvals_match_dense(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 10, cond=30.0)
        for kind in KINDS:
            lo, hi = make_operator(kind, a).extreme_eigvals()
            assert lo == pytest.approx(1.0, rel=1e-10)
            assert hi == pytest.approx(30.0, rel=1e-10)

    def test_extreme_eigvals_stop_at_an_invariant_subspace(self):
        # three distinct eigenvalues, each repeated, make a start's Krylov
        # space 3-dimensional; on a diagonal B, beta_3 is rounding of the
        # exact eigenvalues, and the run stops there with T's exact ends
        d = np.random.default_rng(3).permutation(np.repeat([1.0, 2.5, 7.0], [13, 14, 13]))
        op = make_operator("csr", np.diag(d))
        with count_flops() as flops:
            lo, hi = op.extreme_eigvals()
        # one apply of B, stored as `nnz` entries, per step
        assert flops.count == 3 * op.nnz
        assert lo == pytest.approx(1.0, rel=4e-16)
        assert hi == pytest.approx(7.0, rel=4e-16)

    def test_extreme_eigvals_stop_near_an_invariant_subspace(self):
        # the same spectrum in a rotated dense B repeats its eigenvalues only
        # up to rounding: beta_3 is about 1e-15 of the spread, far below the
        # 1e-8 stop, yet a few more steps are allowed for a rounding that
        # leaves it larger
        rng = np.random.default_rng(3)
        d = rng.permutation(np.repeat([1.0, 2.5, 7.0], [13, 14, 13]))
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = (q * d) @ q.T
        op = make_operator("dense", a)
        with count_flops() as flops:
            lo, hi = op.extreme_eigvals()
        assert flops.count <= 20 * op.nnz
        w = np.linalg.eigvalsh(a)
        assert abs(lo - w[0]) <= 1e-13 * (w[-1] - w[0])
        assert abs(hi - w[-1]) <= 1e-13 * (w[-1] - w[0])

    @pytest.mark.parametrize("grid", [(50, 100), (100, 100)])
    def test_is_spd_on_a_slowly_converging_laplacian(self, grid):
        # the 2-D Laplacian's extremes crowd (gap 6e-4 of the spread on the
        # 100 x 100 grid): 309 Lanczos steps, about 0.05 s (one Xeon vCPU)
        gx, gy = grid
        lap = [sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(g, g)) for g in grid]
        b = (sparse.kron(lap[0], sparse.identity(gy)) + sparse.kron(sparse.identity(gx), lap[1]))
        ends = [[2.0 - 2.0 * np.cos(np.pi * i / (g + 1)) for i in (1, g)] for g in grid]
        w = np.add.outer(ends[0], ends[1])
        op = SpdOperator.from_csr(sparse.csr_array(b))
        with count_flops() as flops:
            lo, hi = op.extreme_eigvals()
        assert flops.count <= 400 * op.nnz
        assert abs(lo - w.min()) <= 1e-13 * (w.max() - w.min())
        assert abs(hi - w.max()) <= 1e-13 * (w.max() - w.min())
        assert op.is_spd()
        shifted = b - 1.01 * w.min() * sparse.identity(gx * gy)
        assert not SpdOperator.from_csr(sparse.csr_array(shifted)).is_spd()

    def test_is_spd_above_dense_budget_reads_the_symmetric_part(self):
        # as below the budget: a skew part adds nothing to x^T A x, and the
        # Lanczos run, which needs a symmetric operator, sees A + A^T over 2
        lap = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(70, 70))
        b = sparse.kron(lap, sparse.identity(70)) + sparse.kron(sparse.identity(70), lap)
        skew = sparse.random(4900, 4900, density=2e-3, rng=np.random.default_rng(1))
        a = sparse.csr_array(b + 5.0 * (skew - skew.T))
        assert not SpdOperator.from_csr(a).is_symmetric()
        assert SpdOperator.from_csr(a).is_spd()
        shifted = a - 0.01 * sparse.identity(4900)
        assert not SpdOperator.from_csr(shifted).is_spd()

    def test_extreme_eigvals_refuse_an_unconverged_run(self, monkeypatch):
        # the 100 x 100 Laplacian needs 309 steps
        monkeypatch.setattr(operators, "LANCZOS_MAX_STEPS", 100)
        lap = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(100, 100))
        b = sparse.kron(lap, sparse.identity(100)) + sparse.kron(sparse.identity(100), lap)
        op = SpdOperator.from_csr(sparse.csr_array(b))
        with pytest.raises(NumericalFailure, match=r"^extreme_eigvals: the Lanczos run did "
                                                   r"not converge in 100 steps \(2n = 10000,"):
            op.extreme_eigvals()

    @pytest.mark.parametrize("kind", KINDS)
    def test_extreme_eigvals_at_the_smallest_size(self, kind):
        # 2n = 4: the run ends after 2n steps, where T is A in a Krylov basis
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = random_spd(rng, 4, cond=float(rng.uniform(2.0, 1e3)))
            w = np.linalg.eigvalsh(a)
            lo, hi = make_operator(kind, a).extreme_eigvals()
            assert abs(lo - w[0]) <= 1e-13 * (w[-1] - w[0])
            assert abs(hi - w[-1]) <= 1e-13 * (w[-1] - w[0])

    def test_extreme_eigvals_refuses_two_by_two(self):
        # the smallest generated instance has 2n = 4
        op = SpdOperator.from_dense(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match=r"^extreme_eigvals needs 2n >= 4, got 2n = 2$"):
            op.extreme_eigvals()
        assert op.is_spd()


class TestPoissonKernels:
    def test_j_left_single_pair(self):
        np.testing.assert_array_equal(j_left(np.array([[1.0], [0.0]])), [[0.0], [-1.0]])

    def test_j_left_square_is_minus_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 4))
        np.testing.assert_array_equal(j_left(j_left(x)), -x)

    def test_j_left_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 4))
        np.testing.assert_allclose(j_left(x), dense_j(6) @ x, atol=1e-14)

    def test_j_transpose_is_negation(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 2))
        np.testing.assert_array_equal(dense_j(4).T @ x, -j_left(x))

    def test_j_left_odd_rows_rejected(self):
        with pytest.raises(ValueError):
            j_left(np.zeros((5, 2)))

    def test_j_left_writes_into_out(self):
        x = np.random.default_rng(15).standard_normal((6, 3))
        out = np.full_like(x, np.nan)
        assert j_left(x, out=out) is out
        np.testing.assert_array_equal(out, j_left(x))

    def test_poisson_matches_oracle(self):
        np.testing.assert_array_equal(poisson(3), dense_j(3))


class TestSymplecticGram:
    def test_canonical_frame_gives_poisson(self):
        x = canonical_frame(5, 2)
        np.testing.assert_array_equal(symplectic_gram(x), poisson(2))

    def test_zero_input(self):
        np.testing.assert_array_equal(symplectic_gram(np.zeros((8, 4))), np.zeros((4, 4)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 6))
        g = x.T @ dense_j(5) @ x
        np.testing.assert_allclose(symplectic_gram(x), 0.5 * (g - g.T), atol=1e-13)

    def test_exactly_skew(self):
        rng = np.random.default_rng(13)
        g = symplectic_gram(rng.standard_normal((10, 4)))
        np.testing.assert_array_equal(g, -g.T)

    def test_float32_input_stays_float32(self):
        x = np.random.default_rng(14).standard_normal((10, 4))
        g = symplectic_gram(x.astype(np.float32))
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, symplectic_gram(x), atol=1e-5)


class TestCanonicalFrame:
    def test_shape_and_gram(self):
        x = canonical_frame(4, 2)
        assert x.shape == (8, 4)
        np.testing.assert_array_equal(symplectic_gram(x), poisson(2))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            canonical_frame(3, 4)
        with pytest.raises(ValueError):
            canonical_frame(3, 0)


class TestStorage:
    def test_dense_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(14)
        a = random_spd(rng, 6)
        op = SpdOperator.from_dense(a)
        (path,) = store_matrix(op, str(tmp_path / "a.mtx"))
        back = load_matrix(path)
        assert back.kind == "dense"
        np.testing.assert_array_equal(back.densify(), a)

    def test_csr_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        a = random_spd(rng, 6)
        a[np.abs(a) < 0.5] = 0.0
        a = 0.5 * (a + a.T) + 10.0 * np.eye(6)
        op = SpdOperator.from_csr(sparse.csr_array(a))
        (path,) = store_matrix(op, str(tmp_path / "a.mtx"))
        back = load_matrix(path)
        assert back.kind == "csr"
        np.testing.assert_array_equal(back.densify(), a)

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_path_without_suffix_returns_the_written_file(self, tmp_path, kind):
        # mmwrite appends .mtx to such a path, and the returned path says so
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        op = (SpdOperator.from_dense(a) if kind == "dense"
              else SpdOperator.from_csr(sparse.csr_array(a)))
        (path,) = store_matrix(op, str(tmp_path / "base"))
        assert path == str(tmp_path / "base.mtx")
        back = load_matrix(path)
        assert back.kind == kind
        np.testing.assert_array_equal(back.densify(), a)

    @pytest.mark.parametrize("suffix", [".B.mtx", ".C.mtx"])
    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_pair_suffix_on_a_single_matrix_writes_base_mtx(self, tmp_path, kind, suffix):
        # a pair suffix names the base, as for an slr operator, so the file
        # written is not read back as half of a low-rank pair
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        op = (SpdOperator.from_dense(a) if kind == "dense"
              else SpdOperator.from_csr(sparse.csr_array(a)))
        (path,) = store_matrix(op, str(tmp_path / ("m" + suffix)))
        assert path == str(tmp_path / "m.mtx")
        back = load_matrix(path)
        assert back.kind == kind
        np.testing.assert_array_equal(back.densify(), a)

    def test_low_rank_pair_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        b = sparse.csr_array(np.diag(rng.uniform(1.0, 2.0, 8)))
        c = rng.standard_normal((8, 3))
        op = SpdOperator.from_low_rank(b, c)
        paths = store_matrix(op, str(tmp_path / "pair.mtx"))
        assert paths == (str(tmp_path / "pair.B.mtx"), str(tmp_path / "pair.C.mtx"))
        back = load_matrix(paths[0])
        assert back.kind == "slr"
        np.testing.assert_array_equal(back.densify(), op.densify())

    def test_low_rank_c_path_redirects(self, tmp_path):
        with pytest.raises(OSError, match="B.mtx"):
            load_matrix(str(tmp_path / "pair.C.mtx"))

    def test_low_rank_missing_factor(self, tmp_path):
        b = sparse.identity(4, format="csr")
        mmwrite(str(tmp_path / "lone.B.mtx"), b)
        with pytest.raises(OSError, match="missing dense factor"):
            load_matrix(str(tmp_path / "lone.B.mtx"))

    @pytest.mark.parametrize("part", ["B", "C"])
    def test_low_rank_complex_part_rejected(self, tmp_path, part):
        b = sparse.identity(8, format="csr")
        c = np.ones((8, 2))
        paths = store_matrix(SpdOperator.from_low_rank(b, c), str(tmp_path / "pair.mtx"))
        rewritten = b * (1.0 + 0.0j) if part == "B" else c * (1.0 + 0.0j)
        mmwrite(paths["BC".index(part)], rewritten)
        with pytest.raises(OSError, match="complex"):
            load_matrix(paths[0])

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_matrix("/no/such/file.mtx")

    @pytest.mark.parametrize("storage", ["array", "coordinate"])
    def test_non_square_file_is_io_error(self, tmp_path, storage):
        a = np.ones((4, 6))
        path = str(tmp_path / "wide.mtx")
        mmwrite(path, a if storage == "array" else sparse.coo_array(a))
        with pytest.raises(OSError, match="must be square"):
            load_matrix(path)

    def test_symmetric_storage_mirrored(self, tmp_path):
        path = tmp_path / "upper.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "4 4 3\n1 1 2.0\n2 1 1.0\n2 2 2.0\n"
        )
        op = load_matrix(str(path))
        expected = np.array(
            [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(op.densify(), expected)

    def test_hand_checked_sample(self):
        op = load_matrix(os.path.join(DATA, "sample4.mtx"))
        assert op.n == 2
        assert op.kind == "csr"
        expected = np.array(
            [[4.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0],
             [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 5.0]]
        )
        np.testing.assert_array_equal(op.densify(), expected)
        assert op.is_spd()

    def test_odd_dimension_file_rejected(self, tmp_path):
        path = tmp_path / "odd.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n"
        )
        with pytest.raises(OSError, match="even"):
            load_matrix(str(path))

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(OSError):
            load_matrix(str(path))
