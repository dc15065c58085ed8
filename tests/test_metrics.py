import numpy as np
import pytest

from sympeig import (
    GeneratorSpec, SpdOperator, feasibility, golub_werman, poisson, residue, solve,
    solve_basic, symplectic_gram,
)


class TestGolubWerman:
    def test_same_span_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 4))
        assert golub_werman(x, x) <= 1e-12

    def test_invariant_under_right_multiplication(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 4))
        m = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        assert golub_werman(x, x @ m) <= 1e-10

    def test_orthogonal_spans(self):
        p = 2
        x = np.eye(12)[:, : 2 * p]
        x_ref = np.eye(12)[:, 2 * p : 4 * p]
        assert golub_werman(x, x_ref) == pytest.approx(2.0 * np.sqrt(p), rel=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 4))
        assert golub_werman(x, y) == pytest.approx(golub_werman(y, x), rel=1e-12)

    @pytest.mark.parametrize("rows,cols,seed,nudge", [
        pytest.param(14, 4, 4, None, id="14x4"),
        pytest.param(30, 4, 3, None, id="30x4"),
        # near-identical spans, distance ~3e-9
        pytest.param(40, 6, 5, 1e-9, id="40x6-near"),
    ])
    def test_explicit_projector_oracle(self, rows, cols, seed, nudge):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, cols))
        if nudge is None:
            y = rng.standard_normal((rows, cols))
        else:
            y = x + nudge * rng.standard_normal((rows, cols))
        px = x @ np.linalg.solve(x.T @ x, x.T)
        py = y @ np.linalg.solve(y.T @ y, y.T)
        expected = np.linalg.norm(px - py)
        # the explicit projectors carry rounding errors near 1e-16, so
        # they resolve a 3e-9 distance to about 1e-8 relative, not 1e-10
        assert golub_werman(x, y) == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_rank_deficient_rejected(self):
        x = np.zeros((10, 4))
        x[:, 0] = 1.0
        with pytest.raises(ValueError):
            golub_werman(x, np.eye(10)[:, :4])


    def test_unequal_row_counts_rejected(self):
        with pytest.raises(ValueError, match="row counts differ: 10 vs 12"):
            golub_werman(np.eye(10)[:, :4], np.eye(12)[:, :4])


class TestResidue:
    def test_exact_eigenbasis(self):
        # residual and symplecticity violation both vanish
        op, ref = GeneratorSpec("prescribed", 10, seed=5).make()
        p = 3
        assert residue(op, ref.frame(p), ref.d[:p]) <= 1e-10
        assert feasibility(ref.frame(p)) <= 1e-12

    def test_hand_checked_pair(self):
        op = SpdOperator.from_dense(np.diag([2.0, 8.0]))
        x = np.diag([np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
        assert residue(op, x, [4.0]) <= 1e-12

    def test_first_order_in_perturbation(self):
        op, ref = GeneratorSpec("prescribed", 10, seed=6).make()
        p = 3
        x0 = ref.frame(p)
        rng = np.random.default_rng(7)
        e = rng.standard_normal(x0.shape)
        e /= np.linalg.norm(e)
        values = []
        for eps in (1e-2, 1e-4, 1e-6):
            values.append(residue(op, x0 + eps * e, ref.d[:p]))
        assert values[0] <= 1.0
        assert values[1] <= 2e-2 * values[0]  # shrinks linearly with eps
        assert values[2] <= 2e-2 * values[1]

    def test_paired_permutation_invariance(self):
        op, ref = GeneratorSpec("prescribed", 8, seed=8).make()
        p = 3
        x = ref.frame(p)
        d = ref.d[:p]
        perm = np.array([2, 0, 1])
        x_perm = x[:, np.r_[perm, p + perm]]
        assert residue(op, x_perm, d[perm]) == pytest.approx(
            residue(op, x, d), rel=1e-12
        )

    def test_given_image_replaces_the_apply(self):
        op, ref = GeneratorSpec("prescribed", 8, seed=9).make()
        x = ref.frame(3) + 1e-3
        d = ref.d[:3]

        class NoApply:
            n = op.n

            def apply(self, _):
                raise AssertionError("operator applied although A X was given")

        assert residue(NoApply(), x, d, ax=op.apply(x)) == residue(op, x, d)
        with pytest.raises(ValueError):
            residue(op, x, d, ax=op.apply(x[:, :4]))

    def test_zero_basis_rejected(self):
        op = SpdOperator.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            residue(op, np.zeros((4, 2)), [1.0])

    def test_nonpositive_eigenvalues_rejected(self):
        op = SpdOperator.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            residue(op, np.eye(4)[:, :2], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_eigenvalues_rejected(self, bad):
        # nan fails no comparison with 0, so it needs its own test
        op = SpdOperator.from_dense(np.eye(8))
        with pytest.raises(ValueError, match="eigenvalues must be positive and finite"):
            residue(op, np.eye(8)[:, :4], [bad, 1.0])

    @pytest.mark.parametrize("x", [np.eye(8)[:, :4], np.ones(8)], ids=["3-pairs", "1-D"])
    def test_basis_shape_must_match_eigenvalues(self, x):
        op = SpdOperator.from_dense(np.eye(8))
        with pytest.raises(ValueError, match="does not match 3 eigenvalues"):
            residue(op, x, [1.0, 2.0, 3.0])


def test_feasibility_of_an_odd_column_basis_rejected():
    with pytest.raises(ValueError, match="basis must have 2p columns, got 3"):
        feasibility(np.eye(6)[:, :3])


@pytest.mark.parametrize("family, n", [("dense", 200), ("slr", 400), ("sparse", 800),
                                       ("prescribed", 50)])
def test_feasibility_is_the_benchmark_gates_figure(family, n):
    # perfbench/run.py gates a solve on ||S^T J S - J_p||_F formed from the
    # public Gram and Poisson matrix; feasibility must give it bit for bit
    p = 5
    for seed in range(4):
        op, _ = GeneratorSpec(family, n, seed=seed).make()
        for solver in (solve, solve_basic):
            res = solver(op, p)
            for basis in (res.eigenbasis, res.x_final):
                gate = float(np.linalg.norm(symplectic_gram(basis) - poisson(p)))
                assert feasibility(basis) == gate, (seed, solver.__name__)
