import threading

import numpy as np
from scipy import sparse

from conftest import instance, random_spd
from sympeig import SpdOperator, count_flops
from sympeig import flops
from sympeig.flops import add_flops
from sympeig.penalty import evaluate, ray


class TestCounter:
    def test_inactive_by_default(self):
        add_flops(100)  # no counter active: must not raise or leak

    def test_fresh_thread_has_no_counter(self):
        # a thread that never ran a counter reads the class-level None
        # (no AttributeError path), and can still count and nest there
        seen = {}

        def body():
            seen["own"] = dict(vars(flops._active))
            seen["before"] = flops._active.counter
            add_flops(100)
            with count_flops() as outer:
                add_flops(3)
                with count_flops() as inner:
                    add_flops(5)
                add_flops(7)
            seen["counts"] = (outer.count, inner.count)
            seen["after"] = flops._active.counter

        worker = threading.Thread(target=body)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == {"own": {}, "before": None, "counts": (10, 5), "after": None}

    def test_counts_dense_apply(self):
        n, cols = 5, 4
        rng = np.random.default_rng(0)
        op = SpdOperator.from_dense(random_spd(rng, 2 * n))
        with count_flops() as fc:
            op.apply(rng.standard_normal((2 * n, cols)))
        assert fc.count == 4 * n * n * cols

    def test_counts_csr_apply(self):
        op = instance("sparse", 40, seed=1)
        x = np.ones((80, 6))
        with count_flops() as fc:
            op.apply(x)
        assert fc.count == op.nnz * 6

    def test_counts_low_rank_apply(self):
        rng = np.random.default_rng(2)
        n, m, cols = 10, 3, 4
        b = sparse.csr_array(sparse.identity(2 * n, format="csr"))
        c = rng.standard_normal((2 * n, m))
        op = SpdOperator.from_low_rank(b, c)
        with count_flops() as fc:
            op.apply(np.ones((2 * n, cols)))
        assert fc.count == (b.nnz + 4 * n * m) * cols

    def test_nesting_restores_outer_counter(self):
        op = SpdOperator.from_dense(np.eye(4))
        x = np.ones((4, 2))
        with count_flops() as outer:
            op.apply(x)
            with count_flops() as inner:
                op.apply(x)
            op.apply(x)
        assert inner.count == 4 * 2 * 2 * 2  # 4 n^2 cols with n = 2
        assert outer.count == 2 * inner.count

    def test_gradient_evaluation_total(self):
        # objective + gradient = nnz*2p + 16 n p^2 + 8 n p + 4 p^2
        n, p = 60, 3
        op = instance("sparse", n, seed=3)
        x = np.random.default_rng(4).standard_normal((2 * n, 2 * p))
        with count_flops() as fc:
            evaluate(op, x, 5.0).ensure_gradient()
        expected = op.nnz * 2 * p + 16 * n * p * p + 8 * n * p + 4 * p * p
        assert fc.count == expected

    def test_ray_total(self):
        # the apply of D for the ray, X^T J D (8 n p^2), D^T J D (4 n p^2)
    # and <D, A D>
        n, p = 60, 3
        op = instance("sparse", n, seed=3)
        rng = np.random.default_rng(5)
        x, d = rng.standard_normal((2, 2 * n, 2 * p))
        v = evaluate(op, x, 5.0).violation
        with count_flops() as fc:
            ray(x, v, d, op.apply(d), 5.0, 1.0)
        assert fc.count == op.nnz * 2 * p + 12 * n * p * p + 4 * n * p
