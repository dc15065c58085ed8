import gc
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from conftest import KINDS, instance, make_operator, random_spd, run_with_blas_threads
from sympeig import (
    GeneratorSpec,
    NumericalFailure,
    SolveStatus,
    SolverParams,
    SpdOperator,
    beta_suggest,
    feasibility,
    poisson,
    reference,
    residue,
    solve,
    solve_basic,
    symplectic_gram,
)
from sympeig import operators
from sympeig.factor import restart_point, srr, ssvd, williamson_small
from sympeig.operators import canonical_frame
from sympeig.penalty import BasedEval, evaluate
from sympeig.solver import (
    DELTA_EPS, EPS_FIRST, ETA, SINGLE_EPS, _run_inner, beta_best, next_stage,
)
from sympeig.stepper import gll_search


class _CountingOperator:
    def __init__(self, op):
        self._op = op
        self.n = op.n
        self.applies = 0

    def trace(self):
        return self._op.trace()

    def apply(self, x):
        self.applies += 1
        return self._op.apply(x)


class _MinimalOperator:
    # the whole protocol `solve` may use: n, trace and apply
    __slots__ = ("n", "trace", "apply")

    def __init__(self, op):
        self.n, self.trace, self.apply = op.n, op.trace, op.apply


class _DtypeRecorder(_CountingOperator):
    def __init__(self, op):
        super().__init__(op)
        self.dtypes = []
        self.copies = []

    def apply(self, x):
        self.dtypes.append(x.dtype)
        out = super().apply(x)
        if x.dtype == np.float32:
            # the float32 copies held for this solve, as weak references
            self.copies += [weakref.ref(m) for m in operators._scope.copies[self._op]
                            if m is not None]
        return out


class _OperandRecorder(_CountingOperator):
    def __init__(self, op):
        super().__init__(op)
        self.wide = []  # (apply index, copy of the operand) of float64 applies

    def apply(self, x):
        if x.dtype == np.float64:
            self.wide.append((self.applies, x.copy()))
        return super().apply(x)


def assert_same_solve(res, other):
    # bit for bit: every trace row, every stage but its wall time, and
    # the returned arrays and status
    assert res.status is other.status and res.message == other.message
    assert res.trace.inner == other.trace.inner
    assert len(res.trace.outer) == len(other.trace.outer)
    for st, ot in zip(res.trace.outer, other.trace.outer):
        for f in fields(st):
            if f.name != "elapsed":
                np.testing.assert_array_equal(getattr(st, f.name), getattr(ot, f.name))
    for name in ("x_final", "eigenvalues", "eigenbasis", "beta_final", "residue"):
        np.testing.assert_array_equal(getattr(res, name), getattr(other, name))


def ladder_operator(n):
    d = np.arange(1.0, n + 1.0)
    return SpdOperator.from_dense(np.diag(np.concatenate([d, d])))


class TestHeuristics:
    def test_beta_suggest_identity(self):
        op = SpdOperator.from_dense(np.eye(6))
        assert beta_suggest(op, 1) == pytest.approx(2.0)

    def test_beta_suggest_ladder(self):
        n, p = 8, 3
        op = ladder_operator(n)
        expected = 2.0 * n * (n + 1) / 2.0 / (n - p + 1)
        assert beta_suggest(op, p) == pytest.approx(expected, rel=1e-14)

    def test_beta_suggest_bounds(self):
        op = SpdOperator.from_dense(np.eye(6))
        for p in (0, 3, 4):
            with pytest.raises(ValueError):
                beta_suggest(op, p)

    @pytest.mark.parametrize("fn", [beta_suggest, solve, solve_basic],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("p", [True, "1", math.nan, 2.0, 2.5])
    def test_p_must_be_an_integer(self, fn, p):
        # `beta_suggest` owns the p rule, and both solvers call it first
        op = SpdOperator.from_dense(np.eye(10))
        with pytest.raises(ValueError, match="^p must be an integer, got "):
            fn(op, p)

    def test_beta_best_value(self):
        assert beta_best(2.0) == pytest.approx(3.0 + np.sqrt(5.0), rel=1e-15)


class TestSolveBasic:
    def test_stationary_start_stops_immediately(self):
        # the gradient test is met at the canonical frame: no step is taken
        n, p = 5, 2
        op = SpdOperator.from_dense(np.eye(2 * n))
        res = solve_basic(op, p, SolverParams(beta0=4.0, eps0=10.0))
        assert len(res.trace.inner) == 0
        assert res.trace.outer[0].reached
        np.testing.assert_array_equal(res.x_final, canonical_frame(n, p))

    def test_hand_checked_global_value(self):
        # n = 2, p = 1, A = diag(2, 5, 8, 5): d_1 = sqrt(2 * 8) = 4, and at
        # beta = 10 the global value is 4 - 16/20 = 3.2
        op = SpdOperator.from_dense(np.diag([2.0, 5.0, 8.0, 5.0]))
        res = solve_basic(op, 1, SolverParams(beta0=10.0, eps0=1e-8))
        f = evaluate(op, res.x_final, 10.0).value
        assert res.trace.outer[0].reached
        assert res.status is SolveStatus.CONVERGED
        assert f == pytest.approx(3.2, abs=1e-8)

    def test_bad_beta_rejected(self):
        op = SpdOperator.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            solve_basic(op, 1, SolverParams(beta0=0.0))

    def test_iteration_cap_reported(self):
        op = ladder_operator(6)
        params = SolverParams(beta0=50.0, eps0=1e-12, k_max=3)
        res = solve_basic(op, 2, params)
        assert not res.trace.outer[0].reached
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert len(res.trace.inner) == 3

    def test_one_apply_per_step_with_free_backtracks(self):
        # one apply at the start, one per step and one for the extraction;
        # the BB steps backtrack here, and the backtracks cost none
        op = instance("dense", 20, seed=3)
        counted = _CountingOperator(op)
        res = solve_basic(counted, 3, SolverParams(beta0=beta_suggest(op, 3),
                                                   eps0=1e-6, k_max=3000))
        assert sum(row.t for row in res.trace.inner) > 0
        assert counted.applies == res.inner_iterations + 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_status(self):
        a = np.eye(8)
        a[0, 0] = 1e308  # the first ray's quartic overflows
        res = solve_basic(SpdOperator.from_dense(a), 2, SolverParams(beta0=1e308))
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.message.startswith("objective not finite at line-search trial")
        assert res.eigenvalues is None and not res.trace.outer

    def test_failure_message_is_kept(self, monkeypatch):
        def failing_srr(*args):
            raise NumericalFailure("injected rank loss")

        monkeypatch.setattr("sympeig.solver.srr", failing_srr)
        op = instance("dense", 20, seed=0)
        res = solve_basic(op, 2, SolverParams(beta0=beta_suggest(op, 2)))
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.message == "injected rank loss"
        assert res.inner_iterations > 0 and res.x_final.dtype == np.float64
        # no stage completed: no Ritz pairs, and the feasibility is the iterate's
        assert res.eigenvalues is None and res.eigenbasis is None
        assert math.isnan(res.residue) and not res.trace.outer
        assert res.feasibility == feasibility(res.x_final)

    @pytest.mark.parametrize("family, n, p", [("dense", 50, 5), ("prescribed", 30, 3)])
    def test_converges_at_default_params(self, family, n, p):
        # the default eps0 is tol's default, 1e-8: the absolute gradient
        # test then stops the descent close enough for the extraction
        op, _ = GeneratorSpec(family, n, seed=0).make()
        res = solve_basic(op, p)
        assert res.trace.outer[0].reached
        assert res.status is SolveStatus.CONVERGED

    def test_trace_rows_well_formed(self):
        op = ladder_operator(5)
        params = SolverParams(beta0=20.0, eps0=1e-6)
        trace = solve_basic(op, 2, params).trace
        ks = [row.k for row in trace.inner]
        assert ks == list(range(len(ks)))
        assert all(row.beta == 20.0 for row in trace.inner)
        assert all(row.t >= 0 for row in trace.inner)


class TestNextStage:
    # `solve`'s outer schedule on hand-made stage ends; no solve runs
    TOL = 1e-8
    BOUND = TOL / (2 * DELTA_EPS**2)  # the largest residue that aims

    def test_residue_at_or_below_tol_stops(self):
        for resid in (self.TOL, 0.5 * self.TOL, 0.0):
            assert next_stage(2.0, 3e-5, 1.0, resid, self.TOL) == (2.0, 3e-5, "tol")

    def test_residue_above_bound_shrinks_geometrically(self):
        for eps, resid in ((EPS_FIRST, 0.2), (3e-3, 1.0001 * self.BOUND)):
            beta, new_eps, reason = next_stage(2.0, eps, 1.0, resid, self.TOL)
            assert (beta, reason) == (ETA * 1.0, "shrink")
            assert new_eps == eps * DELTA_EPS

    def test_residue_at_or_below_bound_aims_at_half_tol(self):
        eps = 3e-5
        for resid in (self.BOUND, 1e-6, 1.5 * self.TOL):
            beta, new_eps, reason = next_stage(2.0, eps, 1.0, resid, self.TOL)
            assert (beta, reason) == (ETA * 1.0, "aim")
            assert new_eps == pytest.approx(eps * self.TOL / (2 * resid), rel=1e-15)
            assert new_eps < eps / 2

    def test_weight_far_below_beta_is_still_eta_theta_p(self):
        # ETA theta_p = 1.1 lies below a tenth of beta = 12; it is taken as is
        assert next_stage(12.0, 3e-3, 1.0, 0.2, self.TOL) == (1.1, 3e-5, "shrink")
        beta, _, reason = next_stage(12.0, 3e-3, 1.0, 1e-6, self.TOL)
        assert (beta, reason) == (1.1, "aim")

    def test_eps_never_falls_below_floor(self):
        # shrinking 1e-13 and aiming 1e-14 at 2.5e-15 both stop at 1e-14
        assert next_stage(2.0, 1e-13, 1.0, 0.2, self.TOL)[1:] == (1e-14, "shrink")
        assert next_stage(2.0, 1e-14, 1.0, 2e-8, self.TOL)[1:] == (1e-14, "aim")


class TestSolveEnhanced:
    def test_williamson_diagonal_input(self):
        n, p = 6, 3
        op = ladder_operator(n)
        res = solve(op, p)
        assert res.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], rtol=1e-10)
        assert res.residue <= 1e-10
        # eigenvector pairs stay inside the canonical coordinate planes
        s = res.eigenbasis
        for j in range(p):
            mask = np.zeros(2 * n, dtype=bool)
            mask[[j, n + j]] = True
            assert np.linalg.norm(s[~mask][:, [j, p + j]]) <= 1e-8

    def test_prescribed_spectrum_matches_oracle(self):
        op, ref = GeneratorSpec("prescribed", 20, seed=2).make()
        res = solve(op, 3)
        assert res.status is SolveStatus.CONVERGED
        rel = np.max(np.abs(res.eigenvalues - ref.d[:3]) / ref.d[:3])
        assert rel <= 1e-6

    def test_eigenbasis_is_symplectic(self):
        op, _ = GeneratorSpec("prescribed", 15, seed=3).make()
        res = solve(op, 4)
        gram = symplectic_gram(res.eigenbasis)
        assert np.linalg.norm(gram - poisson(4)) <= 1e-10
        assert res.feasibility <= 1e-10

    def test_final_iterate_sits_at_global_value(self):
        op, ref = GeneratorSpec("prescribed", 14, seed=4).make()
        res = solve(op, 3)
        d = ref.d[:3]
        expected = float(np.sum(d - d * d / (2.0 * res.beta_final)))
        f = evaluate(op, res.x_final, res.beta_final).value
        assert abs(f - expected) <= 1e-8 * (1.0 + abs(f))

    def test_deterministic_per_seed(self):
        # no setting seeds the solver: two solves of the instance generated
        # from one seed agree bit for bit
        for seed in (5, 8):
            op, _ = GeneratorSpec("prescribed", 10, seed=seed).make()
            res_a, res_b = solve(op, 2), solve(op, 2)
            assert res_a.trace.inner == res_b.trace.inner
            np.testing.assert_array_equal(res_a.eigenvalues, res_b.eigenvalues)
            np.testing.assert_array_equal(res_a.eigenbasis, res_b.eigenbasis)

    def test_beta_schedule_follows_update_rule(self):
        # the first weight is the trace heuristic capped at ETA theta_p, the
        # p-th Williamson value of A compressed onto the canonical frame,
        # taken as `solve` takes it: from the frame's rows of the float32
        # first apply, in units of 2^-e for the exponent e of tr(A)/2n
        n, p = 16, 3
        op, _ = GeneratorSpec("prescribed", n, seed=6).make()
        res = solve(op, p)
        outer = res.trace.outer
        unit = math.ldexp(1.0, -math.frexp(op.trace() / (2 * n))[1])
        ax = op.apply(canonical_frame(n, p).astype(np.float32))
        theta_p = williamson_small(unit * ax[np.r_[0:p, n:n + p]]).d[-1] / unit
        assert outer[0].beta == min(beta_suggest(op, p), 1.1 * theta_p)
        assert outer[0].beta < beta_suggest(op, p)
        for prev, cur in zip(outer, outer[1:]):
            assert cur.beta == 1.1 * prev.theta[-1]

    def test_eps_schedule_shrinks_by_delta_eps(self):
        # a factor DELTA_EPS while the residue r exceeds tol / (2 DELTA_EPS^2);
        # from there on the next stage is aimed at tol / 2 through
        # eps * tol / (2 r)
        tol = 1e-8
        op, _ = GeneratorSpec("prescribed", 16, seed=7).make()
        res = solve(op, 3, SolverParams(tol=tol))
        outer = res.trace.outer
        aimed = 0
        for prev, cur in zip(outer, outer[1:]):
            target = 0.5 * tol * prev.eps / prev.residue
            if prev.residue <= tol / (2 * DELTA_EPS**2):
                aimed += 1
                assert cur.eps == max(target, 1e-14)
            else:
                assert cur.eps == max(DELTA_EPS * prev.eps, 1e-14)
            assert cur.eps < prev.eps
        assert aimed >= 1

    def test_far_from_tol_keeps_geometric_schedule(self):
        # every stage ends with r > tol / (2 DELTA_EPS^2), so no stage is
        # aimed and the run matches one with a still smaller tol step for
        # step
        op, _ = GeneratorSpec("prescribed", 16, seed=7).make()
        runs = [solve(op, 3, SolverParams(tol=tol, outer_max=4))
                for tol in (1e-12, 1e-13)]
        geometric = [EPS_FIRST]
        while len(geometric) < 4:
            geometric.append(DELTA_EPS * geometric[-1])
        for res in runs:
            outer = res.trace.outer
            assert res.status is SolveStatus.MAX_ITERATIONS
            assert all(st.residue > 1e-12 / (2 * DELTA_EPS**2) for st in outer)
            assert [st.eps for st in outer] == geometric
        assert runs[0].trace.inner == runs[1].trace.inner
        np.testing.assert_array_equal(runs[0].eigenbasis, runs[1].eigenbasis)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reported_residue_matches_fresh_apply(self, kind):
        # the solver's residue reuses (A S) W from SRR; a fresh A (S W)
        # differs only by rounding (both are relative to ||A X||_F)
        rng = np.random.default_rng(14)
        op = make_operator(kind, random_spd(rng, 40, cond=30.0))
        res = solve(op, 3)
        assert res.status is SolveStatus.CONVERGED
        fresh = residue(op, res.eigenbasis, res.eigenvalues)
        assert abs(res.residue - fresh) <= 1e-12
        assert fresh <= 1e-8

    def test_one_apply_per_stage_outside_the_inner_loop(self):
        # inner loop: one apply per step, whatever the backtracks, and one
        # for the first stage's start (a restart scales A S from SRR); the
        # stage end: one, and one more per exit the exact image refused;
        # SRR and the residue add none
        op, _ = GeneratorSpec("prescribed", 12, seed=15).make()
        counted = _CountingOperator(op)
        res = solve(counted, 3)
        assert res.outer_iterations > 1
        refused = sum(st.refused for st in res.trace.outer)
        assert counted.applies == res.inner_iterations + res.outer_iterations + 1 + refused

    def test_window_max_non_increasing_within_stages(self):
        op, _ = GeneratorSpec("prescribed", 12, seed=8).make()
        res = solve(op, 3)
        by_stage = {}
        for row in res.trace.inner:
            by_stage.setdefault(row.stage, []).append(row.window_max)
        for values in by_stage.values():
            assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("family", ["prescribed", "dense", "slr"])
    def test_exact_step_accepted_monotonically(self, family):
        # at the exact step <G_new, D> = 0, so <S, Z> = s <G, D> > 0 and the
        # step passes the monotone test without a backtrack
        op, _ = GeneratorSpec(family, 12, seed=8).make()
        res = solve(op, 3)
        assert res.status == SolveStatus.CONVERGED
        by_stage = {}
        for row in res.trace.inner:
            assert row.window_max == row.f and row.t == 0 and not row.capped
            by_stage.setdefault(row.stage, []).append(row.f)
        for values in by_stage.values():
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_restart_rank_margins_recorded(self):
        op, _ = GeneratorSpec("prescribed", 12, seed=9).make()
        res = solve(op, 3)
        restarts = res.trace.outer[:-1]
        assert restarts  # at least one restart happened
        for stage in restarts:
            assert stage.sigma_ratio is not None
            assert stage.sigma_ratio > 1e-10

    @pytest.mark.parametrize("family, n, p", [("dense", 200, 10), ("slr", 400, 10),
                                              ("prescribed", 40, 5)])
    def test_rank_margin_matches_the_svd(self, monkeypatch, family, n, p):
        # the ratio from the restart's 2p x 2p Gram is sigma_min/sigma_max of
        # its SVD to 1e-12 relative
        op, _ = GeneratorSpec(family, n, seed=0).make()
        scaled = []

        def recording_restart_point(*args):
            scaled.append(restart_point(*args))
            return scaled[-1]

        monkeypatch.setattr("sympeig.solver.restart_point", recording_restart_point)
        res = solve(op, p)
        assert res.status is SolveStatus.CONVERGED
        # each stage scales S into X, and a stage that restarts also A S
        assert len(scaled) == 2 * res.outer_iterations - 1
        for stage, x in zip(res.trace.outer[:-1], scaled[::2]):
            sv = np.linalg.svd(x, compute_uv=False)
            assert stage.sigma_ratio == pytest.approx(sv[-1] / sv[0], rel=1e-12)

    def test_explicit_beta0_respected(self):
        op, ref = GeneratorSpec("prescribed", 12, seed=10).make()
        res = solve(op, 2, SolverParams(beta0=30.0))
        assert res.trace.outer[0].beta == 30.0
        assert res.status is SolveStatus.CONVERGED

    def test_max_iterations_status(self):
        op, _ = GeneratorSpec("prescribed", 12, seed=11).make()
        res = solve(op, 3, SolverParams(k_max=3, outer_max=2))
        assert res.status is SolveStatus.MAX_ITERATIONS
        assert res.residue > 1e-8
        assert res.eigenvalues is not None

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_status(self):
        a = np.eye(8)
        a[0, 0] = 1e308  # overflow in the quartic penalty term
        op = SpdOperator.from_dense(a)
        res = solve(op, 2, SolverParams(beta0=1e308))
        assert res.status is SolveStatus.NUMERICAL_FAILURE

    def test_failure_message_is_kept(self, monkeypatch):
        op = instance("dense", 20, seed=0)
        assert solve(op, 2).message is None

        def failing_srr(*args):
            raise NumericalFailure("injected rank loss")

        monkeypatch.setattr("sympeig.solver.srr", failing_srr)
        res = solve(op, 2)
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.message == "injected rank loss"

    def test_failure_returns_the_last_completed_stage(self, monkeypatch):
        # a failure in stage 1's Rayleigh-Ritz step returns stage 0's Ritz
        # values, basis and residue, as a one-stage solve reports them, and
        # the point stage 1 started from, stage 0's restart point
        from sympeig import solver as solver_module
        run_inner = solver_module._run_inner
        op = instance("dense", 20, seed=0)
        one_stage = solve(op, 2, SolverParams(outer_max=1))
        calls, starts = [], []

        def recording_run_inner(op, x, *args):
            starts.append(x.copy())
            return run_inner(op, x, *args)

        def failing_srr(*args):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalFailure("injected rank loss")
            return srr(*args)

        monkeypatch.setattr(solver_module, "_run_inner", recording_run_inner)
        monkeypatch.setattr("sympeig.solver.srr", failing_srr)
        res = solve(op, 2)
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.outer_iterations == 1 and len(starts) == 2
        assert res.inner_iterations > one_stage.inner_iterations
        np.testing.assert_array_equal(res.eigenvalues, one_stage.eigenvalues)
        np.testing.assert_array_equal(res.eigenbasis, one_stage.eigenbasis)
        assert res.residue == one_stage.residue
        assert res.feasibility == one_stage.feasibility
        assert res.x_final.dtype == np.float64
        np.testing.assert_array_equal(res.x_final, starts[-1])

    def test_failed_descent_returns_the_stage_start_point(self, monkeypatch):
        # a failure inside a stage's descent leaves x_final at the point
        # that stage started from, not at the stage's last iterate
        from sympeig import solver as solver_module
        run_inner = solver_module._run_inner
        starts, searches = [], []

        def recording_run_inner(op, x, *args):
            starts.append(x.copy())
            return run_inner(op, x, *args)

        def failing_search(*args):
            searches.append(None)
            if len(searches) == 60:
                raise NumericalFailure("injected line-search failure")
            return gll_search(*args)

        monkeypatch.setattr(solver_module, "_run_inner", recording_run_inner)
        monkeypatch.setattr(solver_module, "gll_search", failing_search)
        res = solve(instance("dense", 20, seed=0), 2)
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.message == "injected line-search failure"
        assert res.inner_iterations == 59
        assert len(starts) >= 2 and res.outer_iterations == len(starts) - 1
        np.testing.assert_array_equal(res.x_final, starts[-1])

    def test_srr_failure_ends_the_solve(self, monkeypatch):
        # a rank-deficient Rayleigh-Ritz step is an ordinary numerical
        # failure: no retry, the solve ends with the first SRR call, at the
        # canonical frame it started from
        calls = []

        def deficient_srr(*args):
            calls.append(None)
            return ssvd(np.zeros((8, 4)))

        monkeypatch.setattr("sympeig.solver.srr", deficient_srr)
        res = solve(instance("dense", 20, seed=0), 2)
        assert len(calls) == 1
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.message.startswith("basis numerically rank-deficient in 2 ")
        assert res.outer_iterations == 0 and res.inner_iterations > 0
        # no stage completed: no Ritz pairs, and the feasibility is the frame's
        assert res.eigenvalues is None and res.eigenbasis is None
        assert math.isnan(res.residue)
        np.testing.assert_array_equal(res.x_final, canonical_frame(20, 2))
        assert res.feasibility == feasibility(res.x_final) == 0.0

    def test_trace_scalars_are_python_floats(self):
        # every stage after the first takes its weight from a numpy Ritz value
        res = solve(instance("prescribed", 20), 3)
        for row in res.trace.inner:
            assert type(row.f) is float and type(row.beta) is float
        assert all(type(stage.beta) is float for stage in res.trace.outer)

    def test_p_bounds_checked(self):
        op = SpdOperator.from_dense(np.eye(8))
        with pytest.raises(ValueError):
            solve(op, 4)

    def test_unknown_param_key_rejected(self):
        with pytest.raises(ValueError, match="unknown solver parameter"):
            SolverParams.from_dict({"tol": 1e-8, "bogus": 1})

    def test_param_validation(self):
        # every numeric field is named when it is a bool, not a number or
        # not finite, and an integer field also when it is a fraction
        cases = [("beta0", -2.0), ("k_max", 2.5), ("outer_max", 2.5)]
        cases += [(f.name, bad) for f in fields(SolverParams) for bad in (True, "1", math.nan)]
        for name, value in cases:
            with pytest.raises(ValueError, match=f"^{name} "):
                SolverParams(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["k_max", "outer_max"])
    def test_iteration_limit_below_one_rejected(self, name):
        with pytest.raises(ValueError, match="iteration limits must be positive"):
            SolverParams(**{name: 0}).validate()

    def test_seed_is_not_a_param(self):
        with pytest.raises(ValueError, match=r"unknown solver parameter.*'seed'"):
            SolverParams.from_dict({"seed": 3})

    def test_random_dense_instance_agrees_with_reference(self):
        rng = np.random.default_rng(12)
        a = random_spd(rng, 40, cond=20.0)
        op = SpdOperator.from_dense(a)
        ref = reference(op)
        res = solve(op, 3)
        assert res.status is SolveStatus.CONVERGED
        rel = np.max(np.abs(res.eigenvalues - ref.d[:3]) / ref.d[:3])
        assert rel <= 1e-6

    def test_restart_image_is_the_scaled_srr_image(self):
        # the next stage starts from restart_point(A S) in place of an apply
        op, _ = GeneratorSpec("prescribed", 10, seed=13).make()
        x = np.random.default_rng(16).standard_normal((20, 4))
        s_fin, d_fin, as_fin = srr(x, op.apply(x))
        fresh = op.apply(restart_point(s_fin, d_fin, 60.0))
        image = restart_point(as_fin, d_fin, 60.0)
        assert np.linalg.norm(image - fresh) <= 1e-12 * np.linalg.norm(fresh)

    def test_converged_iterate_is_restart_point(self):
        op, _ = GeneratorSpec("prescribed", 10, seed=13).make()
        res = solve(op, 2)
        expected = restart_point(res.eigenbasis, res.eigenvalues, res.beta_final)
        np.testing.assert_array_equal(res.x_final, expected)


class TestPenaltyBelowTarget:
    # beta0 below d_p: the penalty's minimizers have collapsed pairs, and
    # only the beta update after the first Rayleigh-Ritz step lifts beta
    # above d_p.  A tight first stage would converge towards the collapsed
    # point, so `solve` starts loose whatever eps0.

    @pytest.mark.parametrize("family, n", [("prescribed", 20), ("prescribed", 40),
                                           ("sparse", 40), ("dense", 20), ("dense", 40)])
    def test_tight_eps0_below_d_p_converges(self, family, n):
        op, _ = GeneratorSpec(family, n, seed=1).make()
        d_3 = reference(op).d[2]
        for c in (0.5, 0.9, 0.99):
            loose = solve(op, 3, SolverParams(beta0=c * d_3, eps0=0.1))
            assert loose.status is SolveStatus.CONVERGED
            for eps0 in (1e-6, 1e-12):
                assert_same_solve(solve(op, 3, SolverParams(beta0=c * d_3, eps0=eps0)),
                                  loose)

    @pytest.mark.parametrize("beta0", [1e-4, 1e-2, 0.5, 1.5, 2.9])
    def test_tight_eps0_below_d_p_on_the_ladder(self, beta0):
        # diag(1..20, 1..20): d_3 = 3
        op = ladder_operator(20)
        loose = solve(op, 3, SolverParams(beta0=beta0, eps0=0.1))
        assert loose.status is SolveStatus.CONVERGED
        for eps0 in (1e-6, 1e-12):
            assert_same_solve(solve(op, 3, SolverParams(beta0=beta0, eps0=eps0)), loose)


class TestPrecision:
    def test_single_sqrt_eps(self):
        assert SINGLE_EPS == pytest.approx(3.4527e-4, rel=1e-4)

    @pytest.mark.parametrize("family, n, p", [("dense", 30, 3), ("slr", 40, 4),
                                              ("sparse", 40, 2)])
    def test_float32_applies_in_every_inner_step(self, family, n, p):
        op, _ = GeneratorSpec(family, n, seed=2).make()
        recorder = _DtypeRecorder(op)
        res = solve(recorder, p)
        assert res.status is SolveStatus.CONVERGED
        # the first stage's evaluation in float32 (it is loose), then per
        # stage one float32 apply per step, loose or tight, and one float64
        # apply at its end (no exit is refused here)
        expected = [np.dtype(np.float32)]
        for st in res.trace.outer:
            expected += [np.dtype(np.float32)] * st.inner_iters
            expected.append(np.dtype(float))
        assert recorder.dtypes == expected
        assert {st.eps >= SINGLE_EPS for st in res.trace.outer} == {True, False}

    @pytest.mark.parametrize("n, p, eps0", [(30, 3, 1e-8), (30, 3, 1e-12),
                                            (200, 10, 1e-6)])
    def test_eps0_does_not_reach_solve(self, n, p, eps0):
        # `solve` starts every solve at EPS_FIRST: a tight eps0 changes
        # nothing, and the first stage evaluates in float32
        op = instance("dense", n, seed=0)
        recorder = _DtypeRecorder(op)
        res = solve(recorder, p, SolverParams(eps0=eps0))
        assert res.status is SolveStatus.CONVERGED
        assert res.trace.outer[0].eps == EPS_FIRST
        assert recorder.dtypes[0] == np.dtype(np.float32)
        assert_same_solve(res, solve(op, p))

    def test_every_apply_is_float64_outside_the_guard(self):
        # tr(A)/2n = 1e12 x 6.45 lies above SINGLE_SCALE
        a = instance("dense", 20, seed=0).densify()
        recorder = _DtypeRecorder(SpdOperator.from_dense(1e12 * a))
        res = solve(recorder, 3)
        assert res.status is SolveStatus.CONVERGED
        assert recorder.dtypes == [np.dtype(float)] * recorder.applies
        refused = sum(st.refused for st in res.trace.outer)
        assert recorder.applies == res.inner_iterations + res.outer_iterations + 1 + refused

    @pytest.mark.parametrize("family, n", [("dense", 200), ("slr", 400)])
    def test_carried_image_drift_in_tight_stages(self, monkeypatch, family, n):
        # a tight stage descends on a float32 correction to a float64 base
        # and decides its exit on a float64 evaluation at X0 + E, whose
        # image is a fresh apply; that evaluation is the stage's last, and
        # its image must stay within 1e-2 eps of a fresh float64 apply of
        # its point at the stage's end (the carried float32 state is
        # bounded by test_carried_gradient_at_tight_exits)
        op, _ = GeneratorSpec(family, n, seed=0).make()
        evals, drift = [], []

        def recording_evaluate(*args, **kwargs):
            evals.append(evaluate(*args, **kwargs))
            return evals[-1]

        def measuring_srr(*args):
            # the stage's carried state, at its end
            ev = evals[-1]
            fresh = op.apply(ev.x.astype(float))
            drift.append(np.linalg.norm(ev.ax - fresh) / np.linalg.norm(fresh))
            return srr(*args)

        monkeypatch.setattr("sympeig.solver.evaluate", recording_evaluate)
        monkeypatch.setattr("sympeig.solver.srr", measuring_srr)
        res = solve(op, 10)
        assert res.status is SolveStatus.CONVERGED
        assert len(drift) == res.outer_iterations
        tight = [(st.eps, rel) for st, rel in zip(res.trace.outer, drift)
                 if st.eps < SINGLE_EPS]
        assert len(tight) >= 2
        assert all(rel <= 1e-2 * eps for eps, rel in tight)

    @pytest.mark.parametrize("family, n", [("dense", 200), ("slr", 400)])
    @pytest.mark.parametrize("seed", range(4))
    def test_carried_gradient_at_tight_exits(self, monkeypatch, family, n, seed):
        # at every exit check of a tight stage the float32 gradient the
        # based descent carried lies within 0.5 eps ||A X||_F of the exact
        # float64 one at X0 + E (0.20 on dense and 0.08 on slr, seeds 0-3)
        op, _ = GeneratorSpec(family, n, seed=seed).make()
        stage_eps, gaps = [], []

        def recording_run_inner(*args):
            stage_eps.append(args[4])
            return _run_inner(*args)

        class RecordingBasedEval(BasedEval):
            def point(self):
                # the carried gradient, formed again from the same state
                carried = self.ensure_gradient()
                x = super().point()
                exact = evaluate(op, x, self.beta)
                err = np.linalg.norm(carried - exact.ensure_gradient())
                gaps.append(err / (stage_eps[-1] * exact.image_norm()))
                return x

        monkeypatch.setattr("sympeig.solver._run_inner", recording_run_inner)
        monkeypatch.setattr("sympeig.solver.BasedEval", RecordingBasedEval)
        res = solve(op, 10)
        assert res.status is SolveStatus.CONVERGED
        tight = [st for st in res.trace.outer if st.eps < SINGLE_EPS]
        assert len(tight) >= 2 and all(st.reached for st in tight)
        assert len(gaps) == len(tight) + sum(st.refused for st in tight)
        assert max(gaps) <= 0.5

    @pytest.mark.parametrize("family, n, p", [("dense", 30, 3), ("slr", 40, 4)])
    def test_stage_ends_on_one_float64_apply_that_srr_reuses(self, monkeypatch,
                                                             family, n, p):
        # every stage's exit applies A once in float64, to the iterate that
        # the Rayleigh-Ritz step gets, whose image it takes; SRR applies
        # nothing
        op, _ = GeneratorSpec(family, n, seed=2).make()
        spy = _OperandRecorder(op)
        calls = []

        def spying_srr(x, ax, *rest):
            before = spy.applies
            out = srr(x, ax, *rest)
            assert spy.applies == before
            calls.append((before, x.copy(), ax.copy()))
            return out

        monkeypatch.setattr("sympeig.solver.srr", spying_srr)
        res = solve(spy, p)
        assert res.status is SolveStatus.CONVERGED
        assert len(calls) == res.outer_iterations
        assert any(st.eps < SINGLE_EPS for st in res.trace.outer)
        last = 0
        for st, (before, x, ax) in zip(res.trace.outer, calls):
            wide = [(k, operand) for k, operand in spy.wide if last <= k < before]
            assert st.refused == 0 and len(wide) == 1
            k, operand = wide[0]
            assert k == before - 1
            np.testing.assert_array_equal(operand, x)
            np.testing.assert_array_equal(ax, op.apply(x))
            last = before

    def test_refused_exit_continues_the_stage(self, monkeypatch):
        # the first tight stage starts from a carried A X off by
        # 2 eps ||A X||_F, so its descent drives the carried gradient, not
        # the true one, below eps ||A X||_F: the exact image refuses that
        # exit, the stage goes on from it and the solve converges, at one
        # apply more per refused exit
        op, _ = GeneratorSpec("dense", 30, seed=2).make()
        counted = _CountingOperator(op)
        tight_eps = EPS_FIRST * DELTA_EPS**2
        rng = np.random.default_rng(0)
        perturbed = []

        def perturbing_evaluate(op_, x, beta, ax=None):
            ev = evaluate(op_, x, beta, ax=ax)
            # the first float64 evaluation handed an image is the first
            # tight stage's start
            if x.dtype == np.float64 and ax is not None and not perturbed:
                e = rng.standard_normal(ev.ax.shape)
                ev.ax += 2.0 * tight_eps * np.linalg.norm(ev.ax) / np.linalg.norm(e) * e
                perturbed.append(ev)
            return ev

        plain = solve(op, 3)
        monkeypatch.setattr("sympeig.solver.evaluate", perturbing_evaluate)
        res = solve(counted, 3)
        assert res.status is SolveStatus.CONVERGED
        assert len(perturbed) == 1
        refused = [st.refused for st in res.trace.outer]
        assert res.trace.outer[2].eps == tight_eps and refused[2] >= 1
        assert sum(refused) == refused[2]
        assert res.trace.outer[2].reached
        assert res.trace.outer[2].inner_iters > plain.trace.outer[2].inner_iters
        assert counted.applies == (res.inner_iterations + res.outer_iterations + 1
                                   + sum(refused))
        np.testing.assert_allclose(res.eigenvalues, plain.eigenvalues, rtol=1e-7)

    def test_solve_basic_applies_only_float64(self):
        op = instance("dense", 20, seed=0)
        recorder = _DtypeRecorder(op)
        res = solve_basic(recorder, 3, SolverParams(beta0=beta_suggest(op, 3),
                                                    eps0=1e-6, k_max=3000))
        assert recorder.dtypes == [np.dtype(float)] * (res.inner_iterations + 2)

    def test_no_float32_copy_outlives_a_solve(self):
        recorder = _DtypeRecorder(instance("dense", 20, seed=0))
        solve(recorder, 3)
        assert recorder.copies
        gc.collect()
        assert all(ref() is None for ref in recorder.copies)
        assert getattr(operators._scope, "copies", None) is None

    def test_results_are_float64(self):
        op = instance("dense", 20, seed=0)
        for res in (solve(op, 3), solve(op, 3, SolverParams(k_max=2, outer_max=1))):
            assert res.trace.outer[0].eps >= SINGLE_EPS
            for out in (res.eigenvalues, res.eigenbasis, res.x_final):
                assert out.dtype == np.float64

    def test_minimal_operator_protocol_suffices(self):
        op, _ = GeneratorSpec("slr", 30, seed=3).make()
        res = solve(_MinimalOperator(op), 3)
        assert res.status is SolveStatus.CONVERGED
        direct = solve(op, 3)
        assert res.trace.inner == direct.trace.inner
        np.testing.assert_array_equal(res.eigenbasis, direct.eigenbasis)

    def test_operator_answering_in_float64_is_accepted(self):
        a = instance("dense", 20, seed=0).densify()

        class Float64Operator:
            n = 20

            def trace(self):
                return float(np.trace(a))

            def apply(self, x):
                return a @ np.asarray(x, dtype=float)

        res = solve(Float64Operator(), 3)
        assert res.status is SolveStatus.CONVERGED
        ref = reference(SpdOperator.from_dense(a)).d[:3]
        np.testing.assert_allclose(res.eigenvalues, ref, rtol=1e-6)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6, 1e8, 1e12, 1e20])
    def test_scaled_operator_converges(self, c):
        # tr(cA)/2n outside solver.SINGLE_SCALE keeps every stage in float64,
        # where the first ray's quartic terms would overflow float32 (c = 1e20)
        a = instance("dense", 20, seed=0).densify()
        res = solve(SpdOperator.from_dense(c * a), 3)
        assert res.status is SolveStatus.CONVERGED
        ref = reference(SpdOperator.from_dense(a)).d[:3]
        np.testing.assert_allclose(res.eigenvalues / c, ref, rtol=1e-6)


_HASH_ONE_SOLVE = """
import hashlib
from sympeig import GeneratorSpec, SolverParams, beta_suggest, solve, solve_basic
op, _ = GeneratorSpec("dense", 50, seed=0).make()
basic = solve_basic(op, 5, SolverParams(beta0=beta_suggest(op, 5), eps0=1e-5,
                                        k_max=3000))
for res in (solve(op, 5), basic):
    h = hashlib.sha256()
    for row in res.trace.inner:
        h.update(repr((row.k, row.stage, row.f, row.gnorm, row.gamma, row.t,
                       row.beta, row.window_max, row.capped)).encode())
    h.update(res.eigenvalues.tobytes())
    h.update(res.eigenbasis.tobytes())
    print(res.status.value, res.inner_iterations, h.hexdigest())
"""


def test_solve_reproducible_across_processes():
    # one line for `solve`, then one for `solve_basic`
    outputs = [run_with_blas_threads(_HASH_ONE_SOLVE) for _ in range(2)]
    assert outputs[0].startswith("converged ")
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


_COUNT_STALLED_SOLVE = """
from sympeig import GeneratorSpec, solve
from test_solver import _CountingOperator
op, _ = GeneratorSpec("slr", 400, seed=901007).make()
counted = _CountingOperator(op)
res = solve(counted, 10)
print(res.status.value, counted.applies)
"""


def test_aimed_stage_cost_on_a_rounding_stall_is_bounded():
    # With one BLAS thread and plain BB steps, the aimed stages of this
    # instance (eps 6.9e-9, then 2.9e-9) stalled in the line search on
    # rounding of f: 735 applies, where the plain tenfold schedule (eps
    # 1e-8, then 1e-9) spent 553.  L-BFGS steps under a backtracking
    # search took 323 applies, the exact step along the ray 292, one
    # curvature pair with float32 loose stages 292 as well, and four
    # stages (DELTA_EPS = 0.01) 283.  The bound keeps this known worst
    # case within 40% of the plain one.
    status, applies = run_with_blas_threads(_COUNT_STALLED_SOLVE).split()
    assert status == "converged"
    assert int(applies) <= 1.4 * 553


_COUNT_DENSE_STALL = """
from sympeig import GeneratorSpec, solve
from test_solver import _CountingOperator
op, _ = GeneratorSpec("dense", 200, seed=65).make()
counted = _CountingOperator(op)
res = solve(counted, 10)
print(res.status.value, counted.applies)
"""


def test_dense_rounding_stall_instance_converges_cheaply():
    # With plain BB steps this instance's last stage sat within a few ulps
    # of f and backtracked ~130,000 times (134,452 applies); along L-BFGS
    # directions it took no backtracks there and 648 applies, with the
    # exact step along the ray 567, with one curvature pair and float32
    # loose stages 548, and in four stages (DELTA_EPS = 0.01) 507 (one
    # BLAS thread).
    status, applies = run_with_blas_threads(_COUNT_DENSE_STALL).split()
    assert status == "converged"
    assert int(applies) <= 1000
