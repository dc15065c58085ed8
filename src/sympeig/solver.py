"""Penalty-based solvers for the p smallest symplectic eigenvalues.

`solve_basic` is the paper's fixed-penalty BB gradient iteration with
the nonmonotone line search.  `solve` takes the exact minimizing step
along memoryless BFGS directions (L-BFGS with one curvature pair) with a
BB scale, under the same search, refines each stage's iterate by
symplectic Rayleigh-Ritz, adapts the penalty weight from the Ritz
values, restarts from the scaled eigenbasis, and tightens the inner
tolerance geometrically.  `solve` applies the operator in float32 at
every inner step and runs its iterates in float32 only in the loose
stages.  Both run the search on the penalty's exact quartic along the
step's direction, so an inner step costs one operator apply whatever its
backtracks, and neither allocates a block of the iterate's shape per
step.
"""

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import NumericalFailure, RankDeficientError
from .factor import restart_point, srr
from .metrics import feasibility, residue
from .operators import canonical_frame, single_precision
from .penalty import evaluate, ray
from .stepper import (
    MEMORY, WINDOW, bb_step, exact_step, gll_search, lbfgs_direction,
)

# reference penalty weight as a multiple of the target eigenvalue
BETA_BEST_FACTOR = (3.0 + math.sqrt(5.0)) / 2.0

_EPS_FLOOR = 1e-14

# outer-loop constants; the step and line-search ones live in `stepper`
DELTA_EPS = 0.1  # inner tolerance shrink per outer stage
ETA = 1.1  # penalty update multiplier beta <- ETA * theta_p

# seed of the perturbation drawn by the rank-deficiency retry
_RETRY_SEED = 0

# A stage of `solve` with inner tolerance eps >= SINGLE_EPS runs its
# iterates in float32.  Over k steps its carried A X drifts by about
# k eps_32 relative, near 1e-5 for the ~100-step stages of the n =
# 200-800 families, under 3% of eps.  A tighter stage keeps its iterates
# in float64 and only applies A in float32; its carried A X drifted by at
# most 1.4e-4 eps (dense n = 200 and slr n = 400).  Both need the mean
# eigenvalue m = tr(A)/2n in SINGLE_SCALE, which keeps float32 copies of
# B and C, and the squares of blocks of size m, far inside float32's range.
SINGLE_EPS = math.sqrt(np.finfo(np.float32).eps)
SINGLE_SCALE = (1e-8, 1e8)


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverParams:
    """Settings of both solver variants.

    `beta0=None` resolves to the trace heuristic :func:`beta_suggest`.
    `eps0` is the first inner gradient tolerance; the enhanced solver
    uses it relative to ||A X||_F and shrinks it by `DELTA_EPS`
    per outer stage, except that a stage ending with residue r <=
    tol / (2 DELTA_EPS^2) is followed by eps' = (tol / 2r) eps, aimed
    at half of `tol` (eps still falls strictly).  The basic solver reads
    `eps0` as an absolute target.  `tol` is the relative eigen-residual
    that both solvers must reach to report convergence.  The step,
    L-BFGS memory and line-search constants are those of
    `sympeig.stepper`; the outer-loop and precision ones (`DELTA_EPS`,
    `ETA`, `SINGLE_EPS`, `SINGLE_SCALE`) are module constants here.  No
    setting switches the search direction or the precision: `solve`
    always takes L-BFGS steps and `solve_basic` BB steps.  No
    setting seeds anything either: the one random draw, the perturbation
    of `solve`'s retry after a rank-deficient Rayleigh-Ritz step, comes
    from a generator seeded with the constant `_RETRY_SEED`.
    """

    beta0: float = None
    k_max: int = 5000
    eps0: float = 0.1
    outer_max: int = 20
    tol: float = 1e-8

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "beta0" and value is None:
                continue
            if f.type is int:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
            elif (isinstance(value, bool) or not isinstance(value, numbers.Real)
                  or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite real number, got {value!r}")
        if self.eps0 <= 0 or self.tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.k_max < 1 or self.outer_max < 1:
            raise ValueError("iteration limits must be positive")
        if self.beta0 is not None and self.beta0 <= 0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        return self

    @classmethod
    def from_dict(cls, mapping):
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown solver parameter(s): {sorted(unknown)}")
        return cls(**mapping).validate()


@dataclass
class InnerStep:
    """One accepted descent step (one row of the iteration trace)."""

    k: int
    stage: int
    f: float
    gnorm: float
    gamma: float  # BB length (basic) or L-BFGS H0 scale (enhanced)
    t: int
    beta: float
    window_max: float
    capped: bool


@dataclass
class OuterStage:
    """One outer stage: the beta/eps used, Ritz values found, and the
    rank margin sigma_min/sigma_max of the restart it produced."""

    stage: int
    beta: float
    eps: float
    theta: np.ndarray
    reached: bool
    inner_iters: int
    residue: float
    sigma_ratio: float
    elapsed: float


@dataclass
class SolveTrace:
    inner: list = field(default_factory=list)
    outer: list = field(default_factory=list)


@dataclass
class SympEigResult:
    """Solver output: eigenvalues ascending, eigenbasis columns paired
    as [first halves | second halves], and the full iteration trace.
    `message` is the text of the numerical failure that ended a
    NUMERICAL_FAILURE solve, None otherwise."""

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    x_final: np.ndarray
    status: SolveStatus
    trace: SolveTrace
    beta_final: float
    residue: float
    feasibility: float
    inner_iterations: int
    outer_iterations: int
    elapsed: float
    message: str = None


def beta_suggest(op, p):
    """Penalty weight heuristic tr(A)/(n - p + 1).

    Always at least twice the p-th symplectic eigenvalue, so the
    penalty is exact without knowing the spectrum.
    """
    n = op.n
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    return op.trace() / (n - p + 1)


def beta_best(d_p):
    """Reference penalty weight (3 + sqrt(5))/2 * d_p; needs the target
    eigenvalue d_p, so it is a diagnostic rather than a default."""
    return BETA_BEST_FACTOR * float(d_p)


def _run_inner(op, x, ax, beta, eps, params, trace, stage, single, unit):
    """One stage of `solve`: GLL descent until ||G||_F < eps ||A X||_F or
    k_max steps; returns (x, reached, iters): the last iterate in float64,
    whether the gradient test stopped the descent, and the number of
    steps taken.

    Steps follow the L-BFGS direction from the last MEMORY accepted
    curvature pairs, H0 scaled by the BB2 length, tried from the exact
    minimizer along it.  The descent runs on a copy of `x`.  The
    objective is evaluated once, from `ax` = A X when given; each step
    takes one apply, A D, for the ray's quartic, and the accepted point's
    A X, violation and value are carried along the ray.  Apart from A D,
    a step makes no block of X's shape: the gradient, the direction and
    the MEMORY + 1 slot pairs for S and Z are reused.

    With `single` every step's apply runs in float32.  A stage with eps
    >= SINGLE_EPS then runs wholly in float32; a tighter one keeps X,
    A X, V and the gradient in float64, rounds D to float32 in place
    before the slope <G, D> is taken, so the step moves along exactly
    the D that was applied, and widens A D into a reused float64 block.
    `unit` is the unit of the step lengths (:func:`bb_step`).
    """
    loose = single and eps >= SINGLE_EPS
    ev = evaluate(op, x.astype(np.float32 if loose else float), beta, ax=ax)
    g = ev.ensure_gradient()
    g_new, d_buf, work = (np.empty_like(g) for _ in range(3))
    spare = (np.empty_like(g), np.empty_like(g))
    mixed = single and not loose
    if mixed:
        # the float32 D that is applied, and A D widened to float64
        d_single, ad_wide = np.empty(g.shape, np.float32), np.empty_like(g)
    gnorm = float(np.linalg.norm(g))
    window = deque([ev.value], maxlen=WINDOW + 1)
    pairs = ()
    s_prev = z_prev = sz = None
    k_base = len(trace.inner)
    reached = False
    iters = 0
    for k in range(params.k_max):
        if gnorm < eps * float(np.linalg.norm(ev.ax)):
            reached = True
            break
        gamma = bb_step(s_prev, z_prev, k, alternate=False, sz=sz, unit=unit)
        d = lbfgs_direction(g, pairs, gamma, out=d_buf, work=work)
        if mixed:
            np.copyto(d_single, d)
            np.copyto(d, d_single)
            ad = ad_wide
            np.copyto(ad, op.apply(d_single))
        else:
            ad = op.apply(d)
        model = ray(ev.x, ev.violation, d, ad, beta, float(np.vdot(g, d)))
        ls = gll_search(ev.value, model.coeffs, exact_step(model.coeffs), window)
        # X^(k-1) - X^(k) and G^(k-1) - G^(k), written into the spare
        # slots: negating both differences leaves <S,Z>, the BB length
        # and the two-loop unchanged
        s_prev, z_prev = spare
        np.multiply(d, ls.step, out=s_prev)
        ev.move(s_prev, model, ls.step, ls.f)
        ev.ensure_gradient(out=g_new)
        np.subtract(g, g_new, out=z_prev)
        sz = float(np.vdot(s_prev, z_prev))
        if sz > 0.0:
            # the newest MEMORY pairs stay; the one dropped frees its slots
            pairs += ((s_prev, z_prev, 1.0 / sz),)
            if len(pairs) > MEMORY:
                spare, pairs = pairs[0][:2], pairs[1:]
            else:
                spare = (np.empty_like(g), np.empty_like(g))
        g, g_new = g_new, g
        gnorm = float(np.linalg.norm(g))
        window.append(ev.value)
        trace.inner.append(
            InnerStep(k_base + iters, stage, ev.value, gnorm, gamma, ls.t,
                      beta, max(window), ls.capped)
        )
        iters += 1
    return ev.x.astype(float, copy=False), reached, iters


def _result(x, s_fin, d_fin, status, trace, beta, resid, start, message=None):
    # feasibility of the returned eigenbasis, not of the penalty iterate
    # (the latter sits at the minimizer with violation -D/beta by design)
    return SympEigResult(
        eigenvalues=None if d_fin is None else d_fin.copy(),
        eigenbasis=s_fin,
        x_final=x,
        status=status,
        trace=trace,
        beta_final=float(beta),
        residue=float(resid),
        feasibility=feasibility(x if s_fin is None else s_fin),
        inner_iterations=len(trace.inner),
        outer_iterations=len(trace.outer),
        elapsed=time.perf_counter() - start,
        message=message,
    )


def solve_basic(op, x0, beta, params=None):
    """Fixed-penalty descent (basic variant).

    Iterates X <- X - delta^t gamma G with the clamped alternating BB
    step until ||G||_F < eps0 (absolute) or k_max steps, then extracts
    Ritz pairs from the final iterate by symplectic Rayleigh-Ritz.  The
    GLL test runs on the exact quartic along G, so a step costs one
    apply, A G, and its backtracks none.  The loop is the paper's method
    and shares no step code with `solve`'s.

    Returns
    -------
    SympEigResult
        One outer stage; status CONVERGED when the gradient test was
        met and the refined eigen-residual is at most `params.tol`,
        MAX_ITERATIONS otherwise (k_max ran out first, or the gradient
        test stopped the descent short of `tol`), or NUMERICAL_FAILURE
        (non-finite objective in the line search, or a final iterate too
        rank-deficient for the extraction), whose text is kept in
        `message`.

    Raises
    ------
    ValueError
        If `params`, `beta` or the shape of `x0` is invalid.
    """
    params = (params or SolverParams()).validate()
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"penalty weight must be positive and finite, got {beta}")
    # evaluate holds x, so the steps move it in place
    x = np.array(x0, dtype=float)
    trace = SolveTrace()
    start = time.perf_counter()
    try:
        ev = evaluate(op, x, beta)
        g = ev.ensure_gradient()
        # the next gradient, X^(k-1) - X^(k) and G^(k-1) - G^(k)
        g_new, s, z = (np.empty_like(g) for _ in range(3))
        gnorm = float(np.linalg.norm(g))
        window = deque([ev.value], maxlen=WINDOW + 1)
        sz = None
        reached = False
        for k in range(params.k_max):
            if gnorm < params.eps0:
                reached = True
                break
            gamma = bb_step(s, z, k, sz=sz)
            model = ray(x, ev.violation, g, op.apply(g), beta, float(np.vdot(g, g)))
            ls = gll_search(ev.value, model.coeffs, gamma, window)
            ev.move(np.multiply(g, ls.step, out=s), model, ls.step, ls.f)
            ev.ensure_gradient(out=g_new)
            sz = float(np.vdot(s, np.subtract(g, g_new, out=z)))
            g, g_new = g_new, g
            gnorm = float(np.linalg.norm(g))
            window.append(ev.value)
            trace.inner.append(InnerStep(k, 0, ev.value, gnorm, gamma, ls.t, beta,
                                         max(window), ls.capped))
        s_fin, d_fin, as_fin = srr(op, x)
        resid = residue(op, s_fin, d_fin, ax=as_fin)
    except NumericalFailure as exc:
        return _result(x, None, None, SolveStatus.NUMERICAL_FAILURE, trace, beta,
                       math.nan, start, str(exc))
    trace.outer.append(
        OuterStage(0, float(beta), params.eps0, d_fin.copy(), reached,
                   len(trace.inner), resid, None, time.perf_counter() - start)
    )
    converged = reached and resid <= params.tol
    status = SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERATIONS
    return _result(x, s_fin, d_fin, status, trace, beta, resid, start)


def solve(op, p, params=None):
    """Compute the p smallest symplectic eigenvalues and eigenbasis of A.

    Enhanced variant: L-BFGS directions from the last accepted curvature
    pair inside a stage, with H0 the clamped BB2 length, each taken with
    the step that minimizes the penalty's quartic along it; symplectic
    Rayleigh-Ritz extraction at the end of each stage; penalty update
    beta <- ETA * theta_p (floored at (3+sqrt(5))/2 * theta_p whenever
    the update would fall below a tenth of the previous beta); restart
    from S (I - D/beta)^(1/2); and a geometric inner-tolerance schedule
    eps <- DELTA_EPS * eps.  Stops once the relative eigen-residual of
    the refined basis drops to `params.tol`.  A stage's residue r tracks
    its eps, so when a stage misses with r <= tol / (2 DELTA_EPS^2) the
    next one runs at eps * tol / (2r) instead, aimed at half of `tol`
    rather than a full factor DELTA_EPS below it.

    When tr(A)/2n lies in `SINGLE_SCALE`, every inner step applies A in
    float32, and the iterates run in float32 only in the stages with eps
    >= `SINGLE_EPS` = sqrt(eps_float32) (3.45e-4); everything else runs
    in float64.  The float32 copies `SpdOperator.apply` makes live until
    `solve` returns.  Step lengths and the Rayleigh-Ritz step are in units
    of 2^-e, e the binary exponent of tr(A)/2n, so solve(2^k A) repeats
    solve(A) bit for bit,
    eigenvalues times 2^k, while both lie on one side of `SINGLE_SCALE`.

    A stage costs one apply per inner step and one in the Rayleigh-Ritz
    step, whose image A S the residue reuses and the restart scales into
    the next stage's A X; the first stage adds one for its evaluation.
    A solve thus takes inner + outer + 1 applies.

    Returns
    -------
    SympEigResult
        Float64 arrays throughout.  Status CONVERGED, MAX_ITERATIONS
        (outer budget exhausted), or NUMERICAL_FAILURE (non-finite
        objective, or rank-deficient iterate that a retry from a random
        perturbation could not repair), whose text is kept in `message`.
    """
    params = (params or SolverParams()).validate()
    n = op.n
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    rng = np.random.default_rng(_RETRY_SEED)
    beta = params.beta0 if params.beta0 is not None else beta_suggest(op, p)
    mean = op.trace() / (2 * n)
    single = SINGLE_SCALE[0] <= mean <= SINGLE_SCALE[1]
    # step lengths and Ritz values in units of 2^-e for the binary exponent
    # e of the mean eigenvalue, so that solve(2^k A) repeats solve(A) bit
    # for bit
    unit = math.ldexp(1.0, -math.frexp(mean)[1])
    trace = SolveTrace()
    x = canonical_frame(n, p)
    ax = None
    eps = params.eps0
    status = SolveStatus.MAX_ITERATIONS
    message = None
    s_fin = None
    d_fin = None
    resid = float("nan")
    start = time.perf_counter()
    try:
        with single_precision():
            for stage in range(params.outer_max):
                stage_start = time.perf_counter()
                stage_beta = beta
                x, reached, iters = _run_inner(
                    op, x, ax, beta, eps, params, trace, stage, single, unit,
                )
                try:
                    s_fin, d_fin, as_fin = srr(op, x, unit)
                except RankDeficientError:
                    # one retry from a random perturbation
                    scale = 1e-8 * max(float(np.linalg.norm(x)), 1e-30)
                    x = x + scale / np.sqrt(x.size) * rng.standard_normal(x.shape)
                    s_fin, d_fin, as_fin = srr(op, x, unit)
                resid = residue(op, s_fin, d_fin, ax=as_fin)
                elapsed = time.perf_counter() - stage_start
                converged = resid <= params.tol
                if not converged:
                    theta_p = float(d_fin[-1])
                    beta = ETA * theta_p
                    if beta < stage_beta / 10.0:
                        beta = BETA_BEST_FACTOR * theta_p
                x = restart_point(s_fin, d_fin, beta)
                sigma_ratio = None
                if not converged:
                    sv = np.linalg.svd(x, compute_uv=False)
                    sigma_ratio = float(sv[-1] / sv[0])
                trace.outer.append(
                    OuterStage(stage, stage_beta, eps, d_fin.copy(), reached, iters,
                               resid, sigma_ratio, elapsed)
                )
                if converged:
                    status = SolveStatus.CONVERGED
                    break
                # restart_point scales columns, so on A S it gives A X
                ax = restart_point(as_fin, d_fin, beta)
                # a stage ends with its residue close to its eps, so once tol
                # is within reach the next stage is aimed at tol / 2 rather
                # than a full factor DELTA_EPS further down
                target = 0.5 * params.tol * eps / resid
                if target >= DELTA_EPS * DELTA_EPS * eps:
                    eps = max(target, _EPS_FLOOR)
                else:
                    eps = max(eps * DELTA_EPS, _EPS_FLOOR)
    except NumericalFailure as exc:
        status = SolveStatus.NUMERICAL_FAILURE
        message = str(exc)
    return _result(x, s_fin, d_fin, status, trace, beta, resid, start, message)
