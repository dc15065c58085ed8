"""Penalty-based solvers for the p smallest symplectic eigenvalues.

`solve_basic` is the paper's fixed-penalty BB gradient iteration with
the nonmonotone line search.  `solve` takes the exact minimizing step
along memoryless BFGS directions (L-BFGS with one curvature pair), so it
needs no step length, accepted by the same search run as a monotone
test, refines each stage's iterate by symplectic Rayleigh-Ritz, and
restarts from the scaled eigenbasis at the weight and tolerance that
`next_stage` sets.  `solve` applies the operator in float32 at every
inner step and ends each stage on one float64 evaluation, by the stage
protocol stated in its docstring.  Both start from the canonical frame
and run the search on the penalty's exact quartic along the step's
direction, so an inner step costs one operator apply whatever its
backtracks, and neither allocates a block of the iterate's shape per
step.
"""

import math
import time
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import NumericalFailure, check_number
from .factor import restart_point, srr, williamson_small
from .metrics import feasibility, residue
from .operators import canonical_frame, single_precision
from .penalty import BasedEval, evaluate, ray
from .stepper import WINDOW, bb_step, exact_step, gll_search, lbfgs_direction

# outer-loop constants, read by `next_stage`; the step and line-search ones
# live in `stepper`
EPS_FIRST = 0.3  # inner tolerance of the first stage
DELTA_EPS = 0.01  # inner tolerance shrink per outer stage
ETA = 1.1  # penalty update multiplier beta <- ETA * theta_p
_EPS_FLOOR = 1e-14

# A stage of `solve` with inner tolerance eps >= SINGLE_EPS runs its
# iterates in float32.  Over k steps its carried A X drifts by about k eps_32
# relative: at most 0.41% of eps in the 20-265-step loose stages of the n =
# 200-800 families.  A tighter stage descends on a float32 correction E to a
# float64 base X0, whose gradient holds the cancellation; at its exit checks
# the carried gradient lay within 0.20 eps ||A X||_F of the exact one, in the
# aimed stage (dense n = 200; slr n = 400 up to 0.08, seeds 0-3), and the
# exit is decided on a float64 apply of X0 + E.  Both need the mean
# eigenvalue m = tr(A)/2n in SINGLE_SCALE, which keeps float32 copies of B
# and C, and the squares of blocks of size m, far inside float32's range.
SINGLE_EPS = math.sqrt(np.finfo(np.float32).eps)
SINGLE_SCALE = (1e-8, 1e8)


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverParams:
    """Settings of both solver variants.

    `beta0=None` resolves, in `solve`, to the smaller of the trace
    heuristic :func:`beta_suggest` and `ETA` theta_p, theta_p the p-th
    Williamson value of A compressed onto the canonical frame, and in
    `solve_basic` to the trace heuristic.  `k_max` is the inner step
    budget, per stage for `solve`.  `eps0` is `solve_basic`'s absolute
    gradient target and `outer_max` `solve`'s stage budget; each solver
    ignores the other's.  `tol` is the relative eigen-residual that both
    solvers must reach to report convergence.  `solve`'s inner tolerance,
    relative to ||A X||_F, is no setting: :func:`next_stage` sets it.  The
    step and line-search constants are those of `sympeig.stepper`; the
    outer-loop and precision ones (`EPS_FIRST`, `DELTA_EPS`, `ETA`,
    `SINGLE_EPS`, `SINGLE_SCALE`) are module constants here.  No setting
    switches the search direction or the precision: `solve` always takes
    L-BFGS steps and `solve_basic` BB steps.  No setting seeds anything
    either: neither solver draws a random number.
    """

    beta0: float = None
    k_max: int = 5000
    eps0: float = 1e-8
    outer_max: int = 20
    tol: float = 1e-8

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.name != "beta0":
                check_number(f.name, value, integer=f.type is int)
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
    gamma: float  # trial step: BB length (basic) or exact minimizer (enhanced)
    t: int
    beta: float
    window_max: float  # GLL window maximum (basic) or f (enhanced)
    capped: bool


@dataclass
class OuterStage:
    """One outer stage: the beta/eps used, Ritz values found, the exits
    that the stage's exact A X refused (`solve`; 0 for `solve_basic`), the
    rank margin sigma_min/sigma_max of the restart it produced, from its
    2p x 2p Gram X^T X, which resolves ratios down to about 1e-8, and
    :func:`next_stage`'s reason for what followed ("" for `solve_basic`)."""

    stage: int
    beta: float
    eps: float
    theta: np.ndarray
    reached: bool
    inner_iters: int
    refused: int
    residue: float
    sigma_ratio: float
    elapsed: float
    reason: str = ""


@dataclass
class SolveTrace:
    inner: list = field(default_factory=list)
    outer: list = field(default_factory=list)


@dataclass
class SympEigResult:
    """Solver output: eigenvalues ascending, eigenbasis columns paired
    as [first halves | second halves], and the full iteration trace.
    `message` is the text of the numerical failure that ended a
    NUMERICAL_FAILURE solve, None otherwise.  Such a solve keeps the
    eigenvalues, eigenbasis and residue of `solve`'s last completed
    stage, or None, None and nan when none completed, as always for
    `solve_basic`.  `x_final` is `solve_basic`'s last iterate and
    `solve`'s last restart point, the canonical frame before the first.
    `feasibility` is that of the eigenbasis, or of `x_final` when there is
    none."""

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
    penalty is exact without knowing the spectrum.  It holds the one
    check of p, an integer in [1, n), for both solvers and the CLI.
    """
    n = op.n
    check_number("p", p, integer=True)
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    return op.trace() / (n - p + 1)


def beta_best(d_p):
    """Reference penalty weight (3 + sqrt(5))/2 * d_p; needs the target
    eigenvalue d_p, so it is a diagnostic rather than a default."""
    return (3.0 + math.sqrt(5.0)) / 2.0 * float(d_p)


def _initial_beta(op, p, params):
    """`params.beta0`, else :func:`beta_suggest`, which checks p either way."""
    suggested = beta_suggest(op, p)
    return params.beta0 if params.beta0 is not None else suggested


def next_stage(beta, eps, theta_p, residue, tol):
    """The outer schedule of `solve`: the next stage's (beta, eps, reason)
    after a stage run at penalty weight `beta` and inner tolerance `eps`
    (relative to ||A X||_F) whose Rayleigh-Ritz step gave the p-th Ritz
    value `theta_p` and the relative eigen-residual `residue`.

    - "tol": residue <= tol, the stop.  beta and eps come back unchanged,
      so the last restart point is taken at the stage's weight.
    - "shrink": eps <- DELTA_EPS eps, from `EPS_FIRST` (0.3, 3e-3, 3e-5).
    - "aim": a stage's residue r tracks its eps, so once r <= tol /
      (2 DELTA_EPS^2) (5e3 tol), eps <- eps tol / (2r), aimed at tol / 2
      and below eps / 2.  At the defaults a solve typically runs four stages.

    Past the stop, beta <- ETA theta_p, the one weight update: theta_p
    bounds d_p from above, so the penalty stays exact.  eps stays at or
    above 1e-14.
    """
    if residue <= tol:
        return beta, eps, "tol"
    target = 0.5 * tol * eps / residue
    if target >= DELTA_EPS * DELTA_EPS * eps:
        reason, eps = "aim", max(target, _EPS_FLOOR)
    else:
        reason, eps = "shrink", max(eps * DELTA_EPS, _EPS_FLOOR)
    return ETA * theta_p, eps, reason


def _run_inner(op, x, ax, beta, eps, params, trace, single, unit):
    """One stage of `solve`, by the stage protocol stated there: descent
    from `x`, whose image A X is `ax`, until ||G||_F < eps ||A X||_F or
    k_max steps; returns (end, iters, refused): the float64 evaluation at
    the last iterate, the number of steps taken, and the number of exits
    that the exact gradient refused.

    Steps follow the memoryless BFGS direction from the last step's
    curvature pair, H0 = `unit` I, and take the exact minimizer along it,
    which divides out the scale of H0; `unit` = 2^-e (see `solve`) only
    keeps solve(2^k A) bit for bit, and the BB lengths are `solve_basic`'s.
    There <G_new, D> = 0, so <S, Z> = s <G, D> > 0 and the step passes
    the search's test with the window (f,), which makes the test
    monotone; a pair with <S, Z> <= 0, which only rounding could give, is
    dropped.  The descent runs on a copy of `x`.
    Each step takes one apply, A D, for the ray's quartic, and the
    accepted point's image, violation and value are carried along the
    ray.  Apart from A D, a step makes no block of X's shape: the
    gradient, the direction and the pair's S and Z are reused.  The step
    reads every evaluation through one protocol (`x` for the ray, `move`,
    `ensure_gradient`, `image_norm`, `point`).  The stage's index is
    `len(trace.outer)`.
    """
    based = single and eps < SINGLE_EPS
    ev = evaluate(op, x.astype(np.float32 if single and not based else float), beta, ax=ax)
    g = ev.ensure_gradient()
    if based:
        ev = BasedEval(ev, g, np.float32)
        g = ev.ensure_gradient()
    g_new, d_buf, work, s, z = (np.empty_like(g) for _ in range(5))
    gnorm = float(np.sqrt(np.vdot(g, g)))
    pair = None
    stage = len(trace.outer)
    iters = refused = 0
    while True:
        spent = iters == params.k_max
        if spent or gnorm < eps * ev.image_norm():
            end = evaluate(op, ev.point(), beta)
            # a based stage's carried gradient sums float32 steps: its exit
            # also needs the exact one, and a refusal rebases the descent
            c = None if spent or not based else end.ensure_gradient()
            if c is None or float(np.sqrt(np.vdot(c, c))) < eps * end.image_norm():
                return end, iters, refused
            refused += 1
            ev = BasedEval(end, c, np.float32)
            g = ev.ensure_gradient(out=g)
            gnorm = float(np.sqrt(np.vdot(g, g)))
        d = lbfgs_direction(g, pair, unit, out=d_buf, work=work)
        model = ray(ev.x, ev.violation, d, op.apply(d), beta, float(np.vdot(g, d)))
        trial = exact_step(model.coeffs)
        ls = gll_search(ev.value, model.coeffs, trial, (ev.value,))
        # X^(k-1) - X^(k) over D and G^(k-1) - G^(k) over the old
        # gradient, each in place; the buffers of the pair the direction
        # has read take the next D and gradient.  Negating both differences
        # leaves <S,Z> and the two-loop unchanged
        s, d_buf = np.multiply(d, ls.step, out=d), s
        ev.move(s, model, ls.step, ls.f)
        ev.ensure_gradient(out=g_new)
        z, g, g_new = np.subtract(g, g_new, out=g), g_new, z
        sz = float(np.vdot(s, z))
        pair = (s, z, 1.0 / sz) if sz > 0.0 else None
        gnorm = float(np.sqrt(np.vdot(g, g)))
        trace.inner.append(
            InnerStep(len(trace.inner), stage, ev.value, gnorm, trial, ls.t,
                      beta, ev.value, ls.capped)
        )
        iters += 1


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


def solve_basic(op, p, params=None):
    """Fixed-penalty descent (basic variant).

    From the canonical frame, at the penalty weight `params.beta0` (else
    :func:`beta_suggest`), iterates X <- X - delta^t gamma G with the
    clamped alternating BB step until ||G||_F < eps0 (absolute) or k_max
    steps, then extracts Ritz pairs from the final iterate by symplectic
    Rayleigh-Ritz.  The GLL test runs on the exact quartic along G, so a
    step costs one apply, A G, and its backtracks none.  The loop is the
    paper's method and shares no step code with `solve`'s.

    Returns
    -------
    SympEigResult
        One outer stage; status CONVERGED when the gradient test was
        met and the refined eigen-residual is at most `params.tol`,
        MAX_ITERATIONS otherwise (k_max ran out first, or the gradient
        test stopped the descent short of `tol`), or NUMERICAL_FAILURE
        (non-finite objective in the line search, or a final iterate too
        rank-deficient for the extraction), whose text is kept in
        `message`, with eigenvalues and eigenbasis None and residue nan.

    Raises
    ------
    ValueError
        If `params` is invalid or p is not an integer in [1, n).
    """
    params = (params or SolverParams()).validate()
    beta = _initial_beta(op, p, params)
    # evaluate holds x, so the steps move it in place
    x = canonical_frame(op.n, p)
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
        for k in range(params.k_max):
            if gnorm < params.eps0:
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
        s_fin, d_fin, as_fin = srr(x, op.apply(x))
        resid = residue(op, s_fin, d_fin, ax=as_fin)
    except NumericalFailure as exc:
        return _result(x, None, None, SolveStatus.NUMERICAL_FAILURE, trace, beta,
                       math.nan, start, str(exc))
    iters = len(trace.inner)
    trace.outer.append(
        OuterStage(0, float(beta), params.eps0, d_fin.copy(), iters < params.k_max,
                   iters, 0, resid, None, time.perf_counter() - start)
    )
    converged = iters < params.k_max and resid <= params.tol
    status = SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITERATIONS
    return _result(x, s_fin, d_fin, status, trace, beta, resid, start)


def solve(op, p, params=None):
    """Compute the p smallest symplectic eigenvalues and eigenbasis of A.

    Enhanced variant: memoryless BFGS directions from the last step's
    curvature pair inside a stage, with H0 = 2^-e I, each taken with the
    step that minimizes the penalty's quartic along it, which a monotone
    test accepts, so no step-length policy enters (the BB lengths and
    their constants are `solve_basic`'s); symplectic Rayleigh-Ritz
    extraction at the end of each stage; and a restart from S (I - D/beta)^(1/2) at the
    penalty weight and inner tolerance that :func:`next_stage` sets from
    the stage's Ritz values and relative eigen-residual, which also stops
    the solve once that residue drops to `params.tol`.

    The stage protocol.  When tr(A)/2n lies in `SINGLE_SCALE`, every
    inner step applies A in float32: a loose stage, with eps >=
    `SINGLE_EPS` = sqrt(eps_float32) (3.45e-4; the 0.3 and 3e-3 stages at
    the defaults), runs its iterates in float32, and a tight one is based,
    running its steps on a float32 correction E to a float64 base X0 with
    its value and violation in float64.  Otherwise every stage runs in
    float64.  Every stage ends on one float64 evaluation at its last
    iterate X, with one apply A X.  A stage leaves there once its carried
    gradient test passes, a based stage only once the exact gradient at X
    passes too, and any stage once it has taken k_max steps; an exit that
    a based stage refuses, counted in `OuterStage.refused`, rebases its
    descent at X.  The Rayleigh-Ritz step forms A S from X and A X, the
    residue reuses A S, and the restart scales it into the next stage's
    A X.  So a stage costs one apply per inner step, one at its end and
    one per refused exit, and with the first stage's evaluation a solve
    takes inner + outer + 1 + sum(refused) applies.  The Rayleigh-Ritz
    step and the restart run in float64; the float32 copies
    `SpdOperator.apply` makes live until `solve` returns.

    H0 and the Rayleigh-Ritz step are in units of 2^-e, e the binary
    exponent of tr(A)/2n, so solve(2^k A) repeats solve(A) bit for
    bit, eigenvalues times 2^k, while both lie on one side of
    `SINGLE_SCALE`.  The first stage's weight is `params.beta0` resolved
    as in `SolverParams`.  Its theta_p, of E^T A E for the canonical frame
    E, bounds d_p from above by interlacing (Bhatia and Jain, J. Math.
    Phys. 56, 2015), so the penalty stays exact; it is read off the
    frame's rows of the first apply A E, in units of 2^-e.

    Returns
    -------
    SympEigResult
        Float64 arrays throughout.  Status CONVERGED, MAX_ITERATIONS
        (outer budget exhausted), or NUMERICAL_FAILURE (non-finite
        objective, or a stage's iterate too rank-deficient for the
        Rayleigh-Ritz step), whose text is kept in `message`; that result
        holds the Ritz values, basis and residue of the last completed
        stage, or None, None and nan when no stage completed.  `x_final`
        is the last restart point, the canonical frame before the first,
        whatever ended the solve.
    """
    params = (params or SolverParams()).validate()
    n = op.n
    beta = _initial_beta(op, p, params)
    mean = op.trace() / (2 * n)
    single = SINGLE_SCALE[0] <= mean <= SINGLE_SCALE[1]
    # H0 and Ritz values in units of 2^-e for the binary exponent
    # e of the mean eigenvalue, so that solve(2^k A) repeats solve(A) bit
    # for bit
    unit = math.ldexp(1.0, -math.frexp(mean)[1])
    trace = SolveTrace()
    x = canonical_frame(n, p)
    eps = EPS_FIRST
    status = SolveStatus.MAX_ITERATIONS
    message = s_fin = d_fin = None
    resid = float("nan")
    start = time.perf_counter()
    try:
        with single_precision():
            # stage 0 runs in float32 when `single`, so its first apply does too
            ax = op.apply(x.astype(np.float32) if single else x)
            if params.beta0 is None:
                # E^T A E, whose p-th Williamson value bounds d_p from above
                compressed = williamson_small(unit * ax[np.r_[0:p, n:n + p]])
                beta = min(beta, ETA * float(compressed.d[-1] / unit))
            for stage in range(params.outer_max):
                stage_start = time.perf_counter()
                end, iters, refused = _run_inner(
                    op, x, ax, beta, eps, params, trace, single, unit,
                )
                s_fin, d_fin, as_fin = srr(end.x, end.ax, unit)
                resid = residue(op, s_fin, d_fin, ax=as_fin)
                elapsed = time.perf_counter() - stage_start
                next_beta, next_eps, reason = next_stage(
                    beta, eps, float(d_fin[-1]), resid, params.tol)
                x = restart_point(s_fin, d_fin, next_beta)
                sigma_ratio = None
                if reason != "tol":
                    w = np.linalg.eigvalsh(x.T @ x)
                    sigma_ratio = math.sqrt(max(w[0], 0.0) / w[-1])
                trace.outer.append(
                    OuterStage(stage, beta, eps, d_fin.copy(), iters < params.k_max,
                               iters, refused, resid, sigma_ratio, elapsed, reason)
                )
                if reason == "tol":
                    status = SolveStatus.CONVERGED
                    break
                beta, eps = next_beta, next_eps
                # restart_point scales columns, so on A S it gives A X
                ax = restart_point(as_fin, d_fin, beta)
    except NumericalFailure as exc:
        status = SolveStatus.NUMERICAL_FAILURE
        message = str(exc)
    return _result(x, s_fin, d_fin, status, trace, beta, resid, start, message)
