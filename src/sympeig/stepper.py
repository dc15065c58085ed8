"""The inner step of both solver variants: the clamped BB step length,
the L-BFGS direction that the enhanced variant scales by it, and the
nonmonotone (GLL) backtracking line search that accepts the step."""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

GAMMA0 = 1e-4  # first BB step length
GAMMA_LO = 1e-8  # step clamp, lower
GAMMA_HI = 1e5  # step clamp, upper
MEMORY = 3  # L-BFGS curvature pairs kept by the enhanced variant
DELTA = 0.5  # line-search backtracking factor
LAM = 1e-8  # line-search sufficient-decrease weight
WINDOW = 50  # nonmonotone memory L
MAX_BACKTRACKS = 60
_DEGENERATE = 1e-30


def bb_step(s, z, k, alternate=True):
    """Length of inner step `k`: the clamped Barzilai-Borwein step.

    Step 0 is `GAMMA0`.  Otherwise `s` = X^(k) - X^(k-1) and `z` =
    G^(k) - G^(k-1) are the iterate and gradient differences.  With
    `alternate`, even k uses <S,S>/|<S,Z>| (BB1) and odd k uses
    |<S,Z>|/<Z,Z> (BB2); without it every step is BB2, the L-BFGS scale
    H0 = gamma I.  A denominator below 1e-30 gives `GAMMA_HI`.  The
    value is clamped into [GAMMA_LO, GAMMA_HI].
    """
    if k == 0:
        return GAMMA0
    if s is None or z is None:
        raise ValueError("bb_step needs the previous iterate and gradient differences")
    sz = abs(float(np.vdot(s, z)))
    if alternate and k % 2 == 0:
        numer, denom = float(np.vdot(s, s)), sz
    else:
        numer, denom = sz, float(np.vdot(z, z))
    gamma = GAMMA_HI if denom < _DEGENERATE else numer / denom
    return min(max(gamma, GAMMA_LO), GAMMA_HI)


def lbfgs_direction(g, pairs, gamma):
    """L-BFGS two-loop product d = H g (Nocedal & Wright, Alg. 7.4).

    `pairs` holds the newest curvature pairs (s, y, 1/<s, y>) oldest
    first, each with <s, y> > 0, and H0 = gamma I; with no pairs d is
    gamma g.  H is then positive definite, so <g, d> > 0.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(np.vdot(s, q)))
        q -= alphas[-1] * y
    q *= gamma
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(np.vdot(y, q))) * s
    return q


@dataclass
class LineSearchResult:
    t: int
    x: np.ndarray
    f: float
    aux: object
    capped: bool


def gll_search(f_eval, x, d, gamma, slope, f_window):
    """Nonmonotone backtracking line search along the direction -d.

    Finds the smallest integer t >= 0 with

        f(x - DELTA^t gamma d) <= max(f_window) - LAM DELTA^t gamma slope

    Parameters
    ----------
    f_eval : callable
        Maps a trial point to ``(value, aux)``; `aux` is passed through
        so the caller can reuse cached quantities of the accepted point.
    x, d : ndarray
        Current iterate and search direction: the gradient g for a BB
        step, the L-BFGS product H g otherwise.
    gamma : float
        Trial step, > 0: the BB length along g, 1 along H g.
    slope : float
        <g, d> > 0, the decrease rate the test weighs by LAM.
    f_window : iterable of float
        Objective values over the nonmonotone window.

    Returns
    -------
    LineSearchResult
        Backtracking is capped at t <= 60; a capped result is the last
        trial point with ``capped=True`` even though the condition failed.
    """
    fmax = max(f_window)
    step = float(gamma)
    for t in range(MAX_BACKTRACKS + 1):
        xt = step * d
        np.subtract(x, xt, out=xt)
        ft, aux = f_eval(xt)
        if not np.isfinite(ft):
            raise NumericalFailure(
                f"objective not finite at line-search trial t={t} (step {step:g})"
            )
        if ft <= fmax - LAM * step * slope:
            return LineSearchResult(t, xt, ft, aux, False)
        step *= DELTA
    return LineSearchResult(MAX_BACKTRACKS, xt, ft, aux, True)
