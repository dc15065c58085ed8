"""The inner step of both solver variants: the clamped BB step length
(`solve_basic`'s alone), the memoryless BFGS direction (Shanno, Math.
Oper. Res. 3, 1978), the exact minimizing step along a ray of the
quartic penalty, which divides out the direction's scale, and the
nonmonotone (GLL) backtracking line search that accepts the step.  The
search runs on the ray's quartic (`sympeig.penalty.ray`), so a backtrack
costs no apply."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

GAMMA0 = 1e-4  # first BB step length
GAMMA_LO = 1e-8  # step clamp, lower
GAMMA_HI = 1e5  # step clamp, upper
DELTA = 0.5  # line-search backtracking factor
LAM = 1e-8  # line-search sufficient-decrease weight
WINDOW = 50  # nonmonotone memory L
MAX_BACKTRACKS = 60
_DEGENERATE = 1e-30


def bb_step(s, z, k, sz, alternate=True, unit=1.0):
    """Length of inner step `k`: the clamped Barzilai-Borwein step.

    Step 0 is `GAMMA0`.  Otherwise `s` = X^(k) - X^(k-1) and `z` =
    G^(k) - G^(k-1) are the iterate and gradient differences, and `sz`
    is <S,Z>, which the caller takes anyway (None at step 0).  With
    `alternate`, even k uses <S,S>/|<S,Z>| (BB1) and odd k uses
    |<S,Z>|/<Z,Z> (BB2); without it every step is BB2.  A denominator
    below 1e-30 gives `GAMMA_HI`.  The value is clamped into [GAMMA_LO,
    GAMMA_HI].  `solve_basic` is the one caller, with the defaults.

    The constants are in units of `unit`, a power of two: a step length
    scales like 1/A, so with `unit` = 2^-e for an operator scaled by 2^e
    the lengths are those of the unscaled operator times 2^-e, bit for bit.
    """
    if k == 0:
        return GAMMA0 * unit
    if s is None or z is None:
        raise ValueError("bb_step needs the previous iterate and gradient differences")
    # <S,Z> and <Z,Z> in units where the length is unit-free
    sz = abs(sz) * unit
    if alternate and k % 2 == 0:
        numer, denom = float(np.vdot(s, s)), sz
    else:
        numer, denom = sz, float(np.vdot(z, z)) * unit * unit
    gamma = GAMMA_HI if denom < _DEGENERATE else numer / denom
    return min(max(gamma, GAMMA_LO), GAMMA_HI) * unit


def lbfgs_direction(g, pair, gamma, out, work):
    """L-BFGS two-loop product d = H g with one curvature pair (Nocedal &
    Wright, Alg. 7.4), the memoryless BFGS direction, written into `out`.

    `pair` is (s, y, 1/<s, y>) with <s, y> > 0, or None, and H0 = gamma
    I; with no pair d is gamma g.  H is then positive definite, so <g, d>
    > 0.  `out` receives d and `work` the scaled pair vectors: blocks of
    g's shape and dtype that overlap neither g nor the pair, held by the
    caller across steps.  `g` is only read.
    """
    if pair is None:
        return np.multiply(g, gamma, out=out)
    s, y, rho = pair
    alpha = rho * float(np.vdot(s, g))
    np.add(np.multiply(y, -alpha, out=out), g, out=out)  # rounds as g - alpha y
    out *= gamma
    out += np.multiply(s, alpha - rho * float(np.vdot(y, out)), out=work)
    return out


def exact_step(coeffs):
    """The step s > 0 that minimizes the quartic c1 s + c2 s^2 + c3 s^3
    + c4 s^4 of a ray (c1 < 0, c4 >= 0).

    The stationary points solve c1 + 2 c2 s + 3 c3 s^2 + 4 c4 s^3 = 0.
    In w = 1/s that is the monic cubic w^3 + a w^2 + b w + c with
    coefficients divided by c1, which stay bounded as c4 -> 0, so the
    root near the quadratic step -c1 / (2 c2) is the well-conditioned
    one.  The roots come in closed form (trigonometric with three real
    roots, Cardano with one), each positive one is polished by a Newton
    step on the cubic in s, and the one with the lowest quartic value is
    returned.  N = 0 (c3 = c4 = 0) gives -c1 / (2 c2).  With no positive
    minimizer (a ray unbounded below) the result is inf, and without
    descent (c1 not negative) nan; the line search rejects both as
    non-finite.
    """
    c1, c2, c3, c4 = coeffs
    if not c1 < 0.0:
        return math.nan
    if c3 == 0.0 and c4 == 0.0:
        return -c1 / (2.0 * c2) if c2 > 0.0 else math.inf
    a, b, c = 2.0 * c2 / c1, 3.0 * c3 / c1, 4.0 * c4 / c1
    q = (a * a - 3.0 * b) / 9.0
    r = (a * (2.0 * a * a - 9.0 * b) + 27.0 * c) / 54.0
    q3 = q * q * q
    if r * r < q3:
        theta = math.acos(max(-1.0, min(1.0, r / math.sqrt(q3))))
        scale = -2.0 * math.sqrt(q)
        roots = [scale * math.cos((theta + 2.0 * math.pi * j) / 3.0) - a / 3.0
                 for j in range(3)]
    else:
        u = -math.copysign(math.cbrt(abs(r) + math.sqrt(r * r - q3)), r)
        roots = [u + (q / u if u != 0.0 else 0.0) - a / 3.0]
    best, best_value = math.inf, 0.0
    for w in roots:
        if not w > 0.0:
            continue
        s = 1.0 / w
        curvature = 2.0 * c2 + s * (6.0 * c3 + 12.0 * c4 * s)
        if curvature > 0.0:
            s -= (c1 + s * (2.0 * c2 + s * (3.0 * c3 + 4.0 * c4 * s))) / curvature
        value = s * (c1 + s * (c2 + s * (c3 + s * c4)))
        if s > 0.0 and value < best_value:
            best, best_value = s, value
    return best


@dataclass
class LineSearchResult:
    t: int
    step: float
    f: float
    capped: bool


def gll_search(f, coeffs, gamma, f_window):
    """Nonmonotone backtracking line search along a ray of the penalty.

    With Delta(s) = c1 s + c2 s^2 + c3 s^3 + c4 s^4 the exact change of
    the objective from X to X - s D, finds the smallest integer t >= 0
    with s = DELTA^t gamma and

        f + Delta(s) <= max(f_window) - LAM s (-c1) ,

    tested as Delta(s) <= (max(f_window) - f) - LAM s (-c1), so a
    decrease below the rounding of f still counts.

    Parameters
    ----------
    f : float
        Objective at the current iterate.
    coeffs : tuple of float
        (c1, c2, c3, c4) of the ray; -c1 = <g, D> > 0 is the decrease
        rate the test weighs by LAM.
    gamma : float
        Trial step, > 0: the BB length along g, the exact minimizer
        along the L-BFGS direction.
    f_window : iterable of float
        Objective values over the nonmonotone window; ``(f,)`` makes
        the test monotone.

    Returns
    -------
    LineSearchResult
        The accepted step and f + Delta there.  Backtracking is capped at
        t <= 60; a capped result is the last trial with ``capped=True``
        even though the condition failed.

    Raises
    ------
    NumericalFailure
        If Delta is not finite at a trial.
    """
    c1, c2, c3, c4 = coeffs
    headroom = max(f_window) - f
    step = float(gamma)
    for t in range(MAX_BACKTRACKS + 1):
        delta = step * (c1 + step * (c2 + step * (c3 + step * c4)))
        if not math.isfinite(delta):
            raise NumericalFailure(
                f"objective not finite at line-search trial t={t} (step {step:g})"
            )
        if delta <= headroom + LAM * step * c1:
            return LineSearchResult(t, step, f + delta, False)
        if t < MAX_BACKTRACKS:
            step *= DELTA
    return LineSearchResult(MAX_BACKTRACKS, step, f + delta, True)
