"""Alternating BB step sizes, clamping/randomization, and the
nonmonotone (GLL) backtracking line search."""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

MAX_BACKTRACKS = 60
_DEGENERATE = 1e-30


def bb_step(s, z, k, gamma_hi=np.inf):
    """Alternating Barzilai-Borwein step length.

    `s` = X^(k) - X^(k-1) and `z` = G^(k) - G^(k-1) are the iterate and
    gradient differences, `k` the index of the step about to be taken.
    Even k uses <S,S>/|<S,Z>|, odd k uses |<S,Z>|/<Z,Z>.  A denominator
    below 1e-30 falls back to `gamma_hi` (the caller clamps anyway).
    """
    if k < 1 or s is None or z is None:
        raise ValueError("bb_step needs the previous iterate and gradient differences")
    sz = abs(float(np.vdot(s, z)))
    if k % 2 == 0:
        numer, denom = float(np.vdot(s, s)), sz
    else:
        numer, denom = sz, float(np.vdot(z, z))
    if denom < _DEGENERATE:
        return float(gamma_hi)
    return numer / denom


def clamp_randomize(gamma, gamma_lo, gamma_hi, xi_lo, xi_hi, rng):
    """Clamp gamma into [gamma_lo, gamma_hi], then scale by xi ~ U[xi_lo, xi_hi]."""
    if not 0 < gamma_lo <= gamma_hi:
        raise ValueError(f"invalid step bounds ({gamma_lo}, {gamma_hi})")
    if not 0 < xi_lo <= xi_hi:
        raise ValueError(f"invalid randomization bounds ({xi_lo}, {xi_hi})")
    clamped = min(max(gamma, gamma_lo), gamma_hi)
    return float(rng.uniform(xi_lo, xi_hi)) * clamped


@dataclass
class LineSearchResult:
    t: int
    x: np.ndarray
    f: float
    aux: object
    capped: bool


def gll_search(f_eval, x, g, gamma, delta, lam, f_window):
    """Nonmonotone backtracking line search.

    Finds the smallest integer t >= 0 with

        f(x - delta^t gamma g) <= max(f_window) - lam delta^t gamma ||g||_F^2

    Parameters
    ----------
    f_eval : callable
        Maps a trial point to ``(value, aux)``; `aux` is passed through
        so the caller can reuse cached quantities of the accepted point.
    x, g : ndarray
        Current iterate and gradient (g nonzero).
    gamma : float
        Trial step, > 0.
    delta, lam : float
        Backtracking factor and sufficient-decrease weight, both in (0, 1).
    f_window : iterable of float
        Objective values over the nonmonotone window.

    Returns
    -------
    LineSearchResult
        Backtracking is capped at t <= 60; a capped result is the last
        trial point with ``capped=True`` even though the condition failed.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"backtracking factor must be in (0, 1), got {delta}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"decrease weight must be in (0, 1), got {lam}")
    if gamma <= 0:
        raise ValueError(f"trial step must be positive, got {gamma}")
    fmax = max(f_window)
    gnorm2 = float(np.vdot(g, g))
    if gnorm2 == 0.0:
        raise ValueError("line search called with a zero gradient")
    step = float(gamma)
    for t in range(MAX_BACKTRACKS + 1):
        xt = step * g
        np.subtract(x, xt, out=xt)
        ft, aux = f_eval(xt)
        if not np.isfinite(ft):
            raise NumericalFailure(
                f"objective not finite at line-search trial t={t} (step {step:g})"
            )
        if ft <= fmax - lam * step * gnorm2:
            return LineSearchResult(t, xt, ft, aux, False)
        step *= delta
    return LineSearchResult(MAX_BACKTRACKS, xt, ft, aux, True)
