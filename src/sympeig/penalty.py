"""Zero-, first-, and second-order oracles of the trace-penalty objective.

For an SPD operator A on R^(2n), a basis X in R^(2n x 2p), and a
penalty weight beta > 0,

    f_beta(X) = 1/2 <X, A X> + (beta/4) ||X^T J_n X - J_p||_F^2 ,

with gradient

    grad f_beta(X) = A X - beta J_n (X V),  V = X^T J_n X - J_p .

A is linear, so along a direction D the objective is an exact quartic
in the step: f(X - s D) - f(X) = c1 s + c2 s^2 + c3 s^3 + c4 s^4
(:func:`ray`).  One apply A D, made by the caller, gives the
coefficients, and the point X - s D follows from it with A X and V
updated in place of a new apply (:meth:`PenaltyEval.move`), so the
solvers call :func:`evaluate` once per stage and take one apply per
inner step.  Every block is computed in the precision of X, float32 or
float64 (`operators.as_float`).
"""

from dataclasses import dataclass, field

import numpy as np

from .flops import add_flops
from .operators import as_float, j_left, symplectic_gram


@dataclass
class PenaltyEval:
    """f_beta at one point X with its building blocks, as returned by
    :func:`evaluate` and carried along rays by :meth:`move`;
    :meth:`ensure_gradient` forms the gradient from them.

    Attributes
    ----------
    beta : float
    value : float
        f_beta(X).
    x : ndarray
        The point X; :meth:`move` updates it in place.
    ax : ndarray
        A X; :meth:`move` updates it in place.
    violation : ndarray
        The skew matrix V = X^T J_n X - J_p.
    """

    beta: float
    value: float
    x: np.ndarray = field(repr=False)
    ax: np.ndarray = field(repr=False)
    violation: np.ndarray = field(repr=False)
    # a block of X's shape for X (beta V), handed in by `evaluate`
    _scratch: np.ndarray = field(repr=False, compare=False)

    def ensure_gradient(self, out=None):
        """The gradient A X - J_n (X (beta V)) at the current X, formed
        anew from the held blocks into `out` when given (a block of X's
        shape and dtype); nothing is cached, so call it once per point."""
        add_flops(self.x.size * self.violation.shape[1] + self.ax.size)
        xv = np.matmul(self.x, self.beta * self.violation, out=self._scratch)
        gr = j_left(xv, out=out)
        return np.subtract(self.ax, gr, out=gr)

    def move(self, sd, ray_model, s, value):
        """Carry this evaluation to X - s D along `ray_model` (the ray of
        :func:`ray` from X along D) without an apply: X - sd for the
        displacement `sd` = s D and A X - s A D, both in place, V + s (s N
        - K), and `value` = f + Delta(s).  An A D serves one move, and
        `ray_model.ad` is scaled to s A D in place."""
        np.subtract(self.x, sd, out=self.x)
        np.subtract(self.ax, np.multiply(ray_model.ad, s, out=ray_model.ad), out=self.ax)
        self.violation = self.violation + s * (s * ray_model.n - ray_model.k)
        self.value = value


@dataclass
class Ray:
    """f_beta along X - s D, as returned by :func:`ray`.

    Attributes
    ----------
    coeffs : tuple of float
        (c1, c2, c3, c4) with f(X - s D) - f(X) = c1 s + c2 s^2
        + c3 s^3 + c4 s^4.
    ad : ndarray
        A D.
    k : ndarray
        The skew matrix K = X^T J_n D - (X^T J_n D)^T.
    n : ndarray
        The skew matrix N = D^T J_n D.
    """

    coeffs: tuple
    ad: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)
    n: np.ndarray = field(repr=False)


def violation(x):
    """Constraint violation X^T J_n X - J_p (skew, 2p x 2p)."""
    g = symplectic_gram(x)
    if g.shape[0] % 2:
        raise ValueError(f"basis must have 2p columns, got {g.shape[0]}")
    # subtract J_p in place, touching only the two identity blocks: in the
    # flat view of the (C-contiguous, 2p x 2p) Gram, entry (i, p + i) sits
    # at p + i (2p + 1) and entry (p + i, i) at 2p^2 + i (2p + 1)
    p = g.shape[0] // 2
    flat = g.reshape(-1)
    flat[p:2 * p * p:2 * p + 1] -= 1.0
    flat[2 * p * p::2 * p + 1] += 1.0
    return g


def evaluate(op, x, beta, ax=None):
    """Evaluate f_beta at X.

    Parameters
    ----------
    op : SpdOperator
    x : array_like, shape (2n, 2p)
        Float32 or float64; other input becomes float64.  An ndarray of
        that dtype is held, not copied, so :meth:`PenaltyEval.move`
        updates it in place.
    beta : float
        Penalty weight, > 0.
    ax : array_like, optional
        A X when the caller already holds it, held like `x`; the operator
        is applied otherwise.

    Returns
    -------
    PenaltyEval
        The value and the blocks :meth:`PenaltyEval.ensure_gradient` reads.
    """
    if beta <= 0:
        raise ValueError(f"penalty weight must be positive, got {beta}")
    x = as_float(x)
    if x.ndim != 2 or x.shape[1] % 2:
        raise ValueError(f"basis must be 2n-by-2p, got shape {x.shape}")
    if ax is None:
        ax = op.apply(x)
    else:
        ax = np.asarray(ax, dtype=x.dtype)
        if ax.shape != x.shape:
            raise ValueError(f"image shape {ax.shape} does not match basis {x.shape}")
    add_flops(x.size)
    trace_term = 0.5 * float(np.vdot(x, ax))
    v = violation(x)
    add_flops(v.size)
    feasibility = float(np.linalg.norm(v))
    value = trace_term + 0.25 * beta * feasibility * feasibility
    return PenaltyEval(float(beta), value, x, ax, v, np.empty_like(x))


def ray(x, v, d, ad, beta, slope):
    """The exact quartic of f_beta along X - s D.

    Parameters
    ----------
    x, d : ndarray, shape (2n, 2p)
        The point and the direction.
    v : ndarray, shape (2p, 2p)
        The violation X^T J_n X - J_p at X.
    ad : ndarray, shape (2n, 2p)
        A D, in the dtype of `d`; the caller applies the operator and so
        chooses the precision of the apply.
    beta : float
    slope : float
        <grad f_beta(X), D>, so c1 = -slope.

    Returns
    -------
    Ray
        With K = X^T J D - (X^T J D)^T and N = D^T J D,

            c2 = 1/2 <D, A D> + (beta/4)(||K||^2 + 2 <V, N>)
            c3 = -(beta/2) <K, N>
            c4 = (beta/4) ||N||^2 .

        The thin products X^T J D and D^T J D; no apply.
    """
    rows, cols = d.shape
    add_flops(3 * rows * cols * cols // 2 + d.size)
    # J D = [D_2; -D_1] for the row halves D_1, D_2, so the products
    # with J D need no copy of it
    h = rows // 2
    xjd = x[:h].T @ d[h:]
    xjd -= x[h:].T @ d[:h]
    k = xjd - xjd.T
    m = d[:h].T @ d[h:]
    n = m - m.T
    c2 = 0.5 * float(np.vdot(d, ad)) + 0.25 * beta * (
        float(np.vdot(k, k)) + 2.0 * float(np.vdot(v, n)))
    c3 = -0.5 * beta * float(np.vdot(k, n))
    c4 = 0.25 * beta * float(np.vdot(n, n))
    return Ray((-float(slope), c2, c3, c4), ad, k, n)
