"""Zero-, first-, and second-order oracles of the trace-penalty objective.

For an SPD operator A on R^(2n), a basis X in R^(2n x 2p), and a
penalty weight beta > 0,

    f_beta(X) = 1/2 <X, A X> + (beta/4) ||X^T J_n X - J_p||_F^2 ,

with gradient

    grad f_beta(X) = A X - beta J_n X (X^T J_n X - J_p) .

Evaluations cache A X, J_n X, and the constraint violation so a
follow-up gradient costs one extra matrix product.
"""

from dataclasses import dataclass, field

import numpy as np

from .flops import add_flops
from .operators import j_left, symplectic_gram


@dataclass
class PenaltyEval:
    """One evaluation of f_beta with its cached building blocks, as
    returned by :func:`evaluate`; :meth:`ensure_gradient` is the one way
    to form the gradient.

    Attributes
    ----------
    beta : float
    value : float
        f_beta(X).
    ax : ndarray
        Cached A X.
    jx : ndarray
        Cached J_n X.
    violation : ndarray
        Cached skew matrix X^T J_n X - J_p.
    gradient : ndarray or None
        None until the first :meth:`ensure_gradient` call.
    """

    beta: float
    value: float
    ax: np.ndarray
    jx: np.ndarray = field(repr=False)
    violation: np.ndarray = field(repr=False)
    gradient: np.ndarray = field(default=None, repr=False)

    def ensure_gradient(self):
        """Complete A X - beta J_n X (X^T J_n X - J_p) from the cache."""
        if self.gradient is None:
            rows, inner = self.jx.shape
            add_flops(rows * inner * self.violation.shape[1] + self.ax.size)
            gr = self.jx @ self.violation
            gr *= self.beta
            np.subtract(self.ax, gr, out=gr)
            self.gradient = gr
        return self.gradient


def violation(x, jx=None):
    """Constraint violation X^T J_n X - J_p (skew, 2p x 2p).

    `jx` is ``j_left(x)`` when the caller already holds it.
    """
    g = symplectic_gram(x, jx=jx)
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


def evaluate(op, x, beta):
    """Evaluate f_beta at X.

    Parameters
    ----------
    op : SpdOperator
    x : array_like, shape (2n, 2p)
    beta : float
        Penalty weight, > 0.

    Returns
    -------
    PenaltyEval
        The value and the cached blocks; the gradient is formed only by
        :meth:`PenaltyEval.ensure_gradient`, so a rejected line-search
        trial never pays for it.
    """
    if beta <= 0:
        raise ValueError(f"penalty weight must be positive, got {beta}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] % 2:
        raise ValueError(f"basis must be 2n-by-2p, got shape {x.shape}")
    ax = op.apply(x)
    add_flops(x.size)
    trace_term = 0.5 * float(np.vdot(x, ax))
    jx = j_left(x)
    v = violation(x, jx=jx)
    add_flops(v.size)
    feasibility = float(np.linalg.norm(v))
    value = trace_term + 0.25 * beta * feasibility * feasibility
    return PenaltyEval(float(beta), value, ax, jx, v)


def hess_quadform(op, x, y, beta):
    """Second directional derivative of f_beta at X along Y.

    Returns
    -------
    float
        tr(Y^T A Y) - beta tr((Y^T J_n Y)(X^T J_n X - J_p))
        + (beta/2) ||Y^T J_n X + X^T J_n Y||_F^2.
    """
    if beta <= 0:
        raise ValueError(f"penalty weight must be positive, got {beta}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"direction shape {y.shape} does not match X {x.shape}")
    ay = op.apply(y)
    term_a = float(np.vdot(y, ay))
    jx = j_left(x)
    jy = j_left(y)
    gram_y = symplectic_gram(y, jx=jy)
    # tr(M N) for the two skew factors
    term_b = -beta * float(np.sum(gram_y * violation(x, jx=jx).T))
    cross = y.T @ jx
    sym_cross = cross - cross.T  # Y^T J X + X^T J Y
    term_c = 0.5 * beta * float(np.vdot(sym_cross, sym_cross))
    return term_a + term_b + term_c
