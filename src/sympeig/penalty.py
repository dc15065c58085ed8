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
solvers call :func:`evaluate` at a stage's start (and `solve` again at
each exit it tries) and take one apply per inner step.  Every
block is computed in the precision of X, float32 or float64
(`operators.as_float`).  Every stage reads its evaluation through one
protocol, `move`, `ensure_gradient`, `image_norm` and `point` (X in
float64); :class:`BasedEval` is the :class:`PenaltyEval` of a float64
base plus a correction in a lower precision.
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
        The carried image term: A X, or H for a :class:`BasedEval`;
        :meth:`move` updates it in place.
    violation : ndarray
        The skew matrix V = X^T J_n X - J_p.
    """

    beta: float
    value: float
    x: np.ndarray = field(repr=False)
    ax: np.ndarray = field(repr=False)
    violation: np.ndarray = field(repr=False)
    # a block of X's shape for M, made by the first gradient
    _scratch: np.ndarray = field(default=None, repr=False, compare=False)
    # products of a block of X's shape with a 2p x 2p matrix that form M
    _m_products = 1

    def ensure_gradient(self, out=None):
        """The gradient A X - J_n M at the current X (M from :meth:`_j_operand`),
        formed anew into `out` when given (a block of X's shape and dtype);
        nothing is cached, so call it once per point."""
        add_flops(self._m_products * (self.x.size * self.violation.shape[1] + self.ax.size))
        if out is None:
            out = np.empty_like(self.ax)
        return j_left(self._j_operand(out), out=out, minuend=self.ax)

    def _j_operand(self, buf):
        """M = X (beta V), in the scratch block; `buf`, the gradient's
        output block, is free until J_n M is subtracted."""
        if self._scratch is None:
            self._scratch = np.empty_like(self.x)
        return np.matmul(self.x, self.beta * self.violation, out=self._scratch)

    def move(self, sd, ray_model, s, value):
        """Carry this evaluation to X - s D along `ray_model` (the ray of
        :func:`ray` from X along D) without an apply: X - sd for the
        displacement `sd` = s D and the image term minus s A D, both in
        place, V + s (s N - K), and `value` = f + Delta(s).  An A D serves
        one move, and `ray_model.ad` is scaled to s A D in place."""
        np.subtract(self.x, sd, out=self.x)
        np.subtract(self.ax, np.multiply(ray_model.ad, s, out=ray_model.ad), out=self.ax)
        self.violation = self.violation + s * (s * ray_model.n - ray_model.k)
        self.value = value

    def image_norm(self):
        """||A X||_F of the carried image."""
        return float(np.sqrt(np.vdot(self.ax, self.ax)))

    def point(self):
        """X in float64 (X itself when it is float64)."""
        return self.x.astype(float, copy=False)


class BasedEval(PenaltyEval):
    """f_beta at X = X0 + E for a float64 base X0 and a correction E in
    `dtype`, the split of iterative refinement: the base holds the
    cancellation A X0 - beta J X0 V0 of the gradient, and the correction,
    which starts at 0, takes the steps.

    From the float64 evaluation `base` at X0 and its gradient C0 it
    carries X in `dtype`, its image term H = C0 + A E in `ax`, and V and
    f, as a :class:`PenaltyEval` does, and E beside them; the gradient
    comes from the products of X with the small V - V0 and of E with V0:

        G = A X0 + A E - beta J X V = H - J (X (beta (V - V0)) + E (beta V0)) .

    V and f stay float64; only M differs from a :class:`PenaltyEval`'s.
    """

    _m_products = 2

    def __init__(self, base, c0, dtype):
        x = base.x.astype(dtype)
        super().__init__(base.beta, base.value, x, c0.astype(dtype), base.violation,
                         np.empty_like(x))
        self._base = base
        self._image_norm = base.image_norm()
        self._e = np.zeros_like(x)
        self._beta_v0 = (base.beta * base.violation).astype(dtype)
        self._beta_dv = np.empty_like(self._beta_v0)

    def _j_operand(self, buf):
        """M = X (beta dV) + E (beta V0), in the scratch block; `buf` holds
        E (beta V0) until the sum."""
        # two products rather than one of a stacked [X | E]: E as a strided
        # half of that block made each move's E - sd cost more than the
        # second product saves (400 x 20 float32, one Xeon vCPU: 14 against
        # 2.5 us)
        beta_dv = np.subtract(self.violation, self._base.violation, out=self._beta_dv)
        beta_dv *= self.beta
        m = np.matmul(self.x, beta_dv, out=self._scratch)
        m += np.matmul(self._e, self._beta_v0, out=buf)
        return m

    def move(self, sd, ray_model, s, value):
        """:meth:`PenaltyEval.move`, and E - sd in place."""
        super().move(sd, ray_model, s, value)
        np.subtract(self._e, sd, out=self._e)

    def image_norm(self):
        """||A X0||_F of the base, which the gradient test takes for ||A X||_F."""
        return self._image_norm

    def point(self):
        """X0 + E in float64."""
        return self._base.x + self._e


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
    return PenaltyEval(float(beta), value, x, ax, v)


def ray(x, v, d, ad, beta, slope):
    """The exact quartic of f_beta along X - s D.

    Parameters
    ----------
    x, d : ndarray, shape (2n, 2p)
        The point and the direction.
    v : ndarray, shape (2p, 2p)
        The violation X^T J_n X - J_p at X.  K and N are formed in its
        dtype, so a float64 V keeps the quartic's small terms out of
        float32's underflow whatever the precision of X and D.
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
    xjd = (x[:h].T @ d[h:]).astype(v.dtype, copy=False)
    xjd -= x[h:].T @ d[:h]
    k = xjd - xjd.T
    m = (d[:h].T @ d[h:]).astype(v.dtype, copy=False)
    n = m - m.T
    c2 = 0.5 * float(np.vdot(d, ad)) + 0.25 * beta * (
        float(np.vdot(k, k)) + 2.0 * float(np.vdot(v, n)))
    c3 = -0.5 * beta * float(np.vdot(k, n))
    c4 = 0.25 * beta * float(np.vdot(n, n))
    return Ray((-float(slope), c2, c3, c4), ad, k, n)
