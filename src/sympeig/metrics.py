"""Subspace and eigen-residual error measures."""

import numpy as np

from .operators import j_left
from .penalty import violation


def _orthonormal(x):
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diagonal(r))
    if diag.size == 0 or diag.min() <= max(x.shape) * np.finfo(float).eps * diag.max():
        raise ValueError("rank-deficient basis in subspace error")
    return q


def golub_werman(x, x_ref):
    """Frobenius distance between the orthogonal projectors onto
    span(x) and span(x_ref).

    With orthonormal bases Q_1, Q_2 and projectors P_i = Q_i Q_i^T it
    sums the residuals of projecting each basis onto the other span,
    ||P_1 - P_2||_F^2 = ||Q_2 - P_1 Q_2||_F^2 + ||Q_1 - P_2 Q_1||_F^2,
    which stays accurate at small distances, holds for unequal widths,
    and forms no 2n-by-2n intermediate.  Symmetric in its arguments and
    invariant under right-multiplication of either one by an invertible
    matrix.
    """
    x = np.asarray(x, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if x.shape[0] != x_ref.shape[0]:
        raise ValueError(f"row counts differ: {x.shape[0]} vs {x_ref.shape[0]}")
    q1 = _orthonormal(x)
    q2 = _orthonormal(x_ref)
    cross = q1.T @ q2
    return float(np.hypot(np.linalg.norm(q2 - q1 @ cross),
                          np.linalg.norm(q1 - q2 @ cross.T)))


def feasibility(x):
    """Symplecticity violation ||X^T J_n X - J_p||_F of a basis X."""
    return float(np.linalg.norm(violation(x)))


def residue(op, x, d, ax=None):
    """Relative eigen-residual ||A X - J_n X J_p^T D||_F / ||A X||_F
    with D = diag(d, d) for positive finite d, both J products formed by
    permuting and negating blocks, the subtraction fused into the second.

    `ax` is A X when the caller already holds it (as `srr` does); the
    operator is applied otherwise."""
    x = np.asarray(x, dtype=float)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if x.ndim != 2 or x.shape[1] != 2 * d.size:
        raise ValueError(f"basis shape {x.shape} does not match {d.size} eigenvalues")
    if not (d > 0).all() or not np.isfinite(d).all():
        raise ValueError("eigenvalues must be positive and finite")
    if not np.linalg.norm(x):
        raise ValueError("residue of a zero basis is undefined")
    if ax is None:
        ax = op.apply(x)
    elif np.shape(ax) != x.shape:
        raise ValueError(f"image shape {np.shape(ax)} does not match basis {x.shape}")
    # X J_p^T = [X_2, -X_1]: roll the column halves, and put the sign on D
    r = j_left(np.roll(x, d.size, axis=1) * np.concatenate([d, -d]), minuend=ax)
    return float(np.linalg.norm(r) / np.linalg.norm(ax))
