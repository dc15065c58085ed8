"""Symplectic SVD, small dense Williamson diagonalization, the dense
reference spectrum of an operator, and the symplectic Rayleigh-Ritz
refinement.

The common engine is the real Schur form of a skew-symmetric matrix K,
whose 2x2 blocks [[0, d], [-d, 0]] are sign-normalized (d > 0 by
swapping the block's column pair), stably sorted ascending in d, and
re-interleaved so that Q^T K Q = [[0, D], [-D, 0]] with D = diag(d).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalFailure
from .operators import j_left, symplectic_gram


@dataclass
class WilliamsonForm:
    """S^T M S = diag(d, d) with S symplectic and d ascending."""

    s: np.ndarray
    d: np.ndarray

    def frame(self, p):
        """Columns of s for the p smallest eigenvalue pairs, in
        [first halves | second halves] layout."""
        n = self.d.size
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= {n}, got {p}")
        return self.s[:, np.r_[0:p, n : n + p]]


def _skew_schur_pairs(k, dtol):
    """Normalized, sorted Schur pairing of a skew-symmetric matrix.

    Returns (q, d, deficient): q orthogonal with columns arranged as
    [u_1..u_m, v_1..v_m] so that u_i^T k v_j = d_i delta_ij, d ascending;
    `deficient` counts pairs missing or at/below `dtol`.
    """
    t, q = scipy.linalg.schur(k)
    dim = k.shape[0]
    # relative to ||K||_F only, so the pairing of cK is that of K for any c > 0;
    # the norm is taken of K / max|K|, whose sum of squares cannot overflow
    kmax = float(np.max(np.abs(k), initial=0.0))
    detect = np.finfo(float).eps * kmax * float(np.linalg.norm(k / (kmax or 1.0), "fro"))
    pairs = []
    singles = 0
    i = 0
    while i < dim:
        if i + 1 < dim and abs(t[i + 1, i]) > detect:
            d = float(t[i, i + 1])
            if d >= 0.0:
                pairs.append((d, i, i + 1))
            else:
                pairs.append((-d, i + 1, i))
            i += 2
        else:
            singles += 1
            i += 1
    pairs.sort(key=lambda item: item[0])
    d = np.array([item[0] for item in pairs])
    deficient = singles // 2 + int(np.count_nonzero(d <= dtol))
    cols = [item[1] for item in pairs] + [item[2] for item in pairs]
    return q[:, cols], d, deficient


def ssvd(x):
    """Symplectic singular value decomposition of a full-rank basis.

    Parameters
    ----------
    x : ndarray, shape (2n, 2p)

    Returns
    -------
    (s, sigma, t) : ndarray triple
        X = S Sigma T^T with S symplectic, T orthogonal, and Sigma the
        doubled diagonal (sigma_1..sigma_p, sigma_1..sigma_p).

    Raises
    ------
    NumericalFailure
        If the basis is rank-deficient: any symplectic singular value
        falls at or below tol = 1e-10 * ||X||_2.  The message gives the
        count of deficient pairs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] % 2:
        raise ValueError(f"basis must be 2n-by-2p, got shape {x.shape}")
    p = x.shape[1] // 2
    tol = 1e-10 * (np.linalg.norm(x, 2) if x.size else 0.0)
    gram = symplectic_gram(x)
    q, d, deficient = _skew_schur_pairs(gram, dtol=tol * tol)
    if deficient or d.size != p:
        deficient = max(deficient, p - d.size)
        raise NumericalFailure(
            f"basis numerically rank-deficient in {deficient} symplectic "
            f"direction(s) at tolerance {tol:g}"
        )
    sigma = np.sqrt(np.concatenate([d, d]))
    s = (x @ q) / sigma
    return s, sigma, q


def williamson_small(m):
    """Williamson normal form of a dense SPD matrix.

    Parameters
    ----------
    m : ndarray, shape (2k, 2k)
        Symmetric positive definite input (dense path; meant for
        moderate k).

    Returns
    -------
    WilliamsonForm
        S with S^T M S = diag(d, d), S^T J_k S = J_k, d ascending.

    Notes
    -----
    Uses R = M^(1/2) from a symmetric eigendecomposition, the Schur
    pairing of the skew matrix K = R J_k R, and S = R^(-1) Q diag(d, d)^(1/2).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"need a square even-dimensional matrix, got {m.shape}")
    sym = 0.5 * (m + m.T)
    try:
        w, u = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    if w[0] <= 0.0:
        raise NumericalFailure(
            f"matrix is not positive definite (smallest eigenvalue {w[0]:g})"
        )
    root_w = np.sqrt(w)
    r = (u * root_w) @ u.T
    r_inv = (u / root_w) @ u.T
    k_skew = r @ j_left(r)
    k_skew = 0.5 * (k_skew - k_skew.T)
    dtol = np.finfo(float).eps * float(np.linalg.norm(k_skew, "fro"))
    q, d, deficient = _skew_schur_pairs(k_skew, dtol=dtol)
    if deficient or d.size != m.shape[0] // 2:
        raise NumericalFailure(
            "symplectic spectrum collapsed; input is numerically singular"
        )
    scale = np.sqrt(np.concatenate([d, d]))
    s = (r_inv @ q) * scale
    return WilliamsonForm(s=s, d=d)


def reference(op):
    """Exact symplectic spectrum of `op` (densified, so 2n must stay within
    `DENSE_MAX_DIM`): the WilliamsonForm of all n pairs, whose ``frame(p)``
    is the reference basis of the p smallest."""
    return williamson_small(op.densify())


def srr(x, ax, unit=1.0):
    """Symplectic Rayleigh-Ritz refinement of span(X) from X and its image
    A X.

    Runs ssvd, X = S Sigma T^T, to get a symplectic basis S of the span
    and its image A S = (A X) T Sigma^-1, so no apply is made;
    Williamson-diagonalizes the projected matrix S^T (A S), taken in units
    of `unit` (a power of two, so that the Ritz values of 2^k A in units
    of 2^-k unit are those of A exactly), and rotates S into the refined
    eigenbasis.

    Returns
    -------
    (s_fin, d_fin, a_s_fin) : ndarray triple
        s_fin in Sp(2p, 2n) with s_fin^T A s_fin = diag(d_fin, d_fin)
        up to round-off; d_fin ascending (the Ritz values); a_s_fin is
        A s_fin, formed as (A S) W, so the caller needs no further apply
        for the residual.
    """
    s, sigma, t = ssvd(x)
    a_s = (ax @ t) / sigma
    wf = williamson_small(unit * (s.T @ a_s))
    return s @ wf.s, wf.d / unit, a_s @ wf.s


def restart_point(s_fin, d_fin, beta):
    """Scale a refined eigenbasis into the penalty minimizer
    S (I - D/beta)^(1/2); negative diagonal entries are clamped at 1e-12."""
    if beta <= 0:
        raise ValueError(f"penalty weight must be positive, got {beta}")
    d_fin = np.asarray(d_fin, dtype=float)
    w = np.sqrt(np.maximum(1.0 - d_fin / beta, 1e-12))
    return np.asarray(s_fin, dtype=float) * np.concatenate([w, w])
