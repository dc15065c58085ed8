"""Symplectic SVD, small dense Williamson diagonalization, the dense
reference spectrum of an operator, and the symplectic Rayleigh-Ritz
refinement.

The common engine pairs a 2m-by-2m skew-symmetric matrix K by one
Hermitian eigensolve: iK has the eigenvalues +-d, and the eigenvectors
Z of its m largest, d ascending, give the orthogonal Q = sqrt(2) [Im Z |
Re Z] with Q^T K Q = [[0, D], [-D, 0]], D = diag(d).

Below `SCIPY_MIN_DIM` both factorizations run on numpy's LAPACK, so a
solve, whose factorizations are 2p-sized, loads no scipy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, check_number
from .operators import symplectic_gram

# dimension 2m from which iK is paired by scipy's `evr` subset of its m
# largest eigenpairs (zheevr) instead of numpy's full `eigh` (zheevd), and
# L^T S = Q solved by `solve_triangular` instead of numpy's LU `solve`; one
# thread, random K: full against subset 9.2 vs 14.4 ms at 2m = 200, 70.8 vs
# 69.8 ms at 400 and 0.73 vs 0.50 s at 800; LU against triangular solve
# 0.081 vs 0.031 s at 800
SCIPY_MIN_DIM = 400


@dataclass
class WilliamsonForm:
    """S^T M S = diag(d, d) with S symplectic and d ascending."""

    s: np.ndarray
    d: np.ndarray

    def frame(self, p):
        """Columns of s for the p smallest eigenvalue pairs, in
        [first halves | second halves] layout."""
        n = self.d.size
        check_number("p", p, integer=True)
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= {n}, got {p}")
        return self.s[:, np.r_[0:p, n : n + p]]


def _skew_pairs(k, dtol):
    """Paired normal form of a skew-symmetric matrix from one Hermitian
    eigensolve.

    Returns (q, d, deficient): q orthogonal with columns arranged as
    [u_1..u_m, v_1..v_m] so that u_i^T k v_j = d_i delta_ij, d ascending;
    `deficient` counts the d at or below max(dtol, eps ||k||_F).  The
    orthogonality of q holds to round-off times ||k||_2 / d_1, since its
    real columns part the eigenvectors of d_i from those of -d_j.
    """
    m = k.shape[0] // 2
    # iK is Hermitian with eigenvalues +-d; for d > 0 an eigenvector
    # (a + i b)/sqrt(2) of +d has K a = d b and K b = -d a
    if k.shape[0] < SCIPY_MIN_DIM:
        d, z = np.linalg.eigh(1j * k, UPLO="U")
        d, z = d[m:], z[:, m:]
    else:
        import scipy.linalg
        d, z = scipy.linalg.eigh(1j * k, lower=False, subset_by_index=[m, 2 * m - 1],
                                 driver="evr")
    # relative to ||K||_F only, so cK has the deficient pairs of K for any c > 0;
    # the norm is taken of K / max|K|, whose sum of squares cannot overflow
    kmax = float(np.max(np.abs(k), initial=0.0))
    floor = np.finfo(float).eps * kmax * float(np.linalg.norm(k / (kmax or 1.0), "fro"))
    deficient = int(np.count_nonzero(d <= max(dtol, floor)))
    return np.sqrt(2.0) * np.hstack([z.imag, z.real]), d, deficient


def ssvd(x):
    """Symplectic singular value decomposition of a full-rank basis.

    Parameters
    ----------
    x : ndarray, shape (2n, 2p)

    Returns
    -------
    (s, sigma, t) : ndarray triple
        X = S Sigma T^T with S symplectic, T orthogonal (to round-off
        times (sigma_p / sigma_1)^2), and Sigma the doubled diagonal
        (sigma_1..sigma_p, sigma_1..sigma_p), ascending.

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
    # ||X||_2 from the 2p x 2p Gram, not an SVD of X (symplectic_gram squares X too)
    tol = 1e-10 * (np.sqrt(np.linalg.eigvalsh(x.T @ x)[-1]) if x.size else 0.0)
    q, d, deficient = _skew_pairs(symplectic_gram(x), tol * tol)
    if deficient:
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
    Uses the Cholesky factor M = L L^T, the skew matrix K = L^T J_k L
    (`symplectic_gram`) paired as Q^T K Q = [[0, D], [-D, 0]] by the
    Hermitian eigensolve of iK, and S = L^(-T) Q diag(d, d)^(1/2), which
    is symplectic since L^(-1) J_k L^(-T) = -K^(-1).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError(f"need a square even-dimensional matrix, got {m.shape}")
    try:
        low = np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("matrix is not positive definite") from exc
    q, d, deficient = _skew_pairs(symplectic_gram(low), 0.0)
    if deficient:
        raise NumericalFailure(
            "symplectic spectrum collapsed; input is numerically singular"
        )
    if m.shape[0] < SCIPY_MIN_DIM:
        # LU of the upper triangular L^T pivots on its diagonal, so it solves
        # by back substitution
        s = np.linalg.solve(low.T, q)
    else:
        import scipy.linalg
        s = scipy.linalg.solve_triangular(low, q, trans="T", lower=True)
    return WilliamsonForm(s=s * np.sqrt(np.concatenate([d, d])), d=d)


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
