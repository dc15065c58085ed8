"""Dense reference solver for desk-scale validation.

Densifies the operator and runs the full-size Williamson
diagonalization, giving exact symplectic eigenvalues, the complete
symplectic eigenvector matrix, and reference subspaces for error
measures.  Also provides exactly-symplectic random test frames.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .factor import williamson_small
from .operators import j_left


@dataclass
class ReferenceSpectrum:
    """Full symplectic spectrum of a (densified) operator.

    Attributes
    ----------
    d : ndarray, length n
        All symplectic eigenvalues, ascending.
    s_full : ndarray, shape (2n, 2n)
        Symplectic eigenvector matrix, S^T A S = diag(d, d).
    """

    d: np.ndarray
    s_full: np.ndarray

    def frame(self, p):
        """Columns of s_full for the p smallest eigenvalue pairs, in
        [first halves | second halves] layout."""
        n = self.d.size
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= {n}, got {p}")
        return self.s_full[:, np.r_[0:p, n : n + p]]


def reference(op):
    """Exact symplectic spectrum of `op` by dense diagonalization.

    Parameters
    ----------
    op : SpdOperator
        Densified internally; 2n must stay within `DENSE_MAX_DIM`.

    Returns
    -------
    ReferenceSpectrum
        Its ``frame(p)`` gives the reference basis of the p smallest pairs.
    """
    wf = williamson_small(op.densify())
    return ReferenceSpectrum(d=wf.d, s_full=wf.s)


def random_symplectic_frame(n, p, rng):
    """Random frame in Sp(2p, 2n): exp(J_n H) applied to the canonical
    frame, with H random symmetric scaled so ||J_n H||_2 <= 2."""
    h = rng.standard_normal((2 * n, 2 * n))
    h = 0.5 * (h + h.T)
    jh = j_left(h)
    jh *= rng.uniform(0.0, 2.0) / np.linalg.norm(jh, 2)
    s = scipy.linalg.expm(jh)
    return s[:, np.r_[0:p, n : n + p]]
