"""Dense reference solver for desk-scale validation.

Densifies the operator and runs the full-size Williamson
diagonalization, giving exact symplectic eigenvalues, the complete
symplectic eigenvector matrix, and reference subspaces for error
measures.
"""

from dataclasses import dataclass

import numpy as np

from .factor import williamson_small


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
