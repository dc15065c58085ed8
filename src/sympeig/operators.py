"""Matrix-free SPD operators and Poisson-matrix kernels.

The operator A is a symmetric positive definite 2n-by-2n real matrix
held as B + C C^T: B dense or sparse CSR, C an optional thin dense
factor.  The Poisson matrix

    J_k = [[ 0,  I_k],
           [-I_k, 0 ]]

is never materialized on the large side; products with it are computed
by block permutation and negation in O(k * cols).

Kernels compute in the precision of their operand: float32 stays
float32 and anything else becomes float64.  A float32 apply multiplies
by float32 copies of B and C; inside a :func:`single_precision` block
they are made once per operator and dropped when the block exits.

A dense operator needs numpy alone, and so does the Lanczos run of
`SpdOperator.extreme_eigvals`.  scipy is imported where it is used: by
the CSR constructors and the Matrix Market files.
"""

import contextlib
import os
import threading

import numpy as np

from .errors import NumericalFailure
from .flops import add_flops

# largest dimension 2n that is ever densified or diagonalized densely
DENSE_MAX_DIM = 4000

# most steps of the Lanczos run in `SpdOperator.extreme_eigvals`, whose
# dense check of T takes 1.3 s and 0.16 GB at k = 2000 (one Xeon vCPU);
# a 2-D Laplacian of 2n = 160000, extremes crowded, needs 1184
LANCZOS_MAX_STEPS = 2000

_LOW_RANK_SUFFIX_B = ".B.mtx"
_LOW_RANK_SUFFIX_C = ".C.mtx"


_scope = threading.local()


@contextlib.contextmanager
def single_precision():
    """Keep the float32 copies of B and C that `SpdOperator.apply` makes
    for float32 operands on this thread until the block exits.

    Outside a block each float32 apply copies them afresh.  Nested uses
    restore the enclosing block's copies on exit.
    """
    previous = getattr(_scope, "copies", None)
    _scope.copies = {}
    try:
        yield
    finally:
        _scope.copies = previous


def as_float(x):
    """`x` as an ndarray of float32 if it is one, else of float64."""
    x = np.asarray(x)
    return np.asarray(x, dtype=np.float32 if x.dtype == np.float32 else float)


def _check_square_even(shape, what="matrix"):
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{what} must be square, got shape {shape}")
    if shape[0] % 2:
        raise ValueError(f"{what} must have even dimension, got {shape[0]}")


class SpdOperator:
    """Symmetric positive definite operator A = B + C C^T on R^(2n).

    B is a dense array or a CSR matrix; C is an optional thin dense
    factor, never multiplied out.  Instances are immutable after
    construction and safe to share across threads.  Use one of the
    ``from_*`` constructors.

    Attributes
    ----------
    n : int
        Half-dimension; the operator acts on R^(2n).
    """

    def __init__(self, b, c=None):
        self.n = b.shape[0] // 2
        self._b = b
        self._c = c
        # multiply-adds per operand column: B x, then C^T x and C (C^T x);
        # `size` is every entry of a dense B and the stored ones of a CSR B
        self._flops_per_col = b.size + (0 if c is None else 2 * c.size)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=float)
        _check_square_even(a.shape)
        return cls(a)

    @classmethod
    def from_csr(cls, b):
        from scipy import sparse
        b = sparse.csr_array(b).astype(float)
        _check_square_even(b.shape)
        return cls(b)

    @classmethod
    def from_low_rank(cls, b, c):
        from scipy import sparse
        b = sparse.csr_array(b).astype(float)
        c = np.asarray(c, dtype=float)
        _check_square_even(b.shape, what="sparse part")
        if c.ndim != 2:
            raise ValueError(f"low-rank factor must be 2-D, got shape {c.shape}")
        if c.shape[0] != b.shape[0]:
            raise ValueError(
                f"factor rows {c.shape[0]} do not match sparse part {b.shape[0]}"
            )
        return cls(b, c)

    @property
    def kind(self):
        """Storage form: "dense", "csr", or "slr" (CSR B plus a factor C)."""
        if self._c is not None:
            return "slr"
        return "dense" if isinstance(self._b, np.ndarray) else "csr"

    @property
    def nnz(self):
        """Stored entry count of B and C (a dense B counts every entry)."""
        return self._b.size + (0 if self._c is None else self._c.size)

    def apply(self, x):
        """Return A x for a vector or a block of column vectors.

        Parameters
        ----------
        x : array_like
            Shape (2n,) or (2n, cols) with cols <= 2n.

        Returns
        -------
        ndarray
            A x, same shape as `x`, in float32 for a float32 `x` (see
            :func:`single_precision`) and in float64 otherwise.
        """
        x = as_float(x)
        if x.ndim not in (1, 2):
            raise ValueError(f"operand shape {x.shape} not supported")
        if x.shape[0] != 2 * self.n:
            raise ValueError(
                f"operand has {x.shape[0]} rows, operator needs {2 * self.n}"
            )
        cols = 1 if x.ndim == 1 else x.shape[1]
        if cols > 2 * self.n:
            raise ValueError(f"operand shape {x.shape} not supported")
        add_flops(self._flops_per_col * cols)
        b, c = (self._b, self._c) if x.dtype == float else self._single()
        out = b @ x
        if c is not None:
            out += c @ (c.T @ x)
        return out

    def _single(self):
        """(B, C) in float32, kept for the enclosing `single_precision` block."""
        copies = getattr(_scope, "copies", None)
        found = None if copies is None else copies.get(self)
        if found is None:
            found = (self._b.astype(np.float32),
                     None if self._c is None else self._c.astype(np.float32))
            if copies is not None:
                copies[self] = found
        return found

    def trace(self):
        """tr(A), from the stored diagonal of B plus ||C||_F^2."""
        total = float(self._b.diagonal().sum())
        if self._c is not None:
            total += float((self._c ** 2).sum())
        return total

    def densify(self):
        """Materialize A as a dense array; refuses when 2n exceeds
        `DENSE_MAX_DIM`."""
        if 2 * self.n > DENSE_MAX_DIM:
            raise ValueError(
                f"2n = {2 * self.n} exceeds the dense budget {DENSE_MAX_DIM}; reduce n"
            )
        a = self._b.copy() if isinstance(self._b, np.ndarray) else self._b.toarray()
        if self._c is not None:
            a = a + self._c @ self._c.T
        return a

    def is_symmetric(self):
        """max|B - B^T| <= 1e-12 * max|B| on the stored B; C C^T is
        symmetric by construction."""
        return bool(abs(self._b - self._b.T).max() <= 1e-12 * abs(self._b).max())

    def extreme_eigvals(self):
        """(smallest, largest) eigenvalue of A, to about 1e-14 of the spread,
        from one Lanczos run on `apply`; a 2-by-2 A raises ValueError, a run
        unconverged after `LANCZOS_MAX_STEPS` steps NumericalFailure.

        The plain three-term recurrence from a fixed ``default_rng(0)``
        start keeps its extreme Ritz values accurate without
        reorthogonalization (Paige, Linear Algebra Appl. 34, 1980).  T is
        diagonalized after 20 steps, then after 20 more or a quarter more,
        whichever is later, so the checks cost about twice the last one.
        The run stops at residual bounds beta_k |s_k| <= 1e-8 of T's spread
        at both ends, at an invariant subspace, or after 2n steps.  Inner
        products are numpy's pairwise sums, so on the generator's CSR
        instances (up to n = 20000) the bits did not depend on the BLAS
        thread count; a dense B's apply is a threaded GEMV.
        """
        dim = 2 * self.n
        if dim < 4:
            raise ValueError(f"extreme_eigvals needs 2n >= 4, got 2n = {dim}")
        last = min(dim, LANCZOS_MAX_STEPS)
        q = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        q /= np.sqrt(np.add.reduce(q * q))
        q_prev = np.zeros(dim)
        alpha, beta = [], [0.0]
        lo, hi, check = np.inf, -np.inf, 20
        while True:
            r = self.apply(q)
            alpha.append(float(np.add.reduce(q * r)))
            lo, hi = min(lo, alpha[-1]), max(hi, alpha[-1])
            r -= alpha[-1] * q
            r -= beta[-1] * q_prev
            beta.append(float(np.sqrt(np.add.reduce(r * r))))
            k = len(alpha)
            # beta_k |s_k| <= beta_k, and T's diagonal lies within its
            # spread: a beta_k below 1e-8 of the diagonal's range, as at an
            # invariant subspace, meets both bounds
            if k >= check or k == last or beta[-1] <= 1e-8 * (hi - lo):
                # eigh reads T's lower triangle alone
                t = np.zeros((k, k))
                t.flat[::k + 1] = alpha
                t.flat[k::k + 1] = beta[1:k]
                theta, s = np.linalg.eigh(t)
                bound = beta[-1] * max(abs(s[-1, 0]), abs(s[-1, -1]))
                if k == dim or bound <= 1e-8 * (theta[-1] - theta[0]):
                    return float(theta[0]), float(theta[-1])
                if k == last:
                    raise NumericalFailure(
                        f"extreme_eigvals: the Lanczos run did not converge in {k} steps "
                        f"(2n = {dim}, residual bound {bound:.3g} against T's spread "
                        f"{theta[-1] - theta[0]:.3g}); A may not be symmetric")
                check = max(k + 20, -(-5 * k // 4))
            q_prev, q = q, r / beta[-1]

    def is_spd(self):
        """Positive definiteness of the symmetric part of A: a Cholesky
        factorization when 2n <= `DENSE_MAX_DIM`, else the sign of its
        smallest eigenvalue from one Lanczos run (`extreme_eigvals`)."""
        if 2 * self.n > DENSE_MAX_DIM:
            b = 0.5 * (self._b + self._b.T)
            b = b if isinstance(b, np.ndarray) else b.tocsr()
            return SpdOperator(b, self._c).extreme_eigvals()[0] > 0.0
        a = self.densify()
        try:
            np.linalg.cholesky(0.5 * (a + a.T))
        except np.linalg.LinAlgError:
            return False
        return True


def j_left(x, out=None, minuend=None):
    """Return J_k x for an array x with 2k rows, or minuend - J_k x for a
    `minuend` of x's shape, written into `out` when given (an array of
    x's shape and dtype that does not overlap x).

    Computed by block row permutation and negation, or as the half-block
    ufuncs m_1 - x_2 and m_2 + x_1; no 2k-by-2k matrix is formed.
    """
    x = np.asarray(x)
    if x.shape[0] % 2:
        raise ValueError(f"J product needs an even row count, got {x.shape[0]}")
    k = x.shape[0] // 2
    if out is None:
        out = np.empty_like(x)
    if minuend is None:
        out[:k] = x[k:]
        np.negative(x[:k], out=out[k:])
    else:
        np.subtract(minuend[:k], x[k:], out=out[:k])
        np.add(minuend[k:], x[:k], out=out[k:])
    return out


def symplectic_gram(x):
    """Return the skew part of X^T J_n X.

    Parameters
    ----------
    x : ndarray, shape (2n, 2p)

    Notes
    -----
    The product is explicitly skew-symmetrized as (G - G^T)/2 to
    suppress round-off; the exact value is skew-symmetric.  It is
    computed in the precision of `x` (:func:`as_float`).
    """
    x = as_float(x)
    g = x.T @ j_left(x)
    add_flops(g.shape[0] * g.shape[1] * x.shape[0])
    skew = g - g.T
    skew *= 0.5
    return skew


def poisson(k):
    """Dense Poisson matrix J_k; intended for small (2p-sized) algebra only."""
    eye = np.eye(k)
    zero = np.zeros((k, k))
    return np.block([[zero, eye], [-eye, zero]])


def canonical_frame(n, p):
    """Columns 1..p and n+1..n+p of I_(2n): the canonical symplectic frame."""
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    x = np.zeros((2 * n, 2 * p))
    idx = np.arange(p)
    x[idx, idx] = 1.0
    x[n + idx, p + idx] = 1.0
    return x


def _read_mm(path):
    from scipy.io import mmread
    try:
        m = mmread(path)
    except OSError:
        raise
    except Exception as exc:
        raise OSError(f"{path}: not a readable Matrix Market file ({exc})") from exc
    if m.dtype.kind == "c":
        raise OSError(f"{path}: complex Matrix Market field, a real matrix is needed")
    return m


def load_dense(path):
    """Read a Matrix Market file, array or coordinate format, as a dense
    float array; an unreadable file, or one with a complex field, raises
    OSError."""
    m = _read_mm(path)
    return np.asarray(m if isinstance(m, np.ndarray) else m.toarray(), dtype=float)


def load_matrix(path):
    """Load an operator from Matrix Market storage.

    A single ``.mtx`` file yields a dense or CSR operator depending on
    the file's array/coordinate format; the ``symmetric`` qualifier is
    honored (mirrored on read).  A sparse-plus-low-rank instance is a
    two-file pair ``<base>.B.mtx`` (sparse part) and ``<base>.C.mtx``
    (dense factor); pass the ``.B.mtx`` path.  A missing or unreadable
    file, or one with a complex field, raises OSError.
    """
    path = os.fspath(path)
    if path.endswith(_LOW_RANK_SUFFIX_C):
        raise OSError(
            f"{path}: pass the sparse part (.B.mtx) of the low-rank pair instead"
        )
    if path.endswith(_LOW_RANK_SUFFIX_B):
        cpath = path[: -len(_LOW_RANK_SUFFIX_B)] + _LOW_RANK_SUFFIX_C
        if not os.path.exists(cpath):
            raise OSError(f"{cpath}: missing dense factor of the low-rank pair")
        b = _read_mm(path)
        c = load_dense(cpath)
        try:
            return SpdOperator.from_low_rank(b, c)
        except ValueError as exc:
            raise OSError(f"{path}: {exc}") from exc
    m = _read_mm(path)
    try:
        if isinstance(m, np.ndarray):
            return SpdOperator.from_dense(m)
        return SpdOperator.from_csr(m)
    except ValueError as exc:
        raise OSError(f"{path}: {exc}") from exc


def store_matrix(op, path):
    """Write an operator to Matrix Market files; returns the written paths.

    `path` is a base name, from which a trailing ``.B.mtx``, ``.C.mtx``
    or ``.mtx`` is stripped whatever the operator.  Dense operators are
    written to ``<base>.mtx`` in array format and CSR ones in coordinate
    format; "slr" operators as the ``<base>.B.mtx`` / ``<base>.C.mtx`` pair.
    """
    from scipy.io import mmwrite
    path = os.fspath(path)
    for suffix in (_LOW_RANK_SUFFIX_B, _LOW_RANK_SUFFIX_C, ".mtx"):
        if path.endswith(suffix):
            path = path[: -len(suffix)]
            break
    parts = [(".mtx", op._b)] if op._c is None else [
        (_LOW_RANK_SUFFIX_B, op._b), (_LOW_RANK_SUFFIX_C, op._c)]
    for suffix, block in parts:
        mmwrite(path + suffix, block, precision=17)
    return tuple(path + suffix for suffix, _ in parts)
