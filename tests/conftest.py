"""Shared test helpers: independent dense oracles for the Poisson
kernels, generated instances, construction of the same matrix in every
storage kind, random symplectic frames and stationary points of the
penalty, its second-order form along a direction, the benchmark's
tracing module, and a Python run in a subprocess with a set BLAS
thread count."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import scipy.linalg
from scipy import sparse

from sympeig import GeneratorSpec, SpdOperator
from sympeig.operators import j_left
from sympeig.penalty import ray, violation

KINDS = ("dense", "csr", "slr")

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """`perfbench/tracing.py`, which is not a package module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_with_blas_threads(script, threads=1):
    """stdout of `script` run by this interpreter in a subprocess with
    `threads` BLAS threads (threading changes rounding, so pinned runs
    use one) and `src/` and `tests/` importable."""
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    threads = str(threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300).stdout


def instance(family, n, **fields):
    """The operator of the instance `GeneratorSpec(family, n, **fields)` builds."""
    return GeneratorSpec(family, n, **fields).make()[0]


def dense_j(k):
    # independent J_k, assembled blockwise (oracle for the kernels)
    z = np.zeros((k, k))
    eye = np.eye(k)
    return np.block([[z, eye], [-eye, z]])


def random_spd(rng, dim, cond=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = np.linspace(1.0, cond, dim)
    return (q * w) @ q.T


def make_operator(kind, a):
    """Wrap a dense symmetric array as the requested operator kind.

    The "slr" wrapping splits a = (a - c c^T) + c c^T with a small
    fixed factor c, so all kinds represent the same matrix up to
    round-off.
    """
    a = np.asarray(a, dtype=float)
    if kind == "dense":
        return SpdOperator.from_dense(a)
    if kind == "csr":
        return SpdOperator.from_csr(sparse.csr_array(a))
    dim = a.shape[0]
    rng = np.random.default_rng(dim)
    c = rng.standard_normal((dim, 3)) / np.sqrt(dim)
    b = sparse.csr_array(a - c @ c.T)
    return SpdOperator.from_low_rank(b, c)


def construct_stationary_point(shat, dhat, p, t, beta):
    """Assemble a first-order stationary point of f_beta from symplectic
    eigenpairs.

    Parameters
    ----------
    shat : ndarray, shape (2n, 2q)
        Symplectic eigenvector pairs, Shat^T A Shat = diag(dhat, dhat).
    dhat : array_like, length q
        Their symplectic eigenvalues, each < beta.
    p : int
        Column pair count of the output (q <= p; missing pairs are
        zero-padded).
    t : ndarray or None
        Optional 2p-by-2p orthosymplectic right factor.
    beta : float

    Returns
    -------
    ndarray, shape (2n, 2p)
        [Shat_1 W, 0, Shat_2 W, 0] T^T with W = (I - diag(dhat)/beta)^(1/2).
    """
    shat = np.asarray(shat, dtype=float)
    dhat = np.atleast_1d(np.asarray(dhat, dtype=float))
    q = dhat.size
    if shat.ndim != 2 or shat.shape[1] != 2 * q:
        raise ValueError(f"eigenpair block has shape {shat.shape}, need 2n x {2 * q}")
    if q > p:
        raise ValueError(f"got q={q} eigenpairs for p={p} output pairs")
    if dhat.min() <= 0:
        raise ValueError("symplectic eigenvalues must be positive")
    if beta <= dhat.max():
        raise ValueError(
            f"beta={beta} must exceed every prescribed eigenvalue (max {dhat.max()})"
        )
    w = np.sqrt(1.0 - dhat / beta)
    x = np.zeros((shat.shape[0], 2 * p))
    x[:, :q] = shat[:, :q] * w
    x[:, p : p + q] = shat[:, q:] * w
    if t is None:
        return x
    t = np.asarray(t, dtype=float)
    if t.shape != (2 * p, 2 * p):
        raise ValueError(f"right factor must be {2 * p} x {2 * p}, got {t.shape}")
    return x @ t.T


def random_orthosymplectic(p, rng):
    """Random 2p x 2p matrix in the intersection of O(2p) and Sp(2p).

    Built from a Haar-distributed p x p unitary U = A + iB as
    [[A, B], [-B, A]].
    """
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return np.block([[q.real, q.imag], [-q.imag, q.real]])


def random_symplectic_frame(n, p, rng):
    """Random frame in Sp(2p, 2n): exp(J_n H) applied to the canonical
    frame, with H random symmetric scaled so ||J_n H||_2 <= 2."""
    h = rng.standard_normal((2 * n, 2 * n))
    h = 0.5 * (h + h.T)
    jh = j_left(h)
    jh *= rng.uniform(0.0, 2.0) / np.linalg.norm(jh, 2)
    s = scipy.linalg.expm(jh)
    return s[:, np.r_[0:p, n : n + p]]


def hess_quadform(op, x, y, beta):
    """Second directional derivative of f_beta at X along Y: 2 c2 of
    :func:`sympeig.penalty.ray` along Y,

        tr(Y^T A Y) + (beta/2) ||Y^T J_n X + X^T J_n Y||_F^2
        + beta <X^T J_n X - J_p, Y^T J_n Y> .
    """
    if beta <= 0:
        raise ValueError(f"penalty weight must be positive, got {beta}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"direction shape {y.shape} does not match X {x.shape}")
    return 2.0 * ray(x, violation(x), y, op.apply(y), beta, 0.0).coeffs[1]
