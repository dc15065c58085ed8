"""Seeded SPD test-matrix generators.

Four families: dense (random Gram matrix, spectrum affinely rescaled to
extremes (1, n)), sparse CSR (symmetrized random sparsity, same
extremes), sparse-plus-low-rank B + C C^T, and dense instances with a
prescribed symplectic spectrum (exact reference by construction).

All draws come from ``numpy.random.default_rng(seed)`` consumed in a
fixed order, so every family is bit-reproducible per seed within this
implementation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse

from .factor import WilliamsonForm
from .operators import SpdOperator, j_left

FAMILIES = ("dense", "sparse", "slr", "prescribed")

# the GeneratorSpec fields each family reads beyond n and seed
_FAMILY_FIELDS = {
    "dense": (),
    "sparse": ("density",),
    "slr": ("density", "m"),
    "prescribed": ("spectrum",),
}


@dataclass
class GeneratorSpec:
    """Declarative description of one generated instance."""

    family: str
    n: int
    density: float = None  # sparse families; defaults to min(1, 10/n)
    m: int = 10            # low-rank width (slr)
    seed: int = 0
    spectrum: list = None  # prescribed family; defaults to 1..n

    def validate(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, pick from {FAMILIES}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.density is not None and not 0 < self.density <= 1:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")
        if self.m < 1:
            raise ValueError(f"low-rank width must be >= 1, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        return self

    def make(self):
        """Instantiate; returns (op, reference-or-None)."""
        self.validate()
        if self.family == "dense":
            return gen_dense(self.n, seed=self.seed), None
        if self.family == "sparse":
            return gen_sparse(self.n, density=self.density, seed=self.seed), None
        if self.family == "slr":
            op = gen_slr(self.n, density=self.density, m=self.m, seed=self.seed)
            return op, None
        return gen_prescribed(self.n, spectrum=self.spectrum, seed=self.seed)

    def describe(self):
        """The family, n, seed and the fields that family reads."""
        record = {"family": self.family, "n": self.n, "seed": self.seed}
        for name in _FAMILY_FIELDS[self.family]:
            record[name] = getattr(self, name)
        return record


def _affine_coeffs(wmin, wmax, n):
    # map [wmin, wmax] onto [1, n]
    spread = wmax - wmin
    if spread <= 1e-12 * max(1.0, abs(wmax)):
        raise ValueError("degenerate spectrum: extreme eigenvalues coincide")
    c = (n - 1.0) / spread
    return c, 1.0 - c * wmin


def gen_dense(n, seed=0):
    """Random dense SPD instance with extreme eigenvalues exactly (1, n).

    A = c N N^T + s I for N with entries uniform on [-1, 1], the affine
    map chosen from the exact extreme eigenvalues.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    nmat = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    a = nmat @ nmat.T
    a = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(a)
    c, s = _affine_coeffs(w[0], w[-1], n)
    a *= c
    a[np.diag_indices_from(a)] += s
    return SpdOperator.from_dense(a)


def _sparse_core(n, density, rng):
    sigma = min(1.0, 10.0 / n) if density is None else density
    if not 0 < sigma <= 1:
        raise ValueError(f"density must lie in (0, 1], got {sigma}")
    raw = sparse.random(
        2 * n, 2 * n, density=sigma / 2.0, format="csr", rng=rng,
        data_rvs=lambda size: rng.uniform(-1.0, 1.0, size),
    )
    sym = ((raw + raw.T) * 0.5).tocsr()
    wmin, wmax = SpdOperator.from_csr(sym).extreme_eigvals(rng)
    c, s = _affine_coeffs(wmin, wmax, n)
    out = (sym * c + sparse.identity(2 * n, format="csr") * s).tocsr()
    return sparse.csr_array(out)


def gen_sparse(n, density=None, seed=0):
    """Random sparse SPD instance (CSR, both triangles stored) with
    extreme eigenvalues exactly (1, n).

    A random pattern of density sigma/2 (sigma defaults to min(1, 10/n)) is
    symmetrized and mapped affinely onto the target extremes; the
    identity shift makes the result positive definite and fills the
    diagonal.
    """
    rng = np.random.default_rng(seed)
    return SpdOperator.from_csr(_sparse_core(n, density, rng))


def gen_slr(n, density=None, m=10, seed=0):
    """Sparse-plus-low-rank instance A = B + C C^T.

    B follows :func:`gen_sparse`; C has entries uniform on [-1, 1]
    rescaled so the largest eigenvalue of C C^T is exactly n.  The
    operator keeps the factored form.
    """
    if m < 1:
        raise ValueError(f"low-rank width must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    b = _sparse_core(n, density, rng)
    c = rng.uniform(-1.0, 1.0, size=(2 * n, m))
    c *= np.sqrt(n) / np.linalg.norm(c, 2)
    return SpdOperator.from_low_rank(b, c)


def gen_prescribed(n, spectrum=None, seed=0):
    """Dense instance with an exactly known symplectic spectrum.

    Draws a random symplectic S = exp(J_n H) (H symmetric, scaled so
    ||J_n H||_2 <= 2) and returns A = S^(-T) diag(d, d) S^(-1) together
    with the exact reference (d ascending, S with columns permuted to
    match).

    Returns
    -------
    (SpdOperator, WilliamsonForm)
    """
    d = (
        np.arange(1.0, n + 1.0)
        if spectrum is None
        else np.asarray(spectrum, dtype=float)
    )
    if d.size != n:
        raise ValueError(f"spectrum needs {n} values, got {d.size}")
    if d.min() <= 0:
        raise ValueError("prescribed eigenvalues must be positive")
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    h = 0.5 * (h + h.T)
    jh = j_left(h)
    jh *= rng.uniform(0.5, 2.0) / np.linalg.norm(jh, 2)
    s = scipy.linalg.expm(jh)
    order = np.argsort(d, kind="stable")
    s = s[:, np.r_[order, n + order]]
    d = d[order]
    doubled = np.diag(np.concatenate([d, d]))
    half = scipy.linalg.solve(s.T, doubled)
    a = scipy.linalg.solve(s.T, half.T)
    a = 0.5 * (a + a.T)
    return SpdOperator.from_dense(a), WilliamsonForm(s=s, d=d)
