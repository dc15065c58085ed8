"""Seeded SPD test instances.

`GeneratorSpec` is the one constructor of four families: dense and
sparse CSR with extreme eigenvalues (1, n), sparse-plus-low-rank
B + C C^T, and dense with a prescribed symplectic spectrum (exact
reference by construction).  The dense family's extremes come from a
dense `eigvalsh`, the sparse ones' from one Lanczos run on B at every
size (`SpdOperator.extreme_eigvals`, to about 1e-14 of the spread).  All
draws come from ``numpy.random.default_rng(seed)`` consumed in a fixed
order, so every family is bit-reproducible per seed at a fixed BLAS
thread count.  The Lanczos run takes no BLAS reduction, so sparse and
slr instances came out the same with one and two OpenBLAS threads up to
n = 20000 as well.  The dense family needs numpy alone; the sparse
families import scipy for CSR storage, the prescribed one for `expm`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_number
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
    """Declarative description of one generated instance.

    - dense: A = c N N^T + s I for N (2n x 2n) with entries uniform on
      [-1, 1], the affine map chosen from the extreme eigenvalues of N N^T
      (a dense `eigvalsh`) so that A's are (1, n).
    - sparse: a random pattern of density sigma/2 with entries uniform on
      [-1, 1] is symmetrized and mapped affinely onto the extremes (1, n),
      the identity shift making it positive definite and filling the
      diagonal; CSR with both triangles stored.  The extremes come from
      one Lanczos run at every size, never densifying, so A's extremes
      are (1, n) to about 1e-14 of the spread.  A density that draws
      no entry raises ValueError.
    - slr: A = B + C C^T, B drawn as the sparse family, C (2n x m) with
      entries uniform on [-1, 1] rescaled so the largest eigenvalue of
      C C^T is exactly n; the operator keeps the factored form.
    - prescribed: a random symplectic S = exp(J_n H) (H symmetric, scaled
      so ||J_n H||_2 <= 2) gives A = S^(-T) diag(d, d) S^(-1), returned
      with its exact reference (d ascending, S with columns permuted to
      match).

    `density` and `spectrum` stay None for a family that does not read
    them (`m` always has its default).
    """

    family: str
    n: int
    density: float = None  # sparse families; defaults to min(1, 10/n)
    m: int = 10            # low-rank width (slr)
    seed: int = 0
    spectrum: list = None  # prescribed family; defaults to 1..n

    def validate(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, pick from {FAMILIES}")
        for name in ("n", "m", "seed"):
            check_number(name, getattr(self, name), integer=True)
        for name in ("density", "spectrum"):
            if getattr(self, name) is not None and name not in _FAMILY_FIELDS[self.family]:
                raise ValueError(f"{name} does not apply to the {self.family} family")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.density is not None:
            check_number("density", self.density)
            if not 0 < self.density <= 1:
                raise ValueError(f"density must be in (0, 1], got {self.density!r}")
        if self.m < 1:
            raise ValueError(f"low-rank width must be >= 1, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.spectrum is not None:
            # object dtype, so a ragged or non-numeric entry reaches check_number
            d = np.asarray(self.spectrum, dtype=object)
            if d.shape != (self.n,):
                raise ValueError(f"spectrum needs {self.n} values, got {d.size} ({d.ndim}-D)")
            for value in d:
                check_number("spectrum", value)
            if min(d) <= 0:
                raise ValueError("spectrum must be positive")
        return self

    def make(self):
        """Instantiate; returns (op, reference-or-None), the reference a
        `WilliamsonForm` for the prescribed family."""
        self.validate()
        n = self.n
        rng = np.random.default_rng(self.seed)
        if self.family == "dense":
            return _dense(n, rng), None
        if self.family == "prescribed":
            d = np.arange(1.0, n + 1.0) if self.spectrum is None else self.spectrum
            return _prescribed(np.asarray(d, dtype=float), rng)
        sigma = min(1.0, 10.0 / n) if self.density is None else self.density
        b = _sparse_core(n, sigma, rng)
        if self.family == "sparse":
            return SpdOperator.from_csr(b), None
        c = rng.uniform(-1.0, 1.0, size=(2 * n, self.m))
        c *= np.sqrt(n) / np.linalg.norm(c, 2)
        return SpdOperator.from_low_rank(b, c), None

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


def _dense(n, rng):
    nmat = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    a = nmat @ nmat.T  # exactly symmetric as numpy forms it
    w = np.linalg.eigvalsh(a)
    c, s = _affine_coeffs(w[0], w[-1], n)
    a *= c
    a[np.diag_indices_from(a)] += s
    return SpdOperator.from_dense(a)


def _sparse_core(n, sigma, rng):
    from scipy import sparse
    raw = sparse.random(
        2 * n, 2 * n, density=sigma / 2.0, format="csr", rng=rng,
        data_rvs=lambda size: rng.uniform(-1.0, 1.0, size),
    )
    if not raw.nnz:
        raise ValueError(f"density {sigma!r} draws no entries at n = {n}; raise the density")
    sym = ((raw + raw.T) * 0.5).tocsr()
    wmin, wmax = SpdOperator.from_csr(sym).extreme_eigvals()
    c, s = _affine_coeffs(wmin, wmax, n)
    return (sym * c + sparse.identity(2 * n, format="csr") * s).tocsr()


def _prescribed(d, rng):
    import scipy.linalg
    n = d.size
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
