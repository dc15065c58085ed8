"""Matrix-free computation of the smallest symplectic eigenvalues and
eigenvectors of symmetric positive definite matrices.

The solver minimizes a trace objective with a quadratic penalty that
steers iterates onto the symplectic Stiefel manifold, using restarted
BB-scaled L-BFGS descent with a nonmonotone line search.  A
symplectic Rayleigh-Ritz projection extracts eigenvalue estimates from
each stage and seeds the next restart.

The package namespace holds what a caller of the solver needs; the
kernels (penalty evaluation, line search, factorizations, ...) are
imported from their modules.
"""

from .errors import NumericalFailure
from .factor import reference
from .flops import count_flops
from .metrics import feasibility, golub_werman, residue
from .operators import SpdOperator, load_matrix, poisson, store_matrix, symplectic_gram
from .solver import SolverParams, SolveStatus, SympEigResult, beta_suggest, solve, solve_basic
from .testgen import FAMILIES, GeneratorSpec

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "NumericalFailure",
    "SolveStatus",
    "SolverParams",
    "SpdOperator",
    "SympEigResult",
    "beta_suggest",
    "count_flops",
    "feasibility",
    "golub_werman",
    "load_matrix",
    "poisson",
    "reference",
    "residue",
    "solve",
    "solve_basic",
    "store_matrix",
    "symplectic_gram",
]
