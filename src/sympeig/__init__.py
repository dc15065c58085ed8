"""Matrix-free computation of the smallest symplectic eigenvalues and
eigenvectors of symmetric positive definite matrices.

The solver minimizes a trace objective with a quadratic penalty that
steers iterates onto the symplectic Stiefel manifold, using a restarted
Barzilai-Borwein gradient descent with a nonmonotone line search.  A
symplectic Rayleigh-Ritz projection extracts eigenvalue estimates from
each stage and seeds the next restart.
"""

from .errors import NumericalFailure, RankDeficientError
from .factor import (
    SsvdFactors,
    WilliamsonForm,
    random_orthosymplectic,
    restart_point,
    srr,
    ssvd,
    williamson_small,
)
from .flops import FlopCounter, add_flops, count_flops
from .metrics import MetricsReport, feasibility, golub_werman, report, residue
from .operators import (
    SpdOperator,
    canonical_frame,
    j_left,
    j_right,
    load_matrix,
    poisson,
    store_matrix,
    symplectic_gram,
)
from .oracle import ReferenceSpectrum, random_symplectic_frame, reference
from .penalty import (
    PenaltyEval,
    construct_stationary_point,
    evaluate,
    grad,
    hess_quadform,
    objective,
)
from .solver import (
    SolverParams,
    SolveStatus,
    SolveTrace,
    SympEigResult,
    beta_best,
    beta_suggest,
    solve,
    solve_basic,
)
from .stepper import LineSearchResult, bb_step, clamp_randomize, gll_search
from .testgen import (
    FAMILIES,
    GeneratorSpec,
    gen_dense,
    gen_prescribed,
    gen_slr,
    gen_sparse,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "FlopCounter",
    "GeneratorSpec",
    "LineSearchResult",
    "MetricsReport",
    "NumericalFailure",
    "PenaltyEval",
    "RankDeficientError",
    "ReferenceSpectrum",
    "SolveStatus",
    "SolveTrace",
    "SolverParams",
    "SpdOperator",
    "SsvdFactors",
    "SympEigResult",
    "WilliamsonForm",
    "add_flops",
    "bb_step",
    "beta_best",
    "beta_suggest",
    "canonical_frame",
    "clamp_randomize",
    "construct_stationary_point",
    "count_flops",
    "evaluate",
    "feasibility",
    "gen_dense",
    "gen_prescribed",
    "gen_slr",
    "gen_sparse",
    "gll_search",
    "golub_werman",
    "grad",
    "hess_quadform",
    "j_left",
    "j_right",
    "load_matrix",
    "objective",
    "poisson",
    "random_orthosymplectic",
    "random_symplectic_frame",
    "reference",
    "report",
    "residue",
    "restart_point",
    "solve",
    "solve_basic",
    "srr",
    "ssvd",
    "store_matrix",
    "symplectic_gram",
    "williamson_small",
]
