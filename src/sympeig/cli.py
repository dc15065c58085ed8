"""Command-line front end: instance generation, solving, the dense
reference oracle, validity checks, and benchmark sweeps.

Every output file embeds the resolved configuration and the instance
descriptor (with the seed of a generated instance) so runs can be
audited and reproduced.  Exit codes: 0 success, 1 solver did not
converge, 2 usage error, 3 I/O error, 4 numerical failure.
"""

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import NumericalFailure
from .factor import reference
from .metrics import feasibility, golub_werman
from .operators import DENSE_MAX_DIM, load_dense, load_matrix, store_matrix
from .solver import SolverParams, SolveStatus, beta_best, beta_suggest, solve, solve_basic
from .testgen import FAMILIES, GeneratorSpec

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# the first match wins: LinAlgError is a ValueError
EXIT_BY_ERROR = (
    (OSError, EXIT_IO),
    (NumericalFailure, EXIT_NUMERICAL),
    (np.linalg.LinAlgError, EXIT_NUMERICAL),
    (ValueError, EXIT_USAGE),
)
EXIT_BY_STATUS = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.MAX_ITERATIONS: EXIT_NO_CONVERGENCE,
    SolveStatus.NUMERICAL_FAILURE: EXIT_NUMERICAL,
}

OUT_ENV_VAR = "SYMPEIG_OUT"

TRACE_COLUMNS = ("k", "i", "f", "gnorm", "gamma", "t", "beta", "window_max", "capped")
STAGE_COLUMNS = (
    "stage", "beta", "eps", "reached", "inner_iters", "refused", "residue",
    "sigma_ratio", "elapsed", "reason",
)
BENCH_COLUMNS = (
    "family", "n", "p", "seed", "beta_label", "beta", "variant", "status",
    "outer_iters", "inner_iters", "time_s", "residue", "gw_err", "feasibility",
)


def _out_dir(args):
    out = args.out or os.environ.get(OUT_ENV_VAR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _jsonable(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return _jsonable(value.tolist())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _json(value, indent=None):
    """The JSON text of every CLI output: numpy values as Python ones,
    non-finite floats as null, keys sorted."""
    return json.dumps(_jsonable(value), indent=indent, sort_keys=True)


def _write_json(path, value):
    with open(path, "w") as fh:
        fh.write(_json(value, indent=2))


def _cell(value):
    # floats of any width print as the shortest repr of the double
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, meta, columns, rows):
    """A '# {json}' line with `meta`, a header, then one line per row
    (a sequence of cells in `columns` order)."""
    with open(path, "w") as fh:
        fh.write("# " + _json(meta) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _list_of(cast):
    """argparse type of a comma-separated list of `cast` values; empty
    items are skipped and a malformed one is a usage error."""
    def parse(text):
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    parse.__name__ = f"{cast.__name__} list"
    return parse


def _add_source_args(sp, need_matrix=True):
    """Instance flags; without `need_matrix` there is no --matrix and the
    generator flags --family and --n are required."""
    if need_matrix:
        sp.add_argument("--matrix", help="path to a Matrix Market file (.B.mtx for slr pairs)")
    sp.add_argument("--family", choices=FAMILIES, required=not need_matrix,
                    help="generator family of the instance")
    sp.add_argument("--n", type=int, required=not need_matrix,
                    help="half-dimension of a generated instance")
    sp.add_argument("--density", type=float,
                    help="sparsity of sparse/slr (default min(1, 10/n))")
    sp.add_argument("--rank-width", type=int, help="low-rank width m of slr (default 10)")
    sp.add_argument("--spectrum", type=_list_of(float),
                    help="comma-separated prescribed eigenvalues (default 1..n)")
    sp.add_argument("--seed", type=int, help="generator seed (default 0)")


def _generate(args):
    """Build the instance the generator flags describe; returns
    (op, descriptor, exact_reference_or_None)."""
    if args.rank_width is not None and args.family != "slr":
        raise ValueError(f"rank-width does not apply to the {args.family} family")
    spec = GeneratorSpec(
        family=args.family, n=args.n, density=args.density,
        m=GeneratorSpec.m if args.rank_width is None else args.rank_width,
        seed=0 if args.seed is None else args.seed, spectrum=args.spectrum,
    )
    op, ref = spec.make()
    return op, {"source": "generated", **spec.describe()}, ref


def _resolve_source(args):
    """Returns (op, descriptor, exact_reference_or_None)."""
    if args.matrix:
        for name in ("family", "n", "density", "rank_width", "spectrum", "seed"):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} selects a generated instance and cannot go with --matrix")
        return load_matrix(args.matrix), {"source": "file", "path": args.matrix}, None
    if args.family is None or args.n is None:
        raise ValueError("pass either --matrix or --family with --n")
    return _generate(args)


def _build_params(args):
    mapping = {}
    if args.config:
        try:
            with open(args.config) as fh:
                mapping = json.load(fh)
        except ValueError as exc:
            raise OSError(f"{args.config}: not valid JSON ({exc})") from exc
        if not isinstance(mapping, dict):
            raise ValueError(f"{args.config}: config must be a flat JSON object")
    if args.tol is not None:
        mapping["tol"] = args.tol
    return SolverParams.from_dict(mapping)


def _resolve_beta(label, op, p, ref):
    """Map a beta spec ('auto', 'sug', '2sug', 'best', '1.001dp', or a
    float literal) to a value; 'auto' returns None (solver heuristic)."""
    suggested = beta_suggest(op, p)  # checks p, whatever the label
    if label is None or label == "auto":
        return None
    if label.endswith("sug"):
        return float(label[:-3] or 1.0) * suggested
    if label in ("best", "1.001dp"):
        if ref is None:
            raise ValueError(f"beta label {label!r} needs the dense oracle reference")
        d_p = float(ref.d[p - 1])
        return beta_best(d_p) if label == "best" else 1.001 * d_p
    return float(label)


def _gradient_test_met(result):
    # whether the last stage stopped on its gradient test (not on k_max)
    return bool(result.trace.outer) and result.trace.outer[-1].reached


def _result_payload(result, meta):
    return {
        **meta,
        "status": result.status.value,
        "message": result.message,
        "gradient_test_met": _gradient_test_met(result),
        "eigenvalues": result.eigenvalues,
        "beta_final": result.beta_final,
        "residue": result.residue,
        "feasibility": result.feasibility,
        "inner_iterations": result.inner_iterations,
        "outer_iterations": result.outer_iterations,
        "refused_exits": sum(st.refused for st in result.trace.outer),
        "elapsed_s": result.elapsed,
    }


def _run_variant(op, p, params, variant, beta_value):
    """Run one solver variant at `beta_value`, else at `params.beta0`,
    else at the variant's default; an explicit `beta_value` is kept as
    beta0."""
    if beta_value is not None:
        params.beta0 = beta_value
    return (solve if variant == "enhanced" else solve_basic)(op, p, params)


def cmd_gen(args):
    out = _out_dir(args)
    op, descriptor, ref = _generate(args)
    base = os.path.join(out, f"{args.family}_n{args.n}_seed{descriptor['seed']}")
    paths = store_matrix(op, base + ".mtx")
    sidecar = {"version": __version__, **descriptor, "files": list(paths)}
    if ref is not None:
        sidecar["spectrum"] = ref.d
    _write_json(base + ".json", sidecar)
    for path in paths + (base + ".json",):
        print(path)
    return EXIT_OK


def cmd_solve(args):
    out = _out_dir(args)
    op, descriptor, ref = _resolve_source(args)
    beta_value = _resolve_beta(args.beta, op, args.p, ref)
    params = _build_params(args)
    result = _run_variant(op, args.p, params, args.variant, beta_value)
    meta = {
        "version": __version__,
        "matrix": descriptor,
        "p": args.p,
        "variant": args.variant,
        "params": vars(params).copy(),
    }
    result_path = os.path.join(out, "result.json")
    _write_json(result_path, _result_payload(result, meta))
    _write_csv(os.path.join(out, "trace.csv"), meta, TRACE_COLUMNS,
               ((r.k, r.stage, r.f, r.gnorm, r.gamma, r.t, r.beta, r.window_max,
                 int(r.capped)) for r in result.trace.inner))
    # a stage that met tol has no restart, so no rank margin
    _write_csv(os.path.join(out, "stages.csv"), meta, STAGE_COLUMNS,
               ((st.stage, st.beta, st.eps, int(st.reached), st.inner_iters, st.refused,
                 st.residue, "" if st.sigma_ratio is None else st.sigma_ratio, st.elapsed,
                 st.reason) for st in result.trace.outer))
    if args.save_basis and result.eigenbasis is not None:
        from scipy.io import mmwrite
        mmwrite(os.path.join(out, "basis.mtx"), result.eigenbasis, precision=17)
    print(result_path)
    note = ""
    if result.status is SolveStatus.MAX_ITERATIONS and _gradient_test_met(result):
        note = f" (gradient test met, residue above tol={params.tol:g})"
    print(f"status={result.status.value} residue={result.residue:g}{note}")
    return EXIT_BY_STATUS[result.status]


def cmd_oracle(args):
    out = _out_dir(args)
    op, descriptor, _ = _resolve_source(args)
    ref = reference(op)
    xref = ref.frame(args.p)  # checks 1 <= p <= n before anything is written
    payload = {
        "version": __version__,
        "matrix": descriptor,
        "p": args.p,
        "n": op.n,
        "d": ref.d,
        "d_smallest": ref.d[: args.p],
    }
    oracle_path = os.path.join(out, "oracle.json")
    _write_json(oracle_path, payload)
    xref_path = os.path.join(out, "xref.mtx")
    from scipy.io import mmwrite
    mmwrite(xref_path, xref, precision=17)
    print(oracle_path)
    print(xref_path)
    return EXIT_OK


def cmd_check(args):
    if not (np.isfinite(args.feas_tol) and args.feas_tol >= 0):
        raise ValueError(f"--feas-tol must be finite and non-negative, got {args.feas_tol}")
    op = load_matrix(args.matrix)
    findings = {
        "matrix": args.matrix,
        "n": op.n,
        "kind": op.kind,
        "symmetric": op.is_symmetric(),
        "spd": op.is_spd(),
    }
    if args.basis:
        x = load_dense(args.basis)
        if x.shape[0] != 2 * op.n or x.shape[1] % 2 or not x.shape[1]:
            raise ValueError(f"{args.basis}: basis has shape {x.shape}, need {2 * op.n} x 2p")
        feas = feasibility(x)
        findings["basis_feasibility"] = feas
        findings["symplectic"] = bool(feas <= args.feas_tol)
    print(_json(findings, indent=2))
    passed = findings["symmetric"] and findings["spd"] and findings.get("symplectic", True)
    return EXIT_OK if passed else EXIT_NUMERICAL


def _bench_cell(op, ref, cell, tol):
    family, n, p, seed, beta_label, variant = cell
    params = SolverParams(tol=tol)
    row = dict.fromkeys(BENCH_COLUMNS, "")
    row.update(family=family, n=n, p=p, seed=seed, beta_label=beta_label, variant=variant)
    try:
        beta_value = _resolve_beta(beta_label, op, p, ref)
        result = _run_variant(op, p, params, variant, beta_value)
        row.update(
            beta=result.beta_final,
            status=result.status.value,
            outer_iters=result.outer_iterations,
            inner_iters=result.inner_iterations,
            time_s=result.elapsed,
            residue=result.residue,
            feasibility=result.feasibility,
        )
        if ref is not None and result.eigenbasis is not None:
            row["gw_err"] = golub_werman(result.eigenbasis, ref.frame(p))
    except Exception as exc:  # per-row failure; the sweep continues
        row["status"] = f"error:{type(exc).__name__}"
    return row


def cmd_bench(args):
    for flag in ("families", "n_list", "p_list", "seeds", "betas", "variants"):
        if not getattr(args, flag):
            raise ValueError(f"--{flag.replace('_', '-')} lists no value")
    out = _out_dir(args)
    SolverParams(tol=args.tol).validate()
    for variant in args.variants:
        if variant not in ("basic", "enhanced"):
            raise ValueError(f"unknown variant {variant!r}")
    specs = [GeneratorSpec(family, n, seed=seed).validate() for family, n, seed
             in itertools.product(args.families, args.n_list, args.seeds)]

    instances = {}
    for spec in specs:
        op, ref = spec.make()
        if ref is None and 2 * spec.n <= DENSE_MAX_DIM and args.with_oracle:
            ref = reference(op)
        # every p and beta label passes `beta_suggest` and the solver's check before any run
        for label, p in itertools.product(args.betas, args.p_list):
            SolverParams(beta0=_resolve_beta(label, op, p, ref)).validate()
        instances[(spec.family, spec.n, spec.seed)] = (op, ref)

    # cells in row order: (family, n, p, seed, beta_label, variant)
    cells = sorted(itertools.product(args.families, args.n_list, args.p_list,
                                     args.seeds, args.betas, args.variants))
    rows = [_bench_cell(*instances[(c[0], c[1], c[3])], c, args.tol) for c in cells]
    meta = {
        "version": __version__, "families": args.families, "n_list": args.n_list,
        "p_list": args.p_list, "seeds": args.seeds, "betas": args.betas,
        "variants": args.variants, "tol": args.tol,
    }
    bench_path = os.path.join(out, "bench.csv")
    _write_csv(bench_path, meta, BENCH_COLUMNS,
               ([row[c] for c in BENCH_COLUMNS] for row in rows))
    print(bench_path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sympeig",
        description="Smallest symplectic eigenvalues of SPD matrices "
        "by trace-penalty minimization.",
    )
    parser.add_argument("--version", action="version", version=f"sympeig {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("gen", help="generate a test instance and write it out")
    _add_source_args(sp, need_matrix=False)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("solve", help="compute the p smallest symplectic eigenvalues")
    _add_source_args(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument(
        "--beta", default="auto",
        help="'auto', 'sug', '<mult>sug', a number, or 'best' / '1.001dp' "
        "(multiples of d_p; need the exact spectrum of --family prescribed)",
    )
    sp.add_argument("--tol", type=float, help="final residual target")
    sp.add_argument("--variant", choices=("basic", "enhanced"), default="enhanced")
    sp.add_argument("--config", help="JSON file with solver parameter overrides")
    sp.add_argument("--save-basis", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="dense reference spectrum (desk scale)")
    _add_source_args(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("check", help="validate SPD / symmetry / symplecticity")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--basis", help="optional basis file to test for symplecticity")
    sp.add_argument("--feas-tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("bench", help="sweep (family, n, p, seed, beta, variant) cells")
    sp.add_argument("--families", type=_list_of(str), default="dense")
    sp.add_argument("--n-list", type=_list_of(int), default="50")
    sp.add_argument("--p-list", type=_list_of(int), default="5")
    sp.add_argument("--seeds", type=_list_of(int), default="0,1,2")
    sp.add_argument("--betas", type=_list_of(str), default="sug")
    sp.add_argument("--variants", type=_list_of(str), default="enhanced")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--with-oracle", action="store_true",
                    help="attach the dense oracle (subspace errors, d_p betas)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_BY_ERROR) as exc:
        print(_json({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return next(code for kind, code in EXIT_BY_ERROR if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
