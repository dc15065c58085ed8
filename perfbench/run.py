"""Time-to-solution benchmark of sympeig.solve.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-n200-p10 --seed 0 --seconds 10 --trace 0

One process runs one workload as a closed loop with a single client:
each ``sympeig.solve(op, p)`` starts after the previous one returned.
The solver runs with the default ``SolverParams`` (tol 1e-8, solver
seed 0).  Instances come from the public generators, seeded from
``--seed``.  The loop makes whole passes over the instances until
``--seconds`` have passed; in the first pass a helper process checks each
instance against the dense oracle after its solve.  Every solve goes
through the correctness gate (see ``gate``).

``--trace 0`` prints the end-to-end metrics, measured with tracing
off.  ``--trace 1`` solves every instance untraced and then traced, and
prints the per-layer metrics from the traced solves, the
tracing overhead, and cross-checks of the trace against the solver's
own counts.  The last stdout line is one JSON object; the lines before
it list every metric with its unit and the run's environment, and
``.bench_out/`` receives the details and, for traced runs, the spans.
"""

import os
import sys

# The BLAS thread count is fixed before numpy loads, because results
# depend on it (dense n=200 seed 0: 984 inner steps with one thread, 1019
# with two).  One thread fits any machine; on a 2-vCPU Xeon VM a second
# thread sped dense solves up (0.55 s -> 0.40 s) and slowed sparse n=5000
# ones (3.9 -> 5.8 ms per step).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

FEASIBILITY_TOL = 1e-10
EIG_REL_TOL = 1e-6  # acceptance criterion 01's eigenvalue bound
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    p: int
    instances: int         # per untraced run
    traced_instances: int  # per traced run, a prefix of the same seeds


# Why these two: see BENCHMARK.json.  Instance difficulty varies about
# 2x within a family, so the medians are steady across seeds only over
# many instances, each of which the dense oracle must check.  The slr
# counts spread only 3% over 40 instances, but its oracle takes ~0.9 s
# per instance (a run of 40 took 56-90 s on a 2-vCPU Xeon VM), so it
# checks 30 to keep all runs of a benchmark check within their budget.
WORKLOADS = {
    "dense-n200-p10": Workload("dense", 200, 10, 40, 8),
    "slr-n400-p10": Workload("slr", 400, 10, 30, 8),
}


@dataclass
class Instance:
    spec: object  # sympeig.GeneratorSpec
    op: object
    fingerprint: str
    reproducible: bool = None
    reference: object = None  # the p smallest reference eigenvalues
    times: list = field(default_factory=list)         # untraced solve seconds
    traced_times: list = field(default_factory=list)
    applies: list = field(default_factory=list)
    eigenvalues: list = field(default_factory=list)
    inner: list = field(default_factory=list)
    flops: list = field(default_factory=list)
    layers: list = field(default_factory=list)        # one summary per traced solve
    reference_s: float = None


def median(values):
    return float(statistics.median(values))


def tail(samples):
    """Solve time at the highest nearest-rank percentile with at least
    TAIL_BEYOND samples above it; with too few samples, the maximum."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank, len(xs)


def declared_units(trace):
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    return args


# ---------------------------------------------------------------- environment

def _blas_threads(np, scipy):
    """Thread count reported by each OpenBLAS bundled with numpy/scipy."""
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "sympeig").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(np, scipy),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ------------------------------------------------------------------- instances

def fingerprint(np, op):
    """Hash of the operator's data through its action on a fixed probe
    block (the public API exposes no raw arrays at every size)."""
    probe = np.random.default_rng(20240531).standard_normal((2 * op.n, 4))
    digest = hashlib.sha256(f"{op.kind}:{op.n}:{op.nnz}".encode())
    digest.update(np.float64(op.trace()).tobytes())
    digest.update(np.ascontiguousarray(op.apply(probe)).tobytes())
    return digest.hexdigest()[:16]


def make_instances(sympeig, np, wl, seed, count):
    instances, gen_s = [], []
    for i in range(count):
        spec = sympeig.GeneratorSpec(wl.family, wl.n, seed=1000 * seed + i)
        t0 = time.perf_counter()
        op, _ = spec.make()
        gen_s.append(time.perf_counter() - t0)
        instances.append(Instance(spec, op, fingerprint(np, op)))
    return instances, gen_s


class Oracle:
    """Reference spectra computed in a helper process (``oracle.py``).

    The dense oracle needs several 2n x 2n arrays, so running it here
    would set this process's peak RSS.  It is called between solves,
    never during one, which spreads the timed solves over the run.  The
    helper also regenerates each instance from its seed, so comparing
    fingerprints tells whether the seed reproduces it in another process.
    The helper is a plain child process; leaving the ``with`` block
    closes its input and waits until it has exited.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("oracle.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            if pickle.load(self._proc.stdout) != "ready":
                raise RuntimeError("oracle helper did not start")
        except BaseException:
            self._stop()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop()

    def _stop(self):
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def _call(self, request):
        pickle.dump(request, self._proc.stdin)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def check(self, inst, p, failures):
        twin_print, d, seconds, error = self._call((inst.spec, inst.op))
        if error:
            failures.append(f"seed {inst.spec.seed}: oracle: {error}")
            return
        inst.reproducible = twin_print == inst.fingerprint
        inst.reference = d[:p]
        inst.reference_s = seconds


# ------------------------------------------------------------------------ gate

def gate(sympeig, np, op, res, p, tol):
    """Problems with one solve's answer; empty when it passes.  Residue
    and feasibility are recomputed here from the returned basis."""
    if res.status is not sympeig.SolveStatus.CONVERGED:
        return [f"status {res.status.name}"]
    d, s = res.eigenvalues, res.eigenbasis
    if d is None or s is None or d.shape != (p,) or s.shape != (2 * op.n, 2 * p):
        return ["missing or misshapen eigenpairs"]
    if not (np.all(np.isfinite(d)) and np.all(d > 0) and np.all(np.diff(d) >= 0)):
        return ["eigenvalues not positive, finite and ascending"]
    problems = []
    resid = sympeig.residue(op, s, d)
    if not resid <= tol:
        problems.append(f"residue {resid:.3e} > {tol:g}")
    feas = float(np.linalg.norm(sympeig.symplectic_gram(s) - sympeig.poisson(p)))
    if not feas <= FEASIBILITY_TOL:
        problems.append(f"feasibility {feas:.3e} > {FEASIBILITY_TOL:g}")
    return problems


def check_consistency(np, instances, failures, consistency):
    """Eigenvalues against the reference; repeats of an instance must agree."""
    for inst in instances:
        seed = inst.spec.seed
        if inst.reference is not None:
            for d in inst.eigenvalues:
                err = float(np.max(np.abs(d - inst.reference) / inst.reference))
                if not err <= EIG_REL_TOL:
                    failures.append(f"seed {seed}: eigenvalue rel err {err:.2e}")
        for name, seq in (("applies", inst.applies), ("flops", inst.flops),
                          ("inner steps", inst.inner),
                          ("eigenvalues", [d.tobytes() for d in inst.eigenvalues])):
            if len(set(seq)) > 1:
                consistency.append(f"seed {seed}: {name} differ between repeats")


# ------------------------------------------------------------------------ loop

def run(args):
    import numpy as np
    import scipy

    import sympeig
    import tracing

    wl = WORKLOADS[args.workload]
    tol = sympeig.SolverParams().tol
    env = environment(np, scipy)
    tracer = tracing.Tracer() if args.trace else None
    failures, consistency = [], []
    attempted = 0

    def one_solve(inst, traced):
        nonlocal attempted
        attempted += 1
        if traced:
            proxy = tracing.TracedOperator(inst.op, tracer)
            first = len(tracer.name_id)
            counts0 = (tracer.apply_cols, tracer.backtracks, tracer.capped)
            solve = tracer.span(tracing.SOLVE, sympeig.solve)
        else:
            proxy = tracing.CountingOperator(inst.op)
        try:
            if traced:
                with tracing.installed(tracer), sympeig.count_flops() as fc:
                    t0 = time.perf_counter()
                    res = solve(proxy, wl.p)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                res = sympeig.solve(proxy, wl.p)
                dt = time.perf_counter() - t0
            problems = gate(sympeig, np, inst.op, res, wl.p, tol)
        except Exception as exc:  # a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"seed {inst.spec.seed}: " + "; ".join(problems))
            return
        inst.eigenvalues.append(res.eigenvalues)
        inst.inner.append(res.inner_iterations)
        if not traced:
            inst.times.append(dt)
            inst.applies.append(proxy.applies)
            return
        layers = tracer.summarize(first, len(tracer.name_id))
        layers["apply_cols"] = tracer.apply_cols - counts0[0]
        layers["backtracks"] = tracer.backtracks - counts0[1]
        layers["capped"] = tracer.capped - counts0[2]
        layers["inner"] = res.inner_iterations
        layers["outer"] = res.outer_iterations
        inst.traced_times.append(dt)
        inst.flops.append(fc.count)
        inst.layers.append(layers)
        srr = layers["factor.srr"]
        for what, got, want in (
            ("gll_search calls vs inner_iterations",
             layers["stepper.gll_search"]["calls"], res.inner_iterations),
            ("srr calls - failed vs outer_iterations",
             srr["calls"] - srr["failed"], res.outer_iterations),
            ("traced applies vs untraced applies",
             proxy.applies, inst.applies[-1] if inst.applies else proxy.applies),
        ):
            if got != want:
                consistency.append(f"seed {inst.spec.seed}: {what}: {got} != {want}")

    with Oracle() as oracle:
        # warm-up on a small instance of the family: first BLAS/LAPACK
        # calls and lazy imports are not part of any timed solve
        small, _ = sympeig.GeneratorSpec(wl.family, 4 * wl.p, seed=0).make()
        sympeig.solve(small, wl.p)

        count = wl.traced_instances if args.trace else wl.instances
        instances, gen_s = make_instances(sympeig, np, wl, args.seed, count)

        # Whole passes over the instances until --seconds have passed.  No
        # instance is solved twice in a row, so none starts with its data
        # still in cache: a traced run makes each pass untraced, then
        # traced.  The oracle checks each instance after its first solve.
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() < start + args.seconds:
            for inst in instances:
                one_solve(inst, traced=False)
                if passes == 0:
                    oracle.check(inst, wl.p, failures)
            if tracer is not None:
                for inst in instances:
                    one_solve(inst, traced=True)
            passes += 1
        measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_consistency(np, instances, failures, consistency)

    solved = [inst for inst in instances if inst.times]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "loop": "closed, 1 client, no thread pool; oracle in a helper process between solves",
        "passes": passes,
        "measured_s": measured_s,
        "solver_params": "SolverParams() defaults",
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "consistency": consistency,
        "instances": [
            {"seed": inst.spec.seed, "fingerprint": inst.fingerprint,
             "reproducible": inst.reproducible, "solves": len(inst.times),
             "applies": inst.applies[:1], "inner_steps": inst.inner[:1],
             "flops": inst.flops[:1], "median_s": median(inst.times) if inst.times else None,
             "reference_s": inst.reference_s}
            for inst in instances
        ],
    }
    metrics = {}
    if solved:
        if args.trace and any(inst.layers for inst in solved):
            lowrank_width = sympeig.GeneratorSpec(wl.family, wl.n).m
            metrics = layer_metrics(wl, lowrank_width, instances, gen_s)
        elif not args.trace:
            samples = [t for inst in solved for t in inst.times]
            tail_s, pct, beyond, count = tail(samples)
            details["solve_s_tail"] = {"percentile": pct, "samples_beyond": beyond,
                                       "samples": count}
            metrics = {
                "solve_s": median(samples),
                "solve_s_tail": tail_s,
                "applies_per_solve": median([inst.applies[0] for inst in solved]),
                "setup_s": median(gen_s),
                "peak_rss_mb": peak_rss_mb,
            }
    units = declared_units(args.trace)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not"
                           " declared in BENCHMARK.json, or not measured")
    correct = bool(solved) and not failures and not consistency
    report(details, metrics, units)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.csv")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_metrics(wl, lowrank_width, instances, gen_s):
    """Per-layer figures: medians over the traced solves, with untraced
    solves of the same instances as the base for rates and overhead."""
    solved = [inst for inst in instances if inst.layers and inst.times]
    traced = [(inst, layers) for inst in solved for layers in inst.layers]
    op = solved[0].op

    def med(fn):
        return median([fn(inst, layers) for inst, layers in traced])

    def layer(name, key="s"):
        return med(lambda inst, lay: lay[name][key])

    # per column, multiply-adds counted once as sympeig.flops does; bytes
    # are the matrix read once plus the operand and result blocks, with
    # 4-byte CSR indices, and ignore cache reuse
    rows = 2 * wl.n
    lowrank = rows * lowrank_width if wl.family == "slr" else 0  # entries of C
    flops_col = op.nnz + lowrank
    if wl.family == "dense":
        matrix_bytes = 8 * op.nnz
    else:
        matrix_bytes = 12 * (op.nnz - lowrank) + 4 * (rows + 1) + 16 * lowrank

    def apply_flops(lay):
        return flops_col * lay["apply_cols"]

    def apply_bytes(lay):
        return matrix_bytes * lay["operators.apply"]["calls"] + 16 * rows * lay["apply_cols"]

    untraced = {id(inst): median(inst.times) for inst in solved}
    traced_med = {id(inst): median(inst.traced_times) for inst in solved}
    base = median(list(untraced.values()))
    overhead = median([traced_med[k] - untraced[k] for k in untraced])
    return {
        "operators.apply.calls": layer("operators.apply", "calls"),
        "operators.apply.cols": med(lambda inst, lay: lay["apply_cols"]),
        "operators.apply.s": layer("operators.apply"),
        "operators.apply.wall_frac": med(
            lambda inst, lay: lay["operators.apply"]["s"] / lay["solver.solve"]["s"]),
        "operators.apply.flops_computed": med(lambda inst, lay: apply_flops(lay)),
        "operators.apply.bytes_computed": med(lambda inst, lay: apply_bytes(lay)),
        "operators.apply.gflops": med(
            lambda inst, lay: apply_flops(lay) / lay["operators.apply"]["s"] / 1e9),
        "operators.symplectic_gram.s": layer("operators.symplectic_gram"),
        "operators.j_left.s": layer("operators.j_left"),
        "penalty.evaluate.calls": layer("penalty.evaluate", "calls"),
        "penalty.evaluate.self_s": layer("penalty.evaluate", "self_s"),
        "penalty.ensure_gradient.s": layer("penalty.ensure_gradient"),
        "stepper.gll_search.self_s": layer("stepper.gll_search", "self_s"),
        "stepper.trials_per_step": med(
            lambda inst, lay: lay["penalty.evaluate"]["trials"] / lay["inner"]),
        "stepper.backtracks": med(lambda inst, lay: lay["backtracks"]),
        "stepper.capped": med(lambda inst, lay: lay["capped"]),
        "stepper.bb_step.s": layer("stepper.bb_step"),
        "factor.srr.calls": layer("factor.srr", "calls"),
        "factor.srr.s": layer("factor.srr"),
        "factor.srr.failed": layer("factor.srr", "failed"),
        "factor.ssvd.s": layer("factor.ssvd"),
        "factor.williamson_small.s": layer("factor.williamson_small"),
        "metrics.residue.calls": layer("metrics.residue", "calls"),
        "metrics.residue.s": layer("metrics.residue"),
        "solver.solve.self_s": layer("solver.solve", "self_s"),
        "solver.inner_steps": med(lambda inst, lay: lay["inner"]),
        "solver.outer_stages": med(lambda inst, lay: lay["outer"]),
        "solver.step_ms": median([1e3 * untraced[id(inst)] / inst.inner[0]
                                  for inst in solved]),
        "flops.per_solve": med(lambda inst, lay: inst.flops[0]),
        "flops.gflops": median([inst.flops[0] / untraced[id(inst)] / 1e9
                                for inst in solved]),
        "testgen.gen.s": median(gen_s),
        "oracle.reference.s": median([inst.reference_s for inst in solved]),
        "trace.untraced_solve_s": base,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / base,
    }


def report(details, metrics, units):
    env = details["environment"]
    print(f"# sympeig benchmark: workload {details['workload']} seed {details['seed']}"
          f" trace {details['trace']} ({details['loop']})")
    print(f"# nproc {env['nproc']} (allowed {env['cpus_allowed']}), {env['blas']},"
          f" BLAS threads {env['blas_threads_set']} {env['blas_threads']},"
          f" python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']},"
          f" commit {env['commit']}, src sha256 {env['source_sha256'][:16]}")
    for inst in details["instances"]:
        print(f"# instance seed {inst['seed']}: fingerprint {inst['fingerprint']}"
              f" reproducible {inst['reproducible']} solves {inst['solves']}"
              f" applies {inst['applies']} flops {inst['flops']}")
    if "solve_s_tail" in details:
        t = details["solve_s_tail"]
        print(f"# solve_s_tail is the p{t['percentile']:.1f} of {t['samples']} solves,"
              f" {t['samples_beyond']} beyond it")
    print(f"fail_frac {details['fail_frac']:.6g} ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for line in details["failures"] + details["consistency"]:
        print(f"# FAIL {line}")


def _terminated(signum, frame):
    # unwind, so the oracle helper is stopped and waited for
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminated)
    if not (SRC / "sympeig" / "__init__.py").is_file():
        print(f"perfbench: no sympeig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
