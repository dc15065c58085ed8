"""The pinned grid's traces against committed hashes.

A refactor of the solvers must leave their iterates bit-identical on the
pinned grid with one BLAS thread.  Each cell generates one instance at
p = 10 and seed 0, runs `solve` at the default settings and `solve_basic`
at eps0 = 1e-5 and k_max = 500 (where it stops at its step budget), and
hashes each result.  The hashes hold for one numpy and OpenBLAS build on
one OpenBLAS core, which together key them.  A change that moves the
iterates re-pins them: run this file as a script,

    PYTHONPATH=src python tests/test_trace_hashes.py

and paste the printed entry into `PINNED`.
"""

import ast
import ctypes
import glob
import hashlib
import pathlib

import numpy as np
import pytest

from conftest import run_with_blas_threads
from sympeig import GeneratorSpec, SolverParams, solve, solve_basic

CELLS = (("dense", 200), ("sparse", 800), ("slr", 800))
P = 10
SEED = 0
BASIC = {"eps0": 1e-5, "k_max": 500}

# the fields hashed per row: all of `InnerStep`'s, and `OuterStage`'s but its
# wall time and `reason`, which the pinned values predate and which the
# hashed fields determine
INNER_FIELDS = ("k", "stage", "f", "gnorm", "gamma", "t", "beta", "window_max", "capped")
OUTER_FIELDS = ("stage", "beta", "eps", "theta", "reached", "inner_iters", "refused",
                "residue", "sigma_ratio")

PINNED = {
    ("2.4.6", "0.3.31.188.0", "SkylakeX"): {
        "dense-200 solve":
            "4ae863f655b828d47f773e0f1edd3abff8921f1c6384b52d862d173c7df6689d",
        "dense-200 solve_basic":
            "c0037baaad6eea64a1fcb38d8f0a1f8fb8802b53d63defc45152f5dcb541c417",
        "sparse-800 solve":
            "98e827846b0e04a0d5dd876597e3458f296de1919c897ccfee9363cfaa35c9ae",
        "sparse-800 solve_basic":
            "d7403eb2eed90617e72b9111380ddb96cc7e7bb391a832835766ba975f7c876d",
        "slr-800 solve":
            "325229edd63bc9854390db89c37c659eb82b42999e2e84c831f50794a9c7bd44",
        "slr-800 solve_basic":
            "54bea088543170d4a8998e726e8c2afa6ab725325e248d2220e1bcdea77c7fe5",
    },
}


def environment_key():
    """(numpy version, OpenBLAS version, OpenBLAS core) of numpy's BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    core = "unknown"
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            core = fn().decode()
    return (np.__version__, blas.get("version", "unknown"), core)


def _plain(value):
    # a form whose repr is exact and does not depend on the scalar's type
    if value is None or isinstance(value, np.ndarray):
        return value if value is None else value.tobytes()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def result_hash(res):
    """sha256 of a result's trace rows, eigenpairs, last iterate and status."""
    h = hashlib.sha256()
    for rows, names in ((res.trace.inner, INNER_FIELDS), (res.trace.outer, OUTER_FIELDS)):
        for row in rows:
            h.update(repr(tuple(_plain(getattr(row, name)) for name in names)).encode())
    for array in (res.eigenvalues, res.eigenbasis, res.x_final):
        h.update(repr(_plain(array)).encode())
    h.update(res.status.value.encode())
    return h.hexdigest()


def cell_hashes():
    """{cell: hash} for every cell and solver, in `PINNED`'s form."""
    hashes = {}
    for family, n in CELLS:
        op, _ = GeneratorSpec(family, n, seed=SEED).make()
        hashes[f"{family}-{n} solve"] = result_hash(solve(op, P))
        basic = solve_basic(op, P, SolverParams(**BASIC))
        hashes[f"{family}-{n} solve_basic"] = result_hash(basic)
    return hashes


_RUN = "from test_trace_hashes import cell_hashes\nprint(repr(cell_hashes()))\n"


def _hashes_with_one_thread():
    return ast.literal_eval(run_with_blas_threads(_RUN, threads=1))


def test_pinned_grid_traces_are_unchanged():
    key = environment_key()
    if key not in PINNED:
        pytest.skip(f"no hashes pinned for numpy, OpenBLAS, core = {key}")
    found = _hashes_with_one_thread()
    moved = [cell for cell, pinned in PINNED[key].items() if found.get(cell) != pinned]
    assert not moved, f"iterates moved in cells {moved} under {key}"


if __name__ == "__main__":
    key = ", ".join(f'"{part}"' for part in environment_key())
    print(f"    ({key}): {{")
    for cell, digest in _hashes_with_one_thread().items():
        print(f'        "{cell}":\n            "{digest}",')
    print("    },")
